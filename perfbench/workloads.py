"""Workload inputs, derived from the seed.

Pure Python with no third-party import, so the runner can use it without
paying for numpy.  Seed 0 gives the reference configs exactly; any other
seed perturbs one input inside the range named in RANGES, chosen so that
the amount of work stays the same and the workload's oracles still hold.
"""

from __future__ import annotations

import math
import random

NAMES = ("ladder", "diagnose_osc", "certify", "diagnose_moll")

# What a non-zero seed may change, per workload.
RANGES = {
    # The boundary data is rotated by k * 60 degrees, a symmetry of the
    # hexagonal disk mesh: the problem is the same up to rounding, so the
    # recorded energies and the iteration counts hold for every seed.
    "ladder": {"rotation_sixths": [0, 5]},
    # y-extent of the rectangle; the oscillation runs along x, so the
    # fzbar tail is sqrt(height / 8).
    "diagnose_osc": {"height": [0.9, 1.1]},
    # conjugate-linear coefficient b of the affine map z + b conj(z).
    "certify": {"b": [0.2, 0.4]},
    # exponent of the mollified radial stretch z |z|^(alpha - 1).
    "diagnose_moll": {"alpha": [1.8, 2.2]},
}

# Criterion-08 refinement ladder: (disk level, iteration cap).
LADDER_LEVELS = ((3, 20000), (4, 60000))
LADDER_SIN2 = 0.3
# Final energies at seed 0; every rotation reproduces them to ~1e-14.
LADDER_ENERGY_REFS = (25.809475642848255, 25.776824822226658)


def _draw(name: str, seed: int) -> float:
    lo, hi = next(iter(RANGES[name].values()))
    rng = random.Random(f"{name}:{seed}")
    if isinstance(lo, int):
        return rng.randint(lo, hi)
    return rng.uniform(lo, hi)


def ladder_inputs(seed: int) -> dict:
    """Functional, boundary and solver settings of the ladder."""
    boundary = {"kind": "circle_diffeo", "sin_coeffs": [0.0, LADDER_SIN2]}
    rotation = _draw("ladder", seed) if seed else 0
    if rotation:
        # theta + a sin(2 (theta - t)), with t = rotation * pi / 3
        angle = 2.0 * rotation * math.pi / 3.0
        boundary = {"kind": "circle_diffeo",
                    "sin_coeffs": [0.0, LADDER_SIN2 * math.cos(angle)],
                    "cos_coeffs": [0.0, -LADDER_SIN2 * math.sin(angle)]}
    return {
        "functional": {"family": "trunc_exp", "p": 1.0, "N": 8},
        "boundary": boundary,
        "levels": [list(level) for level in LADDER_LEVELS],
        "gradient_tolerance": 1e-9,
        "rotation_sixths": rotation,
    }


def diagnose_osc_config(seed: int) -> dict:
    height = _draw("diagnose_osc", seed) if seed else 1.0
    return {
        "command": "diagnose",
        "domain": {"kind": "rect", "nx": 64, "ny": 64, "lo": [0.0, 0.0], "hi": [1.0, height]},
        "recipe": {"kind": "oscillation", "params": {}, "j_max": 64},
        "functional": {"family": "lp_mean", "p": 2.0},
        "diagnostic": {"p_RR": 2.0, "s": 0.01, "r_list": {"fzbar": 2.0}},
        "seed": seed,
    }


def certify_config(seed: int) -> dict:
    b = _draw("certify", seed) if seed else 0.3
    return {
        "command": "hopf",
        "domain": {"kind": "disk", "level": 7},
        "hopf": {"formula": "affine", "args": [[1.0, 0.0], [b, 0.0]],
                 "p": 1.0, "N": 8, "inverse": True},
        "seed": seed,
    }


def diagnose_moll_config(seed: int) -> dict:
    alpha = _draw("diagnose_moll", seed) if seed else 2.0
    return {
        "command": "diagnose",
        "domain": {"kind": "disk", "level": 5},
        "recipe": {"kind": "mollified",
                   "params": {"target": "radial_stretch", "alpha": alpha}, "j_max": 64},
        "functional": {"family": "lp_mean", "p": 2.0},
        "diagnostic": {"p_RR": 2.0, "s": 0.01,
                       "r_list": {"df": 1.5, "jac": 0.5, "mu": 1.0}},
        "seed": seed,
    }


def inputs(name: str, seed: int) -> dict:
    """The workload's input document for this seed."""
    return {
        "ladder": ladder_inputs,
        "diagnose_osc": diagnose_osc_config,
        "certify": certify_config,
        "diagnose_moll": diagnose_moll_config,
    }[name](seed)
