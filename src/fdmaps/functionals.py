"""Distortion energy families, one integrand kernel, and numeric oracles.

Families, with k = x^2/y (x a norm of Df, y the Jacobian):
  lp_mean -> k^p,  exp_p -> exp(p k),  trunc_exp -> sum_{n<=N} (p k)^n / n!,
  dirichlet -> k with one more power of y, i.e. x^2;
times y^jac_exp, which covers the inverse-problem integrands.

`integrand(spec, P, Q)`, with P = |f_z|^2, Q = |f_zbar|^2 and J = P - Q, is
the one kernel: energies, the descent, the convergence diagnostics and the
Ahlfors-Hopf factors call it for Phi or (Phi, dPhi/dP, dPhi/dQ); `phi_eval`
is its (x, y) entry for the convexity probes.  One rule holds for J <= 0:
Phi = inf (Dirichlet with jac_exp = 0, which ignores J, excepted), a
sentinel rather than an error, since minimising sequences may approach
J = 0 and comparisons must stay total.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .config import Section, integer, real, setting
from .errors import ConfigurationError, DomainError
from .fields import DerivedField, norm_squared, squared_moduli

FAMILIES = ("lp_mean", "exp_p", "trunc_exp", "dirichlet")


def default_s(p: float) -> float:
    """Condition-4 exponent: s in (0, 1 - 1/p), kept small."""
    if p > 1.0:
        return min(0.01, 0.5 * (1.0 - 1.0 / p))
    return 0.01


@dataclass(frozen=True)
class FunctionalSpec(Section, section="functional"):
    family: str = setting(str, "lp_mean")
    p: float = setting(real, 1.0)
    trunc_n: int = setting(integer, 0, key="N")   # truncation order for trunc_exp
    norm: str = setting(str, "hs")                # "hs" | "op"
    jac_exp: float = setting(real, 0.0)           # integrand multiplied by y^jac_exp
    weight: str = setting(str, "none")            # "none" | "hyperbolic"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        if not self.p > 0:
            raise ConfigurationError("p must be positive")
        if self.trunc_n < 0:
            raise ConfigurationError("truncation order must be >= 0")
        if self.norm not in ("hs", "op"):
            raise ConfigurationError(f"unknown norm choice {self.norm!r}")
        if not self.jac_exp >= 0:
            raise ConfigurationError("jac_exp must be >= 0")
        if self.weight not in ("none", "hyperbolic"):
            raise ConfigurationError(f"unknown weight {self.weight!r}")

    @property
    def s_value(self) -> float:
        """The family's condition-4 exponent s of the Phi * y^s convexity probe:
        default_s(p), or 0 for Dirichlet."""
        if self.family == "dirichlet":
            # the admissible range (0, 1 - 1/p) is empty at the quadratic
            # family's effective p = 1, so its weighted probe degenerates
            return 0.0
        return default_s(self.p)

    def with_(self, **kw) -> "FunctionalSpec":
        return replace(self, **kw)


def _partial_sums(pk: np.ndarray, n_max: int):
    """Yield the partial sums S_0, ..., S_{n_max} of exp at pk, term-wise
    (term = term * pk / n, S_n = S_{n-1} + term), from one running sum.

    Two buffers alternate, so a yielded sum stays valid until the one after
    next is yielded: the last two of the pass are S_{n_max} and S_{n_max-1}.
    """
    if n_max < 0:
        return
    total, spare, term = np.ones_like(pk), np.empty_like(pk), np.ones_like(pk)
    yield total
    for n in range(1, n_max + 1):
        term *= pk
        term /= n
        np.add(total, term, out=spare)
        total, spare = spare, total
        yield total


def truncated_exp(pk: np.ndarray, n_max: int):
    """(S_N, S_{N-1}) for N = n_max: partial sums of exp evaluated term-wise
    in one pass (monotone in N for pk >= 0); the empty sum S_{-1} is 0."""
    pk = np.asarray(pk, dtype=float)
    last = prev = np.zeros_like(pk)
    for total in _partial_sums(pk, n_max):
        prev, last = last, total
    return last, prev


def _family(spec: FunctionalSpec, k: np.ndarray, derivative: bool = False):
    """The family formula F(k), and F'(k) when asked (else None)."""
    p = spec.p
    if spec.family == "lp_mean":
        return k ** p, (p * k ** (p - 1.0) if derivative else None)
    if spec.family == "exp_p":
        F = np.exp(p * k)
        return F, (p * F if derivative else None)
    if spec.family == "trunc_exp":  # S_N' = S_{N-1}, and S_{-1} = 0
        F, F_prev = truncated_exp(p * k, spec.trunc_n)
        return F, (p * F_prev if derivative else None)
    return k, (np.ones_like(k) if derivative else None)  # dirichlet


def _phi(spec: FunctionalSpec, x2, y, derivatives: bool = False):
    """Phi = F(x^2/y) y^t, or (Phi, dPhi/dx^2, dPhi/dy), with t = jac_exp (+1
    for Dirichlet): the one J <= 0 rule.

    Where y <= 0, Phi is inf and its partials nan, except for Dirichlet with
    jac_exp = 0, which is x^2 everywhere.  No masking when every y > 0.
    """
    if spec.family == "dirichlet" and spec.jac_exp == 0.0:
        return (x2, np.ones_like(x2), np.zeros_like(x2)) if derivatives else x2
    bad = y <= 0
    any_bad = bool(np.any(bad))
    if any_bad:  # evaluate at a harmless (1, 1), overwritten below
        x2, y = np.where(bad, 1.0, x2), np.where(bad, 1.0, y)
    t = spec.jac_exp + (spec.family == "dirichlet")
    k = x2 / y
    with np.errstate(over="ignore"):
        F, Fk = _family(spec, k, derivatives)
        out = [F * y ** t if t != 0.0 else F]
        if derivatives:
            y_t1 = y ** (t - 1.0)
            out += [Fk * y_t1, (t * F - k * Fk) * y_t1]
    if any_bad:
        out = [np.where(bad, fill, a) for fill, a in zip((np.inf, np.nan, np.nan), out)]
    return tuple(out) if derivatives else out[0]


def integrand(spec: FunctionalSpec, P, Q, derivatives: bool = False):
    """Phi at P = |f_z|^2, Q = |f_zbar|^2 (J = P - Q), or (Phi, dPhi/dP, dPhi/dQ).

    Derivatives are computed only when asked: the energies need Phi alone,
    the gradient all three.
    """
    y = P - Q
    if not derivatives:
        return _phi(spec, norm_squared(spec.norm, P, Q), y)
    x2, x2_P, x2_Q = norm_squared(spec.norm, P, Q, derivatives=True)
    phi, phi_x2, phi_y = _phi(spec, x2, y, derivatives=True)
    return phi, phi_x2 * x2_P + phi_y, phi_x2 * x2_Q - phi_y


def phi_eval(spec: FunctionalSpec, x, y):
    """Evaluate the family at (x, y); scalar or array, inf where y <= 0."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = _phi(spec, np.atleast_1d(x) ** 2, np.atleast_1d(y))
    return float(out[0]) if x.ndim == 0 else out


def df_norm(derived: DerivedField, norm: str) -> np.ndarray:
    """Pointwise norm of Df, Hilbert-Schmidt or operator, from the fz and
    fzbar arrays of a derived field (or of any sample carrying both)."""
    return np.sqrt(norm_squared(norm, *squared_moduli(derived.fz, derived.fzbar)))


def hyperbolic_density(points) -> np.ndarray:
    """Poincare metric density 1/(1-|z|^2)^2; every point must satisfy |z| < 1."""
    r2 = np.abs(points) ** 2
    if np.any(r2 >= 1.0):
        raise DomainError("hyperbolic weight requires points inside the unit disk")
    return 1.0 / (1.0 - r2) ** 2


def weight_values(spec: FunctionalSpec, points: np.ndarray) -> np.ndarray:
    if spec.weight == "none":
        return np.ones(np.shape(points), dtype=float)
    return hyperbolic_density(points)


def quadrature_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """Sum of values * weights; inf as soon as one term is inf.  A finite sum
    has no inf term, so only a sum that is not finite looks for one."""
    contrib = values * weights
    total = np.sum(contrib)
    if not np.isfinite(total) and np.any(np.isinf(contrib)):
        return np.inf
    return float(total)


def energy(spec: FunctionalSpec, derived: DerivedField,
           eta: Optional[np.ndarray] = None) -> float:
    """Centroid-quadrature energy sum; exact for the per-element-constant
    integrands.  `eta`, the weight at the centroids, spares a caller that
    sums many fields on one mesh the centroids of each."""
    if eta is None:
        eta = weight_values(spec, derived.mesh.centroids())
    vals = integrand(spec, *squared_moduli(derived.fz, derived.fzbar))
    return quadrature_sum(vals, eta * derived.areas)


def inverse_energy(spec: FunctionalSpec, derived: DerivedField) -> float:
    """Inverse-problem energy computed by pull-back, without inverting.

    The inverse h at w = f(z) has |h_w| = |f_z|/J and |h_wbar| = |f_zbar|/J,
    so its integrand is the kernel at (P/J^2, Q/J^2), with Jacobian 1/J; it
    is weighed by the forward Jacobian (the change-of-variables factor) and
    summed with forward areas.  With jac_exp = 1 this reproduces the
    forward jac_exp = 0 energy exactly for affine maps (the
    change-of-variables identity).
    """
    P, Q = squared_moduli(derived.fz, derived.fzbar)
    jac = P - Q
    if np.any(jac <= 0):
        worst = int(np.argmin(jac))
        raise DomainError(
            f"inverse undefined: triangle {worst} has J = {jac[worst]:.3e} <= 0")
    vals = integrand(spec, P / jac ** 2, Q / jac ** 2)
    # the weight lives on the inverse problem's domain, the image
    eta = weight_values(spec, derived.f_centroid)
    return quadrature_sum(vals, eta * jac * derived.areas)


def polyconvex_lower_bound(x, y, x0, y0):
    """Supporting-plane inequality of the polyconvex kernel x^2/y at (x0, y0):
    (lhs, rhs, lhs >= rhs), elementwise for arrays."""
    x, y, x0, y0 = (np.asarray(a, dtype=float) for a in (x, y, x0, y0))
    if np.any(y <= 0) or np.any(y0 <= 0):
        raise DomainError("y and y0 must be positive")
    lhs = x ** 2 / y - x0 ** 2 / y0
    rhs = (2.0 * x0 / y0) * (x - x0) - (x0 ** 2 / y0 ** 2) * (y - y0)
    return lhs, rhs, lhs >= rhs - 1e-12


@dataclass(frozen=True)
class ProbeReport:
    """A randomized probe's count of checks and of the checks it failed: an
    `oracle` probe entry."""
    n_samples: int
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the counter's increment, the
# odd integer nearest 2^64 / golden ratio, and the finaliser's two multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def uniform_draws(seed: int, stream: int, n: int, lo: float = 0.0,
                  hi: float = 1.0) -> np.ndarray:
    """Draws 0, ..., n-1 of `stream` under `seed`, uniform on [lo, hi): the
    probes' sample points.

    Counter-based (Salmon et al., SC 2011): draw k is SplitMix64's output
    number stream * 2^32 + k for `seed`, the finaliser applied to the
    counter seed + (stream * 2^32 + k + 1) * gamma mod 2^64, so it depends
    on (seed, stream, k) alone, and not on the numpy release.  Its top 53
    bits are scaled to [lo, hi).
    """
    z = np.arange(n, dtype=np.uint64)
    z *= _GAMMA
    z += (seed + ((stream << 32) + 1) * _GAMMA) % (1 << 64)
    for shift, mult in zip((30, 27), _MIX):
        z ^= z >> shift
        z *= mult
    z ^= z >> 31
    u = (z >> 11) * 2.0 ** -53
    # lo + (hi - lo) u may round up to hi
    return np.minimum(lo + (hi - lo) * u, np.nextafter(hi, lo))


PhiLike = Union[FunctionalSpec, Callable[[np.ndarray, np.ndarray], np.ndarray]]

# (x, y) sample boxes of the probes, and the range of the concavity probe's pairs
CONVEXITY_BOX = ((0.0, 5.0), (0.1, 5.0))
TRUNCATION_BOX = ((0.0, 3.0), (0.1, 3.0))
CONCAVITY_RANGE = (1e-3, 10.0)


def _phi_callable(phi: PhiLike):
    if isinstance(phi, FunctionalSpec):
        return lambda x, y: phi_eval(phi, x, y)
    return phi


def convexity_probe(phi: PhiLike, s: float, n_samples: int, seed: int = 0) -> ProbeReport:
    """Randomized midpoint-convexity check of phi and phi * y^s on CONVEXITY_BOX.

    At s = 0 the two coincide and phi is checked once.  The report's
    `n_samples` counts the pairs compared over the passes made: those whose
    three values are finite (a large rate overflows to inf)."""
    f = _phi_callable(phi)
    x1, y1, x2, y2 = (uniform_draws(seed, stream, n_samples, *box)
                      for stream, box in enumerate(CONVEXITY_BOX * 2))
    checked = violations = 0
    passes = (0.0, float(s)) if s != 0 else (0.0,)
    for weight_s in passes:
        def g(x, y):
            return f(x, y) * y ** weight_s
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: masked below
            v1, v2, vm = g(x1, y1), g(x2, y2), g(0.5 * (x1 + x2), 0.5 * (y1 + y2))
            scale = np.maximum(1.0, np.maximum(np.abs(v1), np.abs(v2)))
            above = vm - 0.5 * (v1 + v2) - 1e-10 * scale > 0
        finite = np.isfinite(v1) & np.isfinite(v2) & np.isfinite(vm)
        violations += int(np.sum(above & finite))
        checked += int(np.sum(finite))
    return ProbeReport(checked, violations)


def monotone_truncation_check(p: float, n_max: int, n_samples: int,
                              seed: int = 0) -> ProbeReport:
    """Condition-2 oracle: truncations are non-decreasing in N, bounded by exp,
    on TRUNCATION_BOX."""
    x, y = (uniform_draws(seed, stream, n_samples, *box)
            for stream, box in enumerate(TRUNCATION_BOX))
    pk = p * x ** 2 / y
    violations = 0
    with np.errstate(over="ignore"):  # an inf limit still bounds every sum
        limit = np.exp(pk)
    sums = _partial_sums(pk, n_max)
    prev = next(sums, None)
    for cur in sums:
        violations += int(np.sum((cur < prev - 1e-12) | (cur > limit * (1 + 1e-12))))
        prev = cur
    return ProbeReport(n_samples * n_max, violations)


def concavity_probe(s: float, p_prime: float, n_samples: int, seed: int = 0) -> ProbeReport:
    """Tangent-line bound of the concave power t -> t^(s p') over pairs in
    CONCAVITY_RANGE."""
    sp = s * p_prime
    if not (0.0 < sp < 1.0):
        raise ConfigurationError(f"need 0 < s*p' < 1, got {sp}")
    jj, jf = (uniform_draws(seed, stream, n_samples, *CONCAVITY_RANGE) for stream in (0, 1))
    lhs = jj ** sp - jf ** sp
    rhs = sp * jf ** (sp - 1.0) * (jj - jf)
    gap = lhs - rhs - 1e-12 * np.maximum(1.0, np.abs(rhs))
    return ProbeReport(n_samples, int(np.sum(gap > 0)))
