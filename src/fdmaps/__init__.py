"""Distortion-energy minimization and strong-convergence diagnostics for
planar mappings of finite distortion."""

# numpy loads its subpackages on first attribute access, and fdmaps touches
# one: numpy.polynomial, for the quadrature of diagnose.  The probes draw
# from `functionals.uniform_draws`, not numpy.random, and no mesh build
# calls the np.unique variant that reads numpy.ma, so mesh, hopf, diagnose
# and oracle load neither.

from .convergence import (ConvergenceReport, SequenceHandle, Tolerances,
                          lr_gap, lsc_checks, orlicz_norm, radon_riesz_diagnose,
                          sobolev_norm, weak_probe)
from .errors import (ConfigurationError, DomainError, FdmapsError,
                     InitializationError, InternalError)
from .fields import (AnalyticMap, DerivedField, MappingField,
                     finite_distortion_report, sample_analytic,
                     wirtinger_derivatives)
from .functionals import (FunctionalSpec, concavity_probe, convexity_probe,
                          energy, inverse_energy, monotone_truncation_check,
                          phi_eval, polyconvex_lower_bound)
from .geometry import Mesh, build_disk_mesh, build_rect_mesh, refine_mesh
from .hopf import HopfField, ahlfors_hopf, holomorphy_residual, inverse_ahlfors_hopf
from .sequences import SequenceRecipe, generate

__version__ = "0.1.0"

# The descent is the one user of scipy; its names load it on first use, so
# every other command starts on numpy alone.
_DESCENT = ("BoundaryData", "MinimizeConfig", "energy_gradient", "harmonic_extension",
            "minimize_energy", "prolong", "truncation_sweep")


def __getattr__(name):
    if name in _DESCENT:
        from . import minimize
        return getattr(minimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_DESCENT])
