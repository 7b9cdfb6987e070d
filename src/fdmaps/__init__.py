"""Distortion-energy minimization and strong-convergence diagnostics for
planar mappings of finite distortion."""

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
from .minimize import (BoundaryData, MinimizeConfig, energy_gradient,
                       harmonic_extension, minimize_energy, prolong,
                       truncation_sweep)
from .sequences import SequenceRecipe, generate, radial_stretch_facts

__version__ = "0.1.0"
