"""Spectral solver for the Laplace eigenbasis of the Sasaki-Einstein
Y^{p,q} spaces and the Klein-Gordon mode-sum propagator on
AdS5 x Y^{p,q}."""

from .angular import AngularMode, angular_eigenvalue, angular_gram, angular_mode
from .ads import (ModeIndex, Sector, SpectralCoefficients, ads_gram,
                  ads_omegas, ads_operator_residual, c_beta, project_cauchy,
                  s3_harmonic, synthesize)
from .cache import SOLVER_VERSION, CacheKey, cache_get_or_solve
from .config import RunConfig, load_config, parse_config
from .geometry import (GeometryParams, ProfileValues, eval_profiles,
                       solve_geometry)
from .propagator import (CauchyData, FieldSample, KGPropagator, Projection,
                         SourceTerm, TruncationSpec, TruncationWarning)
from .radial import (RadialMode, RadialProblem, assemble_galerkin,
                     char_exponents, radial_problem, solve_radial)
from .shooting import shooting_matcher, shooting_oracle, shooting_spectrum
from .specfun import (QuadratureRule, assoc_legendre, gauss_jacobi,
                      jacobi_norm_integral, jacobi_poly_all)
from .spectrum import (TruncationPolicy, YEigenmode, YModeIndex, YPoint,
                       basis_gram, build_eigenmode, build_modes,
                       enumerate_modes, eval_u, laplacian_residual,
                       sector_gram)

__version__ = "0.1.0"
