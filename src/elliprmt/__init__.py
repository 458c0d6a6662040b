"""Spectral limit theory of sample covariance matrices for elliptical data.

The package splits into three layers: inputs (discrete measures, radius
laws, spiked populations, samplers), the limit machinery (the coupled
fixed-point solver, fluctuation kernels, spike predictions), and a seeded
Monte Carlo harness that validates each prediction.
"""

from .errors import (ConfigError, ConvergenceError, DomainError, ElliprmtError,
                     PoleError, SubcriticalSpikeError)
from .measures import DiscreteMeasure, RadiusLaw, radius_law_to_h2
from .sampler import (EllipticalSample, PopulationSpec, build_population,
                      draw_sample, nonspiked_spectrum_measure,
                      quadform_moment_oracle, replicate_seed)
from .covariance import (ScmBundle, bilinear_resolvent, build_scm, gauss_rule,
                         spiked_quadform, top_eigenvalue)
from .lsd import (InvertedLaw, LsdDerivatives, LsdSolution, derivatives,
                  find_bulk_edges, outer_support_bracket, solve_lsd,
                  stieltjes_invert)
from .kernels import (ContourSpec, KernelValues, contour_moment, cov_m,
                      cov_m_diagonal, default_contour, deterministic_equivalent,
                      eigvec_stat_cov, kernels, kernels_diagonal, r_functional)
from .spikes import (GoeCovarianceProfile, SpikePrediction, goe_covariance_profile,
                     predict_spike)
from .experiments import (EXPERIMENT_KINDS, ExperimentConfig, ExperimentResult,
                          run_experiment)

__version__ = "0.1.0"
