"""Exponential tail bounds and generating-function norms for random vectors.

The toolkit builds even convex generating functions, conjugates them
numerically, estimates the associated norms from analytic or sampled
moment generating functions, produces Chernov-type tail bounds for single
vectors and normalized sums, and certifies every bound against Monte
Carlo tail oracles.
"""

from .vectors import (DIMENSION_CAP, enumerate_sign_vectors, log_mean_exp,
                      log_mean_exp_se, sphere_directions)
from .young import (CheckResult, SupportRegion, YoungFunction,
                    check_absolutely_even, check_delta2_seminorm,
                    check_lambda2, make_bounded_support, make_custom,
                    make_logcosh, make_power, make_quadratic, make_radial)
from .conjugate import (ConjugateEvaluator, ConjugateValue,
                        biconjugate_residual, conjugate, log_reparam,
                        log_reparam_conjugate, ray_inverse)
from .empirical import (CenteredCustom, EmpiricalNaturalFunction, Gaussian,
                        RademacherScaled, SampleSet, SymmetricWeibull,
                        TailEstimate, UniformBox, analytic_natural_function,
                        empirical_variance, min_coordinate_tail,
                        natural_function, sample, sample_sum, tail_function,
                        vector_moment)
from .norms import (EquivalenceReport, NormEstimate, OrliczFunction,
                    ProbePlan, bphi_norm, equivalence_report, gls_norm_1d,
                    gls_norm_vector, luxemburg_norm, odot,
                    psi_phi_even_moments, psi_moment_vector, ray_probe_plan)
from .bounds import (LowerBoundResult, SumSpec, TailBound, TransformResult,
                     chernov_bound, lower_bound, min_coordinate_bound,
                     phi_bar, phi_bar_function, phi_n, phi_n_function,
                     sum_bound, sum_bound_via_phi_n, sum_norm_pythagoras,
                     transform_norm, uniform_sum_bound,
                     uniform_sum_bound_via_phi_bar)
from .characterize import (CONSISTENT, INCONCLUSIVE, VIOLATED, Verdict,
                           check_absolutely_monotonic, check_octant_monotonic,
                           decomposition_check, mixed_forward_difference)
from .errors import (ConfigError, DimensionCapError, ExptailError,
                     InsufficientProbesError, MissingCertificateError,
                     OutsideSupportError, ParameterError,
                     UnreachableLevelError)

__version__ = "0.1.0"
