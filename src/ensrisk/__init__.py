"""Risk-based uncertainty measures for Gaussian-ensemble regression.

The package computes total, Bayes (aleatoric), and excess (epistemic) risk
estimates under the CRPS, logarithmic, quadratic, and squared-error scoring
rules, verifies every closed form against an adaptive-quadrature oracle, and
drives the desk-scale experiment protocols (posterior shifts, synthetic
two-curve regression, selective prediction, OOD detection, active learning,
rank correlation) through the ``ensrisk`` command-line tool.
"""

__version__ = "0.1.0"

from .gaussians import (
    GaussianComponent,
    GaussianEnsemble,
    abs_moment,
    averaged_surrogate,
    moment_surrogate,
    std_normal_cdf,
    std_normal_pdf,
)
from .scores import ScoringRule, point_score
from .estimators import (
    NOT_CLOSED_FORM,
    Availability,
    ApproximationId,
    EstimatorId,
    NotClosedForm,
    PredictionSet,
    RiskKind,
    availability,
    bayes_risk,
    divergence,
    entropy,
    excess_risk,
    expected_score,
    measure_matrix,
    total_risk,
)
from .oracle import (
    McConfig,
    QuadratureConfig,
    mc_expected_score,
    oracle_entropy,
    oracle_expected_score,
)

__all__ = [
    "__version__",
    "GaussianComponent", "GaussianEnsemble",
    "abs_moment", "averaged_surrogate", "moment_surrogate",
    "std_normal_cdf", "std_normal_pdf",
    "NOT_CLOSED_FORM", "NotClosedForm", "ScoringRule",
    "divergence", "entropy", "expected_score", "point_score",
    "Availability", "ApproximationId", "EstimatorId", "RiskKind",
    "PredictionSet",
    "availability", "bayes_risk", "excess_risk", "measure_matrix", "total_risk",
    "McConfig", "QuadratureConfig",
    "mc_expected_score", "oracle_entropy", "oracle_expected_score",
]
