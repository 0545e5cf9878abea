"""Risk-based uncertainty measures for Gaussian-ensemble regression.

The package computes total, Bayes (aleatoric), and excess (epistemic) risk
estimates under the CRPS, logarithmic, quadratic, and squared-error scoring
rules, verifies every closed form against an adaptive-quadrature oracle, and
drives the desk-scale experiment protocols (posterior shifts, synthetic
two-curve regression, selective prediction, OOD detection, active learning,
rank correlation) through the ``ensrisk`` command-line tool.

Every layer except ``cli`` is loaded on first use.  Importing the package
puts each of them in ``sys.modules`` and makes it a package attribute, but a
layer's body (and NumPy with it) runs only on the first attribute access of
its module.  So a command imports only the layers it runs, while anything
that looks layers up in ``sys.modules`` after ``import ensrisk`` finds all
of them (the benchmark's timing shims and the test that checks they
resolve).  ``from .x import name`` and ``import ensrisk.x`` read the
module's ``__spec__`` and so run it at once: code that must stay lazy holds
the module object and reads its attributes where it uses them.  The names
of ``__all__`` are served from their layers in the same way.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAYERS = ("gaussians", "scores", "estimators", "oracle", "dataio", "metrics",
           "synthetic", "trainer")


def _register_lazily(layer: str):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _LAYERS:
    globals()[_layer] = _register_lazily(_layer)
del _layer

# The public names, each with the layer that defines it.
_EXPORTS = {
    **dict.fromkeys(("GaussianEnsemble", "abs_moment", "averaged_surrogate",
                     "moment_surrogate", "std_normal_cdf", "std_normal_pdf"), "gaussians"),
    **dict.fromkeys(("ScoringRule", "point_score"), "scores"),
    **dict.fromkeys(("NotClosedForm", "divergence", "entropy",
                     "expected_score", "Availability", "ApproximationId",
                     "EstimatorId", "RiskKind", "PredictionSet", "availability",
                     "bayes_risk", "excess_risk", "measure_matrix", "total_risk"),
                    "estimators"),
    **dict.fromkeys(("mc_expected_score", "oracle_entropy", "oracle_expected_score"),
                    "oracle"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
