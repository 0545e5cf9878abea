"""Timing shims installed from outside the program, and the per-layer
metrics computed from the spans they record.

``install`` replaces the public functions of each ``ensrisk`` layer with
wrappers, on every module attribute that refers to them (``from .x import f``
copies included) and on the classes whose methods are measured.  Nothing
under ``src/`` is edited.  Spans are kept in memory as tuples
(name, start, end, parent, workload, command) and written out by the caller.
A layer's self time is the duration of its spans minus the time their
direct child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import Counter

# (module, attribute) -> span name.  A dotted attribute names a method.
SHIMS = {
    ("cli", "main"): "cli.main",
    ("dataio", "load_prediction_set"): "dataio.load",
    ("dataio", "save_prediction_set"): "dataio.dump",
    ("dataio", "write_csv"): "dataio.csv_write",
    ("gaussians", "abs_moment"): "gaussians.abs_moment",
    ("scores", "pairwise_abs_moment"): "scores.pairwise_abs_moment",
    ("scores", "pairwise_overlap"): "scores.pairwise_overlap",
    ("estimators", "measure_matrix"): "estimators.measure_matrix",
    ("estimators", "EnsembleBatch.__init__"): "estimators.batch_init",
    ("estimators", "EnsembleBatch.evaluate"): "estimators.evaluate",
    ("estimators", "log_quadrature_cells"): "estimators.log_quadrature_cells",
    ("synthetic", "shift_report"): "synthetic.shift_report",
    ("synthetic", "_sample_arrays"): "synthetic.sample",
    ("synthetic", "_batch_log_mixture_entropy"): "synthetic.grid_entropy",
    ("oracle", "adaptive_quadrature"): "oracle.quadrature",
    ("oracle", "oracle_entropy"): "oracle.entropy",
    ("oracle", "oracle_expected_score"): "oracle.expected_score",
    ("trainer", "train_ensemble"): "trainer.train_ensemble",
    ("trainer", "Mlp.loss_and_gradients"): "trainer.loss_grad",
    ("trainer", "_adam_step"): "trainer.adam",
    ("trainer", "_sigmoid"): "trainer.sigmoid",
    ("trainer", "predict"): "trainer.predict",
    ("trainer", "predict_arrays"): "trainer.predict_arrays",
    ("trainer", "ensemble_nll"): "trainer.ensemble_nll",
    ("trainer", "save_checkpoint"): "trainer.checkpoint",
    ("trainer", "active_learning_loop"): "trainer.active_loop",
    ("metrics", "prr"): "metrics.prr",
    ("metrics", "auroc"): "metrics.auroc",
    ("metrics", "kendall_tau_b"): "metrics.kendall_tau_b",
}

LAYERS = ("cli", "dataio", "gaussians", "scores", "estimators", "synthetic",
          "oracle", "trainer", "metrics")


class Tracer:
    """Span and counter store.  ``mode`` is "trace" (spans and counters) or
    "alloc" (tracemalloc peak around measure_matrix only, so its cost never
    lands in a timed span)."""

    def __init__(self):
        self.mode = "trace"
        self.workload = ""
        self.command = ""
        self.convergence_error = None  # the oracle's exception class
        self.reset()

    def reset(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_error = 0.0
        self.peak_alloc = 0

    def call(self, name, fn, args, kwargs):
        if self.mode == "alloc":
            if name != "estimators.measure_matrix":
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        args = _before(self, name, args)
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if isinstance(exc, self.convergence_error):
                self.counts["oracle.convergence_errors"] += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.workload, self.command)
        _after(self, name, args, result)
        return result


def _before(tr: Tracer, name: str, args: tuple) -> tuple:
    """Counters taken from the arguments; may swap in a counting integrand."""
    if name == "dataio.load":
        tr.counts["dataio.load_bytes"] += os.path.getsize(args[0])
    elif name == "dataio.csv_write":
        rows = list(args[2])
        tr.counts["dataio.csv_rows"] += len(rows)
        args = (args[0], args[1], rows, *args[3:])
    elif name in ("scores.pairwise_abs_moment", "scores.pairwise_overlap"):
        means = args[0]
        tr.counts["scores.pairwise_elems"] += means.size * means.shape[-1]
    elif name == "estimators.evaluate":
        tr.counts["estimators.cells"] += args[0].means.shape[0]
    elif name == "synthetic.grid_entropy":
        tr.counts["synthetic.grid_entropy_rows"] += args[0].shape[0]
    elif name == "oracle.quadrature":
        f = args[0]

        def counted(ts):
            tr.counts["oracle.integrand_points"] += len(ts)
            return f(ts)

        args = (counted, *args[1:])
    return args


def _after(tr: Tracer, name: str, args: tuple, result) -> None:
    if name == "dataio.csv_write":
        tr.counts["dataio.bytes_written"] += os.path.getsize(args[0])
    elif name == "estimators.log_quadrature_cells":
        tr.counts["estimators.cells"] += len(result)
    elif name == "oracle.quadrature":
        tr.max_error = max(tr.max_error, result.error)


def _shim(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def shimmed(*args, **kwargs):
        return tr.call(name, fn, args, kwargs)
    return shimmed


def install(tr: Tracer) -> list:
    """Put the shims in place; ``ensrisk`` must already be importable.

    Returns the (owner, attribute, original) triples that ``restore`` puts
    back, so untraced passes run the program exactly as shipped."""
    import ensrisk.cli  # noqa: F401  (imports every layer)
    from ensrisk.gaussians import GaussianEnsemble
    from ensrisk.oracle import ConvergenceError

    patches = []

    def patch(owner, key, value):
        patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    pkg = {name: mod for name, mod in sys.modules.items()
           if name == "ensrisk" or name.startswith("ensrisk.")}
    for (layer, attr), span in SHIMS.items():
        mod = pkg[f"ensrisk.{layer}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            patch(cls, meth, _shim(tr, span, getattr(cls, meth)))
            continue
        original = getattr(mod, attr)
        shim = _shim(tr, span, original)
        for other in pkg.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    patch(other, key, shim)

    tr.convergence_error = ConvergenceError
    post_init = GaussianEnsemble.__post_init__

    def counted_post_init(self):
        if tr.mode == "trace":
            tr.counts["gaussians.ensembles_built"] += 1
        post_init(self)

    patch(GaussianEnsemble, "__post_init__", counted_post_init)
    return patches


def restore(patches: list) -> None:
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


# -- metrics from spans --------------------------------------------------------------

# per-layer metric -> unit, in report order
UNITS = {
    "cli.import_s": "s", "cli.self_s": "s",
    "dataio.load_s": "s", "dataio.load_mb_per_s": "MB/s", "dataio.dump_s": "s",
    "dataio.csv_write_s": "s", "dataio.csv_rows": "count",
    "dataio.bytes_written": "bytes", "dataio.self_s": "s",
    "gaussians.ensembles_built": "count", "gaussians.abs_moment_calls": "count",
    "gaussians.abs_moment_s": "s", "gaussians.self_s": "s",
    "scores.pairwise_abs_moment_s": "s", "scores.pairwise_overlap_s": "s",
    "scores.pairwise_elems": "count", "scores.self_s": "s",
    "estimators.measure_matrix_s": "s", "estimators.batch_init_s": "s",
    "estimators.evaluate_s": "s", "estimators.evaluate_calls": "count",
    "estimators.cells": "count", "estimators.cells_per_s": "1/s",
    "estimators.log_quadrature_cells_s": "s",
    "estimators.log_quadrature_cells_calls": "count",
    "estimators.peak_alloc_mb": "MB", "estimators.self_s": "s",
    "synthetic.shift_report_s": "s", "synthetic.sample_s": "s",
    "synthetic.grid_entropy_s": "s", "synthetic.grid_entropy_rows": "count",
    "synthetic.self_s": "s",
    "oracle.quadrature_calls": "count", "oracle.quadrature_s": "s",
    "oracle.integrand_points": "count", "oracle.max_error": "abs",
    "oracle.convergence_errors": "count", "oracle.entropy_s": "s",
    "oracle.expected_score_s": "s", "oracle.self_s": "s",
    "trainer.train_ensemble_s": "s", "trainer.steps": "count",
    "trainer.loss_grad_s": "s", "trainer.adam_s": "s", "trainer.sigmoid_s": "s",
    "trainer.steps_per_s": "1/s", "trainer.predict_s": "s",
    "trainer.ensemble_nll_s": "s", "trainer.checkpoint_s": "s",
    "trainer.acquisition_s": "s", "trainer.self_s": "s",
    "metrics.prr_s": "s", "metrics.prr_calls": "count", "metrics.auroc_s": "s",
    "metrics.auroc_calls": "count", "metrics.kendall_tau_b_s": "s",
    "metrics.kendall_tau_b_calls": "count", "metrics.self_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly from run to run.
COUNTS = tuple(k for k, u in UNITS.items() if u == "count")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric except cli.import_s and trace.overhead_s,
    which the caller measures; metrics of layers that did not run are 0."""
    spans = tr.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_layer = Counter()
    calls = Counter()
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_by_layer[name.split(".")[0]] += end - start - child_time[i]
        calls[name] += 1

    def inclusive(*names):
        """Summed duration of spans in ``names`` not nested in another one."""
        total = 0.0
        for name, start, end, parent, *_ in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += end - start
        return total

    def outside(name, *excluded):
        """Duration of ``name`` spans minus their direct ``excluded`` children."""
        total = 0.0
        for i, (n, start, end, *_r) in enumerate(spans):
            if n == name:
                total += end - start
        for n, start, end, parent, *_ in spans:
            if n in excluded and parent >= 0 and spans[parent][0] == name:
                total -= end - start
        return total

    c = tr.counts
    m = {f"{layer}.self_s": float(self_by_layer[layer]) for layer in LAYERS}
    load_s = inclusive("dataio.load")
    m.update({
        "dataio.load_s": load_s,
        "dataio.load_mb_per_s": c["dataio.load_bytes"] / 1e6 / load_s if load_s else 0.0,
        "dataio.dump_s": inclusive("dataio.dump"),
        "dataio.csv_write_s": inclusive("dataio.csv_write"),
        "dataio.csv_rows": c["dataio.csv_rows"],
        "dataio.bytes_written": c["dataio.bytes_written"],
        "gaussians.ensembles_built": c["gaussians.ensembles_built"],
        "gaussians.abs_moment_calls": calls["gaussians.abs_moment"],
        "gaussians.abs_moment_s": inclusive("gaussians.abs_moment"),
        "scores.pairwise_abs_moment_s": inclusive("scores.pairwise_abs_moment"),
        "scores.pairwise_overlap_s": inclusive("scores.pairwise_overlap"),
        "scores.pairwise_elems": c["scores.pairwise_elems"],
        "estimators.measure_matrix_s": inclusive("estimators.measure_matrix"),
        "estimators.batch_init_s": inclusive("estimators.batch_init"),
        "estimators.evaluate_s": inclusive("estimators.evaluate"),
        "estimators.evaluate_calls": calls["estimators.evaluate"],
        "estimators.cells": c["estimators.cells"],
        "estimators.log_quadrature_cells_s": inclusive("estimators.log_quadrature_cells"),
        "estimators.log_quadrature_cells_calls": calls["estimators.log_quadrature_cells"],
        "estimators.peak_alloc_mb": tr.peak_alloc / 1e6,
        "synthetic.shift_report_s": inclusive("synthetic.shift_report"),
        "synthetic.sample_s": inclusive("synthetic.sample"),
        "synthetic.grid_entropy_s": inclusive("synthetic.grid_entropy"),
        "synthetic.grid_entropy_rows": c["synthetic.grid_entropy_rows"],
        "oracle.quadrature_calls": calls["oracle.quadrature"],
        "oracle.quadrature_s": inclusive("oracle.quadrature"),
        "oracle.integrand_points": c["oracle.integrand_points"],
        "oracle.max_error": tr.max_error,
        "oracle.convergence_errors": c["oracle.convergence_errors"],
        "oracle.entropy_s": inclusive("oracle.entropy"),
        "oracle.expected_score_s": inclusive("oracle.expected_score"),
        "trainer.train_ensemble_s": inclusive("trainer.train_ensemble"),
        "trainer.steps": calls["trainer.loss_grad"],
        "trainer.loss_grad_s": inclusive("trainer.loss_grad"),
        "trainer.adam_s": inclusive("trainer.adam"),
        "trainer.sigmoid_s": inclusive("trainer.sigmoid"),
        "trainer.predict_s": inclusive("trainer.predict", "trainer.predict_arrays"),
        "trainer.ensemble_nll_s": inclusive("trainer.ensemble_nll"),
        "trainer.checkpoint_s": inclusive("trainer.checkpoint"),
        "trainer.acquisition_s": outside("trainer.active_loop", "trainer.train_ensemble",
                                         "trainer.ensemble_nll"),
        "metrics.prr_s": inclusive("metrics.prr"),
        "metrics.prr_calls": calls["metrics.prr"],
        "metrics.auroc_s": inclusive("metrics.auroc"),
        "metrics.auroc_calls": calls["metrics.auroc"],
        "metrics.kendall_tau_b_s": inclusive("metrics.kendall_tau_b"),
        "metrics.kendall_tau_b_calls": calls["metrics.kendall_tau_b"],
    })
    cell_s = m["estimators.evaluate_s"] + m["estimators.log_quadrature_cells_s"]
    m["estimators.cells_per_s"] = m["estimators.cells"] / cell_s if cell_s else 0.0
    train_s = m["trainer.train_ensemble_s"]
    m["trainer.steps_per_s"] = m["trainer.steps"] / train_s if train_s else 0.0
    return m
