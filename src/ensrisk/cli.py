"""Command-line front end and experiment orchestration.

``COMMANDS`` is the one table of the command line: each command's handler
and its options as flag -> default, from which the argparse front end is
built.  Every command writes its outputs plus a ``manifest.json`` (command,
the parsed options as its config, seed, artifact version) into
``--output-dir``; given the manifest, each run is reproducible bit for bit.
Exit codes: 0 success, 1 usage, schema or file error, 2 verification
failure, 3 quadrature convergence failure.

The layers are held as module objects (``from . import estimators``) and
their names read inside the handlers (``estimators.measure_matrix``), and
NumPy is imported by the handlers that use it.  The package registers every
layer in ``sys.modules`` and runs its body on first attribute access (see
``ensrisk/__init__.py``), so a command loads only the layers it runs, and
``--help``, ``--version`` and usage errors load neither NumPy nor any layer.
A ``from .x import name`` here would run layer x on every start.  Every
layer is still in ``sys.modules`` once this module is imported, which the
benchmark's timing shims and the test that checks they resolve rely on.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import (
    __version__,
    dataio,
    estimators,
    metrics,
    oracle,
    scores,
    synthetic,
    trainer,
)


class VerificationFailure(RuntimeError):
    """oracle-check found deviations beyond tolerance."""


def _parse_rules(text: str) -> list[scores.ScoringRule]:
    if text.strip().lower() == "all":
        return list(scores.ScoringRule)
    rules = []
    for part in text.split(","):
        part = part.strip().lower()
        try:
            rule = scores.ScoringRule(part)
        except ValueError:
            raise ValueError(
                f"unknown rule {part!r}; expected crps, log, quadratic, se, or all")
        if rule in rules:
            raise ValueError(f"--rules names {part!r} twice")
        rules.append(rule)
    return rules


def _parse_estimators(text: str) -> tuple[estimators.EstimatorId, ...]:
    if text.strip().lower() == "all":
        return estimators.default_estimators()
    ests = []
    for part in text.split(","):
        est = estimators.EstimatorId.parse(part)
        if est in ests:
            raise ValueError(f"--estimators names {est.key!r} twice")
        ests.append(est)
    return tuple(ests)


def _write_manifest(args: argparse.Namespace, **extra) -> None:
    """The manifest of one run: its config is the command's parsed options
    except ``--seed`` in declaration order, then ``extra``, with the paths
    absolute and ``output_dir`` last."""
    config = {}
    for flag in _options(args.command):
        name = flag[2:].replace("-", "_")
        if name not in ("seed", "output_dir"):
            value = getattr(args, name)
            config[name] = os.path.abspath(value) if name == "input" else value
    config.update(extra, output_dir=os.path.abspath(args.output_dir))
    dataio.write_manifest(args.output_dir, args.command, args.seed, config)


# -- measures -----------------------------------------------------------------

def cmd_measures(args):
    """Evaluate every (rule, estimator) cell for every point of a prediction set."""
    ps = dataio.load_prediction_set(args.input)
    rules_list = _parse_rules(args.rules)
    ests = _parse_estimators(args.estimators)
    matrix = estimators.measure_matrix(rules_list, ps,
                                       use_oracle_fallback=args.oracle_fallback,
                                       estimators=ests)
    dataio.write_measures_csv(os.path.join(args.output_dir, "measures.csv"), ps, matrix)
    _write_manifest(args)
    print(f"wrote {len(ps)} rows x {len(matrix.columns)} measure columns")


# -- oracle-check ----------------------------------------------------------------

def run_oracle_check(trials: int, seed: int):
    """``oracle.run_oracle_check`` under the name ``cmd_oracle_check``
    calls, so that it can be imported from and replaced in this module
    without loading the oracle."""
    return oracle.run_oracle_check(trials, seed)


def cmd_oracle_check(args):
    """Verify all closed-form estimator cells against adaptive quadrature."""
    rows, passed, worst = run_oracle_check(args.trials, args.seed)
    dataio.write_csv(
        os.path.join(args.output_dir, "oracle_check.csv"),
        ["rule", "estimator", "max_abs_dev", "max_rel_dev", "convergence_failures",
         "nonfinite_closed"],
        [[c.rule.value, c.estimator.key, c.max_abs_dev, c.max_rel_dev,
          c.convergence_failures, c.nonfinite_closed] for c in rows],
    )
    _write_manifest(args)
    print(f"oracle-check: {args.trials} trials, worst relative deviation {worst:.3e}")
    if not passed:
        raise VerificationFailure(
            f"closed forms deviate from quadrature beyond tolerance "
            f"(worst relative {worst:.3e})")


# -- shift --------------------------------------------------------------------

def cmd_shift(args):
    """Direction table (up/down/flat) for each measure under posterior shifts."""
    rules_list = _parse_rules(args.rules)
    base = synthetic.UniformPosteriorSpec(members=args.members,
                                          replicates=args.replicates, seed=args.seed)
    kinds = (list(synthetic.ShiftKind) if args.kind == "all"
             else [synthetic.ShiftKind(args.kind)])
    reports = synthetic.shift_reports(rules_list, base, kinds,
                                      flat_threshold=args.flat_threshold,
                                      oracle_fallback=args.oracle_fallback)
    rows = [[report.kind.value, row.rule.value, row.estimator.key,
             row.direction, row.base_mean, row.shifted_mean]
            for report in reports for row in report.rows]
    dataio.write_csv(os.path.join(args.output_dir, "shift.csv"),
                     ["kind", "rule", "estimator", "direction", "base_mean",
                      "shifted_mean"], rows)
    _write_manifest(args)
    print(f"wrote {len(rows)} shift rows")


# -- training-based commands ------------------------------------------------------

def _train_on_two_curve(n_train, members, epochs, seed, x_low, x_high):
    """The trained predictor and its training set (x, y, component)."""
    xs, ys, comp = synthetic.two_curve_arrays(n_train, x_low, x_high, seed)
    predictor = trainer.train_ensemble(xs, ys, members, epochs, seed)
    return predictor, xs, ys, comp


def cmd_synth_demo(args):
    """Train on the two-curve task and emit per-point risks on a wide grid."""
    import numpy as np

    rules_list = _parse_rules(args.rules)
    predictor, xs, ys, comp = _train_on_two_curve(args.n_train, args.members,
                                                  args.epochs, args.seed, -4.0, 4.0)
    grid = np.linspace(-7.0, 7.0, 281)
    means, variances = trainer.predict_arrays(predictor, grid)
    columns = [estimators.MeasureColumn(rule, estimators.EstimatorId.parse(key))
               for rule in rules_list for key in ("tot_1_1", "bayes_1", "exc_1_1")]
    values = estimators.EnsembleBatch(means, variances).columns(columns)
    dataio.write_csv(os.path.join(args.output_dir, "synth_demo.csv"),
                     ["x", "pred_mean", *(col.name for col in columns)],
                     np.column_stack([grid, means.mean(axis=1), values]).tolist())
    dataio.write_csv(os.path.join(args.output_dir, "synth_data.csv"),
                     ["x", "y", "component"],
                     [[float(x), float(y), int(k)] for x, y, k in zip(xs, ys, comp)])
    _write_manifest(args)
    print(f"wrote synth_demo.csv over {len(grid)} grid points")


def cmd_train(args):
    """Train a two-curve ensemble; write a checkpoint and test predictions."""
    predictor = _train_on_two_curve(args.n_train, args.members, args.epochs,
                                    args.seed, args.x_low, args.x_high)[0]
    xs_test, ys_test, _ = synthetic.two_curve_arrays(args.n_test, args.x_low,
                                                     args.x_high, args.seed + 1)
    ps = trainer.predict(predictor, xs_test, targets=ys_test, group="id")
    trainer.save_checkpoint(predictor, os.path.join(args.output_dir, "checkpoint.json"))
    dataio.save_prediction_set(ps, os.path.join(args.output_dir, "predictions.json"))
    nll = trainer.ensemble_nll(predictor, xs_test, ys_test)
    _write_manifest(args)
    print(f"held-out ensemble NLL: {nll:.6f}")


# -- downstream metrics ------------------------------------------------------------

def cmd_selective(args):
    """Prediction-reject ratio of every measure against squared errors."""
    import numpy as np

    ps = dataio.load_prediction_set(args.input)
    try:
        targets = ps.targets()
    except ValueError as exc:
        raise dataio.SchemaError(f"selective prediction requires targets: {exc}")
    errors = np.empty(len(ps))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, once
        for rows, means, variances in ps.blocks():
            errors[rows] = scores.realized_scores(scores.ScoringRule.SE, means, variances,
                                                  targets[rows])
    if not np.all(np.isfinite(errors)):
        point = ps.ids[int(np.flatnonzero(~np.isfinite(errors))[0])]
        raise ValueError(f"squared error is not finite at point {point!r}")
    matrix = estimators.measure_matrix(_parse_rules(args.rules), ps,
                                       use_oracle_fallback=args.oracle_fallback)
    prrs = dict(zip(np.flatnonzero(matrix.available).tolist(),
                    metrics.prr(errors, matrix.values[:, matrix.available]).tolist()))
    rows = [[col.rule.value, col.estimator.key, prrs.get(k)]
            for k, col in enumerate(matrix.columns)]
    dataio.write_csv(os.path.join(args.output_dir, "selective.csv"),
                     ["rule", "estimator", "prr"], rows)
    _write_manifest(args)
    print(f"wrote {len(rows)} PRR rows")


def cmd_ood(args):
    """AUROC of each measure for separating group 'ood' from group 'id'."""
    import numpy as np

    ps = dataio.load_prediction_set(args.input)
    try:
        groups = np.array(ps.groups())
    except ValueError as exc:
        raise dataio.SchemaError(f"ood detection requires group labels: {exc}")
    is_id, is_ood = groups == "id", groups == "ood"
    if not (np.any(is_id) and np.any(is_ood)):
        raise dataio.SchemaError("ood detection needs points in both groups 'id' and 'ood'")
    matrix = estimators.measure_matrix(_parse_rules(args.rules), ps,
                                       use_oracle_fallback=args.oracle_fallback)
    rows = [[col.rule.value, col.estimator.key,
             metrics.auroc(matrix.values[is_id, k], matrix.values[is_ood, k])
             if matrix.available[k] else None]
            for k, col in enumerate(matrix.columns)]
    dataio.write_csv(os.path.join(args.output_dir, "ood.csv"),
                     ["rule", "estimator", "auroc"], rows)
    _write_manifest(args)
    print(f"wrote {len(rows)} AUROC rows")


def cmd_correlate(args):
    """Kendall tau_b between estimators (per rule) and between rules (per estimator)."""
    ps = dataio.load_prediction_set(args.input)
    rules_list = _parse_rules(args.rules)
    matrix = estimators.measure_matrix(rules_list, ps,
                                       use_oracle_fallback=args.oracle_fallback)
    index = {(col.rule, col.estimator): k for k, col in enumerate(matrix.columns)}

    def pair(ca, cb):
        """The unordered pair of matrix columns of two (rule, estimator)
        cells; tau_b is symmetric bit for bit, so each is computed once."""
        return tuple(sorted((index[ca], index[cb])))

    ests = estimators.default_estimators()
    est_cells = [([rule.value, ea.key, eb.key], pair((rule, ea), (rule, eb)))
                 for rule in rules_list for ea in ests for eb in ests]
    rule_cells = [([est.key, ra.value, rb.value], pair((ra, est), (rb, est)))
                  for est in ests for ra in rules_list for rb in rules_list]
    pairs = sorted({p for _, p in est_cells + rule_cells
                    if matrix.available[p[0]] and matrix.available[p[1]]})
    tau = dict(zip(pairs, metrics.kendall_tau_b_pairs(matrix.values, pairs).tolist()))
    est_rows = [[*head, tau.get(p)] for head, p in est_cells]
    rule_rows = [[*head, tau.get(p)] for head, p in rule_cells]
    dataio.write_csv(os.path.join(args.output_dir, "correlate_estimators.csv"),
                     ["rule", "estimator_a", "estimator_b", "tau_b"], est_rows)
    dataio.write_csv(os.path.join(args.output_dir, "correlate_rules.csv"),
                     ["estimator", "rule_a", "rule_b", "tau_b"], rule_rows)
    _write_manifest(args)
    print(f"wrote {len(est_rows)} + {len(rule_rows)} correlation rows")


# -- active learning ---------------------------------------------------------------

def cmd_active(args):
    """Uncertainty-guided acquisition on the two-curve pool vs a Random baseline."""
    import numpy as np

    parts = args.measure.split(":")
    try:
        if len(parts) != 2:
            raise ValueError("expected RULE:ESTIMATOR, e.g. log:exc_1_1")
        rule = scores.ScoringRule(parts[0].strip().lower())
        est = estimators.EstimatorId.parse(parts[1])
    except ValueError as exc:
        raise ValueError(f"bad --measure {args.measure!r}: {exc}")
    pool_x, pool_y, _ = synthetic.two_curve_arrays(args.pool_size, -4.0, 4.0, args.seed)
    held_x, held_y, _ = synthetic.two_curve_arrays(args.heldout, -4.0, 4.0,
                                                   args.seed + 1)
    if not 1 <= args.initial <= args.pool_size:
        raise ValueError(f"--initial must be between 1 and --pool-size "
                         f"({args.pool_size}), got {args.initial}")
    init_rng = np.random.default_rng([args.seed, 0x1417])
    init_idx = init_rng.choice(args.pool_size, size=args.initial, replace=False)
    runs = {}
    for name, m in (("measure", (rule, est)), ("random", None)):
        runs[name] = trainer.active_learning_loop(
            pool_x, pool_y, init_idx, m, args.iterations, args.batch, args.members,
            held_x, held_y, args.epochs, args.seed)
    rows = [[i, runs["measure"].nll_trajectory[i], runs["random"].nll_trajectory[i]]
            for i in range(len(runs["measure"].nll_trajectory))]
    dataio.write_csv(os.path.join(args.output_dir, "active.csv"),
                     ["iteration", f"nll_{rule.value}_{est.key}", "nll_random"], rows)
    _write_manifest(args, truncated={k: r.truncated for k, r in runs.items()})
    print(f"final NLL {rule.value}:{est.key} = {runs['measure'].nll_trajectory[-1]:.4f}, "
          f"random = {runs['random'].nll_trajectory[-1]:.4f}")


# -- the command table ---------------------------------------------------------------

def _existing_path(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"path {text!r} does not exist")
    return text


def _int_from(low: int):
    """An int option's converter: below ``low`` is a usage error."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names the type in "invalid int value"
    return convert


def _reading_predictions(options=None) -> dict:
    """The options of a command on a stored prediction set, with its own
    ``options`` between ``--rules`` and ``--oracle-fallback``."""
    return {"--input": _existing_path, "--rules": "all", **(options or {}),
            "--oracle-fallback": False}


# Each command's handler and options as flag -> default.  The type follows
# the default, and an int must be at least 1 (--seed at least 0); False
# makes a flag, a tuple the choices (its first is the default), and a
# function a required option that it converts.  The --kind choices are the
# values of synthetic.ShiftKind, spelled out so that building the parser
# loads no layer (a test pins the two together).
COMMANDS = {
    "measures": (cmd_measures, _reading_predictions({"--estimators": "all"})),
    "oracle-check": (cmd_oracle_check, {"--trials": 200}),
    "shift": (cmd_shift, {"--kind": ("all", "mean-location", "variance-location",
                                     "mean-scale", "variance-scale"), "--rules": "all",
                          "--replicates": 100_000, "--members": 10,
                          "--flat-threshold": 0.01, "--oracle-fallback": False}),
    "synth-demo": (cmd_synth_demo, {"--n-train": 1200, "--members": 10, "--epochs": 100,
                                    "--rules": "log"}),
    "train": (cmd_train, {"--n-train": 1200, "--n-test": 500, "--members": 10,
                          "--epochs": 100, "--x-low": -4.0, "--x-high": 4.0}),
    "selective": (cmd_selective, _reading_predictions()),
    "ood": (cmd_ood, _reading_predictions()),
    "correlate": (cmd_correlate, _reading_predictions()),
    "active": (cmd_active, {"--iterations": 6, "--batch": 30, "--members": 10,
                            "--pool-size": 1200, "--initial": 60, "--heldout": 800,
                            "--epochs": 150, "--measure": "log:exc_1_1"}),
}
_COMMON = {"--seed": 0, "--output-dir": "."}


def _options(command: str) -> dict:
    return {**COMMANDS[command][1], **_COMMON}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error exits 1 through ``main``, not 2 (the exit code
        of a verification failure) as argparse would."""
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ensrisk", allow_abbrev=False,
                     description="Regression uncertainty measures for Gaussian ensembles.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (handler, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=handler.__doc__, description=handler.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(handler=handler)
        for flag, default in _options(name).items():
            if default is False:
                sub.add_argument(flag, action="store_true")
            elif callable(default):
                sub.add_argument(flag, type=default, required=True)
            elif isinstance(default, tuple):
                sub.add_argument(flag, choices=default, default=default[0],
                                 help="default: %(default)s")
            else:
                convert = (_int_from(0 if flag == "--seed" else 1)
                           if type(default) is int else type(default))
                sub.add_argument(flag, type=convert, default=default,
                                 metavar=type(default).__name__.upper(),
                                 help="default: %(default)s")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.handler(args)
        return 0
    except SystemExit as exc:  # --help and --version
        return exc.code
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except oracle.ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
