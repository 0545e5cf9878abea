"""Command-line front end and experiment orchestration.

``COMMANDS`` is the one table of the command line: each command's handler
and its options as flag -> default, from which the argparse front end is
built.  Every command writes its outputs plus a ``manifest.json`` (command,
the parsed options as its config, seed, artifact version) into
``--output-dir``; given the manifest, each run is reproducible bit for bit.
Exit codes: 0 success, 1 usage, schema or file error, 2 verification
failure, 3 quadrature convergence failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .dataio import (
    SchemaError,
    load_prediction_set,
    save_prediction_set,
    write_csv,
    write_manifest,
    write_measures_csv,
)
from .estimators import (
    ApproximationId,
    EnsembleBatch,
    EstimatorId,
    PredictionSet,
    RiskKind,
    default_estimators,
    measure_matrix,
)
from .metrics import auroc, kendall_tau_b_pairs, prr
from .oracle import ConvergenceError, run_oracle_check
from .scores import ScoringRule
from .synthetic import (
    ShiftKind,
    UniformPosteriorSpec,
    shift_reports,
    two_curve_arrays,
)
from .trainer import (
    MlpSpec,
    TrainConfig,
    active_learning_loop,
    ensemble_nll,
    predict,
    predict_arrays,
    save_checkpoint,
    train_ensemble,
)


class VerificationFailure(RuntimeError):
    """oracle-check found deviations beyond tolerance."""


def _parse_rules(text: str) -> list[ScoringRule]:
    if text.strip().lower() == "all":
        return list(ScoringRule)
    rules = []
    for part in text.split(","):
        part = part.strip().lower()
        try:
            rules.append(ScoringRule(part))
        except ValueError:
            raise ValueError(
                f"unknown rule {part!r}; expected crps, log, quadratic, se, or all")
    return rules


def _parse_estimators(text: str) -> tuple[EstimatorId, ...]:
    if text.strip().lower() == "all":
        return default_estimators()
    return tuple(EstimatorId.parse(part) for part in text.split(","))


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
    write_manifest(args.output_dir, args.command, args.seed, config)


# -- measures -----------------------------------------------------------------

def cmd_measures(args):
    """Evaluate every (rule, estimator) cell for every point of a prediction set."""
    ps = load_prediction_set(args.input)
    rules_list = _parse_rules(args.rules)
    ests = _parse_estimators(args.estimators)
    matrix = measure_matrix(rules_list, ps, use_oracle_fallback=args.oracle_fallback,
                            estimators=ests)
    write_measures_csv(os.path.join(args.output_dir, "measures.csv"), ps, matrix)
    _write_manifest(args)
    print(f"wrote {len(ps)} rows x {len(matrix.columns)} measure columns")


# -- oracle-check ----------------------------------------------------------------

def cmd_oracle_check(args):
    """Verify all closed-form estimator cells against adaptive quadrature."""
    rows, passed, worst = run_oracle_check(args.trials, args.seed)
    write_csv(
        os.path.join(args.output_dir, "oracle_check.csv"),
        ["rule", "estimator", "max_abs_dev", "max_rel_dev", "convergence_failures"],
        [[c.rule.value, c.estimator.key, c.max_abs_dev, c.max_rel_dev,
          c.convergence_failures] for c in rows],
    )
    _write_manifest(args)
    print(f"oracle-check: {args.trials} trials, worst relative deviation {worst:.3e}")
    if not passed:
        raise VerificationFailure(
            f"closed forms deviate from quadrature beyond tolerance "
            f"(worst relative {worst:.3e})")


# -- shift --------------------------------------------------------------------

_KIND_ALIASES = {k.value: k for k in ShiftKind}


def cmd_shift(args):
    """Direction table (up/down/flat) for each measure under posterior shifts."""
    rules_list = _parse_rules(args.rules)
    base = UniformPosteriorSpec(members=args.members, replicates=args.replicates,
                                seed=args.seed)
    kinds = list(ShiftKind) if args.kind == "all" else [_KIND_ALIASES[args.kind]]
    reports = shift_reports(rules_list, base, kinds, flat_threshold=args.flat_threshold,
                            oracle_fallback=args.oracle_fallback)
    rows = [[report.kind.value, row.rule.value, row.estimator.key,
             row.direction, row.base_mean, row.shifted_mean]
            for report in reports for row in report.rows]
    write_csv(os.path.join(args.output_dir, "shift.csv"),
              ["kind", "rule", "estimator", "direction", "base_mean", "shifted_mean"],
              rows)
    _write_manifest(args)
    print(f"wrote {len(rows)} shift rows")


# -- training-based commands ------------------------------------------------------

def _train_on_two_curve(n_train, members, epochs, seed, x_low, x_high):
    xs, ys, _ = two_curve_arrays(n_train, x_low, x_high, seed)
    cfg = TrainConfig(epochs=epochs, seed=seed)
    predictor = train_ensemble(xs, ys, members, MlpSpec(), cfg)
    return predictor, xs, ys


def cmd_synth_demo(args):
    """Train on the two-curve task and emit per-point risks on a wide grid."""
    rules_list = _parse_rules(args.rules)
    predictor, xs, ys = _train_on_two_curve(args.n_train, args.members, args.epochs,
                                            args.seed, -4.0, 4.0)
    _, _, comp = two_curve_arrays(args.n_train, -4.0, 4.0, args.seed)
    grid = np.linspace(-7.0, 7.0, 281)
    means, variances = predict_arrays(predictor, grid)
    batch = EnsembleBatch(means, variances)
    header = ["x", "pred_mean"]
    cols = [grid, means.mean(axis=1)]
    ba = ApproximationId.BA
    for rule in rules_list:
        for est in (EstimatorId(RiskKind.TOTAL, ba, ba),
                    EstimatorId(RiskKind.BAYES, ba),
                    EstimatorId(RiskKind.EXCESS, ba, ba)):
            header.append(f"{rule.value}_{est.key}")
            cols.append(batch.evaluate(rule, est))
    write_csv(os.path.join(args.output_dir, "synth_demo.csv"), header,
              [[float(c[i]) for c in cols] for i in range(len(grid))])
    write_csv(os.path.join(args.output_dir, "synth_data.csv"), ["x", "y", "component"],
              [[float(x), float(y), int(k)] for x, y, k in zip(xs, ys, comp)])
    _write_manifest(args)
    print(f"wrote synth_demo.csv over {len(grid)} grid points")


def cmd_train(args):
    """Train a two-curve ensemble; write a checkpoint and test predictions."""
    predictor, _, _ = _train_on_two_curve(args.n_train, args.members, args.epochs,
                                          args.seed, args.x_low, args.x_high)
    xs_test, ys_test, _ = two_curve_arrays(args.n_test, args.x_low, args.x_high,
                                           args.seed + 1)
    ps = predict(predictor, xs_test, targets=ys_test, group="id")
    save_checkpoint(predictor, os.path.join(args.output_dir, "checkpoint.json"))
    save_prediction_set(ps, os.path.join(args.output_dir, "predictions.json"))
    nll = ensemble_nll(predictor, xs_test, ys_test)
    _write_manifest(args)
    print(f"held-out ensemble NLL: {nll:.6f}")


# -- downstream metrics ------------------------------------------------------------

def _matrix_for(ps: PredictionSet, rules_text: str, oracle_fallback: bool):
    rules_list = _parse_rules(rules_text)
    return measure_matrix(rules_list, ps, use_oracle_fallback=oracle_fallback)


def cmd_selective(args):
    """Prediction-reject ratio of every measure against squared errors."""
    ps = load_prediction_set(args.input)
    try:
        targets = ps.targets()
    except ValueError as exc:
        raise SchemaError(f"selective prediction requires targets: {exc}")
    mu_star = np.empty(len(ps))
    for rows, means, _ in ps.blocks():
        mu_star[rows] = means.mean(axis=1)
    errors = (targets - mu_star) ** 2
    if not np.all(np.isfinite(errors)):
        point = ps.ids[int(np.flatnonzero(~np.isfinite(errors))[0])]
        raise ValueError(f"squared error is not finite at point {point!r}")
    matrix = _matrix_for(ps, args.rules, args.oracle_fallback)
    prrs = dict(zip(np.flatnonzero(matrix.available).tolist(),
                    prr(errors, matrix.values[:, matrix.available]).tolist()))
    rows = [[col.rule.value, col.estimator.key, prrs.get(k)]
            for k, col in enumerate(matrix.columns)]
    write_csv(os.path.join(args.output_dir, "selective.csv"),
              ["rule", "estimator", "prr"], rows)
    _write_manifest(args)
    print(f"wrote {len(rows)} PRR rows")


def cmd_ood(args):
    """AUROC of each measure for separating group 'ood' from group 'id'."""
    ps = load_prediction_set(args.input)
    try:
        groups = np.array(ps.groups())
    except ValueError as exc:
        raise SchemaError(f"ood detection requires group labels: {exc}")
    is_id, is_ood = groups == "id", groups == "ood"
    if not (np.any(is_id) and np.any(is_ood)):
        raise SchemaError("ood detection needs points in both groups 'id' and 'ood'")
    matrix = _matrix_for(ps, args.rules, args.oracle_fallback)
    rows = [[col.rule.value, col.estimator.key,
             auroc(matrix.values[is_id, k], matrix.values[is_ood, k])
             if matrix.available[k] else None]
            for k, col in enumerate(matrix.columns)]
    write_csv(os.path.join(args.output_dir, "ood.csv"),
              ["rule", "estimator", "auroc"], rows)
    _write_manifest(args)
    print(f"wrote {len(rows)} AUROC rows")


def cmd_correlate(args):
    """Kendall tau_b between estimators (per rule) and between rules (per estimator)."""
    ps = load_prediction_set(args.input)
    rules_list = _parse_rules(args.rules)
    matrix = _matrix_for(ps, args.rules, args.oracle_fallback)
    index = {(col.rule, col.estimator): k for k, col in enumerate(matrix.columns)}

    def pair(ca, cb):
        """The unordered pair of matrix columns of two (rule, estimator)
        cells; tau_b is symmetric bit for bit, so each is computed once."""
        return tuple(sorted((index[ca], index[cb])))

    ests = default_estimators()
    est_cells = [([rule.value, ea.key, eb.key], pair((rule, ea), (rule, eb)))
                 for rule in rules_list for ea in ests for eb in ests]
    rule_cells = [([est.key, ra.value, rb.value], pair((ra, est), (rb, est)))
                  for est in ests for ra in rules_list for rb in rules_list]
    pairs = sorted({p for _, p in est_cells + rule_cells
                    if matrix.available[p[0]] and matrix.available[p[1]]})
    tau = dict(zip(pairs, kendall_tau_b_pairs(matrix.values, pairs).tolist()))
    est_rows = [[*head, tau.get(p)] for head, p in est_cells]
    rule_rows = [[*head, tau.get(p)] for head, p in rule_cells]
    write_csv(os.path.join(args.output_dir, "correlate_estimators.csv"),
              ["rule", "estimator_a", "estimator_b", "tau_b"], est_rows)
    write_csv(os.path.join(args.output_dir, "correlate_rules.csv"),
              ["estimator", "rule_a", "rule_b", "tau_b"], rule_rows)
    _write_manifest(args)
    print(f"wrote {len(est_rows)} + {len(rule_rows)} correlation rows")


# -- active learning ---------------------------------------------------------------

def cmd_active(args):
    """Uncertainty-guided acquisition on the two-curve pool vs a Random baseline."""
    try:
        rule_text, est_text = args.measure.split(":")
        rule = ScoringRule(rule_text.strip().lower())
        est = EstimatorId.parse(est_text)
    except ValueError as exc:
        raise ValueError(f"bad --measure {args.measure!r}: {exc}")
    pool_x, pool_y, _ = two_curve_arrays(args.pool_size, -4.0, 4.0, args.seed)
    held_x, held_y, _ = two_curve_arrays(args.heldout, -4.0, 4.0, args.seed + 1)
    init_rng = np.random.default_rng([args.seed, 0x1417])
    init_idx = init_rng.choice(args.pool_size, size=args.initial, replace=False)
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed)
    runs = {}
    for name, m in (("measure", (rule, est)), ("random", None)):
        runs[name] = active_learning_loop(
            pool_x, pool_y, init_idx, m, args.iterations, args.batch, args.members,
            held_x, held_y, MlpSpec(), cfg)
    rows = [[i, runs["measure"].nll_trajectory[i], runs["random"].nll_trajectory[i]]
            for i in range(len(runs["measure"].nll_trajectory))]
    write_csv(os.path.join(args.output_dir, "active.csv"),
              ["iteration", f"nll_{rule.value}_{est.key}", "nll_random"], rows)
    _write_manifest(args, truncated={k: r.truncated for k, r in runs.items()})
    print(f"final NLL {rule.value}:{est.key} = {runs['measure'].nll_trajectory[-1]:.4f}, "
          f"random = {runs['random'].nll_trajectory[-1]:.4f}")


# -- the command table ---------------------------------------------------------------

def _existing_path(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"path {text!r} does not exist")
    return text


def _reading_predictions(options=None) -> dict:
    """The options of a command on a stored prediction set, with its own
    ``options`` between ``--rules`` and ``--oracle-fallback``."""
    return {"--input": _existing_path, "--rules": "all", **(options or {}),
            "--oracle-fallback": False}


# Each command's handler and options as flag -> default.  The type follows
# the default; False makes a flag, a tuple the choices (its first is the
# default), and a function a required option that it converts.
COMMANDS = {
    "measures": (cmd_measures, _reading_predictions({"--estimators": "all"})),
    "oracle-check": (cmd_oracle_check, {"--trials": 200}),
    "shift": (cmd_shift, {"--kind": ("all", *_KIND_ALIASES), "--rules": "all",
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
                sub.add_argument(flag, type=type(default), default=default,
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
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
