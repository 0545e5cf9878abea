"""Command-line front end and experiment orchestration.

Every command writes its outputs plus a ``manifest.json`` (command, full
config, seed, artifact version) into ``--output-dir``; given the manifest,
each run is reproducible bit for bit.  Exit codes: 0 success, 1 usage or
schema error, 2 verification failure, 3 quadrature convergence failure.
"""

from __future__ import annotations

import os
import sys

import click
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
            raise click.UsageError(
                f"unknown rule {part!r}; expected crps, log, quadratic, se, or all")
    return rules


def _parse_estimators(text: str) -> tuple[EstimatorId, ...]:
    if text.strip().lower() == "all":
        return default_estimators()
    out = []
    for part in text.split(","):
        try:
            out.append(EstimatorId.parse(part))
        except ValueError as exc:
            raise click.UsageError(str(exc))
    return tuple(out)


@click.group()
@click.version_option(__version__)
def cli():
    """Regression uncertainty measures for Gaussian ensembles."""


# -- measures -----------------------------------------------------------------

@cli.command("measures")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--rules", default="all", show_default=True)
@click.option("--estimators", "estimators_text", default="all", show_default=True)
@click.option("--oracle-fallback", is_flag=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--output-dir", default=".", show_default=True)
def cmd_measures(input_path, rules, estimators_text, oracle_fallback, seed, output_dir):
    """Evaluate every (rule, estimator) cell for every point of a prediction set."""
    ps = load_prediction_set(input_path)
    rules_list = _parse_rules(rules)
    ests = _parse_estimators(estimators_text)
    matrix = measure_matrix(rules_list, ps, use_oracle_fallback=oracle_fallback,
                            estimators=ests)
    os.makedirs(output_dir, exist_ok=True)
    write_measures_csv(os.path.join(output_dir, "measures.csv"), ps, matrix)
    write_manifest(output_dir, "measures", seed, {
        "input": os.path.abspath(input_path), "rules": rules,
        "estimators": estimators_text, "oracle_fallback": oracle_fallback,
        "output_dir": os.path.abspath(output_dir),
    })
    click.echo(f"wrote {len(ps)} rows x {len(matrix.columns)} measure columns")


# -- oracle-check ----------------------------------------------------------------

@cli.command("oracle-check")
@click.option("--trials", default=200, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--output-dir", default=".", show_default=True)
def cmd_oracle_check(trials, seed, output_dir):
    """Verify all closed-form estimator cells against adaptive quadrature."""
    rows, passed, worst = run_oracle_check(trials, seed)
    os.makedirs(output_dir, exist_ok=True)
    write_csv(
        os.path.join(output_dir, "oracle_check.csv"),
        ["rule", "estimator", "max_abs_dev", "max_rel_dev", "convergence_failures"],
        [[c.rule.value, c.estimator.key, c.max_abs_dev, c.max_rel_dev,
          c.convergence_failures] for c in rows],
    )
    write_manifest(output_dir, "oracle-check", seed, {
        "trials": trials, "output_dir": os.path.abspath(output_dir),
    })
    click.echo(f"oracle-check: {trials} trials, worst relative deviation {worst:.3e}")
    if not passed:
        raise VerificationFailure(
            f"closed forms deviate from quadrature beyond tolerance "
            f"(worst relative {worst:.3e})")


# -- shift --------------------------------------------------------------------

_KIND_ALIASES = {k.value: k for k in ShiftKind}


@cli.command("shift")
@click.option("--kind", default="all", show_default=True,
              type=click.Choice(["all", *_KIND_ALIASES]))
@click.option("--rules", default="all", show_default=True)
@click.option("--replicates", default=100_000, show_default=True)
@click.option("--members", default=10, show_default=True)
@click.option("--flat-threshold", default=0.01, show_default=True)
@click.option("--oracle-fallback", is_flag=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--output-dir", default=".", show_default=True)
def cmd_shift(kind, rules, replicates, members, flat_threshold, oracle_fallback,
              seed, output_dir):
    """Direction table (up/down/flat) for each measure under posterior shifts."""
    rules_list = _parse_rules(rules)
    base = UniformPosteriorSpec(members=members, replicates=replicates, seed=seed)
    kinds = list(ShiftKind) if kind == "all" else [_KIND_ALIASES[kind]]
    reports = shift_reports(rules_list, base, kinds, flat_threshold=flat_threshold,
                            oracle_fallback=oracle_fallback)
    rows = [[report.kind.value, row.rule.value, row.estimator.key,
             row.direction, row.base_mean, row.shifted_mean]
            for report in reports for row in report.rows]
    os.makedirs(output_dir, exist_ok=True)
    write_csv(os.path.join(output_dir, "shift.csv"),
              ["kind", "rule", "estimator", "direction", "base_mean", "shifted_mean"],
              rows)
    write_manifest(output_dir, "shift", seed, {
        "kind": kind, "rules": rules, "replicates": replicates, "members": members,
        "flat_threshold": flat_threshold, "oracle_fallback": oracle_fallback,
        "output_dir": os.path.abspath(output_dir),
    })
    click.echo(f"wrote {len(rows)} shift rows")


# -- training-based commands ------------------------------------------------------

def _train_on_two_curve(n_train, members, epochs, seed, x_low, x_high):
    xs, ys, _ = two_curve_arrays(n_train, x_low, x_high, seed)
    cfg = TrainConfig(epochs=epochs, seed=seed)
    predictor = train_ensemble(xs, ys, members, MlpSpec(), cfg)
    return predictor, xs, ys


@cli.command("synth-demo")
@click.option("--seed", default=0, show_default=True)
@click.option("--n-train", default=1200, show_default=True)
@click.option("--members", default=10, show_default=True)
@click.option("--epochs", default=100, show_default=True)
@click.option("--rules", default="log", show_default=True)
@click.option("--output-dir", default=".", show_default=True)
def cmd_synth_demo(seed, n_train, members, epochs, rules, output_dir):
    """Train on the two-curve task and emit per-point risks on a wide grid."""
    rules_list = _parse_rules(rules)
    predictor, xs, ys = _train_on_two_curve(n_train, members, epochs, seed, -4.0, 4.0)
    _, _, comp = two_curve_arrays(n_train, -4.0, 4.0, seed)
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
    os.makedirs(output_dir, exist_ok=True)
    write_csv(os.path.join(output_dir, "synth_demo.csv"), header,
              [[float(c[i]) for c in cols] for i in range(len(grid))])
    write_csv(os.path.join(output_dir, "synth_data.csv"), ["x", "y", "component"],
              [[float(x), float(y), int(k)] for x, y, k in zip(xs, ys, comp)])
    write_manifest(output_dir, "synth-demo", seed, {
        "n_train": n_train, "members": members, "epochs": epochs, "rules": rules,
        "output_dir": os.path.abspath(output_dir),
    })
    click.echo(f"wrote synth_demo.csv over {len(grid)} grid points")


@cli.command("train")
@click.option("--seed", default=0, show_default=True)
@click.option("--n-train", default=1200, show_default=True)
@click.option("--n-test", default=500, show_default=True)
@click.option("--members", default=10, show_default=True)
@click.option("--epochs", default=100, show_default=True)
@click.option("--x-low", default=-4.0, show_default=True)
@click.option("--x-high", default=4.0, show_default=True)
@click.option("--output-dir", default=".", show_default=True)
def cmd_train(seed, n_train, n_test, members, epochs, x_low, x_high, output_dir):
    """Train a two-curve ensemble; write a checkpoint and test predictions."""
    predictor, _, _ = _train_on_two_curve(n_train, members, epochs, seed, x_low, x_high)
    xs_test, ys_test, _ = two_curve_arrays(n_test, x_low, x_high, seed + 1)
    ps = predict(predictor, xs_test, targets=ys_test, group="id")
    os.makedirs(output_dir, exist_ok=True)
    save_checkpoint(predictor, os.path.join(output_dir, "checkpoint.json"))
    save_prediction_set(ps, os.path.join(output_dir, "predictions.json"))
    nll = ensemble_nll(predictor, xs_test, ys_test)
    write_manifest(output_dir, "train", seed, {
        "n_train": n_train, "n_test": n_test, "members": members, "epochs": epochs,
        "x_low": x_low, "x_high": x_high, "output_dir": os.path.abspath(output_dir),
    })
    click.echo(f"held-out ensemble NLL: {nll:.6f}")


# -- downstream metrics ------------------------------------------------------------

def _matrix_for(ps: PredictionSet, rules_text: str, oracle_fallback: bool):
    rules_list = _parse_rules(rules_text)
    return measure_matrix(rules_list, ps, use_oracle_fallback=oracle_fallback)


@cli.command("selective")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--rules", default="all", show_default=True)
@click.option("--oracle-fallback", is_flag=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--output-dir", default=".", show_default=True)
def cmd_selective(input_path, rules, oracle_fallback, seed, output_dir):
    """Prediction-reject ratio of every measure against squared errors."""
    ps = load_prediction_set(input_path)
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
    matrix = _matrix_for(ps, rules, oracle_fallback)
    prrs = dict(zip(np.flatnonzero(matrix.available).tolist(),
                    prr(errors, matrix.values[:, matrix.available]).tolist()))
    rows = [[col.rule.value, col.estimator.key, prrs.get(k)]
            for k, col in enumerate(matrix.columns)]
    os.makedirs(output_dir, exist_ok=True)
    write_csv(os.path.join(output_dir, "selective.csv"),
              ["rule", "estimator", "prr"], rows)
    write_manifest(output_dir, "selective", seed, {
        "input": os.path.abspath(input_path), "rules": rules,
        "oracle_fallback": oracle_fallback, "output_dir": os.path.abspath(output_dir),
    })
    click.echo(f"wrote {len(rows)} PRR rows")


@cli.command("ood")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--rules", default="all", show_default=True)
@click.option("--oracle-fallback", is_flag=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--output-dir", default=".", show_default=True)
def cmd_ood(input_path, rules, oracle_fallback, seed, output_dir):
    """AUROC of each measure for separating group 'ood' from group 'id'."""
    ps = load_prediction_set(input_path)
    try:
        groups = np.array(ps.groups())
    except ValueError as exc:
        raise SchemaError(f"ood detection requires group labels: {exc}")
    is_id, is_ood = groups == "id", groups == "ood"
    if not (np.any(is_id) and np.any(is_ood)):
        raise SchemaError("ood detection needs points in both groups 'id' and 'ood'")
    matrix = _matrix_for(ps, rules, oracle_fallback)
    rows = [[col.rule.value, col.estimator.key,
             auroc(matrix.values[is_id, k], matrix.values[is_ood, k])
             if matrix.available[k] else None]
            for k, col in enumerate(matrix.columns)]
    os.makedirs(output_dir, exist_ok=True)
    write_csv(os.path.join(output_dir, "ood.csv"),
              ["rule", "estimator", "auroc"], rows)
    write_manifest(output_dir, "ood", seed, {
        "input": os.path.abspath(input_path), "rules": rules,
        "oracle_fallback": oracle_fallback, "output_dir": os.path.abspath(output_dir),
    })
    click.echo(f"wrote {len(rows)} AUROC rows")


@cli.command("correlate")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--rules", default="all", show_default=True)
@click.option("--oracle-fallback", is_flag=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--output-dir", default=".", show_default=True)
def cmd_correlate(input_path, rules, oracle_fallback, seed, output_dir):
    """Kendall tau_b between estimators (per rule) and between rules (per estimator)."""
    ps = load_prediction_set(input_path)
    rules_list = _parse_rules(rules)
    matrix = _matrix_for(ps, rules, oracle_fallback)
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
    os.makedirs(output_dir, exist_ok=True)
    write_csv(os.path.join(output_dir, "correlate_estimators.csv"),
              ["rule", "estimator_a", "estimator_b", "tau_b"], est_rows)
    write_csv(os.path.join(output_dir, "correlate_rules.csv"),
              ["estimator", "rule_a", "rule_b", "tau_b"], rule_rows)
    write_manifest(output_dir, "correlate", seed, {
        "input": os.path.abspath(input_path), "rules": rules,
        "oracle_fallback": oracle_fallback, "output_dir": os.path.abspath(output_dir),
    })
    click.echo(f"wrote {len(est_rows)} + {len(rule_rows)} correlation rows")


# -- active learning ---------------------------------------------------------------

@cli.command("active")
@click.option("--seed", default=0, show_default=True)
@click.option("--iterations", default=6, show_default=True)
@click.option("--batch", default=30, show_default=True)
@click.option("--members", default=10, show_default=True)
@click.option("--pool-size", default=1200, show_default=True)
@click.option("--initial", default=60, show_default=True)
@click.option("--heldout", default=800, show_default=True)
@click.option("--epochs", default=150, show_default=True)
@click.option("--measure", default="log:exc_1_1", show_default=True)
@click.option("--output-dir", default=".", show_default=True)
def cmd_active(seed, iterations, batch, members, pool_size, initial, heldout,
               epochs, measure, output_dir):
    """Uncertainty-guided acquisition on the two-curve pool vs a Random baseline."""
    try:
        rule_text, est_text = measure.split(":")
        rule = ScoringRule(rule_text.strip().lower())
        est = EstimatorId.parse(est_text)
    except ValueError as exc:
        raise click.UsageError(f"bad --measure {measure!r}: {exc}")
    pool_x, pool_y, _ = two_curve_arrays(pool_size, -4.0, 4.0, seed)
    held_x, held_y, _ = two_curve_arrays(heldout, -4.0, 4.0, seed + 1)
    init_rng = np.random.default_rng([seed, 0x1417])
    init_idx = init_rng.choice(pool_size, size=initial, replace=False)
    cfg = TrainConfig(epochs=epochs, seed=seed)
    runs = {}
    for name, m in (("measure", (rule, est)), ("random", None)):
        runs[name] = active_learning_loop(
            pool_x, pool_y, init_idx, m, iterations, batch, members,
            held_x, held_y, MlpSpec(), cfg)
    os.makedirs(output_dir, exist_ok=True)
    rows = [[i, runs["measure"].nll_trajectory[i], runs["random"].nll_trajectory[i]]
            for i in range(len(runs["measure"].nll_trajectory))]
    write_csv(os.path.join(output_dir, "active.csv"),
              ["iteration", f"nll_{rule.value}_{est.key}", "nll_random"], rows)
    write_manifest(output_dir, "active", seed, {
        "iterations": iterations, "batch": batch, "members": members,
        "pool_size": pool_size, "initial": initial, "heldout": heldout,
        "epochs": epochs, "measure": measure,
        "truncated": {k: r.truncated for k, r in runs.items()},
        "output_dir": os.path.abspath(output_dir),
    })
    click.echo(
        f"final NLL {rule.value}:{est.key} = {runs['measure'].nll_trajectory[-1]:.4f}, "
        f"random = {runs['random'].nll_trajectory[-1]:.4f}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (SchemaError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except VerificationFailure as exc:
        click.echo(f"verification failure: {exc}", err=True)
        return 2
    except ConvergenceError as exc:
        click.echo(f"convergence failure: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
