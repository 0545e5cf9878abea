"""Workload definitions: input generation, command lines and output checks.

Every workload is a list of CLI commands that a user would run one after
the other.  Inputs are generated here from a seed; the program only ever
sees the generated files and flags.  Output checks compare each command's
files against reference summaries recorded from the same commands at the
seed commit (``reference.json``), with tolerances rather than digests, so
that legitimate last-bit changes in the numerics do not count as failures.

Seeds are folded onto ``FAMILIES`` input families (``seed % FAMILIES``) so
that every seed the benchmark is run with has recorded reference outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

FAMILIES = 8

# Relative tolerance for values computed in closed form or by quadrature
# from the generated inputs; compared on column sums as
# |s - s_ref| <= RTOL * (sum|ref| + count).
RTOL = 1e-7
# Outputs of trained ensembles: training amplifies last-bit changes, and
# PRR / Kendall tau are rank statistics that move by ~1/n per flipped pair.
NLL_RTOL = 1e-6
RANK_ATOL = 1e-4
# oracle-check's own acceptance threshold.
ORACLE_WORST_REL = 1e-6

# Sizes per profile.  "full" is what the benchmark measures; "tiny" is for
# the self-test.  Shares of M=5 / M=2 points and of 'ood' points, and the
# share of wide-spread rows in the verify set, are fixed properties.
PROFILES = {
    "full": {
        "predset_points": 4000,
        "shift_replicates": 4000,
        "shift_fallback_replicates": 1000,
        "oracle_trials": 40,
        "verify_points": 500,
        "train": dict(n_train=600, n_test=200, members=5, epochs=60),
        "active": dict(iterations=2, batch=20, members=3, pool_size=400,
                       initial=40, heldout=200, epochs=60),
    },
    "tiny": {
        "predset_points": 200,
        "shift_replicates": 300,
        "shift_fallback_replicates": 100,
        "oracle_trials": 3,
        "verify_points": 20,
        "train": dict(n_train=120, n_test=60, members=2, epochs=3),
        "active": dict(iterations=1, batch=10, members=2, pool_size=120,
                       initial=20, heldout=60, epochs=3),
    },
}

PREDSET_SIZE_SHARES = {10: 0.8, 5: 0.1, 2: 0.1}
PREDSET_OOD_SHARE = 0.3
VERIFY_MEMBERS = 5
VERIFY_WIDE_SHARE = 0.25


def family(seed: int) -> int:
    return seed % FAMILIES


# -- input generation ----------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_prediction_set(path: str, ids, means_rows, var_rows,
                          targets=None, groups=None) -> int:
    """Write the prediction_set/v1 JSON document; returns its size in bytes."""
    body = []
    for i, pid in enumerate(ids):
        members = ", ".join(f'{{"mu": {_fmt(m)}, "sigma2": {_fmt(v)}}}'
                            for m, v in zip(means_rows[i], var_rows[i]))
        fields = [f'"id": "{pid}"', f'"members": [{members}]']
        if targets is not None:
            fields.append(f'"target": {_fmt(targets[i])}')
        if groups is not None:
            fields.append(f'"group": "{groups[i]}"')
        body.append("    {" + ", ".join(fields) + "}")
    text = ('{\n  "schema": "prediction_set/v1",\n  "points": [\n'
            + ",\n".join(body) + "\n  ]\n}\n")
    with open(path, "w") as fh:
        fh.write(text)
    return len(text)


def make_predset(path: str, n: int, seed: int) -> dict:
    """Prediction set with targets and id/ood groups, mixed ensemble sizes.

    In-distribution points have members that agree closely; 'ood' points
    have wider member spread and targets drawn away from the ensemble, so
    every measure separates the groups to some degree."""
    rng = np.random.default_rng([seed, 1])
    sizes = rng.choice(list(PREDSET_SIZE_SHARES), size=n,
                       p=list(PREDSET_SIZE_SHARES.values()))
    ood = rng.random(n) < PREDSET_OOD_SHARE
    centre = rng.normal(0.0, 2.0, size=n)
    spread = np.where(ood, rng.uniform(0.5, 2.0, n), rng.uniform(0.05, 0.5, n))
    means = centre[:, None] + spread[:, None] * rng.standard_normal((n, 10))
    variances = np.where(ood[:, None], rng.uniform(0.2, 1.5, (n, 10)),
                         rng.uniform(0.05, 0.5, (n, 10)))
    pick = rng.integers(0, sizes)
    noise = rng.standard_normal(n)
    targets = np.where(
        ood, centre + 2.0 * noise,
        means[np.arange(n), pick] + np.sqrt(variances[np.arange(n), pick]) * noise)
    ids = [f"p{i:06d}" for i in range(n)]
    rows_m = [means[i, :sizes[i]] for i in range(n)]
    rows_v = [variances[i, :sizes[i]] for i in range(n)]
    groups = np.where(ood, "ood", "id")
    nbytes = _write_prediction_set(path, ids, rows_m, rows_v, targets, groups)
    return {"points": n, "bytes": nbytes,
            "members": {str(m): int(np.sum(sizes == m)) for m in PREDSET_SIZE_SHARES},
            "ood": int(ood.sum())}


def make_verify_set(path: str, n: int, seed: int) -> dict:
    """Prediction set whose member spread, relative to the member sigma,
    ranges from tight (1e-2) to wide (5-15); the wide rows are where the
    adaptive quadrature subdivides most."""
    rng = np.random.default_rng([seed, 2])
    wide = rng.random(n) < VERIFY_WIDE_SHARE
    ratio = np.where(wide, rng.uniform(5.0, 15.0, n), 10.0 ** rng.uniform(-2.0, 0.3, n))
    variances = rng.uniform(0.3, 1.5, (n, VERIFY_MEMBERS))
    sigma = np.sqrt(variances).mean(axis=1)
    centre = rng.normal(0.0, 2.0, size=n)
    means = centre[:, None] + (ratio * sigma)[:, None] \
        * rng.standard_normal((n, VERIFY_MEMBERS))
    ids = [f"v{i:05d}" for i in range(n)]
    nbytes = _write_prediction_set(path, ids, means, variances)
    return {"points": n, "bytes": nbytes, "members": VERIFY_MEMBERS,
            "wide": int(wide.sum())}


# -- commands ------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    metric: str            # end-to-end metric name, e.g. "measures_s"
    argv: tuple[str, ...]  # arguments after "python -m ensrisk.cli"
    out: str               # output directory, relative to the work dir
    check: str             # name of the output check


@dataclass
class Workload:
    name: str
    commands: list[Command]
    inputs: dict = field(default_factory=dict)


def setup(name: str, work: str, seed: int, profile: str = "full") -> Workload:
    """Generate the workload's inputs under ``work`` and list its commands.

    Command paths are relative to ``work``; commands run with it as the
    working directory."""
    p = PROFILES[profile]
    f = str(family(seed))
    os.makedirs(work, exist_ok=True)
    if name == "predset":
        info = make_predset(os.path.join(work, "predset.json"), p["predset_points"], int(f))
        cmds = [Command(f"{c}_s", (c, "--input", "predset.json", "--output-dir", c), c, c)
                for c in ("measures", "selective", "ood")]
        return Workload(name, cmds, {"predset.json": info})
    if name == "shift":
        cmds = [
            Command("shift_s", ("shift", "--kind", "all", "--rules", "all",
                                "--replicates", str(p["shift_replicates"]),
                                "--seed", f, "--output-dir", "shift"), "shift", "shift"),
            Command("shift_fallback_s", ("shift", "--kind", "all", "--rules", "all",
                                         "--replicates", str(p["shift_fallback_replicates"]),
                                         "--oracle-fallback", "--seed", f,
                                         "--output-dir", "shift_fallback"),
                    "shift_fallback", "shift"),
        ]
        return Workload(name, cmds, {"replicates": p["shift_replicates"],
                                     "fallback_replicates": p["shift_fallback_replicates"]})
    if name == "verify":
        info = make_verify_set(os.path.join(work, "verify.json"), p["verify_points"], int(f))
        cmds = [
            Command("oracle_check_s", ("oracle-check", "--trials", str(p["oracle_trials"]),
                                       "--seed", f, "--output-dir", "oracle_check"),
                    "oracle_check", "oracle_check"),
            Command("measures_fallback_s", ("measures", "--input", "verify.json",
                                            "--oracle-fallback",
                                            "--output-dir", "measures_fallback"),
                    "measures_fallback", "measures"),
        ]
        return Workload(name, cmds, {"verify.json": info, "trials": p["oracle_trials"]})
    if name == "train":
        t, a = p["train"], p["active"]
        pred = os.path.join("train", "predictions.json")
        cmds = [
            Command("train_s", ("train", "--seed", f, "--n-train", str(t["n_train"]),
                                "--n-test", str(t["n_test"]), "--members", str(t["members"]),
                                "--epochs", str(t["epochs"]), "--output-dir", "train"),
                    "train", "train"),
            Command("selective_s", ("selective", "--input", pred,
                                    "--output-dir", "selective"), "selective", "selective"),
            Command("correlate_s", ("correlate", "--input", pred,
                                    "--output-dir", "correlate"), "correlate", "correlate"),
            Command("active_s", ("active", "--seed", f,
                                 *[x for k, v in a.items()
                                   for x in (f"--{k.replace('_', '-')}", str(v))],
                                 "--output-dir", "active"), "active", "active"),
        ]
        return Workload(name, cmds, {"train": t, "active": a})
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("predset", "shift", "verify", "train")


# -- output summaries and checks ---------------------------------------------------

def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _num(cell: str) -> float | None:
    return None if cell == "NA" else float(cell)


def _col_summary(values: list[float | None]) -> list | None:
    """[count, sum, weighted sum, sum |v|] over non-NA values, or None when
    every value is NA.  The position weights make row order count; sum |v|
    only scales the tolerance, so three digits of it are kept."""
    vals = [(i, v) for i, v in enumerate(values) if v is not None]
    if not vals:
        return None
    return [len(vals), math.fsum(v for _, v in vals),
            math.fsum((1.0 + (i % 7) / 7.0) * v for i, v in vals),
            float(f"{math.fsum(abs(v) for _, v in vals):.3g}")]


def _same_summary(got, ref, rtol: float, atol: float) -> bool:
    if got is None or ref is None:
        return got is None and ref is None
    if got[0] != ref[0]:
        return False
    scale = rtol * (ref[3] + ref[0]) + atol * ref[0]
    return all(math.isfinite(g) and abs(g - r) <= scale
               for g, r in zip(got[1:3], ref[1:3]))


def _measures_summary(out: str) -> dict:
    header, rows = _read_csv(os.path.join(out, "measures.csv"))
    cols = {name: _col_summary([_num(r[k]) for r in rows])
            for k, name in enumerate(header) if k == 1 or k >= 3}
    return {"rows": len(rows), "ids": [rows[0][0], rows[-1][0]], "columns": cols}


def _table_summary(out: str, filename: str) -> dict:
    """rule,estimator,value tables (selective / ood)."""
    _, rows = _read_csv(os.path.join(out, filename))
    return {f"{r[0]}:{r[1]}": _num(r[2]) for r in rows}


_DIRECTION_CODES = {"up": "+", "down": "-", "flat": "=", "unavailable": "."}


def _shift_summary(out: str) -> dict:
    """Per shift kind: the direction of every row as one code string, and
    summaries of the base and shifted mean columns."""
    _, rows = _read_csv(os.path.join(out, "shift.csv"))
    res = {}
    for kind in dict.fromkeys(r[0] for r in rows):
        mine = [r for r in rows if r[0] == kind]
        res[kind] = {"directions": "".join(_DIRECTION_CODES[r[3]] for r in mine),
                     "base": _col_summary([_num(r[4]) for r in mine]),
                     "shifted": _col_summary([_num(r[5]) for r in mine])}
    return res


def _printed_nll(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("held-out ensemble NLL:"):
            return float(line.split(":", 1)[1])
    raise ValueError("train printed no held-out NLL")


def _predictions_nll(out: str) -> tuple[int, float]:
    """(points, mean mixture NLL of the targets) recomputed from
    predictions.json, independently of the program's own NLL code."""
    with open(os.path.join(out, "predictions.json")) as fh:
        points = json.load(fh)["points"]
    total = []
    for p in points:
        mu = np.array([m["mu"] for m in p["members"]])
        var = np.array([m["sigma2"] for m in p["members"]])
        logc = -0.5 * (math.log(2.0 * math.pi) + np.log(var) + (p["target"] - mu) ** 2 / var)
        top = logc.max()
        total.append(top + math.log(np.mean(np.exp(logc - top))))
    return len(points), -math.fsum(total) / len(points)


def _correlate_summary(out: str) -> dict:
    res = {}
    for filename in ("correlate_estimators.csv", "correlate_rules.csv"):
        _, rows = _read_csv(os.path.join(out, filename))
        res[filename] = {"na": [i for i, r in enumerate(rows) if r[3] == "NA"],
                         "tau": _col_summary([_num(r[3]) for r in rows])}
    return res


def summarize(check: str, out: str, stdout: str) -> dict:
    """The reference summary of one command's outputs."""
    if check == "measures":
        return _measures_summary(out)
    if check == "selective":
        return _table_summary(out, "selective.csv")
    if check == "ood":
        return _table_summary(out, "ood.csv")
    if check == "shift":
        return _shift_summary(out)
    if check == "oracle_check":
        return {}
    if check == "train":
        return {"nll": _predictions_nll(out)[1]}
    if check == "correlate":
        return _correlate_summary(out)
    if check == "active":
        return {}
    raise ValueError(f"unknown check {check!r}")


def _check_table(got: dict, ref: dict, atol: float, rtol: float) -> list[str]:
    errors = []
    if set(got) != set(ref):
        return [f"rows differ: {sorted(set(got) ^ set(ref))[:4]}"]
    for key, r in ref.items():
        g = got[key]
        if (g is None) != (r is None):
            errors.append(f"{key}: NA mismatch ({g} vs {r})")
        elif g is not None and not (math.isfinite(g)
                                    and abs(g - r) <= atol + rtol * abs(r)):
            errors.append(f"{key}: {g!r} vs reference {r!r}")
    return errors


def check(cmd: Command, out: str, stdout: str, ref: dict, wl: Workload) -> list[str]:
    """Problems with one command's outputs; empty when they are correct."""
    try:
        return _check(cmd, out, stdout, ref, wl)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check(cmd: Command, out: str, stdout: str, ref: dict, wl: Workload) -> list[str]:
    kind = cmd.check
    if kind == "measures":
        got = _measures_summary(out)
        errors = []
        if got["rows"] != ref["rows"] or got["ids"] != ref["ids"]:
            errors.append(f"row count/ids {got['rows']} {got['ids']} "
                          f"vs {ref['rows']} {ref['ids']}")
        if list(got["columns"]) != list(ref["columns"]):
            return errors + ["measure columns differ"]
        for name, r in ref["columns"].items():
            if not _same_summary(got["columns"][name], r, RTOL, 0.0):
                errors.append(f"column {name}: {got['columns'][name]} vs {r}")
        return errors
    if kind in ("selective", "ood"):
        got = summarize(kind, out, stdout)
        trained = wl.name == "train"
        return _check_table(got, ref, RANK_ATOL if trained else 0.0,
                            0.0 if trained else RTOL)
    if kind == "shift":
        got = _shift_summary(out)
        if set(got) != set(ref):
            return [f"shift kinds {sorted(got)} vs {sorted(ref)}"]
        errors = []
        for k, r in ref.items():
            g = got[k]
            if g["directions"] != r["directions"]:
                errors.append(f"{k}: directions differ")
            for side in ("base", "shifted"):
                if not _same_summary(g[side], r[side], RTOL, 0.0):
                    errors.append(f"{k} {side}_mean: {g[side]} vs {r[side]}")
        return errors
    if kind == "oracle_check":
        _, rows = _read_csv(os.path.join(out, "oracle_check.csv"))
        worst = max(float(r[3]) for r in rows)
        failures = sum(int(r[4]) for r in rows)
        if len(rows) != 64 or not worst <= ORACLE_WORST_REL or failures:
            return [f"oracle-check: {len(rows)} cells, worst relative deviation "
                    f"{worst:.3e}, {failures} convergence failures"]
        return []
    if kind == "train":
        n, nll = _predictions_nll(out)
        printed = _printed_nll(stdout)
        errors = []
        if n != wl.inputs["train"]["n_test"]:
            errors.append(f"predictions.json has {n} points")
        # the CLI prints the NLL rounded to 6 decimals
        if not (math.isfinite(nll) and abs(printed - nll) <= 1e-6
                and abs(nll - ref["nll"]) <= NLL_RTOL * max(1.0, abs(ref["nll"]))):
            errors.append(f"held-out NLL {nll!r} (printed {printed!r}) "
                          f"vs reference {ref['nll']!r}")
        return errors
    if kind == "correlate":
        errors = []
        for filename, r in ref.items():
            _, rows = _read_csv(os.path.join(out, filename))
            na = [i for i, row in enumerate(rows) if row[3] == "NA"]
            if na != r["na"]:
                errors.append(f"{filename}: NA cells differ")
            diag = [row for row in rows if row[1] == row[2] and row[3] != "NA"]
            if not diag or any(float(row[3]) != 1.0 for row in diag):
                errors.append(f"{filename}: an identity cell is not exactly 1.0")
            if any(row[3] != "NA" and abs(float(row[3])) > 1.0 for row in rows):
                errors.append(f"{filename}: tau outside [-1, 1]")
            tau = _col_summary([_num(row[3]) for row in rows])
            if not _same_summary(tau, r["tau"], 0.0, RANK_ATOL):
                errors.append(f"{filename}: tau sums {tau} vs {r['tau']}")
        return errors
    if kind == "active":
        _, rows = _read_csv(os.path.join(out, "active.csv"))
        expect = wl.inputs["active"]["iterations"] + 1
        vals = [float(c) for r in rows for c in r[1:]]
        if len(rows) != expect or not all(math.isfinite(v) for v in vals):
            return [f"active: {len(rows)} trajectory rows (expected {expect} finite)"]
        return []
    raise ValueError(f"unknown check {kind!r}")


# -- reference file ------------------------------------------------------------------

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_key(profile: str, workload: str, seed: int) -> str:
    return f"{profile}/{workload}/{family(seed)}"


def reference_for(refs: dict, profile: str, workload: str, seed: int) -> dict:
    """{command metric: summary} recorded for this seed's input family."""
    return refs["entries"][reference_key(profile, workload, seed)]
