"""Output digests: the bytes every command writes, pinned at small sizes.

``RUNS`` runs each of the nine commands at a small seeded size (M=10
ensembles where the pairwise kernels and the oracle's member-major paths
matter, ``--oracle-fallback``, ``shift --kind all`` and ``oracle-check``
included).  ``output_digests.json`` holds the sha256 of every CSV and JSON
they write, with the run directory in each manifest replaced by
``<root>``, and per-column summaries of the same files.  One more run,
``measures-wide``, takes a second input of wide ensembles (M=120 in two
batches, M=600 in one-row batches, beside a few M=2 points), where the
pairwise kernels run at the sizes the measures need at large M.  What a
run prints to stdout (``train``'s held-out NLL is in no file) is pinned
the same way, under the name ``STDOUT``, with its numbers summarized in
print order.

The digests are exact only for the NumPy build and CPU they were recorded
on: SIMD ``exp``/``log`` and BLAS ``matmul`` may differ by ulps elsewhere.
So the file also stores the NumPy version and CPU dispatch features, and on
another machine ``tests/test_output_digests.py`` compares every file with
its summaries by tolerance instead (text exactly, numbers in the form of
``perfbench/reference.json``).

A change that moves output bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/output_digests.py

and names each changed file, with its largest change, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile

import numpy as np

DIGEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "output_digests.json")
ROOT = "<root>"
STDOUT = "<stdout>"

# Relative tolerance of the summary check, per run: closed forms move by
# ulps across builds, trained networks amplify them through the epochs.
CLOSED_RTOL = 1e-9
TRAINED_RTOL = 1e-6

_SMALL_TRAIN = ["--n-train", "60", "--members", "3", "--epochs", "2"]

# name -> (argv without --output-dir, relative tolerance); "{input}" is the
# prediction set that ``write_input`` writes, "{wide}" the one of
# ``write_wide_input``.
RUNS = {
    "measures": (["measures", "--input", "{input}"], CLOSED_RTOL),
    "measures-wide": (["measures", "--input", "{wide}"], CLOSED_RTOL),
    "measures-fallback": (["measures", "--input", "{input}", "--oracle-fallback"],
                          CLOSED_RTOL),
    "selective-fallback": (["selective", "--input", "{input}", "--oracle-fallback"],
                           CLOSED_RTOL),
    "ood": (["ood", "--input", "{input}", "--rules", "log,crps"], CLOSED_RTOL),
    "correlate": (["correlate", "--input", "{input}"], CLOSED_RTOL),
    "shift": (["shift", "--kind", "all", "--replicates", "40", "--members", "10",
               "--seed", "3"], CLOSED_RTOL),
    "shift-fallback": (["shift", "--kind", "variance-scale", "--rules", "log",
                        "--replicates", "30", "--members", "10", "--oracle-fallback",
                        "--seed", "5"], CLOSED_RTOL),
    # more replicates than one batch of ``estimators.batch_rows`` holds at M=10
    "shift-batches": (["shift", "--kind", "all", "--replicates", "5000", "--members", "10",
                       "--seed", "3"], CLOSED_RTOL),
    "oracle-check": (["oracle-check", "--trials", "3", "--seed", "2"], CLOSED_RTOL),
    "synth-demo": (["synth-demo", *_SMALL_TRAIN, "--rules", "all", "--seed", "1"],
                   TRAINED_RTOL),
    "train": (["train", *_SMALL_TRAIN, "--n-test", "12", "--seed", "2"], TRAINED_RTOL),
    "active": (["active", "--iterations", "1", "--batch", "5", "--members", "2",
                "--pool-size", "40", "--initial", "10", "--heldout", "20",
                "--epochs", "2", "--seed", "4"], TRAINED_RTOL),
}


def write_input(path: str) -> None:
    """A fully labelled prediction set: 24 points, mostly M=10, with M=1, 2
    and 5 points interleaved, targets on every point and both groups."""
    from ensrisk.dataio import save_prediction_set
    from ensrisk.estimators import PredictionSet

    rng = np.random.default_rng(20251019)
    sizes = [(10, 1, 10, 2, 10, 5)[i % 6] for i in range(24)]
    ps = PredictionSet([f"p{i}" for i in range(24)],
                       [rng.normal(0.0, 1.5, m) for m in sizes],
                       [rng.uniform(0.1, 2.5, m) for m in sizes],
                       [float(rng.normal()) for _ in sizes],
                       [("id", "ood")[i % 2] for i in range(24)])
    save_prediction_set(ps, path)


def write_wide_input(path: str) -> None:
    """Wide ensembles, unlabelled: 40 points at M=120 (two batches of
    ``estimators.batch_rows``), 3 at M=600 (a batch per row) and 4 at M=2,
    interleaved."""
    from ensrisk.dataio import save_prediction_set
    from ensrisk.estimators import PredictionSet

    rng = np.random.default_rng(20261021)
    sizes = [120] * 40 + [600] * 3 + [2] * 4
    sizes = [sizes[k] for k in rng.permutation(len(sizes))]
    ps = PredictionSet([f"w{i}" for i in range(len(sizes))],
                       [rng.normal(0.0, 1.5, m) for m in sizes],
                       [rng.uniform(0.1, 2.5, m) for m in sizes])
    save_prediction_set(ps, path)


def environment() -> dict:
    """What the exact digests depend on: the NumPy build and the CPU
    features its SIMD dispatch uses on this machine."""
    from numpy._core import _multiarray_umath as umath

    targets = [*umath.__cpu_baseline__, *umath.__cpu_dispatch__]
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_dispatch": sorted(f for f in targets if umath.__cpu_features__.get(f))}


def run_all(work: str) -> dict:
    """Run every command of ``RUNS`` under ``work``; {run: {file: bytes}}
    with each manifest's run directory replaced by ``<root>``, and what
    the run printed to stdout under ``STDOUT``."""
    from ensrisk.cli import main

    inputs = {"input": os.path.join(work, "input.json"),
              "wide": os.path.join(work, "wide.json")}
    write_input(inputs["input"])
    write_wide_input(inputs["wide"])
    outputs = {}
    for name, (argv, _) in RUNS.items():
        out = os.path.join(work, name)
        argv = [a.format(**inputs) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = main([*argv, "--output-dir", out])
        if code != 0:
            raise RuntimeError(f"{name}: {' '.join(argv)} exited {code}")
        outputs[name] = {f: _normalised(os.path.join(out, f), work)
                         for f in sorted(os.listdir(out))}
        outputs[name][STDOUT] = printed.getvalue().encode()
    return outputs


def _normalised(path: str, work: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "manifest.json":
        data = data.replace(json.dumps(work)[1:-1].encode(), ROOT.encode())
    return data


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- summaries for the tolerance check ----------------------------------------------

def _number(text: str):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _numbers_summary(values: list[float]) -> list | None:
    """[count, sum, weighted sum, sum |v|], as ``perfbench/workloads.py``
    summarizes a column: the position weights make row order count."""
    if not values:
        return None
    return [len(values), math.fsum(values),
            math.fsum((1.0 + (i % 7) / 7.0) * v for i, v in enumerate(values)),
            math.fsum(abs(v) for v in values)]


def _csv_summary(data: bytes) -> dict:
    """The sha256 of the table with each number as '#' (so the header, ids,
    labels and NA cells compare exactly), and per column the summary of its
    numbers."""
    header, *body = csv.reader(io.StringIO(data.decode()))
    nums = [[_number(c) for c in row] for row in body]
    text = "\n".join(",".join("#" if v is not None else c for c, v in zip(row, values))
                     for row, values in zip(body, nums))
    return {"text": sha256(",".join(header).encode() + b"\n" + text.encode()),
            "numbers": {name: _numbers_summary([row[k] for row in nums if row[k] is not None])
                        for k, name in enumerate(header)}}


def _json_summary(data: bytes) -> dict:
    """The sha256 of the document with every float as 0.0, and per path
    (list indices dropped, e.g. ``points.members.mu``) the summary of its
    floats."""
    floats: dict[str, list[float]] = {}

    def walk(node, path):
        if isinstance(node, dict):
            return {k: walk(v, f"{path}.{k}" if path else k) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v, path) for v in node]
        if isinstance(node, float):
            floats.setdefault(path, []).append(node)
            return 0.0
        return node

    skeleton = walk(json.loads(data), "")
    return {"text": sha256(json.dumps(skeleton).encode()),
            "numbers": {p: _numbers_summary(v) for p, v in sorted(floats.items())}}


# A number standing alone: not part of a name such as ``exc_1_1``.
_PRINTED_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _stdout_summary(data: bytes) -> dict:
    """The sha256 of the printed text with each number as '#', and the
    summary of its numbers in print order.  They are printed rounded, so a
    move off the recording machine shows only where it crosses a rounding
    step of the last printed digit."""
    text = data.decode()
    values = [float(m) for m in _PRINTED_NUMBER.findall(text)]
    return {"text": sha256(_PRINTED_NUMBER.sub("#", text).encode()),
            "numbers": {STDOUT: _numbers_summary(values)}}


def summary(filename: str, data: bytes) -> dict:
    """{"text": sha256 of the file with its numbers masked, "numbers":
    {column or JSON path: summary}}."""
    if filename == STDOUT:
        return _stdout_summary(data)
    return _csv_summary(data) if filename.endswith(".csv") else _json_summary(data)


def _same_numbers(got, ref, rtol: float) -> bool:
    if got is None or ref is None:
        return got is None and ref is None
    if got[0] != ref[0]:
        return False
    scale = rtol * (ref[3] + ref[0])
    return all(math.isfinite(g) and abs(g - r) <= scale for g, r in zip(got[1:3], ref[1:3]))


def summary_errors(got: dict, ref: dict, rtol: float) -> list[str]:
    """Where a file's summary differs from the recorded one: its masked text
    at all, its numbers beyond ``rtol``."""
    if got["text"] != ref["text"] or list(got["numbers"]) != list(ref["numbers"]):
        return ["text differs"]
    return [f"{name}: numbers {got['numbers'][name]} vs {r}"
            for name, r in ref["numbers"].items()
            if not _same_numbers(got["numbers"][name], r, rtol)]


# -- the digest file ------------------------------------------------------------------

def record() -> dict:
    with tempfile.TemporaryDirectory() as work:
        outputs = run_all(work)
    return {"environment": environment(),
            "runs": {name: {f: {"sha256": sha256(data), "summary": summary(f, data)}
                            for f, data in files.items()}
                     for name, files in outputs.items()}}


def main(argv=None) -> int:
    """Record the digests; any argument is a usage error, and ``--help``
    prints the usage.  Neither writes anything."""
    argparse.ArgumentParser(
        description="Rewrite tests/output_digests.json from the current outputs.",
    ).parse_args(argv)
    doc = record()
    with open(DIGEST_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {DIGEST_PATH}: "
          f"{sum(len(files) for files in doc['runs'].values())} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
