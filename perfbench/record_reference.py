#!/usr/bin/env python3
"""Record the reference output summaries the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the root of the checkout whose outputs are the reference.  For
every profile, workload and input family it runs one pass of the
workload's commands, summarizes each command's outputs and writes
``perfbench/reference.json``.
Each summary is checked against itself on the way, so the seed-independent
checks (oracle-check threshold, identity cells, trajectory length) hold for
every recorded input.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads


def record(name: str, seed: int, profile: str, cli: "run.Cli", work: str) -> dict:
    d = os.path.join(work, f"{profile}-{name}-{seed}")
    wl = workloads.setup(name, d, seed, profile)
    entry = {}
    for cmd in wl.commands:
        code, _, _, _, out, err = cli.run(cmd.argv, d)
        if code != 0:
            raise RuntimeError(f"{name} seed {seed}: {' '.join(cmd.argv)} exited {code}\n{err}")
        summary = workloads.summarize(cmd.check, os.path.join(d, cmd.out), out)
        errors = workloads.check(cmd, os.path.join(d, cmd.out), out, summary, wl)
        if errors:
            raise RuntimeError(f"{name} seed {seed}: {errors}")
        entry[cmd.metric] = _rounded(summary)
    shutil.rmtree(d)
    return entry


def _rounded(obj):
    """Floats to 12 significant digits, far below every check tolerance."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def main() -> int:
    cli = run.Cli(os.path.abspath("src"))
    entries = {}
    work = os.path.join(".bench_work", "reference")
    for profile in workloads.PROFILES:
        for name in workloads.WORKLOADS:
            for f in range(workloads.FAMILIES):
                entries[workloads.reference_key(profile, name, f)] = \
                    record(name, f, profile, cli, work)
            print(f"recorded {profile} {name}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                          text=True).stdout.strip() or "unknown"
    # one line per entry keeps diffs readable
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write('{"recorded_at": %s,\n"entries": {\n' % json.dumps(f"git {head}"))
        fh.write(",\n".join(f"{json.dumps(k)}: " + json.dumps(v, separators=(",", ":"))
                            for k, v in sorted(entries.items())))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
