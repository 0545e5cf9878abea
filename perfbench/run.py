#!/usr/bin/env python3
"""ensrisk benchmark: run one workload's CLI commands and report metrics.

    python3 perfbench/run.py --workload predset --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).

``--trace 0`` is the timed run.  Each command runs as a user would run it:
a fresh ``python -m ensrisk.cli ...`` process with ``PYTHONPATH=src``, one
at a time (a closed loop with one client).  Whole passes over the
workload's commands repeat until ``--seconds`` are used up; the report gives
the median, quartiles and sample count of every per-command time, and the
end-to-end metrics of the final JSON line are medians over passes.

``--trace 1`` is the traced run.  The same commands run in-process through
``ensrisk.cli.main`` with timing shims on each layer's public functions,
alternating with untraced in-process passes; the final JSON line holds the
per-layer metrics (medians over traced passes) and the tracing overhead.

Every command's outputs are checked against reference summaries
(``reference.json``).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# One BLAS thread everywhere: the benchmark is a single-process closed loop
# on a 2-CPU machine, and the kernels' matrices are small.
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACE_PASSES = 2

# per-pass numbers of the timed run; the last three are the end-to-end
# metrics, with setup_s
PASS_UNITS = {"wall_s": "s", "cpu_s": "s", "wall_ratio": "x", "cpu_ratio": "x",
              "peak_rss_mb": "MB"}
END_TO_END_UNITS = {"setup_s": "s", "wall_ratio": "x", "cpu_ratio": "x", "peak_rss_mb": "MB"}


# -- helpers -------------------------------------------------------------------------

def stats(values):
    """(median, q1, q3, n) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def line(name, values, unit):
    med, q1, q3, n = stats(values)
    return f"{name:<40} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={n}"


def environment(src: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for row in fh:
                if row.startswith("model name"):
                    cpu = row.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_ENV,
        "src": src,
    }


# Input of the calibration's JSON parsing, the kind of work `dataio` does.
_CAL_DOC = json.dumps([{"mu": i * 0.1, "sigma2": 1.0 + i} for i in range(4000)])


def calibrate() -> tuple[float, float]:
    """(wall s, cpu s) of a fixed mix of Python loops, JSON parsing and small
    numpy kernels, run in this process.  It never touches ensrisk, so no
    change to the package moves it; it moves only with the speed of the CPU
    the benchmark is pinned to, which on a shared host drifts by 20 % or
    more within minutes."""
    start, cpu = time.perf_counter(), time.process_time()
    s = 0
    for i in range(1000000):
        s += i * i
    for _ in range(10):
        json.loads(_CAL_DOC)
    a = np.random.default_rng(0).random((100, 100))
    for _ in range(300):
        a = np.tanh(a) @ a / 100
    return time.perf_counter() - start, time.process_time() - cpu


class Cli:
    """Runs ``python -m ensrisk.cli`` in a fresh process and waits for it."""

    def __init__(self, src: str):
        self.env = dict(os.environ, PYTHONPATH=src, **BLAS_ENV)

    def run(self, argv, cwd):
        """(exit code, wall s, child cpu s, child max RSS MB, stdout, stderr)."""
        with open(os.path.join(cwd, ".stdout"), "w+b") as out, \
                open(os.path.join(cwd, ".stderr"), "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "ensrisk.cli", *argv],
                                    cwd=cwd, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out.read().decode(), err.read().decode())

    def import_time(self, cwd) -> float:
        """Seconds to import ensrisk.cli in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import ensrisk.cli; "
                "print(time.perf_counter() - t)")
        res = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=self.env,
                             capture_output=True, text=True, check=True)
        return float(res.stdout)


def do_setup(args, work: str, cli: Cli):
    """Generate inputs SETUP_REPEATS times, each followed by one warm-up
    start of the CLI; returns the last workload and the set-up times."""
    times = []
    for k in range(SETUP_REPEATS):
        d = os.path.join(work, f"setup{k}")
        start = time.perf_counter()
        wl = workloads.setup(args.workload, d, args.seed, args.profile)
        code = cli.run(["--version"], d)[0]
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"ensrisk.cli --version exited {code}")
    return wl, d, times


def check(wl, cmd, d, code, stdout, stderr, ref, problems) -> bool:
    errors = [f"exit code {code}: {stderr.strip()[-300:]}"] if code != 0 else \
        workloads.check(cmd, os.path.join(d, cmd.out), stdout, ref[cmd.metric], wl)
    problems.extend(f"{cmd.metric}: {e}" for e in errors)
    return not errors


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


# -- timed run -----------------------------------------------------------------------

def timed_run(args, work, cli, ref, report):
    wl, d, setup_times = do_setup(args, work, cli)
    report["inputs"] = wl.inputs
    per_cmd = {c.metric: [] for c in wl.commands}
    passes = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    calibrate()  # warm-up
    cal = [calibrate()]
    while True:
        walls, cpus, rss, wall_ratio, cpu_ratio = [], [], [], 0.0, 0.0
        for cmd in wl.commands:
            shutil.rmtree(os.path.join(d, cmd.out), ignore_errors=True)
            code, wall, cpu, maxrss, out, err = cli.run(cmd.argv, d)
            cal.append(calibrate())
            attempted += 1
            failed += not check(wl, cmd, d, code, out, err, ref, problems)
            per_cmd[cmd.metric].append(wall)
            walls.append(wall)
            cpus.append(cpu)
            rss.append(maxrss)
            # the calibrations on either side of the command bracket it
            wall_ratio += wall / ((cal[-2][0] + cal[-1][0]) / 2)
            cpu_ratio += cpu / ((cal[-2][1] + cal[-1][1]) / 2)
        passes.append({"wall_s": sum(walls), "cpu_s": sum(cpus), "peak_rss_mb": max(rss),
                       "wall_ratio": wall_ratio, "cpu_ratio": cpu_ratio})
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() + typical > deadline:
            break

    lines = [line("setup_s", setup_times, "s")]
    lines += [line(k, v, "s") for k, v in per_cmd.items()]
    lines.append(line("calibration_s", [c[0] for c in cal], "s"))
    lines += [line(k, [p[k] for p in passes], unit) for k, unit in PASS_UNITS.items()]
    lines.append(f"{'fail_ratio':<40} {failed}/{attempted} = {failed / attempted:.6g}")
    metrics = {"setup_s": statistics.median(setup_times)}
    metrics.update({k: statistics.median(p[k] for p in passes)
                    for k in END_TO_END_UNITS if k != "setup_s"})
    report["commands"] = {k: dict(zip(("median", "q1", "q3", "n"), stats(v)))
                          for k, v in per_cmd.items()}
    report["passes"] = passes
    report["calibration"] = cal
    return lines, metrics, END_TO_END_UNITS, attempted, failed, problems


# -- traced run ----------------------------------------------------------------------

def _csv_outputs(d, wl):
    out = {}
    for cmd in wl.commands:
        base = os.path.join(d, cmd.out)
        for name in sorted(os.listdir(base)) if os.path.isdir(base) else ():
            if name.endswith(".csv"):
                with open(os.path.join(base, name), "rb") as fh:
                    out[f"{cmd.out}/{name}"] = fh.read()
    return out


def traced_run(args, work, cli, ref, report):
    wl, d, setup_times = do_setup(args, work, cli)
    report["inputs"] = wl.inputs
    import_times = [cli.import_time(d) for _ in range(3)]
    sys.path.insert(0, cli.env["PYTHONPATH"])
    import ensrisk.cli

    tr = tracing.Tracer()
    tr.workload = args.workload
    attempted = failed = 0
    problems: list[str] = []
    patches: list = []

    def one_pass(mode):
        """One in-process pass; mode None runs without any shim."""
        nonlocal attempted, failed, patches
        tracing.restore(patches)
        patches = tracing.install(tr) if mode else []
        tr.mode = mode
        walls = {}
        for cmd in wl.commands:
            tr.command = cmd.metric[:-2]
            shutil.rmtree(os.path.join(d, cmd.out), ignore_errors=True)
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = ensrisk.cli.main(list(cmd.argv))
            except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                code = -1
                err.write(repr(exc))
            walls[cmd.metric] = time.perf_counter() - start
            attempted += 1
            failed += not check(wl, cmd, d, code, out.getvalue(), err.getvalue(),
                                ref, problems)
        return walls

    cwd = os.getcwd()
    os.chdir(d)
    try:
        one_pass("alloc")  # warm-up; also takes the tracemalloc peak
        peak_alloc = tr.peak_alloc
        untraced, traced, layer = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            untraced.append(one_pass(None))
            plain = _csv_outputs(d, wl)
            tr.reset()
            traced.append(one_pass("trace"))
            if _csv_outputs(d, wl) != plain:
                failed += 1
                problems.append("traced CSV outputs differ from the untraced run")
            layer.append(tracing.layer_metrics(tr))
            pair = sum(untraced[-1].values()) + sum(traced[-1].values())
            if len(traced) >= MIN_TRACE_PASSES and time.perf_counter() + pair > deadline:
                break
    finally:
        tracing.restore(patches)
        os.chdir(cwd)

    untraced_wall = [sum(p.values()) for p in untraced]
    traced_wall = [sum(p.values()) for p in traced]
    # counts are the same in every pass (checked below); times are medians
    metrics = {k: layer[-1][k] if k in tracing.COUNTS else statistics.median(m[k] for m in layer)
               for k in layer[0]}
    metrics["cli.import_s"] = statistics.median(import_times)
    metrics["estimators.peak_alloc_mb"] = peak_alloc / 1e6
    metrics["trace.overhead_s"] = (statistics.median(traced_wall)
                                   - statistics.median(untraced_wall))
    metrics = {k: metrics[k] for k in tracing.UNITS}
    repeat = all(m[k] == layer[0][k] for m in layer for k in tracing.COUNTS)

    lines = [line("setup_s", setup_times, "s"),
             line("untraced in-process pass", untraced_wall, "s"),
             line("traced in-process pass", traced_wall, "s")]
    for cmd in wl.commands:
        lines.append(line(f"{cmd.metric} (in-process, untraced)",
                          [p[cmd.metric] for p in untraced], "s"))
    lines += [f"{k:<40} {v:.6g} {tracing.UNITS[k]}" for k, v in metrics.items()]
    lines.append(f"{'counts repeat exactly':<40} {'yes' if repeat else 'NO'}")
    lines.append(f"{'fail_ratio':<40} {failed}/{attempted} = {failed / attempted:.6g}")

    os.makedirs(os.path.join(".bench_work", "spans"), exist_ok=True)
    span_path = os.path.join(".bench_work", "spans",
                             f"{args.workload}-seed{args.seed}.json")
    with open(span_path, "w") as fh:  # the last traced pass
        json.dump({"fields": ["name", "start", "end", "parent", "workload", "command"],
                   "spans": tr.spans}, fh)
    report["spans"] = span_path
    return lines, metrics, tracing.UNITS, attempted, failed, problems


# -- entry point ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(workloads.PROFILES), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ensrisk", "cli.py")):
        print("error: run from the root of an ensrisk checkout (no src/ensrisk here)",
              file=sys.stderr)
        return 2
    ref = workloads.reference_for(workloads.load_reference(), args.profile,
                                  args.workload, args.seed)

    # One CPU for the benchmark and every process it starts: the calibration
    # then runs on the same CPU as the commands it brackets, whose speed on a
    # shared host drifts independently of the other CPU's.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = os.path.abspath(os.path.join(".bench_work",
                                        f"{args.workload}-{args.seed}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed,
              "input_family": workloads.family(args.seed), "profile": args.profile,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(src)}
    cli = Cli(src)
    run = traced_run if args.trace else timed_run
    try:
        lines, metrics, units, attempted, failed, problems = run(args, work, cli, ref, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# ensrisk benchmark  workload={args.workload} seed={args.seed} "
          f"(input family {report['input_family']}) profile={args.profile} "
          f"trace={args.trace}")
    print("environment " + json.dumps(report["environment"]))
    print("inputs " + json.dumps(report["inputs"]))
    for text in lines:
        print(text)
    for text in problems[:20]:
        print(f"FAILED CHECK {text}")
    report.update(metrics=metrics, attempted=attempted, failed=failed,
                  problems=problems)
    os.makedirs(os.path.join(".bench_work", "results"), exist_ok=True)
    with open(os.path.join(".bench_work", "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
