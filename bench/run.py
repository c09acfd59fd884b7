"""Benchmark of the ``tribell`` CLI, end to end and per module.

    python3 bench/run.py --workload {mde,sweep,certify} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S --trace 1

Run from the root of a source checkout; the program is imported from
``src/``.  The benchmark and every child run on one CPU.  With
``--trace 0`` every command runs as a fresh process, one at a time, and
whole rounds of the workload repeat: at least one, and more while the
next round is expected to end within ``--seconds``.  A fixed calibration loop
runs before the first command and after each; every command's wall time
is divided by the mean of the two calibrations around it, so the time
metrics are in seconds at a fixed host speed (see ``calibrate``).  With
``--trace 1`` the rounds run in this process through ``tribell.cli.main``:
a warm-up round, a plain one, then one with spans around each module's
public functions (see ``spans.py``).  Every
output is checked against ``oracle.py``, which shares no code with
``tribell``.  ``--workload all`` runs the three workloads untraced and,
with ``--trace 1``, traced as well.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics.  A record of the run, with the machine and
library versions, is written under ``bench/out/``.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread, here (before numpy loads) and in every child
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from workloads import PROBE, SHORT, WORKLOADS, CliResult, run_round  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 3          # fresh interpreters timed for setup_s, after one warm-up
MIN_ROUNDS = 1             # untraced rounds per run, whatever --seconds says
IMPORT_SAMPLES = 3         # fresh interpreters for cli.import_scipy_optimize_s
RUN_LIMIT_S = 170.0        # every child is killed once its workload has run this long
CAL_ITERATIONS = 5000      # iterations of the calibration loop (about 0.2 s here)
CAL_REFERENCE_S = 0.2      # the calibration time that defines the reference host speed
CAL_SHARE = 0.15           # a calibration after a long command lasts this share of it

CHILD_ENV = dict(os.environ, **BLAS_ENV)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the
    calibration measures the CPU the commands run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


_CAL_MATRIX = np.random.default_rng(0).random((4, 4))


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Wall time of a fixed loop of small numpy operations and Python
    arithmetic, the mix of the CLI's own work, per ``CAL_ITERATIONS``
    iterations.

    The host is shared and its speed drifts by 20 % and more over seconds
    to minutes, which no statistic over one run's repeats removes.  Its
    speed right around a command is measured by this loop instead: a time
    divided by it, times ``CAL_REFERENCE_S``, is in seconds at a fixed
    host speed.  The loop shares no code with ``tribell``, so a change to
    the program moves the scaled times by the same share as the raw ones.
    """
    a = _CAL_MATRIX
    total = 0.0
    start = time.perf_counter()
    for i in range(iterations):
        total += float((np.kron(a[:2, :2], a[:2, :2]) @ a).sum()) + i % 7
        for j in range(20):
            total += j * 0.5
    return (time.perf_counter() - start) * CAL_ITERATIONS / iterations


class Paced:
    """Wraps a runner: calibrates before the first command and after each,
    and sets each result's ``ref_s`` to the mean of the two around it.

    The calibration after a long command lasts ``CAL_SHARE`` of it, so
    that it averages the host's speed over a stretch of comparable length
    rather than sampling one moment.
    """

    def __init__(self, run):
        self.run = run
        self.before: float | None = None

    def __call__(self, args: list[str]) -> CliResult:
        if self.before is None:
            self.before = calibrate()
        result = self.run(args)
        stretch = CAL_SHARE * result.wall_s / self.before
        after = calibrate(round(CAL_ITERATIONS * max(1.0, stretch)))
        result.ref_s = (self.before + after) / 2
        self.before = after
        return result


def scaled(result: CliResult) -> float:
    """A command's wall time in seconds at the reference host speed."""
    return result.wall_s / result.ref_s * CAL_REFERENCE_S


def run_process(argv: list[str], workdir: Path, deadline: float) -> CliResult:
    """Run one child to its end and time it; kill it at ``deadline``
    (a ``time.perf_counter()`` value)."""
    with open(workdir / "stdout.txt", "w+b") as out, open(workdir / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=CHILD_ENV)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliResult(proc.returncode, out.read().decode(errors="replace"),
                         err.read().decode(errors="replace"), wall)


# ``python -m tribell.cli`` that also leaves its peak resident set (VmHWM,
# which starts afresh at exec) in a file.  The rusage of a child would not
# do: it also counts the pages it shared with this process before exec.
CLI_CHILD = """\
import atexit, runpy
def peak():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open("peak_rss_kb", "w") as fh:
        fh.write(kb)
atexit.register(peak)
runpy.run_module("tribell.cli", run_name="__main__", alter_sys=True)
"""


def cli_process_runner(workdir: Path, deadline: float):
    prefix = [sys.executable, "-c", CLI_CHILD]
    peak_file = workdir / "peak_rss_kb"

    def run(args: list[str]) -> CliResult:
        peak_file.unlink(missing_ok=True)
        result = run_process(prefix + args, workdir, deadline)
        with contextlib.suppress(OSError, ValueError):
            result.maxrss_mb = int(peak_file.read_text()) / 1024.0
        return result

    return run


def cli_in_process(args: list[str]) -> CliResult:
    import tribell.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tribell.cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaping exception is what a user sees as a traceback
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# untraced: fresh processes

def measure_setup(workdir: Path, deadline: float) -> list[CliResult]:
    """Fresh interpreters that import ``tribell.cli``, calibrated; the
    first start, which compiles bytecode and warms the file cache, is
    left out."""
    argv = [sys.executable, "-c", "import tribell.cli"]
    run = Paced(lambda args: run_process(args, workdir, deadline))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        result = run(argv)
        if result.code != 0:
            raise RuntimeError(f"importing tribell.cli failed:\n{result.err[-2000:]}")
        if i:
            samples.append(result)
    return samples


def run_untraced(workload, seconds: float, deadline: float) -> tuple[list, dict, dict]:
    """Whole rounds as fresh processes: at least MIN_ROUNDS, and more while
    the next one is expected to end within ``seconds``.

    Every round runs the same commands, so each command's time is the
    median over the rounds of its calibrated wall time (``scaled``).
    """
    setup = measure_setup(workload.workdir, deadline)
    runner = Paced(cli_process_runner(workload.workdir, deadline))
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or elapsed * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(run_round(workload, runner))
        elapsed = time.perf_counter() - start
    # per command (the same position in every round)
    per_command = [[r[i].result for r in rounds] for i in range(len(rounds[0]))]
    times = [median(scaled(x) for x in results) for results in per_command]
    kinds = [o.kind for o in rounds[0]]
    metrics = {
        "setup_s": median(scaled(x) for x in setup),
        "peak_rss_mb": max(o.result.maxrss_mb or 0.0 for r in rounds for o in r),
        "round_s": sum(times),
    }
    # printed and recorded, not gated
    detail = {
        "rounds": len(rounds),
        "calibration_s": median(o.result.ref_s for r in rounds for o in r),
        "setup_wall_s": median(x.wall_s for x in setup),
        "round_wall_s": sum(median(x.wall_s for x in results) for results in per_command),
        "cli_latency_s": median(t for t, k in zip(times, kinds) if k == SHORT),
    }
    # the long commands alone, under the names of their commands
    for kind in sorted(set(kinds) - {SHORT, PROBE}):
        detail[f"{kind}_s"] = median(t for t, k in zip(times, kinds) if k == kind)
    return rounds, metrics, detail


# ---------------------------------------------------------------------------
# traced: in process

def import_scipy_optimize_s(workdir: Path, deadline: float) -> float:
    """Cumulative import time of scipy.optimize while a fresh interpreter
    imports tribell.cli (0 when the import is deferred)."""
    argv = [sys.executable, "-X", "importtime", "-c", "import tribell.cli"]
    samples = []
    for _ in range(IMPORT_SAMPLES):
        result = run_process(argv, workdir, deadline)
        if result.code != 0:
            raise RuntimeError(f"importing tribell.cli failed:\n{result.err[-2000:]}")
        cumulative_us = 0
        for line in result.err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
                cumulative_us = int(fields[1])
        samples.append(cumulative_us / 1e6)
    return median(samples)


def run_traced(workload, deadline: float) -> tuple[list, dict]:
    from spans import Tracer

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tribell.cli  # noqa: F401  (imported before any timing)

    import_s = import_scipy_optimize_s(workload.workdir, deadline)
    warmup = run_round(workload, cli_in_process)  # first calls and lazy imports
    start = time.perf_counter()
    plain = run_round(workload, cli_in_process)
    plain_s = time.perf_counter() - start
    with Tracer() as tracer:
        start = time.perf_counter()
        traced = run_round(workload, cli_in_process)
        traced_s = time.perf_counter() - start
    return [warmup, plain, traced], layer_metrics(tracer, plain, import_s, traced_s - plain_s)


def layer_metrics(tracer, plain_round, import_s: float, overhead_s: float) -> dict:
    spans = tracer.spans

    def calls(name):
        return spans[name].calls

    def us_per_call(name):
        span = spans[name]
        return span.total_s / span.calls * 1e6 if span.calls else 0.0

    def per_restart(kind, attr):
        searches = [s for s in tracer.searches if s.kind == kind]
        restarts = sum(s.restarts for s in searches)
        return sum(getattr(s, attr) for s in searches) / restarts if restarts else 0.0

    def converged(kind):
        values = [v for s in tracer.searches if s.kind == kind for v in s.values]
        return sum(1 for v in values if v - min(values) <= 1e-6) if values else 0

    t2_best = [s.best for s in tracer.searches if s.kind == "t2"]
    return {
        "cli.import_scipy_optimize_s": import_s,
        "cli.command_s": median(o.result.wall_s for o in plain_round if o.kind == SHORT),
        "search.svetlichny.restart_s": per_restart("svetlichny", "minimize_s"),
        "search.t2.restart_s": per_restart("t2", "minimize_s"),
        "search.svetlichny.objective_calls_per_restart": per_restart("svetlichny",
                                                                     "objective_calls"),
        "search.t2.objective_calls_per_restart": per_restart("t2", "objective_calls"),
        "search.optimizer_self_s": sum(spans[n].self_s for n in (
            "search.svetlichny", "search.t2", "search.scipy_minimize")),
        "search.svetlichny.converged_restarts": converged("svetlichny"),
        "search.t2.best_gap": min(t2_best) - 0.75 if t2_best else 0.0,
        "search.reverify_s": sum((s.total_s - s.minimize_s for s in tracer.searches), 0.0),
        "search.sweep_self_s": spans["search.sweep_t2_noise"].self_s,
        "search.bisection_steps_per_point": (tracer.sweep_bisection_steps / tracer.sweep_points
                                             if tracer.sweep_points else 0.0),
        "qcore.pure_behavior_probabilities.calls": calls("qcore.pure_behavior_probabilities"),
        "qcore.pure_behavior_probabilities.us_per_call": us_per_call(
            "qcore.pure_behavior_probabilities"),
        "qcore.behavior_from_settings.calls": calls("qcore.behavior_from_settings"),
        "qcore.behavior_from_settings.us_per_call": us_per_call("qcore.behavior_from_settings"),
        "inequality.t2_statistic.calls": calls("inequality.t2_statistic"),
        "inequality.t2_statistic.us_per_call": us_per_call("inequality.t2_statistic"),
        "inequality.t2_triple_and_pair_sums.calls": calls("inequality.t2_triple_and_pair_sums"),
        "inequality.svetlichny_coefficients.us_per_call": us_per_call(
            "inequality.svetlichny_coefficients"),
        "detector.observed_probabilities.calls": calls("detector.observed_probabilities"),
        "detector.observed_probabilities.us_per_call": us_per_call(
            "detector.observed_probabilities"),
        "polytope.enumerate_s": (spans["polytope.enumerate_svetlichny_vertices"].total_s
                                 + spans["polytope.enumerate_t2_vertices"].total_s),
        "polytope.classical_max_s": spans["polytope.classical_max"].total_s,
        "polytope.vertices": tracer.vertices,
        "trace.overhead_s": overhead_s,
    }


def layer_unit(name: str) -> str:
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("best_gap"):
        return "1"
    return "count"


# ---------------------------------------------------------------------------
# reporting

def tally(rounds, workdir: Path) -> dict:
    outcomes = [o for r in rounds for o in r]
    problems = [p for o in outcomes if not o.failed for p in o.problems]
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failed),
        "problems": problems,
        "failed_ops": sorted({" ".join(o.args).replace(f"{workdir}{os.sep}", "")
                              for o in outcomes if o.failed}),
    }


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = done.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": BLAS_ENV,
        "commit": commit,
    }


def print_table(title: str, metrics: dict, units: dict, counts: dict) -> None:
    print(title)
    for name, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:48s} {shown} {units.get(name, '')}")
    print(f"  operations: attempted {counts['attempted']}, failed {counts['failed']}")
    for op in counts["failed_ops"]:
        print(f"    failed: tribell {op}")
    for problem in counts["problems"]:
        print(f"    WRONG: {problem}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](seed, workdir)
        if trace:
            rounds, metrics = run_traced(workload, deadline)
            units = {m: layer_unit(m) for m in metrics}
            detail = {}
        else:
            rounds, metrics, detail = run_untraced(workload, seconds, deadline)
            units = dict(E2E_UNITS, **{d: "s" for d in detail if d.endswith("_s")})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts = tally(rounds, workdir)
    mode = "traced, in process" if trace else "fresh processes"
    print_table(f"workload {name} (seed {seed}, {mode})", {**metrics, **detail}, units, counts)
    return {"workload": name, "seed": seed, "trace": int(trace), **counts,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tribell" / "cli.py").is_file():
        print(f"error: no tribell sources under {SRC}", file=sys.stderr)
        return 2
    oracle.self_check()
    pin_to_one_cpu()

    started = time.time()
    if args.workload == "all":
        runs = [run_workload(name, args.seed, args.seconds, trace)
                for name in WORKLOADS for trace in ((False, True) if args.trace else (False,))]
    else:
        runs = [run_workload(args.workload, args.seed, args.seconds, bool(args.trace))]
    record = {"machine": machine(), "started": started, "elapsed_s": time.time() - started,
              "argv": sys.argv[1:], "runs": runs}
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")

    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        summary["metrics"] = runs[0]["metrics"]
    else:
        summary["metrics"] = {f"{r['workload']}{'.traced' if r['trace'] else ''}": r["metrics"]
                              for r in runs}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
