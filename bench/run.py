"""homcolor benchmark: one workload, one seed, a closed loop with one caller.

    python3 bench/run.py --workload fixture-cli --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and nothing is installed.  The timed loop makes whole
passes over the workload's fixed op list, one op at a time, until
``--seconds`` have passed and at least ``MIN_OPS`` ops are done; each op's
latency covers only the call into homcolor.  Between ops the loop times a
fixed reference loop, and the reported times are scaled to the speed at
which that loop takes ``REF_MS`` (see ``SpeedLog``); the raw times are
printed beside them.  Outcomes are compared with the known answers after
the loop.  With ``--trace 1`` half the time runs untraced and half under
the wrappers of ``bench/tracing.py``, and the per-layer metrics are printed
instead of the end-to-end ones.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table with sample counts and the run's metadata.  The exit
code is 1 when any op failed and 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("fixture-cli", "tensor-parametric", "closures-generated")
MIN_OPS = 100  # so that at least ten latencies lie beyond the p90
SETUP_REPEATS = 7
# The shared machine's speed moves by up to 2x (4x under heavy neighbours)
# from one second to the next and from one minute to the next, for process
# CPU time as much as for wall time.  So the loop reads the speed at most
# every REF_EVERY seconds by timing reference_s(), and scales each latency
# to the speed at which that loop takes REF_MS: its best time on the machine
# the bounds were set on (Intel Xeon, 2 vCPUs, Python 3.11.7).
REF_EVERY = 0.1
REF_MS = 2.1
# Import time is measured in fresh interpreters, several times, since a
# second import in this process would find the modules already loaded.
IMPORT_PROBE = (
    "import sys, time; sys.path[0:0] = sys.argv[1:3]; started = time.perf_counter(); "
    "import homcolor, bench.workloads; print(time.perf_counter() - started)"
)


def die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import homcolor and the benchmark from this checkout; return the
    workloads module."""
    src = ROOT / "src"
    for need in (src / "homcolor" / "__init__.py", ROOT / "tests" / "dense_oracle.py",
                 ROOT / "fixtures" / "manifest.json"):
        if not need.is_file():
            die(f"{need.relative_to(ROOT)} is missing; run from a full checkout")
    sys.path[0:1] = [str(src), str(ROOT)]  # replaces this script's directory
    import homcolor  # noqa: F401
    from bench import workloads
    for name in ("homcolor", "tests.dense_oracle", "bench.workloads"):
        if not Path(sys.modules[name].__file__).resolve().is_relative_to(ROOT):
            die(f"{name} was imported from outside the checkout")
    return workloads


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import homcolor and the workloads."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout)


# -- metadata -------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def loadavg() -> list[float]:
    return [float(x) for x in _read("/proc/loadavg").split()[:3]] or list(os.getloadavg())


def git_commit() -> str:
    """HEAD of the checkout's git directory, read from its files; the
    benchmark may also run in an exported tree, which has none."""
    git = ROOT / ".git"
    head = _read(str(git / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    direct = _read(str(git / ref)).strip()
    if direct:
        return direct
    for line in _read(str(git / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


# -- the timed loop -----------------------------------------------------------------


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop of exact fraction sums: how fast
    the shared machine runs this process at the moment."""
    started = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - started


class SpeedLog:
    """Reference timings taken through a run, and the scaling they give."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def read(self) -> None:
        self.at.append(time.perf_counter())
        self.seconds.append(reference_s())

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` taken by a call that started at ``start``, at the speed
        where ``reference_s()`` takes ``REF_MS``: scaled by the mean of the
        readings just before and just after the call."""
        i = bisect.bisect_right(self.at, start)
        around = self.seconds[max(i - 1, 0): i + 1]
        return seconds * REF_MS / 1000.0 * len(around) / sum(around)

    def summary_ms(self) -> dict:
        ms = sorted(x * 1000.0 for x in self.seconds)
        return {"readings": len(ms), "min": ms[0], "median": statistics.median(ms), "max": ms[-1]}


@dataclass
class Timings:
    """One loop: every execution as (op index, start, seconds), the speed
    readings around them, the loop's wall time and its passes."""

    runs: list[tuple[int, float, float]]
    speed: SpeedLog
    wall_s: float
    passes: int

    def raw(self) -> list[float]:
        return [seconds for _, _, seconds in self.runs]

    def scaled(self) -> list[float]:
        return [self.speed.scale(start, seconds) for _, start, seconds in self.runs]


class OpRecord:
    """Executions of one op: first outcome, and how many differed or raised."""

    __slots__ = ("runs", "first", "mismatches", "differing", "errors", "trace")

    def __init__(self):
        self.runs = 0
        self.first = None
        self.mismatches = 0
        self.differing = None
        self.errors = 0
        self.trace = ""


def run_loop(ops, records, seconds: float, min_ops: int) -> Timings:
    """Whole passes over ``ops`` until ``seconds`` have passed and ``min_ops``
    ops are done, reading the machine's speed before the first op, between
    ops at most every ``REF_EVERY`` seconds, and after the last."""
    runs: list[tuple[int, float, float]] = []
    speed = SpeedLog()
    clock = time.perf_counter
    started = clock()
    passes = 0
    speed.read()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        while True:
            for index, (op, record) in enumerate(zip(ops, records)):
                if clock() - speed.at[-1] >= REF_EVERY:
                    speed.read()
                t0 = clock()
                elapsed = None
                try:
                    result = op.call()
                    elapsed = clock() - t0
                    outcome = op.observe(result)
                except Exception:  # an op that raises is counted as failed
                    runs.append((index, t0, clock() - t0 if elapsed is None else elapsed))
                    record.runs += 1
                    record.errors += 1
                    record.trace = record.trace or traceback.format_exc()
                    continue
                runs.append((index, t0, elapsed))
                record.runs += 1
                if record.first is None:
                    record.first = outcome
                elif outcome != record.first:
                    record.mismatches += 1
                    record.differing = outcome
            passes += 1
            if clock() - started >= seconds and len(runs) >= min_ops:
                speed.read()
                return Timings(runs, speed, clock() - started, passes)


def verify(workload, records) -> tuple[int, list[str]]:
    """Failed executions: raised, differed from the op's first outcome, or
    (all executions of the op) a first outcome that contradicts the known
    answer or the dense oracle."""
    failed, problems = 0, []
    for index, (op, record) in enumerate(zip(workload.ops, records)):
        failed += record.errors + record.mismatches
        if record.trace:
            problems.append(f"{op.name}: raised\n{record.trace}")
        if record.mismatches:
            problems.append(
                f"{op.name}: {record.mismatches} outcomes differ from the first, e.g.\n"
                f"first: {record.first!r:.2000}\nlater: {record.differing!r:.2000}"
            )
        if record.first is None:
            continue
        checks = [c for c in (op.expect, workload.oracle_sample.get(index)) if c is not None]
        for check in checks:
            try:
                problem = check(record.first)
            except Exception:
                problem = "check raised\n" + traceback.format_exc()
            if problem:
                failed += record.runs - record.errors - record.mismatches
                problems.append(f"{op.name}: {problem}")
                break
    return failed, problems


# -- main -----------------------------------------------------------------------------


def latency_rows(latencies: list[float], prefix: str = "") -> dict:
    n = len(latencies)
    return {
        f"{prefix}ops_per_s": (n / sum(latencies), "1/s", n),
        f"{prefix}op_ms.p50": (statistics.median(latencies) * 1000.0, "ms", n),
        f"{prefix}op_ms.p90": (statistics.quantiles(latencies, n=10)[8] * 1000.0, "ms", n),
    }


def time_setup(setup, work: Path, seed: int):
    """Set up ``SETUP_REPEATS`` times, each with an import in a fresh
    interpreter and between two speed readings; returns the last workload
    and the median raw and scaled seconds of a repeat."""
    speed = SpeedLog()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        speed.read()
        started = time.perf_counter()
        imported = import_seconds()
        t0 = time.perf_counter()
        workload = setup(ROOT, work, seed)
        took = imported + time.perf_counter() - t0
        speed.read()
        raw.append(took)
        scaled.append(speed.scale(started, took))
    return workload, statistics.median(raw), statistics.median(scaled)


def measure_untraced(ops, records, seconds: float) -> tuple[dict, dict, Timings]:
    """End-to-end metrics at the reference speed, and the raw ones."""
    timings = run_loop(ops, records, seconds, MIN_OPS)
    rows = latency_rows(timings.scaled())
    rows["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    return rows, latency_rows(timings.raw(), "raw."), timings


def measure_traced(ops, records, seconds: float, spans: Path) -> tuple[dict, Timings]:
    """Half the time untraced, half traced: per-layer metrics per pass of
    the op list, and the tracing overhead as the ratio of the two rates at
    the reference speed."""
    from bench.tracing import Tracer

    plain = run_loop(ops, records, seconds / 2, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(ops, records, seconds / 2, 0)
    finally:
        tracer.uninstall()
    rows = {name: (value, unit, len(traced.runs))
            for name, (value, unit) in tracer.metrics(traced.wall_s, traced.passes).items()}
    plain_rate = latency_rows(plain.scaled())["ops_per_s"][0]
    traced_rate = latency_rows(traced.scaled())["ops_per_s"][0]
    rows["trace.untraced_ops_per_s"] = (plain_rate, "1/s", len(plain.runs))
    rows["trace.traced_ops_per_s"] = (traced_rate, "1/s", len(traced.runs))
    rows["trace.slowdown"] = (plain_rate / traced_rate, "ratio", len(traced.runs))
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans)
    return rows, plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpus = os.sched_getaffinity(0)
    # One CPU for the loop, its speed readings and the import probes: the
    # VM's two CPUs are slowed by different neighbours, so readings taken on
    # one would not scale times measured on the other.
    os.sched_setaffinity(0, {min(cpus)})
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(cpus), "pinned_cpu": min(cpus), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "cpu": cpu_model(), "loadavg_start": loadavg(),
        "commit": git_commit(), "ref_ms": REF_MS,
    }
    workloads = import_program()
    setup = workloads.SETUPS[args.workload]
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"inputs-{os.getpid()}"  # private to this process, removed at exit
    raw: dict = {}
    try:
        if args.trace:
            workload = setup(ROOT, work, args.seed)
            records = [OpRecord() for _ in workload.ops]
            rows, timings = measure_traced(
                workload.ops, records, args.seconds, WORK / "spans" / f"{run_name}.json")
        else:
            workload, raw_setup_s, setup_s = time_setup(setup, work, args.seed)
            records = [OpRecord() for _ in workload.ops]
            rows, raw, timings = measure_untraced(workload.ops, records, args.seconds)
            rows["setup_s"] = (setup_s, "s", SETUP_REPEATS)
            raw["raw.setup_s"] = (raw_setup_s, "s", SETUP_REPEATS)
        failed, problems = verify(workload, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(record.runs for record in records)
    for problem in problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    meta["loadavg_end"] = loadavg()
    meta["reference_ms"] = timings.speed.summary_ms()
    meta["ops_in_list"] = len(workload.ops)

    print(f"{'metric':<34} {'value':>16}  {'unit':<10} samples")
    for name, (value, unit, samples) in {**rows, **raw}.items():
        print(f"{name:<34} {value:>16.6g}  {unit:<10} {samples}")
    print(f"{'failed_op_ratio':<34} {failed / attempted:>16.6g}  {'ratio':<10} {attempted}")
    print("meta " + json.dumps(meta))

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_name}.json").write_text(json.dumps({
        "meta": meta, "failed": failed, "attempted": attempted,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in {**rows, **raw}.items()},
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
