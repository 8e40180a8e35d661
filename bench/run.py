#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs as a closed loop, one caller and no
extra threads, with tracing off, and the end-to-end metrics are reported.
With ``--trace 1`` the same fixed block of operations runs alternately
untraced and traced, and the per-layer metrics are reported, normalised per
item. Every operation's output is checked; one that raises or fails its
check counts as failed and the run goes on.

Every metric is printed by name with its unit. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--out FILE`` also writes the full result,
environment included, for ``bench/compare.py``.

The package is imported from the ``src/`` directory of the checkout that
holds this file; without it the run exits with code 2.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("verify", "table1", "qudit")
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# op_p90_ms needs at least ten samples beyond it.
MIN_OPS = 100
# A run that has not reached MIN_OPS by then stops anyway, to end in time.
MIN_OPS_DEADLINE_S = 120
WARMUP_S = 1.0
MAX_REPORTED_FAILURES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    # Arrays of 2x2 to 4096 amplitudes gain nothing from BLAS threads, and one
    # thread steadies the timings. Must run before numpy is first imported;
    # set-up probes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _require_source() -> None:
    if not (SRC / "qsuperpose" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}/qsuperpose; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# --- environment -------------------------------------------------------------


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


# --- measurement ---------------------------------------------------------------


class Counter:
    """Operations attempted and failed; prints the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, error) -> bool:
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"bench: operation failed: {error}", file=sys.stderr)
        return False


def timed_op(wl, x, counter: Counter) -> tuple[float, bool]:
    """Time one call of the workload's entry point, then check its output."""
    start = time.perf_counter()
    try:
        out = wl.run(x)
    except Exception as exc:  # an operation that raises counts as failed
        elapsed = time.perf_counter() - start
        return elapsed, counter.record(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    try:
        wl.check(x, out)
    except Exception as exc:  # a wrong output, or one the check cannot read
        return elapsed, counter.record(f"{type(exc).__name__}: {exc}")
    return elapsed, counter.record(None)


def warm_up(wl, inputs) -> None:
    scratch = Counter()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < WARMUP_S:
        timed_op(wl, inputs[i % len(inputs)], scratch)
        i += 1


def setup_times(workload: str, seed: int, counter: Counter) -> list[float]:
    """Seconds from starting a fresh interpreter until its first operation is done."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["done"] - start)
        counter.record(probe["error"])
    return times


def end_to_end(wl, inputs, seconds: float, seed: int, counter: Counter) -> tuple[dict, int]:
    setup = setup_times(wl.name, seed, counter)
    warm_up(wl, inputs)
    durations = []
    ok_ops = 0
    i = 0
    start = time.perf_counter()
    while True:
        elapsed, ok = timed_op(wl, inputs[i % len(inputs)], counter)
        durations.append(elapsed)
        ok_ops += ok
        i += 1
        wall = time.perf_counter() - start
        if wall >= seconds and (len(durations) >= MIN_OPS or wall >= MIN_OPS_DEADLINE_S):
            break
    if len(durations) < MIN_OPS:
        print(f"bench: only {len(durations)} operations; op_p90_ms is thin", file=sys.stderr)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "items_per_s": (ok_ops * wl.items_per_op / wall, "items/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(durations, n=10)[8] * 1e3, "ms"),
        "failed_ratio": (counter.failed / counter.attempted, "1"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return metrics, len(durations)


def per_layer(wl, inputs, seconds: float, counter: Counter) -> tuple[dict, int]:
    """Alternate untraced and traced passes over one fixed block of operations."""
    from tracer import ENTRY_POINTS, BYTES_OUT, Tracer

    block = [inputs[i % len(inputs)] for i in range(wl.trace_block)]
    warm_up(wl, block)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds < 2 or time.perf_counter() - start < seconds:
        # Alternate which pass goes first so neither always runs warmer.
        for traced in (False, True) if rounds % 2 == 0 else (True, False):
            if traced:
                with tracer:
                    traced_s += sum(timed_op(wl, x, counter)[0] for x in block)
            else:
                plain_s += sum(timed_op(wl, x, counter)[0] for x in block)
        rounds += 1

    items = rounds * len(block) * wl.items_per_op
    metrics = {}
    for key, st in tracer.stats.items():
        metrics[f"{key}.calls"] = (st.calls / items, "calls/item")
        metrics[f"{key}.self_ms"] = (st.self_ns / 1e6 / items, "ms/item")
        if key in ENTRY_POINTS:
            metrics[f"{key}.total_ms"] = (st.total_ns / 1e6 / items, "ms/item")
        if key in BYTES_OUT:
            metrics[f"{key}.bytes_out"] = (st.bytes_out / items, "B/item")
    validation_ns = sum(
        tracer.stats[k].self_ns for k in ("linalg.StateVector", "linalg.DensityMatrix")
    )
    metrics["linalg.validation_share"] = (validation_ns / 1e9 / traced_s, "share")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return metrics, 2 * rounds * len(block)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(seed)
    counter = Counter()
    if trace:
        metrics, ops = per_layer(wl, inputs, seconds, counter)
    else:
        metrics, ops = end_to_end(wl, inputs, seconds, seed, counter)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "item": wl.item,
        "note": wl.note,
        "ops": ops,
        "env": environment(),
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report_line(result: dict, metric_names) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: result["metrics"][k] for k in metric_names},
        }
    )


def print_result(result: dict) -> None:
    print(
        f"workload {result['workload']}: seed {result['seed']}, trace {result['trace']}, "
        f"{result['ops']} operations, one item = one {result['item']}"
    )
    if result["note"]:
        print(f"  note: {result['note']}")
    print(f"  env: {json.dumps(result['env'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")


def reported_metrics(trace: bool) -> list[str]:
    """The metric names the final JSON line carries (those BENCHMARK.json lists)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run each workload in a process of its own and relay its output."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result here (one workload)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all" and args.out:
        parser.error("--out takes a single workload")
    pin_blas_threads()
    _require_source()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(report_line(result, reported_metrics(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
