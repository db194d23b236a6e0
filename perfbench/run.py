"""statdiv benchmark runner.

    python3 perfbench/run.py --workload match --seed 0 --seconds 30 --trace 0

Runs one workload (`match`, `dr` or `estimator`; `all` runs each in its own
process and prints every metric) from the root of a checkout, importing
statdiv from `src/` as the tier-1 tests do. `--trace 0` prints the
end-to-end metrics; `--trace 1` prints the per-layer metrics of a traced
run. The last line of standard output is one JSON object; see
perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("match", "dr", "estimator")
SETUP_REPEATS = 3


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pin_threads() -> None:
    """One pair worker per core, and single-threaded BLAS, so the process
    never runs more compute threads than cores. Set before numpy loads."""
    os.environ["STATDIV_THREADS"] = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_statdiv() -> float:
    """Import statdiv from this checkout's src/ and return the time it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import statdiv
        import statdiv.cli  # noqa: F401
        import statdiv.oracles  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import statdiv from {src}: {exc}") from None
    elapsed = time.perf_counter() - start
    if Path(statdiv.__file__).resolve().parent != src / "statdiv":
        raise SystemExit(f"perfbench: statdiv was imported from {statdiv.__file__}, not {src}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "STATDIV_THREADS": os.environ.get("STATDIV_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def passes(start: float, seconds: float):
    """Yield pass numbers while one more pass would end nearer to `seconds`
    than stopping now; always at least one."""
    count = 0
    while True:
        yield count
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / count >= seconds:
            return


class Runner:
    """Runs ops of one workload and keeps the failure record."""

    def __init__(self, workload):
        self.workload = workload
        self.problems: list[str] = []

    def attempt(self, op_seed: int) -> bool:
        try:
            self.workload.op(op_seed)
            return True
        except Exception:  # a failed check or an error fails the op; keep measuring
            self.problems.append(traceback.format_exc())
            return False

    def setup(self, import_s: float) -> float:
        """Import (once), then generate the inputs and run one warm-up op,
        SETUP_REPEATS times; the median repeat counts."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload.prepare()
            self.attempt(self.workload.seeds[0])
            times.append(time.perf_counter() - start)
        return import_s + statistics.median(times)

    def timed(self, seconds: float) -> dict:
        """Whole passes over the seed list, as many as best fill `seconds`."""
        times, ok = [], 0
        start = time.perf_counter()
        for _ in passes(start, seconds):
            for op_seed in self.workload.seeds:
                t = time.perf_counter()
                ok += self.attempt(op_seed)
                times.append(time.perf_counter() - t)
        wall = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.attempted, self.failed = len(times), len(times) - ok
        print(f"timed: {len(times)} ops ({self.failed} failed) in {wall:.3f} s, "
              f"op p50 {statistics.median(times):.4f} s over {len(times)} samples")
        return {"ops_per_s": ok / wall, "op_p50_s": statistics.median(times),
                "peak_rss_mb": rss_mb, "ok_frac": ok / len(times)}

    def traced(self, seconds: float, tracer) -> dict:
        """Each op twice, untraced and traced (order alternating by pass), in
        as many whole passes as best fill `seconds`. Per-layer metrics are
        means per traced op; the untraced twins give the tracing overhead."""
        plain = traced = 0.0
        ops = ok = 0
        for pass_no in passes(time.perf_counter(), seconds):
            for op_seed in self.workload.seeds:
                for with_trace in ((False, True) if pass_no % 2 == 0 else (True, False)):
                    if with_trace:
                        tracer.op = ops
                        tracer.install()
                    t = time.perf_counter()
                    ok += self.attempt(op_seed)
                    elapsed = time.perf_counter() - t
                    if with_trace:
                        tracer.uninstall()
                        traced += elapsed
                        ops += 1
                    else:
                        plain += elapsed
        self.attempted, self.failed = 2 * ops, 2 * ops - ok
        metrics = tracer.layer_metrics(ops)
        metrics["trace.overhead_frac"] = traced / plain - 1.0
        for name, expected in self.workload.expected_counts().items():
            line = f"count {name}: {metrics[name]:g} per op, {expected} from the workload shape"
            print(line)
            if metrics[name] != expected:
                print(f"perfbench: warning: {line}", file=sys.stderr)
        for problem in tracer.coverage_problems():
            print(f"perfbench: trace coverage: {problem}", file=sys.stderr)
        return metrics


def run_one(args) -> int:
    pin_threads()
    import_s = import_statdiv()
    from tracer import Tracer
    from workloads import WORKLOADS

    work_dir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        runner = Runner(WORKLOADS[args.workload](args.seed, work_dir))
        setup_s = runner.setup(import_s)
        if args.trace:
            tracer = Tracer()
            values = runner.traced(args.seconds, tracer)
            values.update(runner.workload.quality())
            tracer.write_spans(out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl")
        else:
            values = {"setup_s": setup_s, **runner.timed(args.seconds)}
            for name, value in runner.workload.quality().items():
                print(f"quality {name}: {value:.6g}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    for problem in runner.problems:
        print(f"perfbench: failed op: {problem}", file=sys.stderr)
    units = declared_units(args.trace)
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {undeclared}")
    # A metric of a layer this workload does not run reads 0.
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **result}
    (out_dir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); print
    every metric by name with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:48s} {entry['value']:14.6g} {entry['unit']}")
        status |= not result["correct"]
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
