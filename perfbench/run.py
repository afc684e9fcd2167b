"""Repository benchmark: one command, four workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fleet-scale --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py [--seed 1] [--seconds 20]     # every workload

With ``--workload``, one workload runs in this process as a closed loop for
``--seconds`` seconds and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
  untraced iterations: ``work_per_s`` is the work of all timed iterations
  over their host seconds (its unit of work per workload is named in
  ``perfbench/plan.json``), ``setup_s`` the median over fresh set-up
  processes (``--setup-probe``), ``peak_rss_mb`` this process's peak.
* ``--trace 1`` alternates untraced and traced iterations and reports the
  per-layer metrics (:mod:`tracing`) plus the tracing overhead.

Timings are rescaled to a reference host speed (:class:`HostSpeed`); the
unscaled figures are printed beside the digest.

Every iteration is checked (:mod:`workloads`) and must reproduce the first
iteration's SHA-256 result digest, which is printed so two commits can be
compared for bitwise-identical results.  Without ``--workload`` every
workload runs in fresh processes, untraced then traced, and a table of all
metrics is printed.  ``perfbench/plan.json`` holds the default and
held-out seeds and the layer -> metric -> workload predictions.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh set-up processes whose median is ``setup_s``.
SETUP_PROBES = 5
#: Consecutive iterations that may raise before the run gives up.
MAX_ERRORS = 2
#: Calibration kernel time on the reference host all timings are scaled to.
KERNEL_REF_S = 0.015


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


class Tally:
    """Operations attempted and failed, and the reference digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.errors = 0

    def add(self, check) -> None:
        self.attempted += check.operations
        self.failed += check.failed
        if self.reference is None:
            self.reference = check.digest


def iterate(workload, tally: Tally, speed: "HostSpeed", tracer=None):
    """One closed-loop iteration; ``(seconds, work, kernel samples)`` or ``None``.

    Host time the speed sampler spent inside the iteration is not counted,
    neither in the iteration nor in any span it landed in.
    """
    workload.before()
    try:
        gc.collect()
        if tracer is not None:
            tracing.install(tracer)
        speed.tracer = tracer
        try:
            first, sampled = len(speed.samples), speed.sampled_s
            start = time.perf_counter()
            output = workload.run_once()
            elapsed = time.perf_counter() - start - (speed.sampled_s - sampled)
        finally:
            speed.tracer = None
            if tracer is not None:
                tracer.uninstall()
        tally.add(workload.check(output, tally.reference))
        tally.errors = 0
        return elapsed, workload.work(output), speed.samples[first:]
    except Exception:  # any program failure counts against the run
        traceback.print_exc()
        tally.attempted += workload.operations
        tally.failed += workload.operations
        tally.errors += 1
        if tally.errors >= MAX_ERRORS:
            raise
        return None
    finally:
        workload.after()


def _kernel_process(index: int):
    for step in range(20):
        yield (index * step) % 5 + 1.0


def calibration_kernel() -> float:
    """Seconds a fixed generator-and-heap event loop takes right now.

    The loop mimics the interpreter work this program's hot paths do (heap
    pushes and pops, generator resumption, small tuples), so it slows down
    with them when the host is busy.
    """
    start = time.perf_counter()
    heap = []
    for index in range(600):
        heapq.heappush(heap, (0.0, index, _kernel_process(index)))
    sequence = len(heap)
    while heap:
        now, _, process = heapq.heappop(heap)
        delay = next(process, None)
        if delay is not None:
            sequence += 1
            heapq.heappush(heap, (now + delay, sequence, process))
    return time.perf_counter() - start


class HostSpeed:
    """Tracks the host's speed with the calibration kernel during a run.

    A shared host runs the same code 20-40% slower in some spells than in
    others, spells lasting from a second to minutes, which swamps run-to-run
    comparisons.  While :meth:`sampling` is active, a timer signal runs the
    kernel every ``INTERVAL_S`` seconds in the middle of whatever the
    process is doing, so the samples follow the host through the timed
    iterations themselves.  Every timing is then rescaled by
    ``mean kernel time / KERNEL_REF_S``: reported as if measured on a host
    where the kernel takes ``KERNEL_REF_S`` seconds.
    """

    INTERVAL_S = 0.25

    def __init__(self) -> None:
        self.samples = []
        #: Host seconds spent inside the kernel so far.
        self.sampled_s = 0.0
        #: The tracer of a traced iteration in progress, whose open span
        #: must not be charged for a sample.
        self.tracer = None

    def sample(self) -> None:
        seconds = calibration_kernel()
        self.samples.append(seconds)
        self.sampled_s += seconds
        if self.tracer is not None:
            self.tracer.exclude(seconds)

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``INTERVAL_S`` seconds of host time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host this run ran (> 1: slower)."""
        return self.slowdown_of(self.samples)

    def slowdown_of(self, samples) -> float:
        """The slowdown ``samples`` show, or the run's when there are none."""
        return statistics.fmean(samples or self.samples) / KERNEL_REF_S


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over fresh processes, at reference host speed."""
    samples = []
    speed = HostSpeed()
    for _ in range(SETUP_PROBES):
        speed.sample()
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(completed.stdout.splitlines()[-1])["setup_s"])
    speed.sample()
    return statistics.median(samples) / speed.slowdown


def run_workload(args) -> dict:
    """Set up, measure and check one workload in this process."""
    import_program()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if args.setup_probe:
            return {"setup_s": time.perf_counter() - START}
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
        try:
            return measure(workload, args, setup_s)
        finally:
            workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload, args, setup_s) -> dict:
    tally = Tally()
    workload.prepare()
    plain, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    speed = HostSpeed()
    with speed.sampling():
        began = time.perf_counter()
        while True:
            sample = iterate(workload, tally, speed)
            if sample is not None:
                plain.append(sample)
            if tracer is not None:
                sample = iterate(workload, tally, speed, tracer)
                if sample is not None:
                    traced.append(sample)
            done = plain and (traced or tracer is None)
            if done and time.perf_counter() - began >= args.seconds:
                break
    speed.sample()
    final = workload.final_checks(tally.reference)
    tally.attempted += final.operations
    tally.failed += final.failed

    plain_s = sum(seconds for seconds, _, _ in plain)
    work_per_s = sum(work for _, work, _ in plain) / plain_s
    if tracer is not None:
        metrics = tracing.layer_metrics(
            tracer,
            len(traced),
            sum(seconds for seconds, _, _ in traced),
            _reference_mean_s(traced, speed) / _reference_mean_s(plain, speed) - 1.0,
            speed.slowdown,
        )
    else:
        metrics = {
            "setup_s": setup_s,
            "work_per_s": work_per_s * speed.slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(f"perfbench {args.workload} seed={args.seed} digest={tally.reference}")
    print(
        f"perfbench {args.workload} iterations={len(plain)} traced={len(traced)} "
        f"host_work_per_s={work_per_s:.6g} host_slowdown={speed.slowdown:.4f}"
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _reference_mean_s(samples, speed: HostSpeed) -> float:
    """Mean iteration time, each rescaled by the host speed during it."""
    return statistics.fmean(
        seconds / speed.slowdown_of(during) for seconds, _, during in samples
    )


def contract_result(measured: dict, benchmark: dict, trace: int) -> dict:
    """Shape a measurement as the contract's JSON: metrics with units."""
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    return {
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            metric["name"]: {
                "value": measured["metrics"][metric["name"]],
                "unit": metric["unit"],
            }
            for metric in wanted
        },
    }


def run_all(args, plan, benchmark) -> int:
    """Every workload in fresh processes, untraced then traced; one table."""
    summary = {}
    for entry in benchmark["workloads"]:
        name = entry["name"]
        runs = []
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.splitlines()
            if completed.returncode != 0 or not lines:
                print(f"perfbench {name} trace={trace} exited {completed.returncode}")
                return 1
            for line in lines[:-1]:
                print(line)
            digest_line = f"perfbench {name} seed={args.seed} digest="
            digest = next(
                line[len(digest_line):] for line in lines if line.startswith(digest_line)
            )
            runs.append((json.loads(lines[-1]), digest))
        (plain, plain_digest), (traced, traced_digest) = runs
        failed = plain["failed"] + traced["failed"] + (plain_digest != traced_digest)
        attempted = plain["attempted"] + traced["attempted"]
        summary[name] = {
            "digest": plain_digest,
            "digests_match": plain_digest == traced_digest,
            "error_rate": failed / attempted,
            "correct": plain["correct"] and traced["correct"] and failed == 0,
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }

    print("\nEnd-to-end metrics (untraced)")
    for name, result in summary.items():
        work = plan["work_per_s"][name]
        for metric, reading in result["end_to_end"].items():
            label, unit = (work["name"], work["unit"]) if metric == "work_per_s" else (
                metric, reading["unit"])
            print(f"  {name:<13} {label:<20} {reading['value']:>16.6g} {unit}")
        print(f"  {name:<13} {'error_rate':<20} {result['error_rate']:>16.6g} share")
    print("\nPer-layer metrics (traced)")
    print("  " + " " * 28 + " ".join(f"{name:>13}" for name in summary))
    for metric in benchmark["per_layer"]:
        row = "  ".join(
            f"{result['per_layer'][metric['name']]['value']:>12.5g}"
            for result in summary.values()
        )
        print(f"  {metric['name']:<28} {row}  {metric['unit']}")
    print(json.dumps({"seed": args.seed, "workloads": summary}, sort_keys=True))
    return 0 if all(result["correct"] for result in summary.values()) else 1


def main() -> int:
    plan = load_json(HERE / "plan.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; omit to run all")
    parser.add_argument("--seed", type=int, default=plan["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    benchmark = load_json(ROOT / "BENCHMARK.json")
    if args.workload is None:
        import_program()
        return run_all(args, plan, benchmark)
    names = [entry["name"] for entry in benchmark["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    measured = run_workload(args)
    if args.setup_probe:
        print(json.dumps(measured))
        return 0
    print(json.dumps(contract_result(measured, benchmark, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
