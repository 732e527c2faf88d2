"""rnskit benchmark: one workload, one single-threaded process, one client.

    python3 benchmarks/run.py --workload sim-narrow --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; rnskit is imported from ``./src`` of
the current directory and nowhere else. The load is a closed loop: the
next request is generated only after the previous one has been answered
and checked. Each request's timed interval covers its calls into rnskit
only; input generation and the exact-integer oracle run outside it.

Times are thread CPU time. The speed of a shared machine still drifts by
10-40%, within seconds and over tens of seconds, as other tenants load
its cores. So every time metric is rescaled to the speed at which a
reference loop, fixed work that does not touch rnskit, takes
``REFERENCE_NS``. Each request is scaled by the mean of the workload's
reference loops timed nearest to it, one every few milliseconds of
request time. Set-up is timed in fresh processes (``setup_once.py``), so
that it pays what a first import pays, and each is scaled by the
interpreter reference loop timed just before it in its own process. The
unscaled figures are printed above the JSON line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass over the same fixed request prefix until
``--seconds`` have passed, and prints the per-layer metrics; the spans
of the first traced pass go to ``.bench_out/``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any
check failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median
from time import perf_counter, thread_time_ns

from tracing import GROUPS, SIMULATED, SPAN_FIELDS, Tracer
from workloads import WORKLOADS

# Set-up is timed in this many fresh processes (setup_once.py) per run and
# reported as the median, so that each pays what a first import pays.
SETUP_REPEATS = 25
SETUP_ONCE = Path(__file__).resolve().parent / "setup_once.py"
SETUP_TIMEOUT_S = 60
MIN_LATENCY_SAMPLES = 1000  # keeps at least 10 samples beyond p99
# The reference loop runs after every CALIBRATE_EVERY_NS of timed request
# time; REFERENCE_NS is its CPU time at the speed all metrics are scaled to,
# and a request is scaled by the mean of its LOCAL_REFERENCES nearest loops.
CALIBRATE_EVERY_NS = 10_000_000
REFERENCE_NS = 1_000_000
LOCAL_REFERENCES = 5


def time_reference(workload) -> int:
    start = thread_time_ns()
    workload.reference()
    return thread_time_ns() - start


@dataclass
class Pass:
    """Outcome of driving a stream of requests."""

    latencies_ns: array = field(default_factory=lambda: array("q"))
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    simulated: Counter = field(default_factory=Counter)
    reference_ns: list[int] = field(default_factory=list)
    # per latency sample: how many reference loops were timed before it
    reference_index: array = field(default_factory=lambda: array("I"))

    def scaled_latencies_ns(self) -> list[float]:
        """Latencies at the reference speed, each scaled by its nearest loops."""
        refs, half = self.reference_ns, LOCAL_REFERENCES // 2
        factors = [
            REFERENCE_NS / fmean(refs[max(0, gap - half - 1):gap + half])
            for gap in range(len(refs) + 1)
        ]
        return [ns * factors[gap] for ns, gap in zip(self.latencies_ns, self.reference_index)]

    def scaled_ops_per_s(self) -> float:
        return len(self.latencies_ns) / (sum(self.scaled_latencies_ns()) / 1e9)


def drive(workload, rk, state, requests, *, count=None, deadline=None, tracer=None,
          calibrate=False) -> Pass:
    """Closed loop: execute, then check, one request at a time."""
    result = Pass()
    if calibrate:
        result.reference_ns.append(time_reference(workload))
    since_reference = 0
    for index, req in enumerate(requests):
        if calibrate and since_reference >= CALIBRATE_EVERY_NS:
            result.reference_ns.append(time_reference(workload))
            since_reference = 0
        if count is not None and index >= count:
            break
        if deadline is not None and perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.request = index
        result.attempted += 1
        try:
            elapsed, output = workload.execute(rk, state, req)
            result.latencies_ns.append(elapsed)
            result.reference_index.append(len(result.reference_ns))
            since_reference += elapsed
            ok = workload.check(rk, req, output)
            counts = workload.structure(output)
        except Exception as exc:  # an unexpected exception fails the request
            result.failures.append(f"request {index}: {exc!r}")
            continue
        if not ok:
            result.failures.append(f"request {index}: wrong result for {repr(req)[:200]}")
        if counts:
            result.simulated += counts
    return result


def load_rnskit(src: Path):
    """Import rnskit afresh from ``src``, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "rnskit" or n.startswith("rnskit.")]:
        del sys.modules[name]
    rk = importlib.import_module("rnskit")
    importlib.import_module("rnskit.cli")
    if not Path(rk.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"rnskit was imported from {rk.__file__}, not from {src}")
    return rk


def one_pass(workload, seed: int, src: Path, tracer: Tracer | None):
    """Fresh import and set-up, then the workload's fixed request prefix."""
    rk = load_rnskit(src)
    if tracer is not None:
        tracer.install(rk)
    state = workload.setup(rk)
    requests = workload.requests(random.Random(seed), state)
    return drive(workload, rk, state, requests, count=workload.trace_requests, tracer=tracer,
                 calibrate=True)


def percentile(ordered: list, q: float):
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timing_metrics(latencies_ns, setup_ns: float) -> dict:
    lat = sorted(latencies_ns)
    return {
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "latency_p50_us": (percentile(lat, 0.50) / 1e3, "us"),
        "latency_p99_us": (percentile(lat, 0.99) / 1e3, "us"),
        "setup_s": (setup_ns / 1e9, "s"),
    }


def fresh_setup(workload) -> tuple[int, int]:
    """Set-up time and a reference loop's time, both from a fresh process."""
    proc = subprocess.run([sys.executable, str(SETUP_ONCE), workload.name],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed in a fresh process:\n{proc.stderr}")
    reference_ns, setup_ns = map(int, proc.stdout.split())
    return setup_ns, reference_ns


def plain_run(workload, seed: int, seconds: float, src: Path):
    setups = [fresh_setup(workload) for _ in range(SETUP_REPEATS)]
    rk = load_rnskit(src)
    state = workload.setup(rk)
    requests = workload.requests(random.Random(seed), state)
    warm = drive(workload, rk, state, requests, count=workload.warmup)
    measured = drive(workload, rk, state, requests, deadline=perf_counter() + seconds,
                     calibrate=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Each set-up is scaled by the interpreter loop timed in its own process.
    setup_raw = median(ns for ns, _ in setups)
    setup_scaled = median(ns * REFERENCE_NS / reference for ns, reference in setups)
    scaled = measured.scaled_latencies_ns()
    raw = timing_metrics(measured.latencies_ns, setup_raw)
    metrics = timing_metrics(scaled, setup_scaled)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    attempted = warm.attempted + measured.attempted
    failures = warm.failures + measured.failures
    failed = len(failures)
    samples = len(scaled)
    notes = [
        "unscaled: " + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items()),
        f"speed scale: requests {sum(scaled) / sum(measured.latencies_ns):.4f} "
        f"({len(measured.reference_ns)} reference loops), set-up {setup_scaled / setup_raw:.4f}",
        f"latency samples: {samples} ({samples - math.ceil(0.99 * samples)} beyond p99)",
        f"error_rate: {failed / attempted:.6f} ({failed} of {attempted})",
    ]
    if measured.simulated:
        cycles = measured.simulated["datapath.sim_cycles"]
        notes.append(f"sim_cycles_per_s: {cycles / (sum(scaled) / 1e9):.1f} 1/s ({cycles} simulated cycles)")
    if samples < MIN_LATENCY_SAMPLES:
        failures.append(f"only {samples} latency samples; raise --seconds")
    return metrics, attempted, failed, failures, notes


def traced_run(workload, seed: int, seconds: float, src: Path, out_dir: Path):
    deadline = perf_counter() + seconds
    pairs = []
    while not pairs or perf_counter() < deadline:
        tracer = Tracer(keep_spans=not pairs)
        plain = one_pass(workload, seed, src, None)
        traced = one_pass(workload, seed, src, tracer)
        pairs.append((plain, traced, tracer))

    first = pairs[0][2]
    tracers = [t for _, _, t in pairs]
    failures = [f for plain, traced, _ in pairs for f in plain.failures + traced.failures]
    attempted = sum(plain.attempted + traced.attempted for plain, traced, _ in pairs)
    failed = len(failures)
    if any(t.counts() != first.counts() for t in tracers):
        failures.append("traced call counts differ between passes over the same requests")
    for _, traced, tracer in pairs:
        structural = Counter({name: traced.simulated[name] for name in SIMULATED})
        if tracer.simulated() != structural:
            failures.append(
                f"traced simulated counts {dict(tracer.simulated())} differ from "
                f"the programs' Step fields {dict(structural)}"
            )

    metrics = {}
    for name, labels in GROUPS.items():
        metrics[f"{name}.calls"] = (sum(first.calls[label] for label in labels), "count")
        self_s = median(sum(t.self_ns[label] for label in labels) for t in tracers) / 1e9
        metrics[f"{name}.self_s"] = (self_s, "s")
    tried = first.calls["numbers.coprime_to_all"]
    hits = first.true_results["numbers.coprime_to_all"]
    metrics["moduli.coprime_hit_ratio"] = (hits / tried if tried else 0.0, "ratio")
    simulated = first.simulated()
    for name in SIMULATED:
        metrics[name] = (simulated[name], "count")
    cycles = simulated["datapath.sim_cycles"]
    per_cycle = median(t.total_ns["datapath.run"] / 1e3 / cycles for t in tracers) if cycles else 0.0
    metrics["datapath.host_us_per_cycle"] = (per_cycle, "us")
    rate = median(cycles / (sum(plain.scaled_latencies_ns()) / 1e9) for plain, _, _ in pairs)
    metrics["datapath.sim_cycles_per_s"] = (rate, "1/s")
    ratio = median(traced.scaled_ops_per_s() / plain.scaled_ops_per_s() for plain, traced, _ in pairs)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")

    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": first.spans}))
    notes = [
        f"passes: {len(pairs)} untraced + {len(pairs)} traced, "
        f"{workload.trace_requests} requests each",
        f"spans: {len(first.spans)} written to {spans_path}",
        f"error_rate: {failed / attempted:.6f} ({failed} of {attempted})",
    ]
    return metrics, attempted, failed, failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "rnskit" / "__init__.py").is_file():
        print(f"error: no rnskit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failed, failures, notes = traced_run(
            workload, args.seed, args.seconds, src, root / ".bench_out"
        )
    else:
        metrics, attempted, failed, failures, notes = plain_run(workload, args.seed, args.seconds, src)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value} {unit}")
    for note in notes:
        print(f"  {note}")
    for failure in failures[:10]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
