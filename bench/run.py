"""kesic benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload general-steady --seed 1 --seconds 30 --trace 0
    python3 bench/selftest.py   # smoke-size check of every workload

The run imports kesic from ``src/`` next to this directory, sets the
workload up several times (the median is ``setup_s``), warms it up, then
drives closed-loop user ops for ``--seconds``. Every op's outcome is checked
after its timing stops. The report lines name each metric with its unit and
sample count; the last line is the JSON result.

The run pins itself, and the live daemons it starts, to one CPU. The timed
phase is cut into short slices. Between two slices the client threads park
and ``probe.py`` measures how fast that CPU runs a fixed piece of work just
then; each slice's times are scaled by the reference probe time over that
measurement (set-ups likewise, by probes taken around each one). The
end-to-end metrics are these scaled times, which stay put while the shared
host's speed drifts; the report lines also give the raw figures.

With ``--trace 1`` the span wrappers of ``spans.py`` are installed and the
timed phase alternates untraced and traced one-second groups of slices; the
result holds the per-layer metrics and the traced and untraced rates. Spans
are written to ``.bench_run/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from collections import Counter

import probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
SETUP_REPEATS = {False: 7, True: 5}  # sim, live
SLICE_S = 0.2  # the host-speed probe runs between slices
TRACE_GROUP = 5  # the traced run alternates untraced and traced groups of slices
SETUP_PROBES = 5  # probes before and after each set-up
# Set-up is mostly scrypt and, on live, starting processes. A slow phase of
# the host that makes the probe 1.75x slower makes a sim set-up about 1.36x
# slower, so set-up times are scaled by the probe ratio to this power.
SETUP_EXPONENT = 0.5


def load_kesic() -> None:
    """Imports kesic from this checkout's src/ and points daemons at it too."""
    if not os.path.isfile(os.path.join(SRC, "kesic", "__init__.py")):
        raise SystemExit(f"bench: no kesic package under {SRC}")
    sys.path.insert(0, SRC)
    import kesic

    src = os.path.dirname(os.path.dirname(os.path.abspath(kesic.__file__)))
    if src != SRC:
        raise SystemExit(f"bench: imported kesic from {src}, not {SRC}")
    # Live daemons run with their cwd in a temporary directory, so they need an
    # absolute path to the package.
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")


def percentile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank percentile."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return float(sorted_values[rank - 1])


class Gate:
    """Lets the client threads run ops only while the main thread holds it open."""

    def __init__(self, threads: int) -> None:
        self._cv = threading.Condition()
        self._threads = threads
        self._open = False
        self._idle = 0  # threads parked between ops, or finished
        self.stop = False

    def between_ops(self) -> bool:
        """Called by a client thread before each op; False once the run is over."""
        with self._cv:
            if not self._open and not self.stop:
                self._idle += 1
                self._cv.notify_all()
                self._cv.wait_for(lambda: self._open or self.stop)
                self._idle -= 1
            return not self.stop

    def finished(self) -> None:
        with self._cv:
            self._idle += 1
            self.stop = True
            self._cv.notify_all()

    def open(self) -> None:
        with self._cv:
            self._open = True
            self._cv.notify_all()

    def close(self) -> None:
        """Returns once every thread has parked between two ops."""
        with self._cv:
            self._open = False
            self._cv.wait_for(lambda: self._idle == self._threads)

    def end(self) -> None:
        with self._cv:
            self.stop = True
            self._cv.notify_all()


def drive(workload, recorders, plans, seconds: float, tracer) -> list[tuple[int, int, bool, float, float]]:
    """Runs every client thread for ``seconds``; returns the slices as
    (start, end, traced, probe_s before, probe_s after).

    The timed phase is cut into slices of ``SLICE_S``. Between two slices the
    client threads park between ops and the host-speed probe runs while
    nothing else of the benchmark does (the live daemons idle when no client
    calls them).
    """
    gate = Gate(workload.threads)
    errors: list[BaseException] = []

    def loop(index: int) -> None:
        rec, plan = recorders[index], plans[index]
        try:
            while gate.between_ops():
                rec.run(*next(plan))
        except BaseException as exc:  # surfaced by the main thread after join
            errors.append(exc)
        finally:
            gate.finished()

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(workload.threads)]
    for thread in threads:
        thread.start()
    slices = []
    try:
        gate.close()
        before = probe.probe()
        n = max(2 * TRACE_GROUP, round(seconds / SLICE_S))
        for k in range(n):
            traced = tracer is not None and (k // TRACE_GROUP) % 2 == 1
            if tracer is not None:
                tracer.active = traced
            start = time.perf_counter_ns()
            gate.open()
            time.sleep(seconds / n)
            gate.close()
            end = time.perf_counter_ns()
            if tracer is not None:
                tracer.active = False
            after = probe.probe()
            slices.append((start, end, traced, before, after))
            before = after
            if gate.stop:
                break
    finally:
        if tracer is not None:
            tracer.active = False
        gate.end()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return slices


def slice_scales(slices) -> list[float]:
    """Per slice, the reference probe time over the mean of the probes on either side of it."""
    return [probe.factor([before, after]) for *_, before, after in slices]


def in_slices(ops, slices) -> list[tuple[int, int, str, float]]:
    """The ops that ended in ``slices``, as (end, latency, kind, scale of their slice)."""
    ops = sorted(ops)
    ends = [op[0] for op in ops]
    out = []
    for (slice_start, slice_end, *_), scale in zip(slices, slice_scales(slices)):
        lo, hi = bisect.bisect_left(ends, slice_start), bisect.bisect_right(ends, slice_end)
        out.extend((*op, scale) for op in ops[lo:hi])
    return out


def run(args) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS, Recorder

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    if hasattr(os, "sched_setaffinity"):
        # The host's CPUs drift in speed independently, so the work and the
        # probe that scales it share one CPU. Live daemons inherit the mask.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if tracer is not None:
            tracer.install()  # before the world exists: it captures bound handlers
        repeats = 1 if tracer is not None or args.smoke else SETUP_REPEATS[workload.live]
        setups, raw_setups = [], []
        for variant in reversed(range(repeats)):  # the last set-up, variant 0, is kept
            workload.teardown()
            probes = [probe.probe() for _ in range(SETUP_PROBES)]
            t0 = time.perf_counter()
            workload.setup(variant)
            raw_setups.append(time.perf_counter() - t0)
            probes += [probe.probe() for _ in range(SETUP_PROBES)]
            setups.append(raw_setups[-1] * probe.factor(probes, SETUP_EXPONENT))
        if tracer is not None:
            tracer.state_path = getattr(workload, "state_path", None)

        recorders = [
            # Thread 0 alone feeds the digest; only the sim workloads have one.
            Recorder(tracer, op_base=i * 10**9, digest_ops=0 if i else workload.digest_ops,
                     frames=getattr(workload, "frames", None))
            for i in range(workload.threads)
        ]
        plans = [workload.plan(i) for i in range(workload.threads)]
        for _ in range(workload.warmup_ops):
            recorders[0].run(*next(plans[0]))
        # Peak RSS over set-up and warm-up, which are fixed work: memory then
        # does not grow with the number of ops a faster build completes.
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        slices = drive(workload, recorders, plans, args.seconds, tracer)
        problems = workload.final_problems()
        extra = workload.report()
    finally:
        workload.teardown()
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for rec in recorders for op in rec.ops]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": sum(rec.attempted for rec in recorders),
        "failed": sum(rec.failed for rec in recorders),
        "failures": sum((rec.failures for rec in recorders), Counter()),
        "first_error": next((rec.first_error for rec in recorders if rec.first_error), None),
        "problems": problems,
        "digest": recorders[0].digest,
        "setups": setups,
        "raw_setups": raw_setups,
        "extra": extra,
    }
    if tracer is None:
        result["metrics"] = end_to_end(workload, ops, slices, setups, rss_kb)
    else:
        result["metrics"] = per_layer(workload, tracer, ops, slices)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.csv"))
    return result


def end_to_end(workload, ops, slices, setups, rss_kb: int) -> dict:
    """Metric name -> (value, unit, samples); every time is scaled to the reference host speed."""
    timed = in_slices(ops, slices)
    scales = slice_scales(slices)
    wall = sum((end - start) * scale for (start, end, *_), scale in zip(slices, scales)) / 1e9
    latencies = sorted(lat * scale for _, lat, _, scale in timed)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (len(timed) / wall, "ops/s", len(timed)),
        "op_p50_us": (percentile(latencies, 0.50) / 1e3, "us", len(timed)),
        "op_p99_us": (percentile(latencies, 0.99) / 1e3, "us", len(timed)),
    }
    # On live, add the largest daemon's peak; the daemons have been waited for.
    daemon_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workload.live else 0
    metrics["peak_rss_mb"] = ((rss_kb + daemon_kb) / 1024, "MB", 1)
    for kind in ("general_call", "power_call", "wake_attest", "session"):
        kind_lat = sorted(lat * scale for _, lat, k, scale in timed if k == kind)
        if kind_lat:
            metrics[f"{kind}_p50_us"] = (percentile(kind_lat, 0.50) / 1e3, "us", len(kind_lat))
    # The same run unscaled, for reading next to the scaled figures.
    raw_wall = sum(end - start for start, end, *_ in slices) / 1e9
    metrics["raw.ops_per_s"] = (len(timed) / raw_wall, "ops/s", len(timed))
    metrics["raw.op_p50_us"] = (percentile(sorted(lat for _, lat, *_ in timed), 0.50) / 1e3, "us", len(timed))
    metrics["probe_ms"] = (statistics.median(s[4] for s in slices) * 1e3, "ms", len(slices))
    return metrics


def per_layer(workload, tracer, ops, slices) -> dict:
    """Layer metrics over the traced slices, plus the traced and untraced rates."""
    counts, wall_ns = {}, {}
    for traced in (True, False):
        part = [s for s in slices if s[2] == traced]
        counts[traced] = len(in_slices(ops, part))
        wall_ns[traced] = sum(end - start for start, end, *_ in part)
    metrics = {
        name: (value, unit, counts[True])
        for name, (value, unit) in tracer.layer_metrics(counts[True], wall_ns[True] * workload.threads).items()
    }
    metrics["trace.traced_ops_per_s"] = (counts[True] / wall_ns[True] * 1e9, "ops/s", counts[True])
    metrics["trace.untraced_ops_per_s"] = (counts[False] / wall_ns[False] * 1e9, "ops/s", counts[False])
    return metrics


def print_report(result: dict, trace: int) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={trace}")
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"  {name:<44} {value:>14.4f} {unit:<9} n={samples}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<44} {rate:>14.4f} {'ratio':<9} n={result['attempted']}")
    print(f"  setups_s: {', '.join(f'{s:.4f}' for s in result['setups'])}")
    print(f"  raw setups_s: {', '.join(f'{s:.4f}' for s in result['raw_setups'])}")
    if result["digest"] is not None:
        print(f"  digest: {result['digest']}")
    for key, value in result["extra"].items():
        print(f"  {key}: {value}")
    for failure, count in sorted(result["failures"].items()):
        print(f"  FAILED {count}x {failure}")
    for problem in result["problems"]:
        print(f"  FAILED final check: {problem}")
    if result["first_error"]:
        print(f"  first unexpected exception:\n{result['first_error']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small fleets and warm-up, for the self-test")
    args = parser.parse_args(argv)

    load_kesic()
    from workloads import WORKLOADS

    # Turn SIGTERM into SystemExit so the finally blocks stop the live daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    result = run(args)
    print_report(result, args.trace)
    last_line = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in result["metrics"].items()
            if name in listed
        },
    }
    print(json.dumps(last_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
