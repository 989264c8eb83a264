"""Measurement process for one workload; started by run.py, never by hand.

    worker.py setup <workload>
    worker.py e2e   <workload> <seed> <seconds>
    worker.py trace <workload> <seed> <spans.json>

run.py starts it with BLAS/OpenMP threads pinned to 1, so numpy sees
the setting on first import, and with ``src`` on PYTHONPATH.  ``setup``
prints the monotonic clock once the package is imported and the
workload's inputs are loaded, with the host-speed sampling time and
speed factor the probe measured on itself.  The other modes print one
JSON object on their last stdout line.  Arguments are parsed by hand and
other imports deferred to keep the set-up probe free of imports the
program itself does not make.
"""

import math
import sys
import time

from calibrate import HostSpeed

if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    # The set-up probe samples host speed from its first statement on.
    _SETUP_SPEED = HostSpeed().__enter__()

import workloads  # noqa: E402  (imports numpy and hurwitz_sos)


def _run_one(call, tracer=None):
    """Run and check one call: ``(start_ns, end_ns, units, flag, error)``."""
    import traceback

    if tracer is not None:
        tracer.active = True
    start = time.perf_counter_ns()
    try:
        result = call.run()
    except Exception:  # a failed call is counted, the loop goes on
        return start, time.perf_counter_ns(), 0, None, traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.active = False
    end = time.perf_counter_ns()
    try:
        units, flag = call.check(result)
    except workloads.OracleFailure as exc:
        return start, end, 0, None, f"oracle: {exc}"
    except Exception:  # an oracle that crashes on a malformed result
        return start, end, 0, None, traceback.format_exc()
    return start, end, units, flag, None


class Tally:
    """Calls, units and failures of a sequence of calls.

    ``finish`` turns each call's wall time into its latency at the
    nominal host speed: the reference loop's own time inside the call is
    subtracted and the rest is scaled by the call's speed factor (see
    calibrate.py).
    """

    def __init__(self):
        self.spans = []
        self.units_per_call = []
        self.failures = []
        self.flags = []
        self.latencies = []
        self.scales = []

    def run(self, call, tracer=None):
        start, end, units, flag, error = _run_one(call, tracer)
        self.spans.append((start, end))
        self.units_per_call.append(units)
        if flag is not None:
            self.flags.append(f"{call.label}: {flag}")
        if error is not None:
            self.failures.append(f"{call.label}: {error}")
            if len(self.failures) <= 20:
                print(f"FAILED {call.label}: {error}", file=sys.stderr)

    def finish(self, speed):
        for start, end in self.spans:
            scale, sampling = speed.scale(start, end)
            self.scales.append(scale)
            self.latencies.append((end - start - sampling) * scale)
        return self

    def summary(self):
        return {
            "attempted": len(self.spans),
            "failed": len(self.failures),
            "units": sum(self.units_per_call),
            "busy_s": sum(self.latencies) / 1e9,
            "raw_busy_s": sum(end - start for start, end in self.spans) / 1e9,
            "failures": self.failures[:20],
            "flags": self.flags[:20],
        }


def _process_stats():
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "using_numba": bool(workloads.hs.kernels.USING_NUMBA),
    }


def run_e2e(workload, seed, seconds):
    """Whole cycles until ``seconds`` have passed; no tracing."""
    import random

    inputs = workload.load()
    rng = random.Random(seed)
    tally = Tally()
    cycle_ends = []
    deadline = time.monotonic() + seconds
    with HostSpeed() as speed:
        while True:
            for call in workload.cycle(inputs, rng):
                tally.run(call)
            cycle_ends.append(len(tally.spans))
            if time.monotonic() >= deadline:
                break
    tally.finish(speed)
    cycle_rates = [
        sum(tally.units_per_call[lo:hi]) / (sum(tally.latencies[lo:hi]) / 1e9)
        for lo, hi in zip([0] + cycle_ends, cycle_ends)
    ]
    latencies = sorted(ns / 1e6 for ns in tally.latencies)
    out = tally.summary()
    out.update(_process_stats())
    out["cycle_rates"] = cycle_rates
    out["p50_ms"], _ = nearest_rank(latencies, 50.0)
    out["tail_ms"], out["tail_beyond"] = nearest_rank(latencies, workload.tail_pct)
    out["tail_pct"] = workload.tail_pct
    out["latencies_ms"] = latencies
    out["raw_latencies_ms"] = [(end - start) / 1e6 for start, end in tally.spans]
    out["scales"] = tally.scales
    out["speed_samples"] = len(speed.durations)
    return out


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile and the number of values above its rank."""
    rank = min(len(sorted_values), max(1, math.ceil(pct / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _batch(workload, inputs, seed, tracer=None):
    import random

    rng = random.Random(seed)
    tally = Tally()
    for _ in range(workload.trace_cycles):
        for call in workload.cycle(inputs, rng):
            if tracer is not None:
                tracer.call_id = len(tally.spans)
            tally.run(call, tracer)
    return tally


def run_trace(workload, seed, spans_path):
    """The same fixed batch untraced, then traced; spans go to ``spans_path``."""
    import json

    from tracer import Tracer

    with HostSpeed() as speed:
        untraced = _batch(workload, workload.load(), seed)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.active = True
            inputs = workload.load()
            tracer.active = False
            traced = _batch(workload, inputs, seed, tracer)
        finally:
            tracer.uninstall()
    untraced.finish(speed)
    traced.finish(speed)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "call_id"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    self_times = tracer.self_times(speed)
    problems = [
        f"expected span {name} did not fire"
        for name in workload.expected_spans
        if name not in self_times and name not in tracer.missing
    ]
    problems += [
        f"span {name} fired {entry['calls']} times but must not on {workload.name}"
        for name, entry in self_times.items()
        if name.startswith(workload.absent_prefixes)
    ]
    out = {
        "untraced": untraced.summary(),
        "traced": traced.summary(),
        "problems": problems,
        "self_times": self_times,
        "counts": dict(tracer.counts),
        "missing_targets": tracer.missing,
        "spans": len(tracer.spans),
    }
    out.update(_process_stats())
    return out


def main(argv):
    mode, name = argv[0], argv[1]
    workload = workloads.WORKLOADS[name]
    if mode == "setup":
        workload.load()
        ready = time.monotonic_ns()
        speed = _SETUP_SPEED
        speed.__exit__(None, None, None)
        # perf_counter and monotonic share one clock on Linux
        scale, sampling = speed.scale(0, time.perf_counter_ns())
        print(ready, sampling, scale, flush=True)
        return 0
    import json

    if mode == "e2e":
        out = run_e2e(workload, int(argv[2]), float(argv[3]))
    elif mode == "trace":
        out = run_trace(workload, int(argv[2]), argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
