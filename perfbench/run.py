"""Layered benchmark for hurwitz-sos.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any copy of it that has ``src``).  The
program is imported from ``src``; nothing is installed.

Workloads (closed loop, one caller, inputs from ``--seed`` only):

    crossval-p7   validate_certificate_trials over the eight p=7
                  certificates (r=0..3 bundled, r=4..7 by letter swap),
                  n=1..6; unit: one trial row
    bmv-scan      bmv_check_trials at p=7 and p=10, n cycling 2,3,4;
                  unit: one coefficient trial
    search-mix    feasibility_search over one infeasible, two
                  certificate-finding and two budget-exhausting ansatzes;
                  unit: one search
    exact-scale   hurwitz_expand(p, p//2) for p=16..20 and verify_against
                  on synthetic Grams of dimension 20 and 35; unit: one call

With ``--trace 0`` a run repeats whole cycles of its workload for
``--seconds`` and reports the end-to-end metrics.  Every time is scaled
to a nominal host speed: the worker and the set-up probes time the
benchmark's reference loop (calibrate.py) every 3 ms, also while a call
runs; a call's time less that sampling is multiplied by the loop's
nominal time over its mean time near the call.  On a shared host whose
speed drifts by tens of percent within seconds this keeps run-to-run
spread to a few percent; the raw times are kept in the run record.

    setup_s       median over set-up probes of the time from starting a
                  fresh interpreter until the workload's first call can
                  run (import plus loading bundled inputs)
    items_per_s   median over cycles of units completed per second of
                  time spent inside the program's calls
    call_p50_ms   median latency of one public call
    call_tail_ms  latency at the workload's fixed tail percentile (see
                  ``tail_pct`` in workloads.py; the run prints it with the
                  call count and how many calls lie beyond it)
    pass_ratio    calls that returned and passed their oracle, divided by
                  calls attempted (1 - failed ratio; a ratio that is 0 on
                  a healthy run cannot carry a relative bound)
    peak_rss_mb   peak resident memory of the workload process, MiB

With ``--trace 1`` a run executes the workload's fixed trace batch once
untraced and once with every layer boundary wrapped (see tracer.py),
then runs each CLI subcommand once as a subprocess, and reports the
per-layer metrics: calls and self time per boundary, exact work counts,
CLI wall times, CPU and host steal time, and the tracing overhead.

Held-out seeds: every input derives from ``--seed`` through the
benchmark's own ``random.Random``; the program receives only the
generated inputs and the integer seeds derived from it.  To re-check a
claim on data that was not used while the change was written, pick a
fresh seed after writing it and pass it, e.g. ``--seed 271828``.

Each run writes its full record (run metadata, host steal before and
after, raw latencies, trace spans) to ``perfbench/out/``.  The last
stdout line is the JSON result; the exit code is 1 when any call failed
its oracle or a trace expectation did not hold, 2 when the program
sources are missing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "hurwitz_sos" / "data"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_NS, reference_ns  # noqa: E402  (stdlib only)
from tracer import TARGETS  # noqa: E402  (stdlib only)

WORKLOADS = ("crossval-p7", "bmv-scan", "search-mix", "exact-scale")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 30
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

# Boundaries whose call count and self time are reported; the validation
# runners report self time only (their count is the number of workload calls).
_SPAN_METRICS = {target: ("calls", "self_s") for target in TARGETS}
_SPAN_METRICS["validation.validate_certificate_trials"] = ("self_s",)
_SPAN_METRICS["validation.bmv_check_trials"] = ("self_s",)
COUNTS = (
    "kernels.jacobi_eigh.sweeps",
    "kernels.hurwitz_trace.matmuls",
    "words.hurwitz_expand.placements",
    "words.hurwitz_expand.classes",
    "certificate.psd_check_exact.dim3",
    "search.iterations",
    "search.rounding_attempts",
    "search.eig_calls",
    "validation.rows",
)
# (subcommand, arguments to `python -m hurwitz_sos.cli`, expected exit code);
# the seeded ones also get the run's --seed.
CLI_RUNS = (
    ("expand", ["expand", "-p", "7", "-r", "3"], 0),
    ("verify", ["verify", "--cert", str(DATA / "p7r3.json")], 0),
    ("search", ["search", "--ansatz", str(DATA / "p6r3_restricted_ansatz.json")], 3),
    ("validate", ["validate", "--cert", str(DATA / "p7r3.json"), "--trials", "2"], 0),
    ("bmv-check", ["bmv-check", "-p", "7", "--trials", "30"], 0),
)
SEEDED_CLI = ("search", "validate", "bmv-check")


def per_layer_units():
    units = {}
    for target, kinds in _SPAN_METRICS.items():
        for kind in kinds:
            units[f"{target}.{kind}"] = "count" if kind == "calls" else "s"
    for name in COUNTS:
        units[name] = "count"
    units["search.rounding_accept_ratio"] = "ratio"
    for name, _argv, _code in CLI_RUNS:
        units[f"cli.{name}.wall_s"] = "s"
    units["run.cpu_s"] = "s"
    units["run.steal_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def child_env():
    env = dict(os.environ)
    env.pop("HURWITZ_SOS_SEED", None)
    env.pop("HURWITZ_SOS_PURE_NUMPY", None)
    for key in THREAD_VARS:
        env[key] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _reference_ns():
    return statistics.median(reference_ns() for _ in range(3))


def run_child(argv, timeout):
    """Run one child to completion; returns (exit code, stdout, scaled wall s).

    The wall time is scaled to the nominal host speed by the reference
    loop timed just before and just after the child on the same CPU
    (see calibrate.py).
    """
    before = _reference_ns()
    start = time.monotonic_ns()
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    wall = time.monotonic_ns() - start
    scale = 2 * REFERENCE_NS / (before + _reference_ns())
    return proc.returncode, proc.stdout, wall * scale / 1e9


def run_worker(*args):
    argv = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    code, stdout, _wall = run_child(argv, WORKER_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"worker {args} exited with {code}")
    return json.loads(lines[-1])


def setup_probe(workload):
    """Seconds from spawning a fresh interpreter until the workload is loaded.

    The probe samples host speed itself; its sampling time is taken out
    and the rest scaled by the probe's speed factor.
    """
    argv = [sys.executable, str(HERE / "worker.py"), "setup", workload]
    start = time.monotonic_ns()
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    ready, sampling, scale = proc.stdout.split()[-3:]
    return (int(ready) - start - int(sampling)) * float(scale) / 1e9


def host_steal_s():
    """Steal time of the whole host so far, from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def package_version(name):
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def end_to_end(workload, seed, seconds, record):
    worker = run_worker("e2e", workload, seed, seconds)
    probes = [setup_probe(workload) for _ in range(SETUP_PROBES)]
    attempted, failed = worker["attempted"], worker["failed"]
    record.update(worker=worker, setup_probes_s=probes)
    print(
        f"tail: p{worker['tail_pct']:g} over {attempted} calls, "
        f"{worker['tail_beyond']} beyond it; {len(worker['cycle_rates'])} cycles"
    )
    for flag in worker["flags"]:
        print(f"flagged: {flag}")
    values = {
        "setup_s": statistics.median(probes),
        "items_per_s": statistics.median(worker["cycle_rates"]),
        "call_p50_ms": worker["p50_ms"],
        "call_tail_ms": worker["tail_ms"],
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": worker["peak_rss_mib"],
    }
    return values, END_TO_END, attempted, failed, []


def traced(workload, seed, record):
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}.seed{seed}.spans.json"
    worker = run_worker("trace", workload, seed, spans_path)
    problems = list(worker["problems"])
    values = {}
    for target, kinds in _SPAN_METRICS.items():
        entry = worker["self_times"].get(target, {"calls": 0, "self_s": 0.0})
        for kind in kinds:
            values[f"{target}.{kind}"] = entry[kind]
    counts = worker["counts"]
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    attempts = counts.get("search.rounding_attempts", 0)
    values["search.rounding_accept_ratio"] = (
        counts.get("search.rounding_accepted", 0) / attempts if attempts else 0.0
    )
    cli = {}
    for name, argv, expected in CLI_RUNS:
        if name in SEEDED_CLI:
            argv = [*argv, "--seed", str(seed)]
        code, _stdout, wall = run_child(
            [sys.executable, "-m", "hurwitz_sos.cli", *argv], CHILD_TIMEOUT_S
        )
        values[f"cli.{name}.wall_s"] = wall
        cli[name] = {"argv": argv, "exit": code, "expected": expected, "wall_s": wall}
        if code != expected:
            problems.append(f"cli {name} exited {code}, expected {expected}")
    values["run.cpu_s"] = worker["cpu_s"]
    values["trace.overhead_ratio"] = worker["traced"]["busy_s"] / worker["untraced"]["busy_s"]
    record.update(worker=worker, cli=cli, spans_file=str(spans_path.relative_to(ROOT)))
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    attempted = worker["untraced"]["attempted"] + worker["traced"]["attempted"] + len(CLI_RUNS)
    failed = (
        worker["untraced"]["failed"] + worker["traced"]["failed"]
        + sum(entry["exit"] != entry["expected"] for entry in cli.values())
    )
    return values, per_layer_units(), attempted, failed, problems


def metadata():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "git_commit": git_commit(),
        "host": platform.node(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hurwitz_sos" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **metadata()}
    # One CPU for the run and every child, so the reference loop timed here
    # measures the CPU the children run on.
    record["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["cpu"]})
    steal_before = host_steal_s()
    if args.trace:
        values, units, attempted, failed, problems = traced(args.workload, args.seed, record)
    else:
        values, units, attempted, failed, problems = end_to_end(
            args.workload, args.seed, args.seconds, record
        )
    steal_after = host_steal_s()
    steal = None if steal_before is None else steal_after - steal_before
    if args.trace:
        values["run.steal_s"] = steal or 0.0
    record.update(steal_before_s=steal_before, steal_after_s=steal_after, steal_s=steal,
                  using_numba=record["worker"]["using_numba"], problems=problems)
    print(f"run: nproc={record['nproc']} python={record['python']} numpy={record['numpy']} "
          f"scipy={record['scipy']} numba={record['using_numba']} "
          f"commit={record['git_commit']} host steal={steal}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
