"""Append one benchmark run to ``BENCH_<workload>.json``.

    python3 tools/bench_record.py --workload bmv-scan [--seed 7] [--seconds 20]
                                  [--trace 0|1] [--root DIR] [--out DIR]

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace K`` of the
checkout at ``--root`` (default: this repository) as a subprocess, reads
its JSON result from the last stdout line and the run's metadata from the
record it writes under ``perfbench/out/``, and appends one entry to
``<out>/BENCH_<W>.json``, a JSON list kept oldest first.  An entry holds
the commit (and whether ``src`` or ``perfbench`` had uncommitted changes),
the Python and numpy versions, the CPU count, the seed, duration and
trace level, the call counts and the run's metrics: the end-to-end ones
at ``--trace 0``, and at ``--trace 1`` the per-layer calls, self times
and work counts (``search.eig_calls`` among them) and the
``cli.<subcommand>.wall_s`` rows.  A perf change cites the entries of its
parent and of itself.  Exits with the benchmark's exit code; an
entry is appended only when the benchmark exits 0.  Standard library only.
"""

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--seed", type=int, default=7, help="benchmark seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer counts and CLI times")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose perfbench/run.py and src are run")
    parser.add_argument("--out", type=Path, default=REPO,
                        help="directory of the BENCH_<workload>.json files")
    return parser.parse_args(argv)


def dirty(root: Path):
    """Whether src or perfbench of ``root`` differ from its commit; None without git."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench"],
            cwd=root, capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main(argv=None):
    args = parse_args(argv)
    root = args.root.resolve()
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"error: {' '.join(command)} exited {proc.returncode}", file=sys.stderr)
        return proc.returncode
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = (root / "perfbench" / "out"
                   / f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    entry = {
        "commit": record["git_commit"],
        "dirty": dirty(root),
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": record["python"],
        "numpy": record["numpy"],
        "nproc": record["nproc"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    path = args.out / f"BENCH_{args.workload}.json"
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
