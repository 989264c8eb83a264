"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The count-repeat test runs every workload's traced run twice (about two
minutes on two CPUs).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Call, OracleFailure, Workload  # noqa: E402

import hurwitz_sos as hs  # noqa: E402

EXACT_COUNTS = (
    "words.hurwitz_expand.placements",
    "kernels.hurwitz_trace.matmuls",
    "kernels.jacobi_eigh.sweeps",
    "search.iterations",
    "search.rounding_attempts",
    "validation.rows",
)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return proc


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_exact_counts_repeat_at_one_seed():
    seen = {}
    for name in run.WORKLOADS:
        for attempt in range(2):
            proc = _bench("--workload", name, "--seed", 7, "--trace", 1)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            counts = {
                key: metric["value"]
                for key, metric in result["metrics"].items()
                if key in EXACT_COUNTS or key.endswith(".calls")
            }
            seen.setdefault(name, []).append(counts)
        assert seen[name][0] == seen[name][1], name
    for key in EXACT_COUNTS:
        assert any(runs[0][key] > 0 for runs in seen.values()), f"{key} never counted"


def _fake_workload(calls):
    return Workload(
        name="fake", load=lambda: None, cycle=lambda _inputs, _rng: iter(calls),
        tail_pct=50.0, trace_cycles=1, expected_spans=(),
    )


def test_failures_are_counted_and_the_loop_goes_on():
    def boom():
        raise RuntimeError("program crashed")

    def reject(_result):
        raise OracleFailure("wrong answer")

    calls = [
        Call("raises", boom, lambda _r: (1, None)),
        Call("rejected", lambda: 1, reject),
        Call("fine", lambda: 1, lambda _r: (3, None)),
    ]
    out = worker.run_e2e(_fake_workload(calls), seed=0, seconds=0.0)
    assert (out["attempted"], out["failed"], out["units"]) == (3, 2, 3)
    assert "program crashed" in out["failures"][0]
    assert "wrong answer" in out["failures"][1]


def test_oracles_reject_wrong_results():
    with pytest.raises(OracleFailure):
        workloads.check_expand(7, hs.hurwitz_expand(7, 2))
    unknown = hs.SearchOutcome(status=hs.SearchStatus.UNKNOWN, iterations=5)
    with pytest.raises(OracleFailure):
        workloads.check_search(7, 3, "certificate", unknown)
    assert workloads.check_search(8, 4, "unknown", unknown) == (1, None)
    p6 = hs.SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA"))
    infeasible = hs.feasibility_search(6, 3, (p6,))
    assert workloads.check_search(6, 3, "infeasible", infeasible) == (1, None)
    cert = hs.bundled_certificate("p7r3.json")
    report = hs.verify_certificate(cert)
    with pytest.raises(OracleFailure):  # a PSD Gram reported as planted
        workloads.check_synthetic(cert.blocks[0][1], True, report)


def test_planted_synthetic_is_caught_and_psd_one_passes():
    import random

    rng = random.Random(3)
    for planted in (False, True):
        cert, target = workloads.synthetic_certificate(4, 2, planted, rng)
        report = hs.verify_against(cert, target)
        assert workloads.check_synthetic(cert.blocks[0][1], planted, report) == (1, None)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "bmv-scan", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
