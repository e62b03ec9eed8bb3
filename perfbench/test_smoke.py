"""Smoke test of the benchmark harness at small sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for a few ops, the ring ones at n=64 and int at n=16,
and checks that every metric in `BENCHMARK.json` prints with its unit, that
two traced runs of one seed give the same exact counts, that spans carry
only names, times and counts, and that the benchmark refuses to run without
the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {"ring-roundtrip": 64, "ring-eqtest-cold": 64, "ring-keygen": 64, "int-roundtrip": 16}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def small_run(workload: str, trace: int, seed: int = 3) -> dict:
    return result_of(bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--n", str(SMALL[workload]),
    ))


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(SMALL)


@pytest.mark.parametrize("workload", list(SMALL))
def test_end_to_end_metrics_print_with_units(workload):
    metrics = small_run(workload, 0)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", list(SMALL))
def test_layer_metrics_print_and_counts_repeat(workload):
    first = small_run(workload, 1)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    second = small_run(workload, 1)["metrics"]
    for name, unit in expected.items():
        if unit in ("count", "B"):
            assert first[name]["value"] == second[name]["value"], name


def test_spans_hold_names_times_and_counts_only():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import pkeet
        import spans
        from workloads import RingRoundtrip

        original = pkeet.pkeet_ring.encrypt
        wl = RingRoundtrip(seed=5, n=64)
        wl.set_up()
        tracer = spans.Tracer()
        inst = spans.install(tracer)
        try:
            wl.start_pass()
            with tracer.op():
                wl.run(0, {key: [] for key in wl.samples})
        finally:
            inst.uninstall()
        assert pkeet.pkeet_ring.encrypt is original and pkeet.encrypt is original
        layers = spans.LAYERS + ("bench",)
        for name, stat in tracer.stats.items():
            assert name.split(".")[0] in layers, name
            assert all(isinstance(k, str) and type(v) in (int, float) for k, v in stat.items())
        assert tracer.stats["pkeet_ring.encrypt"]["calls"] == 1
        layer_self_s = sum(stat["self_s"] for name, stat in tracer.stats.items() if name != spans.ROOT)
        assert abs(tracer.op_layer_s[0] - layer_self_s) < 1e-9
        assert 0.9 * tracer.op_walls[0] <= tracer.op_layer_s[0] < tracer.op_walls[0]
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ring-roundtrip", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
