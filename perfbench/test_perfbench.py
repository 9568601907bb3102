"""Tests for the benchmark itself, at tiny sizes so they run in seconds.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# d=40, not fewer: a forger passes d rounds with probability (2/3)^d
TINY = workloads.Sizes(m=48, l=32, K=3, n=64, omega=128, d=40, p_r=Fraction(1, 2**16),
                       rounds=3, samples_per_client=100, test_samples=100, batch=8,
                       accuracy_floor=0.3)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> set:
    return {m["name"] for m in SPEC[section]}


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _names("end_to_end") == set(workloads.E2E_UNITS)
    layer_names = {m[0] for m in spans.LAYER_METRICS} | {m[0] for m in spans.DERIVED_METRICS}
    assert _names("per_layer") == layer_names
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in SPEC["end_to_end"]:
        assert m["unit"] == workloads.E2E_UNITS[m["name"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, tmp_path):
    result = workloads.run(workload, seed=5, seconds=0.2, out_dir=tmp_path, sizes=TINY)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] >= 0, name
        assert m["value"] > 0 or name == "mark_distance", name  # tiny marks embed fully

    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = workloads.run(workload, seed=5, seconds=0.2, out_dir=tmp_path,
                               tracer=tracer, sizes=TINY)
    assert traced["correct"], traced["failures"]
    primary = "train" if workload == "train" else "session"
    layers = spans.layer_metrics(tracer, traced["details"]["op_counts"], primary)
    assert set(layers) == _names("per_layer")
    assert tracer.missing == []
    assert 0 < layers["trace.accounted_share"]["value"] <= 1.0
    assert layers["model.hinge_loss_and_grad.calls"]["value"] > 0
    assert layers["lpn.gen_instance.calls"]["value"] == TINY.K
    if workload == "forgery":
        assert layers["sigma.cheat_commit.calls"]["value"] > 0
        assert layers["sigma.prover_commit.calls"]["value"] == 0
    else:
        # sigma binds mat_vec_mul by name: two products per honest round
        assert layers["gf2.mat_vec_mul.calls"]["value"] == 2 * TINY.d
        assert layers["protocol.round_trips"]["value"] == 2 * TINY.d + 1


def test_paced_steps_scale_wall_time_by_the_reference_loop():
    class HalfSpeed:  # a core running the loop at half the reference pace
        def sample(self):
            return 2 * pace.REFERENCE_S

    steps = workloads.PacedSteps(HalfSpeed())
    steps.run(lambda: time.sleep(0.01))
    assert steps.wall[0] >= 0.01
    assert steps.paced[0] == pytest.approx(steps.wall[0] / 2)


def test_streaming_pace_samples_even_a_short_call():
    p = pace.Pace()
    result, wall, paced = p.run_streaming(lambda: 7)
    assert result == 7 and len(p.stream_samples) >= 1
    assert wall >= 0 and paced >= 0


def test_instrument_restores_every_namespace(tmp_path):
    import fedzkp.sigma
    original = fedzkp.sigma.mat_vec_mul
    with spans.instrument(spans.Tracer()):
        assert fedzkp.sigma.mat_vec_mul is not original
    assert fedzkp.sigma.mat_vec_mul is original


def test_verifier_with_wrong_mark_fails_operations(tmp_path):
    result = workloads.run("claim", seed=5, seconds=0.2, out_dir=tmp_path, sizes=TINY,
                           fault="wrong-mark")
    sessions = workloads.WARMUP_SESSIONS + result["details"]["sessions"]
    assert not result["correct"]
    assert result["failed"] == sessions


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "claim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
