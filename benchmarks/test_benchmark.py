"""Tests of the benchmark itself: the workloads at reduced size, the command at full size.

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from nkbench import ROOT, WORKLOADS, cluster, hostspeed, load_neurokernel, offload
from nkbench.report import END_TO_END, PER_LAYER, SPANS, span_metrics
from nkbench.trace import NullTracer, Tracer

SCALE = 0.05
nk = load_neurokernel()


def run_workload(workload: str, seed: int, traced: bool = False, scale: float = SCALE):
    module = WORKLOADS[workload]
    tracer = Tracer() if traced else NullTracer()
    inputs = module.generate(seed, scale)
    wl = module.Workload(nk, inputs, module.load(nk, inputs), tracer)
    result = wl.run()
    return wl, result, tracer


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_oracles_pass(workload):
    wl, result, _ = run_workload(workload, seed=3)
    assert result["failed"] == 0
    assert result["units"] > 0
    assert wl.verify() == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_digest_repeats_for_a_seed_and_differs_across_seeds(workload):
    first = run_workload(workload, seed=5)[0].digest()
    assert run_workload(workload, seed=5)[0].digest() == first
    assert run_workload(workload, seed=6)[0].digest() != first


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_restores_rebound_names(workload):
    import neurokernel.accel as accel
    import neurokernel.orchestrator.cluster as cluster_mod
    import neurokernel.orchestrator.fusion as fusion_mod

    originals = (accel.matmul_naive, cluster_mod.encode, cluster_mod.decode, fusion_mod.embed)
    plain = run_workload(workload, seed=7)[0]
    traced, _, tracer = run_workload(workload, seed=7, traced=True)
    assert traced.digest() == plain.digest()
    assert traced.verify() == []
    assert tracer.spans and all(end >= start for _n, start, end, _p, _s in tracer.spans)
    assert (accel.matmul_naive, cluster_mod.encode, cluster_mod.decode, fusion_mod.embed) == originals


def test_nested_spans_name_their_parent():
    _, _, tracer = run_workload("tensor-offload", seed=1, traced=True)
    names = [span[0] for span in tracer.spans]
    nested = [s for s in tracer.spans if s[0] == "tensor.matmul_naive" and s[3] >= 0]
    assert nested and all(names[s[3]] == "accel.execute_next" for s in nested)
    summary = tracer.summary()
    execute = summary["accel.execute_next"]
    assert 0 < execute["self_ns"] < execute["busy_ns"]


def test_cluster_workload_is_faithful_to_run_scenario():
    from neurokernel.orchestrator import parse_scenario, run_scenario

    inputs = cluster.generate(seed=4, scale=0.1)
    wl = cluster.Workload(nk, inputs, cluster.load(nk, inputs), NullTracer())
    wl.run()
    events, summary, action = run_scenario(
        parse_scenario(inputs["scenario"]), inputs["ticks"], seed=inputs["metrics_seed"])
    assert any(kind == "kill" for _t, kind, _d in events)
    assert wl.events == events
    assert (wl.summary, wl.action) == (summary, action)


def test_host_speed_scaling_cancels_a_slower_host_but_not_a_slower_program():
    probes = [hostspeed.REFERENCE_NS] * 100
    slow_host = [2 * hostspeed.REFERENCE_NS] * 100
    times = list(range(1000, 1100))
    reference = hostspeed.scaled(times, range(100), hostspeed.factors(probes))
    assert reference == times
    assert hostspeed.scaled([2 * t for t in times], range(100), hostspeed.factors(slow_host)) == times
    slower_program = [t * 1.2 for t in times]
    assert hostspeed.scaled(slower_program, range(100), hostspeed.factors(probes)) == slower_program
    # A lone slow probe does not move its neighbours' factors: the window takes a median.
    spiked = probes[:50] + [50 * hostspeed.REFERENCE_NS] + probes[51:]
    assert hostspeed.factors(spiked) == hostspeed.factors(probes)


def test_k_ordered_numpy_oracle_is_bit_equal_to_matmul_naive():
    np = pytest.importorskip("numpy")
    from neurokernel.tensor import Tensor, matmul_naive

    rng = Random(0)
    for m, k, n in ((1, 1, 1), (3, 17, 5), (16, 16, 16), (9, 40, 2)):
        a, b = Tensor.random((m, k), rng), Tensor.random((k, n), rng)
        want = matmul_naive(a, b).tobytes()
        got = offload.seq_matmul(np, np.array(a.tolist()).reshape(m, k),
                                 np.array(b.tolist()).reshape(k, n))
        assert got.astype("<f8").tobytes() == want


def test_jobs_oracles_catch_faults():
    wl, _, _ = run_workload("jobs", seed=2)
    assert wl.counters["mempool.oom_refusals"] > 0  # refusals are exercised
    assert any(first is None for *_rest, first in wl.samples)
    wl.completed.append(wl.completed[0])
    wl.samples.append((bytes(64), 4, 1, 8))
    errors = wl.verify()
    assert any("exactly once" in e for e in errors)
    assert any("first-fit" in e for e in errors)


def test_offload_oracles_catch_a_flipped_bit():
    from neurokernel.tensor import Tensor

    wl, _, _ = run_workload("tensor-offload", seed=2)
    good = wl.device_out[0]
    values = good.tolist()
    values[0] = values[0] + 2.0 ** -40
    wl.device_out[0] = Tensor(good.shape, values)
    errors = wl.verify()
    assert any(e.startswith("device request 0") for e in errors)


def test_cluster_oracles_catch_a_lost_message():
    wl, _, _ = run_workload("cluster", seed=2)
    wl.processed_tags.pop()
    assert any("conservation" in e for e in wl.verify())


def test_every_per_layer_metric_is_measured():
    """Each per-layer name is computed from spans or counted by some workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {f"{s}.{k}" for s in SPANS for k in ("calls", "busy_s")} <= set(PER_LAYER)
    measured = set(span_metrics({}, {}, lambda name: [])) | {"tracing.overhead_ratio"}
    for workload in WORKLOADS:
        measured |= set(run_workload(workload, seed=1)[0].counters)
    assert set(PER_LAYER) <= measured


def _run(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_a_result_line(trace):
    # Full size; with --seconds 1 each of the five passes runs one loop.
    proc = _run(ROOT, "--workload", "cluster", "--seed", "1", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert list(result["metrics"]) == list(expected)
    assert "failed_ratio" in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "jobs", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
