"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import layers
import oracle
import workloads
from repro.core import LazyMC, LazyMCConfig
from repro.datasets.registry import EXPECTED_OMEGA, REGISTRY
from repro.graph import generators as gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def same_graph(a, b) -> bool:
    return a.n == b.n and np.array_equal(a.edge_array(), b.edge_array())


def test_set_zero_of_seed_zero_is_the_registry():
    for instances in workloads.BATCH_WORKLOADS.values():
        for inst in instances:
            assert same_graph(inst.build(0, 0), REGISTRY[inst.name].build()), \
                inst.name


def test_seeds_and_sets_give_distinct_graphs():
    inst = workloads.BATCH_WORKLOADS["bio-dense"][0]
    graphs = [inst.build(0, 0), inst.build(0, 1), inst.build(1, 0)]
    assert not same_graph(graphs[0], graphs[1])
    assert not same_graph(graphs[0], graphs[2])
    assert same_graph(inst.build(1, 0), graphs[2])


def test_service_passes_follow_the_mix_and_never_reuse_fresh_graphs():
    seen = set()
    for k in range(3):
        plan = workloads.service_pass(5, k)
        assert Counter(r.kind for r in plan) == workloads.PASS_MIX
        assert plan == workloads.service_pass(5, k)
        for r in plan:
            if r.kind == "hit":
                assert r.index < workloads.HOT_GRAPHS
            else:
                assert r.index >= workloads.HOT_GRAPHS
                assert r.index not in seen
                seen.add(r.index)
                assert (r.max_work is not None) == (r.kind == "degraded")


@pytest.mark.parametrize("config", [LazyMCConfig(),
                                    LazyMCConfig(use_kvc=False)])
def test_traced_solve_matches_untraced_and_restores_bindings(config):
    graph = gen.gnp_random(90, 0.3, seed=3)
    before = (layers.filtering.intersect_size_gt_bool,
              layers.systematic.neighbor_search,
              layers.solver.create_engine,
              layers.MCSubgraphSolver.__dict__["solve"],
              layers.LazyGraph.__dict__["hashed_neighborhood"])
    plain = LazyMC(config).solve(graph)
    spans = layers.Spans()
    with layers.traced(spans):
        traced = LazyMC(config).solve(graph)
    after = (layers.filtering.intersect_size_gt_bool,
             layers.systematic.neighbor_search,
             layers.solver.create_engine,
             layers.MCSubgraphSolver.__dict__["solve"],
             layers.LazyGraph.__dict__["hashed_neighborhood"])
    assert after == before
    assert layers.snapshot(traced) == layers.snapshot(plain)
    assert spans.calls["filtering"] == traced.funnel.considered
    assert spans.calls["mc"] == traced.funnel.searched_mc
    assert spans.calls["vc"] == traced.funnel.searched_kvc
    assert spans.calls["mc"] > 0
    metrics = layers.solver_layers([traced], spans, 1)
    if not config.use_kvc:  # the k-VC arm branches too
        assert metrics["mc.branch_nodes"] == traced.counters.branch_nodes
    assert metrics["engine.self_s"] >= 0.0


def test_oracle_flags_each_kind_of_wrong_answer():
    graph = REGISTRY["HS-CX"].build()
    omega = EXPECTED_OMEGA["HS-CX"]
    good = LazyMC().solve(graph)
    assert oracle.exact_omega(oracle.to_networkx(graph), 3) == omega
    answers = [
        oracle.Answer(good.clique, good.omega, exact=True),
        oracle.Answer(good.clique[:-1], good.omega - 1, exact=True),
        oracle.Answer(good.clique[:-1], good.omega - 1, exact=False),
        oracle.Answer(good.clique[:-1], good.omega, exact=True),
        oracle.Answer([0, 0], 2, exact=True),
        oracle.Answer([], 0, exact=False, ok=False, error="boom"),
    ]
    problems = oracle.failures(graph, answers)
    assert len(problems) == 4
    assert oracle.failures(graph, answers[:1], known_omega=omega) == []
    assert len(oracle.failures(graph, answers[:1], known_omega=omega + 1)) == 1
    degraded_too_big = oracle.Answer(good.clique, good.omega, exact=False)
    assert len(oracle.failures(graph, [degraded_too_big],
                               known_omega=omega - 1)) == 1


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_metric_has_a_prediction():
    predictions = json.loads((HERE / "layer_map.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(predictions) == {m["name"] for m in SPEC["per_layer"]}
    for p in predictions.values():
        assert set(p["moves"]) <= end_to_end
        assert set(p["on"] + p["unchanged_on"]) <= set(workloads.WORKLOADS)


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_social_funnel(m):
    # Filter 2 rejects nearly every neighborhood; the arms barely run.
    assert m["filtering.after_filter2"] <= 0.05 * m["filtering.after_filter1"]
    assert m["vc.s"] + m["mc.s"] <= 0.05 * m["systematic.s"]
    assert m["mc.calls"] == 0


def check_bio_dense(m):
    # Most neighborhoods pass every filter and go to the k-VC arm.
    assert m["filtering.after_filter3"] >= 0.5 * m["filtering.after_filter1"]
    assert m["vc.calls"] == m["filtering.searched"] > 0
    assert m["mc.calls"] == 0


def check_web_zero_gap(m):
    # The heuristics find omega on nearly every graph, so few neighborhoods
    # are searched and the arms take a sliver of the search.
    assert m["heuristics.found_omega_frac"] >= 0.75
    assert m["filtering.searched_frac"] <= 0.15
    assert m["vc.s"] + m["mc.s"] <= 0.05 * m["systematic.s"]
    assert m["mc.calls"] == 0


def check_service_mixed(m):
    # Cache hits, degraded answers, and misses that mostly take the mc
    # arm, the one traffic where it runs.
    assert m["service.hit_rate"] >= 0.5
    assert m["service.degraded"] > 0
    assert m["mc.calls"] > m["vc.calls"]


#: The property each workload was chosen for, in its traced metrics.
DEFINING = {"social-funnel": check_social_funnel,
            "bio-dense": check_bio_dense,
            "web-zero-gap": check_web_zero_gap,
            "service-mixed": check_service_mixed}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_non_default_seed_end_to_end(workload, trace):
    proc = run_bench(ROOT, workload, 7, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert "error_frac = 0 " in proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        DEFINING[workload](metrics)
    else:
        assert all(v > 0 for v in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "bio-dense", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
