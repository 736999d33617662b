"""The benchmark's own checks: references, tracer arithmetic, exact counts.

    python3 -m pytest perfbench/test_perfbench.py -q

The count test runs every workload twice with tracing on, so it takes about
a minute.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import posetmc as pm  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    _has_independent_pair,
    _weak_order_levels,
    formula_holds,
    is_embedding_ref,
    weak_order_embeds,
)

# Metrics that must repeat exactly for a seed; later claims may rest on them.
COUNT_METRICS = [
    "reduction.templates",
    "reduction.templates_tested",
    "reduction.template_yield",
    "logic.eval_matrix_calls",
    "poset.width_calls",
    "clique.build_calls",
    "clique.branches_per_decision",
    "clique.pair_cache_hit_ratio",
    "clique.dp_entries",
    "clique.ops",
    "csp.build_calls",
    "csp.branches_per_decision",
    "csp.pair_cache_hit_ratio",
    "csp.ops",
]


def _run(workload: str, seed: int, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def test_weak_order_reference_matches_oracle():
    rng = random.Random(3)
    for _ in range(60):
        host = pm.banded_poset(rng.randint(3, 9), 3, band=1, offsets=[rng.randrange(0, 3) for _ in range(3)])
        pattern = pm.random_poset(rng.randint(1, 4), rng.uniform(0.0, 1.0), rng.randrange(2**30))
        expected = pm.brute_force_embed(pattern, host) is not None
        assert weak_order_embeds(pattern.leq, _weak_order_levels(host.leq)) == expected


def test_independent_pair_reference_matches_oracle():
    rng = random.Random(4)
    i2 = pm.independent_poset(2)
    for _ in range(30):
        n = rng.randint(2, 4)
        g = pm.SimpleGraph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.7])
        assert _has_independent_pair(g) == (pm.brute_force_embed(i2, pm.poset_of_graph(g), host_cap=12) is not None)


def test_witness_checks_reject_bad_witnesses():
    chain = pm.close_and_validate(3, [(0, 1), (1, 2)])
    two = pm.close_and_validate(2, [(0, 1)])
    assert is_embedding_ref(two.leq, chain.leq, (0, 2))
    assert not is_embedding_ref(two.leq, chain.leq, (2, 0))
    assert not is_embedding_ref(two.leq, chain.leq, (1, 1))
    f = ("&", (("lit", "<=", "x0", "x1", False), ("lit", "=", "x0", "x1", True)))
    assert formula_holds(f, chain.leq, {"x0": 0, "x1": 2})
    assert not formula_holds(f, chain.leq, {"x0": 1, "x1": 1})


def test_self_times_subtract_direct_children():
    t = Tracer()
    t.spans = [
        ["outer", 0.0, 10.0, -1, "d"],
        ["inner", 1.0, 4.0, 0, "d"],
        ["inner", 5.0, 6.0, 0, "d"],
        ["leaf", 2.0, 3.0, 1, "d"],
    ]
    times = t.self_times()
    assert times["outer"] == pytest.approx(6.0)
    assert times["inner"] == pytest.approx(3.0)
    assert times["leaf"] == pytest.approx(1.0)


def test_tracer_times_generator_iteration():
    t = Tracer()

    def slow_items():
        yield from range(3)

    wrapped = t._wrap("reduction.enumerate", slow_items, None)
    assert list(wrapped()) == [0, 1, 2]
    assert t.counts["reduction.enumerate.items"] == 3
    # one span for the call, then one per step including the final StopIteration
    assert [s[0] for s in t.spans].count("reduction.enumerate") == 5


def test_tracer_restores_the_library():
    import posetmc.clique as clique

    original = clique.build_colored_graph
    with Tracer().installed():
        assert clique.build_colored_graph is not original
    assert clique.build_colored_graph is original


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = _run(workload, seed=11, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stdout
        results.append(result["metrics"])
    for name in COUNT_METRICS:
        assert results[0][name]["value"] == results[1][name]["value"], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("embed-banded", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
