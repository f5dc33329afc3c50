"""Tests of the benchmark itself, on reduced inputs.

Run: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEEP_N, ear_graph  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_agree(workload):
    res = run.measure(workload, seed=7, seconds=0, trace=True, reduced=True)
    # check_reps compares digests, counts and ops of the untraced and the
    # traced repetition; any difference lands in problems
    assert res["problems"] == []
    assert res["failed_ops"] == 0
    for m in SPEC["end_to_end"]:
        assert res["end_to_end"][m["name"]] > 0
    per_layer = res["per_layer"]
    for m in SPEC["per_layer"]:
        assert m["name"] in per_layer
    assert per_layer["trace.top_span_coverage"] > 0.5
    assert 0 < per_layer["trace.span_cost_s"] < per_layer["trace.wall_s"]
    if workload != "campaign":
        # the benchmark is the only caller of exists_magic here, so the
        # spans see exactly the nodes the benchmark read from return values
        assert per_layer["solver.exists_magic.nodes"] == res["counts"]["solve_nodes"]


def test_seed_changes_order_not_outputs():
    a = run.measure("campaign", 1, 0, False, reduced=True)
    b = run.measure("campaign", 2, 0, False, reduced=True)
    assert a["digest"] == b["digest"]
    assert a["counts"] == b["counts"]


def test_tracer_restores_functions():
    from vertexmagic import families, solver, workbench

    before = (workbench.exists_magic, solver.kernels.search_exists, families.recognize)
    tracer = Tracer()
    tracer.install()
    assert workbench.exists_magic is not before[0]
    assert workbench.exists_magic.__wrapped__ is before[0]
    tracer.uninstall()
    after = (workbench.exists_magic, solver.kernels.search_exists, families.recognize)
    assert after == before


def test_ear_graphs_have_the_promised_shape():
    import random

    from vertexmagic.graphs import cycle_rank

    rng = random.Random(0)
    for _ in range(200):
        g, rank = ear_graph(rng, DEEP_N)
        assert g.n == DEEP_N and min(g.degrees) >= 2
        assert cycle_rank(g) == rank and rank in (2, 3)


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "atlas", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
