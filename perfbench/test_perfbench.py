"""Self-tests of the benchmark.  Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py

They run one untraced and one traced repetition of every workload (about
a minute in all), plus one more traced run of two_path.
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import run as bench
import workloads as wl

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "fan.vectors", "folding.folds", "folding.repeat_calls", "weyl.reductions",
    "weyl.reflections", "strings.solve_cells", "oracle.queries", "fan.denominator_terms",
)
SEED = 7


@pytest.fixture(scope="module")
def refs():
    return wl.load_references()


@pytest.fixture(scope="module")
def minimal(refs):
    """A minimal traced pass of every workload: one untraced, one traced repetition."""
    return {
        w: bench.run_benchmark(w, SEED, 0, 1, root=ROOT, min_reps=1, refs=refs)
        for w in wl.WORKLOADS
    }


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(refs, workload):
    assert wl.make_inputs(workload, 3, refs) == wl.make_inputs(workload, 3, refs)
    assert wl.make_inputs(workload, 3, refs)[0] != wl.make_inputs(workload, 4, refs)[0]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_minimal_pass_is_correct(minimal, workload):
    report = minimal[workload]
    assert [r["traced"] for r in report["reps"]] == [False, True]
    assert report["attempted"] > 0
    assert report["failed"] == 0, report["notes"]
    assert set(bench.end_to_end(report)) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(bench.per_layer(report)) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_outputs_equal_untraced(minimal, workload):
    untraced, traced = minimal[workload]["reps"]
    assert traced["outputs"] == untraced["outputs"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_corrupted_reference_fails(refs, minimal, workload):
    bad = copy.deepcopy(refs)
    for module in bad["modules"].values():
        module["coefficients"][0][1] += 1
    job, expected = wl.make_inputs(workload, SEED, bad)
    assert job == minimal[workload]["job"]
    outputs = minimal[workload]["reps"][0]["outputs"]
    attempted, failed, notes = wl.check_rep(job, expected, outputs)
    assert attempted > 0 and failed > 0 and notes


def test_counts_repeat_exactly(refs, minimal):
    # two_path exercises every exactly counted layer.
    again = bench.run_benchmark("two_path", SEED, 0, 1, root=ROOT, min_reps=1, refs=refs)
    first = bench.per_layer(minimal["two_path"])
    second = bench.per_layer(again)
    for name in EXACT_COUNTS:
        assert first[name][0] > 0, name
        assert first[name] == second[name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "deep_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
