"""Self-tests of the benchmark (not of nccw).

    python3 -m pytest -q bench/selftest.py

They take about a minute: the layer test runs one untraced and one traced
round of every workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from bench import layers, oracle, workloads, worker  # noqa: E402
from bench.run import best_by_job, end_to_end, run_workload, tail  # noqa: E402

# metric -> the workload built to stress it (README, "Layers")
STRESSED_ON = {
    "exacthom.cert_det_calls": "dense", "exacthom.cert_det_s": "dense",
    "exacthom.snf_calls": "dense", "exacthom.snf_s": "dense",
    "exacthom.snf_max_dim": "dense", "exacthom.transform_bits_max": "dense",
    "exacthom.subquotient_calls": "spheres", "exacthom.subquotient_s": "spheres",
    "exacthom.rank_calls": "coefficients", "exacthom.rank_s": "coefficients",
    "exacthom.coeff_cohom_s": "coefficients",
    "exacthom.intmat_calls": "small_towers", "exacthom.intmat_s": "small_towers",
    "ssengine.turn_calls": "spheres", "ssengine.turns_per_job": "spheres",
    "ssengine.turn_s": "spheres", "ssengine.entries_turned": "spheres",
    "ssengine.idle_turn_ratio": "spheres", "ssengine.assemble_s": "coefficients",
    "ssengine.engine_s": "spheres",
    "fibration.e2_calls": "coefficients", "fibration.e2_s": "coefficients",
    "fibration.relcoeff_s": "coefficients",
    "constructions.mapcone_calls": "small_towers", "constructions.mapcone_s": "small_towers",
    "cellmodel.build_calls": "small_towers", "cellmodel.build_s": "small_towers",
    "cellmodel.cells": "spheres",
    "findim.morphism_calls": "small_towers", "findim.morphism_s": "small_towers",
    "cli.parse_s": "small_towers", "cli.render_s": "spheres", "cli.out_bytes": "spheres",
    "trace.overhead_ratio": "small_towers", "trace.coverage": "small_towers",
}


def test_every_layer_metric_has_a_stressing_workload():
    assert set(STRESSED_ON) == set(layers.METRICS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_and_round_alone(workload):
    files, jobs = workloads.generate(workload, 7, 1)
    again, jobs_again = workloads.generate(workload, 7, 1)
    assert files == again and jobs == jobs_again
    digest = workloads.input_hash(files, jobs)
    assert digest == workloads.input_hash(again, jobs_again)
    for seed, index in ((8, 1), (7, 2)):
        other, other_jobs = workloads.generate(workload, seed, index)
        assert digest != workloads.input_hash(other, other_jobs)
        # the same composition: the same job kinds in the same places
        assert [j["argv"][:2] for j in jobs] == [j["argv"][:2] for j in other_jobs]
        # and no input file repeats from round to round
        assert not set(files.values()) & set(other.values())


def test_oracle_arithmetic():
    assert oracle.group(0, [2, 3, 4]) == (0, (2, 12))
    assert oracle.group(1, [0, 4, 6, 8, 10, 1]) == (2, (2, 2, 4, 120))
    assert oracle.tensor(oracle.group(1, [4]), oracle.group(0, [6])) == (0, (2, 6))
    assert oracle.tor(oracle.group(0, [4]), oracle.group(2, [6])) == (0, (2,))
    assert oracle.endpoint_cohomology([[2, -2]]) == [(1, ()), (0, (2,))]
    assert oracle.parse_group("Q^2 (+) Z/2") == ("Q", (2, (2,)))


def test_oracle_invariant_factors_agree_with_sympy():
    """The oracle's own determinantal-divisor route against sympy's Smith
    form, on matrices with non-cyclic cokernels among them."""
    import random

    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(5)
    for trial in range(150):
        n = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if trial % 2:
            for r in rng.sample(range(n), min(n, 2)):
                m[r] = [rng.choice((2, 3)) * x for x in m[r]]
        want = [int(abs(d)) for d in invariant_factors(Matrix(m), domain=ZZ)]
        got = oracle.square_invariant_factors(m)
        assert got == (None if 0 in want else want), m
        cols = rng.randint(1, n)
        rect = [row[:cols] for row in m[: rng.randint(1, n)]]
        want = [int(abs(d)) for d in invariant_factors(Matrix(rect), domain=ZZ) if d]
        assert oracle.invariant_factors(rect) == want, rect


def test_tail_keeps_ten_jobs_beyond_it():
    assert tail([float(x) for x in range(1, 41)]) == (75, 30.0, 10)
    assert tail([float(x) for x in range(1, 101)]) == (90, 90.0, 10)
    assert tail([1.0, 2.0, 3.0]) == (50, 2.0, 1)


def test_a_job_is_its_best_round():
    main = {"kinds": ["#0", "#1", "#0", "#1", "t"], "times": [0.004, 0.002, 0.003, 0.005, 0.001],
            "names": {"#0": "a", "#1": "b", "t": "c"}}
    assert best_by_job(main) == {"a": 3.0, "b": 2.0, "c": 1.0}


def test_sphere_twins_are_one_job_with_other_inputs():
    files, jobs = workloads.generate("spheres", 1, 1)
    kinds = [job["kind"] for job in jobs]
    assert len(set(kinds)) == 42 and len(jobs) == 80
    twins = [job for job in jobs if job["kind"] == kinds[0]]
    assert len(twins) == 2 and files[twins[0]["argv"][1]] != files[twins[1]["argv"][1]]


@pytest.mark.parametrize("field, kind", [("even", "wrong"), ("odd_ext", "flag")])
def test_a_corrupted_expectation_is_a_failure(tmp_path, monkeypatch, field, kind):
    from nccw.cli import main as nccw_main

    monkeypatch.chdir(tmp_path)
    jobs = worker.Rounds("small_towers", 3).next()
    expect = jobs[1]["expect"]
    expect[field] = [expect[field][0] + 1, []] if field == "even" else not expect[field]
    loop = worker.Loop(nccw_main)
    loop.round(jobs)
    assert loop.failures == {kind: 1}
    result = {"kinds": loop.kinds, "times": loop.times, "names": loop.names, "rounds": 1,
              "peak_rss_mb": 1.0, "failures": loop.failures, "attempted": loop.attempted}
    metrics, notes, raw = end_to_end(result, [1.0])
    assert metrics["ok_ratio"]["value"] < 1 and raw["fail_ratio"] > 0


def test_tracer_patches_every_binding_and_restores_it():
    import nccw.cli  # noqa: F401  (loads every module the CLI uses)
    from nccw import constructions, fibration, ssengine

    before = layers.function_bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        for ns, name in ((ssengine, "presented_subquotient"),
                         (constructions, "compute_theories"), (fibration, "assemble")):
            assert hasattr(getattr(ns, name), "__wrapped__"), f"{ns.__name__}.{name}"
    finally:
        tracer.uninstall()
    assert layers.function_bindings() == before


def test_a_vanished_name_is_reported_absent(monkeypatch):
    import nccw.cli  # noqa: F401

    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + [
        ("exacthom.snf", "exacthom", ("no_such_function",), None)])
    tracer = layers.Tracer()
    with pytest.warns(UserWarning, match="no_such_function"):
        tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics(1, 1, 1.0, 1.0, 0)
    assert "exacthom.snf_calls" not in metrics and "exacthom.snf" in tracer.absent
    assert "exacthom.cert_det_calls" in metrics


@pytest.fixture(scope="module")
def traced():
    return {w: run_workload(w, 11, 0.1, 1) for w in sorted(workloads.WORKLOADS)}


def test_untraced_and_traced_runs_leave_nccw_unpatched(traced):
    untraced = run_workload("small_towers", 11, 0.1, 0)
    assert untraced["correct"] and untraced["changed_bindings"] == []
    for report in traced.values():
        assert report["correct"] and report["changed_bindings"] == []


@pytest.mark.parametrize("metric", sorted(STRESSED_ON))
def test_layer_metric_is_nonzero_on_its_workload(traced, metric):
    report = traced[STRESSED_ON[metric]]
    assert report["absent"] == []
    assert report["metrics"][metric]["value"] > 0


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            [*cmd, "--workload", "small_towers", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
