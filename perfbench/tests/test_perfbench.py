"""Tests of the benchmark itself: tiny runs of every workload, planted faults
that the output checks must catch, seeding, and the compare refusal."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

import alphamargin  # noqa: E402
# the workloads reach every submodule through the package object
from alphamargin import (  # noqa: E402,F401
    backend, cli, core, errors, evalkit, losses, synthdata, trainer,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SOLVER_METRICS = ("backend.posterior_batch.calls", "backend.posterior_batch.rows",
                  "backend.posterior.calls")


def run_bench(cwd, workload, trace, seed=1, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_results(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("bench")
    return {(w, t): last_json(run_bench(cwd, w, t))
            for w in workloads.WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric(tiny_results, workload, trace, kind):
    result = tiny_results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_solver_metrics_read_zero_where_the_solver_is_not_called(tiny_results):
    for workload in workloads.WORKLOADS:
        metrics = tiny_results[(workload, 1)]["metrics"]
        solved = sum(metrics[name]["value"] for name in SOLVER_METRICS)
        assert (solved > 0) == (workload in ("train_alpha", "solve_single")), workload


def test_traced_counts_repeat_for_a_seed(tmp_path, tiny_results):
    again = last_json(run_bench(tmp_path, "train_alpha", 1))["metrics"]
    first = tiny_results[("train_alpha", 1)]["metrics"]
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert counts and all(again[n]["value"] == first[n]["value"] for n in counts)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "solve_single", 0, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def tiny(name, tmp_path, seed=1):
    w = workloads.make(name, alphamargin, tmp_path, seed, workloads.SIZES["tiny"])
    w.setup()
    return w


def run_pass(w):
    """One pass with the benchmark's accounting: an escaping exception is a
    failure of its call, otherwise the workload's checks decide."""
    outputs = []
    for call in w.pass_calls():
        try:
            outputs.append(call())
        except Exception as exc:
            outputs.append(exc)
    errors = [(i, repr(out)) for i, out in enumerate(outputs) if isinstance(out, Exception)]
    return errors or w.check(outputs)


def test_planted_frr_fault_is_caught(tmp_path, monkeypatch):
    w = tiny("eval_verify", tmp_path)
    assert run_pass(w) == []
    true_frr_at_far = evalkit.frr_at_far

    def next_threshold(scores, far):
        _, t = true_frr_at_far(scores, far)
        above = np.unique(scores.impostor)
        t = float(above[above > t][0]) if np.any(above > t) else t + 1e-3
        return float(np.mean(scores.genuine < t)), t

    monkeypatch.setattr(evalkit, "frr_at_far", next_threshold)
    fails = run_pass(w)
    assert fails and all("report line" in msg for _, msg in fails)


def test_planted_posterior_fault_is_caught(tmp_path, monkeypatch):
    w = tiny("solve_single", tmp_path)
    assert run_pass(w) == []
    true_posterior = backend.posterior

    def shifted(theta, q, alpha, tol, max_iters):
        # move 1e-6 of mass between the two largest entries; the row still sums to 1
        p, tau = true_posterior(theta, q, alpha, tol, max_iters)
        a, b = np.argsort(p)[-2:]
        p = p.copy()
        p[a] += 1e-6
        p[b] -= 1e-6
        return p, tau

    monkeypatch.setattr(backend, "posterior", shifted)
    w = tiny("solve_single", tmp_path)
    fails = run_pass(w)
    assert len({i for i, _ in fails}) == len(w.draws)


def test_posterior_check_catches_a_row_off_by_1e6():
    rng = np.random.default_rng(0)
    theta, q = rng.uniform(-3.0, 3.0, 20), np.ones(20)
    p = oracles.weighted_sparsemax(theta, q)
    assert oracles.check_posterior(p, theta, q, 2.0) == []
    bad = p.copy()
    bad[np.argmax(bad)] += 1e-6
    assert oracles.check_posterior(bad, theta, q, 2.0)


@pytest.mark.parametrize("impostor,far,expected", [
    ([0.1, 0.4, 0.4, 0.8], 0.75, (1 / 3, 0.4)),  # ties at the threshold are accepted
    ([0.1, 0.4, 0.4, 0.8], 0.5, (2 / 3, 0.8)),
    ([0.1, 0.4, 0.4, 0.8], 0.2, None),  # below the 1/4 resolution
    ([0.1, 0.9, 0.9], 0.34, None),  # tied top impostor scores
])
def test_frr_oracle_agrees_with_the_program(impostor, far, expected):
    genuine = [0.2, 0.5, 0.9]
    scores = evalkit.TrialScoreSet(genuine=genuine, impostor=impostor)
    if expected is None:
        with pytest.raises(oracles.Unattainable):
            oracles.frr_at_far(genuine, impostor, far)
        with pytest.raises(errors.UnattainableFARError):
            evalkit.frr_at_far(scores, far)
    else:
        assert oracles.frr_at_far(genuine, impostor, far) == expected
        assert evalkit.frr_at_far(scores, far) == expected


@pytest.mark.parametrize("seed_a,seed_b,same", [(1, 1, True), (1, 2, False)])
def test_seed_sets_the_inputs(tmp_path, seed_a, seed_b, same):
    def inputs(seed, tag):
        d = tmp_path / tag
        d.mkdir()
        tiny("train_alpha", d, seed)
        solve = tiny("solve_single", d, seed)
        return (d / "train.bin").read_bytes(), [draw[2].tobytes() for draw in solve.draws]

    a, b = inputs(seed_a, "a"), inputs(seed_b, "b")
    assert (a[0] == b[0]) == same and (a[1] == b[1]) == same


def test_compare_refuses_a_different_backend_or_blas():
    base = {"workload": "solve_single", "env": {"backend": "python", "blas_threads": 1},
            "metrics": {"op_ms_p50": {"value": 1.0, "unit": "ms"}}}
    assert compare.compare(base, base) == ["op_ms_p50: 1 -> 1 ms (x1.000)"]
    for key, value in (("backend", "compiled"), ("blas_threads", 2)):
        other = dict(base, env=dict(base["env"], **{key: value}))
        with pytest.raises(ValueError, match=key):
            compare.compare(base, other)
