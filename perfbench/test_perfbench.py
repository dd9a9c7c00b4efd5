"""Self-test of the benchmark harness: each workload's job list at a tiny size
with output checks on, and the traced run's per-layer metrics.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spec
from run import run_jobs

run._import_program()

from branchalg import branchrel, cli  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import EXPECTED, WORKLOADS, Inputs, Job, _law_check  # noqa: E402

# Per-layer metrics each workload must drive above zero.
EXERCISED = {
    "tree": [
        "branchrel.compose.calls",
        "branchrel.equal.calls",
        "branchrel.leq.calls",
        "branchrel.engine.created",
        "branchrel.engine.per_compose",
        "branchrel.paths_pool.calls",
        "model.assignments.tree",
        "thompson.run_suite.qu.busy_s",
        "terms.parse_term.calls",
        "cli.suite.busy_s",
        "cli.check_law.busy_s",
    ],
    "finite": [
        "model.assignments.finite",
        "model.assignments_per_s.finite",
        "atoms.parse_structure.busy_s",
        "atoms.tables.busy_s",
        "kernels.find_violation.M.calls",
        "jlm.check_jlm.atoms.busy_s",
        "jlm.check_jlm.elements.busy_s",
        "cli.check_jlm.busy_s",
    ],
    "enumerate": [
        "atoms.validate.calls",
        "kernels.associative_candidates.candidates",
        "kernels.associative_candidates.survivors",
        "enumeration.canonical_key.calls",
        "enumeration.classes",
        "cli.enumerate.busy_s",
    ],
}


def traced(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        wall, records = run_jobs(jobs, tracer)
    finally:
        tracer.uninstall()
    return tracer, wall, records


@pytest.fixture(params=list(WORKLOADS))
def tiny_jobs(request, tmp_path):
    return request.param, Inputs(request.param, tmp_path, tiny=True).jobs(3)


def test_tiny_jobs_pass_their_checks(tiny_jobs):
    workload, jobs = tiny_jobs
    kinds = {job.kind for job in jobs}
    assert kinds == {
        "tree": {"suite", "check-law"},
        "finite": {"check-law", "check-jlm"},
        "enumerate": {"enumerate"},
    }[workload]
    _, records = run_jobs(jobs)
    assert [err for _, _, err in records if err] == []


def test_traced_run_emits_every_per_layer_metric(tiny_jobs):
    workload, jobs = tiny_jobs
    tracer, wall, records = traced(jobs)
    assert [err for _, _, err in records if err] == []
    metrics = tracer.metrics(wall, wall)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert [m for m in EXERCISED[workload] if not metrics[m] > 0] == []


def test_tracer_restores_the_program():
    compose, init = branchrel.compose, branchrel.ClosureEngine.__init__
    tracer = Tracer()
    tracer.install()
    assert branchrel.compose is not compose
    tracer.uninstall()
    assert branchrel.compose is compose
    assert branchrel.ClosureEngine.__init__ is init


def test_counts_repeat_exactly(tmp_path):
    jobs = Inputs("tree", tmp_path, tiny=True).jobs(0)
    first, second = (traced(jobs)[0].metrics(1.0, 1.0) for _ in range(2))
    counted = [name for name, unit, _ in PER_LAYER if unit == "count"]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def test_stretch_row_counts(tmp_path):
    jobs = Inputs("enumerate", tmp_path).jobs(0)[-1:]
    tracer, wall, records = traced(jobs)
    assert records[0][2] is None
    metrics = tracer.metrics(wall, wall)
    assert metrics["kernels.associative_candidates.survivors"] == 3720
    assert metrics["enumeration.classes"] == 1316


def test_reference_counts_at_seed_0(tmp_path):
    reference = json.loads(Path(run.__file__).with_name("meta.json").read_text())
    jobs = Inputs("tree", tmp_path).jobs(0)
    tracer, wall, records = traced(jobs)
    metrics = tracer.metrics(wall, wall)
    want = reference["reference_counts"]["tree, seed 0"]
    assert {name: metrics[name] for name in want} == want


def test_element_verdicts_contain_atom_verdicts():
    verdicts = EXPECTED["verdicts"]
    assert len(verdicts) == 37 + 65
    assert [k for k, v in verdicts.items() if not set(v["atoms"]) <= set(v["elements"])] == []


def test_checks_reject_wrong_output(tiny_jobs):
    _, jobs = tiny_jobs
    job = jobs[-1]
    assert job.check(0, "total=0\n") is not None
    assert job.check(2, "") is not None


def test_counterexample_must_refail(tmp_path):
    inputs = Inputs("finite", tmp_path, tiny=True)
    structure = inputs.small[0]
    law = next(law for law in inputs.laws if law.variables)
    check = _law_check(law, structure.handle(), structure, 1)
    names = law.quantified_variables(structure.handle())
    env = ";".join(f"{v}=0" for v in names)
    error = check(1, f"LAW {law.id} fail tested=1 [counterexample: {env}]\n")
    assert error is not None and "does not re-fail" in error


def test_no_program_means_no_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_job_crash_is_a_failed_job(monkeypatch):
    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", crash)
    _, records = run_jobs([Job("suite", ["suite", "qu"], lambda rc, out: None)])
    assert "boom" in records[0][2]


def test_benchmark_json_matches_the_harness():
    assert (run.ROOT / "BENCHMARK.json").read_text() == spec.text()
    assert all(len(why) <= 200 for why in WORKLOADS.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_a_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
    else:
        assert list(result["metrics"]) == [name for name, _, _, _ in run.END_TO_END]
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_calibration_undoes_a_slow_phase():
    speed = run.HostSpeed()
    assert speed.read() == 0 and speed.readings[0] > 0
    speed.readings = [run.REFERENCE_S] * 10 + [2 * run.REFERENCE_S] * 10
    # A job that took 1 s at reference speed takes 2 s while the loop is 2x slower.
    assert 1.0 * speed.scale(2) == 1.0
    assert 2.0 * speed.scale(15) == 1.0
