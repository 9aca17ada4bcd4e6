"""The output checker passes correct outputs and counts wrong ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checker.py
"""

import json

import numpy as np
import pytest

import checker
import workloads
from run import run_job


def _rng(seed=5):
    return np.random.default_rng(seed)


def _small_berry(regime):
    make = workloads.berry_adiabatic if regime == "adiabatic" else workloads.berry_nonadiabatic
    job = make(_rng())
    job.argv[job.argv.index("--theta-steps") + 1] = "4"
    job.size = 4
    return job


@pytest.fixture(scope="module")
def chern_run():
    job = workloads.chern(_rng(), "adiabatic", 100)
    return job, run_job(job)[1]


def test_correct_outputs_pass(chern_run):
    job, outcome = chern_run
    assert checker.check(job, outcome) == []
    for make in (workloads.spectrum, workloads.evolve, workloads.chern_at_transition,
                 workloads.evolve_zero_frequency):
        job = make(_rng())
        assert checker.check(job, run_job(job)[1]) == [], job.kind


def test_flipped_chern_number_fails(chern_run):
    job, (code, out, err) = chern_run
    doc = json.loads(out)
    row = next(r for r in doc["results"]["rows"] if r[2] != 0)
    row[2] = -row[2]
    assert checker.check(job, (code, json.dumps(doc), err))


def test_wrong_error_name_fails():
    job = workloads.chern_at_transition(_rng())
    code, out, err = run_job(job)[1]
    record = json.loads(err)
    record["error"]["name"] = "NonConverged"
    assert checker.check(job, (code, out, json.dumps(record)))
    assert checker.check(job, (0, out, ""))


@pytest.mark.parametrize("regime", ["adiabatic", "nonadiabatic"])
def test_off_tolerance_phase_fails(regime):
    job = _small_berry(regime)
    code, out, err = run_job(job)[1]
    assert checker.check(job, (code, out, err)) == []
    doc = json.loads(out)
    doc["results"]["rows"][2][1] += 1e-7  # within the 1e-5 tolerance
    assert checker.check(job, (code, json.dumps(doc), err)) == []
    doc["results"]["rows"][2][1] += 3e-5
    assert checker.check(job, (code, json.dumps(doc), err))


def test_diagram_csv_class_flip_fails():
    job = workloads.phase_diagram(_rng(), 20, fmt="csv")
    code, out, err = run_job(job)[1]
    assert checker.check(job, (code, out, err)) == []
    lines = out.split("\n")
    i = next(k for k, line in enumerate(lines) if "(0,Z)" in line)
    lines[i] = lines[i].replace("(0,Z)", "(Z,Z)")
    assert checker.check(job, (code, "\n".join(lines), err))


def test_propagator_off_tolerance_fails():
    job = workloads.propagate_library(_rng())
    job.rk4_steps = 1000
    error, (u_rk4, u_exact) = run_job(job)[1]
    assert checker.check(job, (error, (u_rk4, u_exact))) == []
    u_rk4 = u_rk4.copy()
    u_rk4[0, 0] += 1e-7  # beyond the 1e-8 acceptance tolerance
    assert checker.check(job, (error, (u_rk4, u_exact)))
