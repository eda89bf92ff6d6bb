"""The full-order cross-check accepts sound verdicts and flags wrong ones.

Run with ``python3 -m pytest perfbench``.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import redsafe as rs  # noqa: E402
from crosscheck import check_verdict  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def unsafe_case():
    """Known-Unsafe instance: the witness is found at k=12 of the geometric
    schedule 3, 6, 12."""
    problem = rs.random_problem(7, 50, 4, 2, free_dims=6, spec_scale=0.1)
    verdict = rs.verify(problem, rs.VerifyOptions(geometric_schedule=True))
    assert (verdict.outcome, verdict.k_used) == (rs.UNSAFE, 12)
    return problem, verdict


def test_confirmed_witness_passes(unsafe_case):
    problem, verdict = unsafe_case
    assert check_verdict(problem, verdict, seed=7) == []


def test_wrong_safe_verdict_is_flagged(unsafe_case):
    problem, verdict = unsafe_case
    claimed = dataclasses.replace(verdict, outcome=rs.SAFE, witness=None)
    reasons = check_verdict(problem, claimed, seed=7)
    assert reasons and "Safe verdict contradicted" in reasons[0]


def test_witness_that_stays_safe_is_flagged(unsafe_case):
    problem, verdict = unsafe_case
    loose = dataclasses.replace(problem, spec=(rs.PolytopeSpec(
        problem.spec[0].Gamma, 100.0 * problem.spec[0].Psi, rs.POLARITY_SAFE),))
    reasons = check_verdict(loose, verdict, seed=7)
    assert reasons and "does not violate" in reasons[0]


def test_safe_motor_passes_per_mode():
    problem = rs.motor_benchmark()
    claimed = rs.Verdict(outcome=rs.SAFE, k_used=5, delta=None, delta_used=None,
                         witness=None, per_k_log=[])
    assert check_verdict(problem, claimed, seed=3) == []


def test_indeterminate_claims_nothing(unsafe_case):
    problem, verdict = unsafe_case
    claimed = dataclasses.replace(verdict, outcome=rs.INDETERMINATE, witness=None)
    assert check_verdict(problem, claimed, seed=7) == []


def test_tracer_counts_layers_and_restores_names():
    import redsafe.bounds
    import redsafe.verifier
    original = redsafe.verifier.reach_lti, redsafe.bounds.e2_simulation
    problem = rs.random_problem(3, 12, 2, 2, free_dims=3)
    with Tracer() as tracer:
        verdict = tracer.call(rs.verify, problem, rs.VerifyOptions(k0=5, k_max=5))
        metrics = tracer.metrics(verdict)
        assert tracer.missing(("gramians.solve_lyapunov", "bounds.e1_optimization",
                               "bounds.e2_simulation", "reach.reach_lti",
                               "reach.check_spec")) == []
        assert verdict.outcome == rs.SAFE
        assert tracer.missing(("reach.find_unsafe_witness",)) == ["reach.find_unsafe_witness"]
    assert (redsafe.verifier.reach_lti, redsafe.bounds.e2_simulation) == original
    assert metrics["bounds.e2_simulation.calls"] == 2  # plain and input split
    # self times partition the call; per-order times include child spans
    wall = metrics["verifier.traced_verify_s"]
    assert 0.0 <= metrics["verifier.self_s"] < wall
    assert np.isclose(sum(v for k, v in metrics.items() if k.endswith(".s"))
                      + metrics["verifier.self_s"], wall, rtol=1e-6)
    assert metrics["bounds.e1_optimization.k5_s"] > metrics["bounds.e1_optimization.s"]
    assert metrics["reach.reach_lti.k10_s"] == 0.0
    assert "reach.reach_lti.k4_s" not in metrics  # only the sweep's orders


def test_self_times_cover_a_witness_search(unsafe_case):
    problem, _ = unsafe_case
    with Tracer() as tracer:
        verdict = tracer.call(rs.verify, problem, rs.VerifyOptions(geometric_schedule=True))
        metrics = tracer.metrics(verdict)
    assert metrics["reach.simulate.calls"] > 0
    assert metrics["reach.witness_found_ratio"] > 0
    assert np.isclose(sum(v for k, v in metrics.items() if k.endswith(".s"))
                      + metrics["verifier.self_s"], metrics["verifier.traced_verify_s"],
                      rtol=1e-6)
