import numpy as np
import pytest

import redsafe as rs
from redsafe import verifier
from redsafe.model import POLARITY_SAFE, POLARITY_UNSAFE
from redsafe.reach import INDETERMINATE, SAFE, UNSAFE
from redsafe.verifier import VerifyOptions, verify, verify_pss

from conftest import batch_trajectories, grid_slack, rand_box, rand_ubox


def generous_problem(rng, n=3, spec_scale=6.0):
    return rs.random_problem(int(rng.integers(0, 10_000)), n=n, m=1, p=1,
                             free_dims=min(n, 4), spec_scale=spec_scale)


class TestVerifyLti:
    def test_safe_on_generous_spec(self, rng):
        # oracle: the spec box is several times the dense-simulated range
        prob = generous_problem(rng, n=3, spec_scale=8.0)
        verdict = verify(prob, VerifyOptions(seed=0))
        assert verdict.outcome == SAFE
        assert verdict.k_used is not None and verdict.delta is not None
        # dense simulation stays within the original safe box
        X0 = np.hstack([prob.x0.vertices(), prob.x0.sample(np.random.default_rng(0), 30)])
        state = {"U": None}

        def u_plan(step):
            if step % 10 == 0:
                state["U"] = prob.inputs.sample(np.random.default_rng(step), X0.shape[1])
            return state["U"]

        out = batch_trajectories(prob.system.A, prob.system.B, prob.system.C,
                                 X0, u_plan, prob.t_f, prob.t_f / 400)
        spec = prob.spec[0]
        margins = np.einsum("qp,spb->sqb", spec.Gamma, out) + spec.Psi[None, :, None]
        assert np.all(margins <= 0)

    def test_unsafe_with_t0_witness(self):
        # initial output image sits inside the transformed unsafe region
        sys_ = rs.LtiSystem(np.diag([-1.0, -2.0]), np.array([[0.1], [0.2]]),
                            np.ones((1, 2)))
        x0 = rs.HyperBox([1.0, 1.0], [1.1, 1.1])
        spec = rs.PolytopeSpec([[1.0]], [-0.5], POLARITY_SAFE)  # safe: y <= 0.5
        prob = rs.VerificationProblem(sys_, x0, rs.HyperBox([0.0], [0.0]),
                                      (spec,), 1.0)
        verdict = verify(prob, VerifyOptions(seed=0))
        assert verdict.outcome == UNSAFE
        assert verdict.witness is not None
        assert verdict.witness.times[verdict.witness.sample_index] < 0.05

    def test_indeterminate_logs_every_k(self, rng, monkeypatch):
        # safe bound above the dense-simulated truth (so no witness can ever
        # fire: the witness threshold is bound + Delta while reduced outputs
        # stay below truth + delta), combined with a deliberately coarse reach
        # step whose bloat keeps containment out of reach at every order
        prob0 = generous_problem(rng, n=4)
        sys_ = prob0.system
        X0 = np.hstack([prob0.x0.vertices(),
                        prob0.x0.sample(np.random.default_rng(1), 50)])
        state = {"U": None}

        def u_plan(step):
            if step % 5 == 0:
                state["U"] = prob0.inputs.sample(np.random.default_rng(100 + step),
                                                 X0.shape[1])
            return state["U"]

        out = batch_trajectories(sys_.A, sys_.B, sys_.C, X0, u_plan,
                                 prob0.t_f, prob0.t_f / 500)
        m_true = float(np.max(np.abs(out)))
        bound = 1.2 * m_true
        spec = rs.PolytopeSpec([[1.0], [-1.0]], [-bound, -bound], POLARITY_SAFE)
        prob = rs.VerificationProblem(sys_, prob0.x0, prob0.inputs, (spec,),
                                      prob0.t_f)
        # step_lh can only refine the default step below t_f / 200, so the
        # coarse step t_f / 15 is put in place of the k-loop's default
        monkeypatch.setattr(verifier, "default_step", lambda t_f, A, lh: t_f / 15)
        verdict = verify(prob)
        assert verdict.outcome == INDETERMINATE
        ks = [e.k for e in verdict.per_k_log]
        assert ks == list(range(2, 5))  # k0 = p+1 = 2 .. k_max = n = 4

    def test_determinism(self, rng):
        prob = generous_problem(rng, n=4, spec_scale=1.2)
        o = VerifyOptions(seed=7)
        v1 = verify(prob, o)
        v2 = verify(prob, o)
        assert v1.outcome == v2.outcome and v1.k_used == v2.k_used
        log1 = [(e.k, e.bounds, e.outcome, e.notes) for e in v1.per_k_log]
        log2 = [(e.k, e.bounds, e.outcome, e.notes) for e in v2.per_k_log]
        assert log1 == log2

    def test_requires_lti(self):
        prob = rs.motor_benchmark()
        with pytest.raises(rs.ModelError, match="verify_pss"):
            verify(prob)

    def test_order_range_validation(self, rng):
        prob = generous_problem(rng, n=3)
        with pytest.raises(rs.ModelError, match="k0"):
            verify(prob, VerifyOptions(k0=1))
        with pytest.raises(rs.ModelError, match="k0"):
            verify(prob, VerifyOptions(k0=2, k_max=9))

    def test_unstable_system_rejected(self):
        sys_ = rs.LtiSystem([[0.1, 0.0], [0.0, -1.0]], np.ones((2, 1)),
                            np.ones((1, 2)))
        spec = rs.PolytopeSpec([[1.0]], [-1.0], POLARITY_SAFE)
        prob = rs.VerificationProblem(sys_, rs.HyperBox([0, 0], [0, 0]),
                                      rs.HyperBox([0.0], [1.0]), (spec,), 1.0)
        with pytest.raises(rs.StabilityError):
            verify(prob)

    def test_componentwise_min_is_used(self, rng):
        prob = generous_problem(rng, n=4, spec_scale=8.0)
        verdict = verify(prob, VerifyOptions(seed=0))
        entry = verdict.per_k_log[-1]
        stacked = np.stack([np.asarray(v) for v in entry.bounds.values()])
        assert np.allclose(verdict.delta_used, stacked.min(axis=0))


class TestVerifyPss:
    def _single_mode(self, rng, spec_scale=8.0):
        lti = rs.random_problem(int(rng.integers(0, 10_000)), n=4, m=1, p=1,
                                free_dims=3, spec_scale=spec_scale)
        pss = rs.PssSystem((lti.system,), (lti.t_f,), (lti.x0,))
        pss_prob = rs.VerificationProblem(pss, None, lti.inputs, lti.spec, lti.t_f)
        return lti, pss_prob

    def test_single_mode_matches_lti(self, rng):
        lti, pss_prob = self._single_mode(rng)
        o = VerifyOptions(seed=0)
        v_lti = verify(lti, o)
        v_pss = verify_pss(pss_prob, o)
        assert v_lti.outcome == v_pss.outcome
        assert v_lti.k_used == v_pss.k_used
        assert np.allclose(v_lti.delta_used, v_pss.delta_used, rtol=1e-9)
        assert len(v_lti.delta) == len(v_pss.delta) == 1
        assert np.allclose(v_lti.delta[0].delta, v_pss.delta[0].delta, rtol=1e-9)
        assert (v_lti.delta[0].e1_method, v_lti.delta[0].e2_method) \
            == (v_pss.delta[0].e1_method, v_pss.delta[0].e2_method)
        # the same loop runs for both; only the PSS labels carry the mode
        lti_log = [(e.k, e.outcome, e.bounds, e.notes) for e in v_lti.per_k_log]
        pss_log = [(e.k, e.outcome,
                    {label.removeprefix("mode0:"): d for label, d in e.bounds.items()},
                    tuple(note.removeprefix("mode 0: ") for note in e.notes))
                   for e in v_pss.per_k_log]
        assert lti_log == pss_log
        assert all(label.startswith("mode0:")
                   for e in v_pss.per_k_log for label in e.bounds)

    def test_requires_pss(self, rng):
        lti, _ = self._single_mode(rng)
        with pytest.raises(rs.ModelError, match="PSS"):
            verify_pss(lti)

    def test_unsafe_mode_yields_witness(self):
        sys_ = rs.LtiSystem(np.diag([-1.0, -2.0]), np.array([[0.1], [0.2]]),
                            np.ones((1, 2)))
        bad_box = rs.HyperBox([1.0, 1.0], [1.05, 1.05])
        ok_box = rs.HyperBox([0.0, 0.0], [0.01, 0.01])
        pss = rs.PssSystem((sys_, sys_), (0.5, 0.5), (ok_box, bad_box))
        spec = rs.PolytopeSpec([[1.0]], [-0.5], POLARITY_SAFE)
        prob = rs.VerificationProblem(pss, None, rs.HyperBox([0.0], [0.0]),
                                      (spec,), 2.0)
        verdict = verify_pss(prob, VerifyOptions(seed=0))
        assert verdict.outcome == UNSAFE
        assert verdict.witness is not None

    def test_motor_case_study_quick(self):
        prob = rs.motor_benchmark()
        opts = VerifyOptions(k0=5, k_max=5,
                             e1_methods=(rs.E1_THEOREM2, rs.SIMULATION),
                             e2_methods=(rs.SIMULATION,),
                             step_lh=0.05, seed=0)
        verdict = verify_pss(prob, opts)
        assert verdict.outcome == SAFE
        assert verdict.k_used == 5


def test_e2_theoretical_component_nonincreasing_end_to_end(rng):
    # the theorem-3 component of the per-k candidates never grows with k
    from redsafe.verifier import bound_candidates
    from redsafe.balancing import balance
    prob = generous_problem(rng, n=7)
    bal = balance(prob.system)
    full = rs.FullOrderResponse.of(bal, prob.x0, prob.t_f)
    opts = VerifyOptions(e1_methods=("theorem1",), e2_methods=("theorem3",))
    prev = None
    for k in range(2, 8):
        _, e2s, bound, _ = bound_candidates(bal, full, k, prob.inputs, opts)
        e2 = e2s["theorem3"]
        assert np.array_equal(bound.e2, e2)
        if prev is not None:
            assert np.all(e2 <= prev + 1e-12)
        prev = e2


def test_refused_methods_of_either_source_are_noted_and_left_out(rng, monkeypatch):
    # one candidate loop for both sources: a method that refuses is noted
    # by source and name, and the other methods still assemble delta
    import redsafe.bounds as bnd
    from redsafe.verifier import bound_candidates
    from redsafe.balancing import balance
    prob = generous_problem(rng, n=7)
    bal = balance(prob.system)

    def refuse(*args):
        raise bnd.BoundError("refused")
    monkeypatch.setattr(bnd, "e1_simulation", refuse)
    monkeypatch.setattr(bnd, "e2_simulation", refuse)
    e1s, e2s, bound, notes = bound_candidates(
        bal, rs.FullOrderResponse.of(bal, prob.x0, prob.t_f), 3, prob.inputs)
    assert notes == ["e1 simulation skipped: refused", "e2 simulation skipped: refused"]
    assert list(e1s) == ["theorem1", "theorem2"] and list(e2s) == ["theorem3"]
    assert np.array_equal(bound.delta, e1s["theorem1"] + e2s["theorem3"])


def test_geometric_schedule_doubles_k(rng):
    from redsafe.verifier import _k_schedule
    assert list(_k_schedule(2, 20, geometric=True)) == [2, 4, 8, 16]
    assert list(_k_schedule(2, 5, geometric=False)) == [2, 3, 4, 5]


class TestUnsafePolaritySpecs:
    def test_far_forbidden_region_is_safe(self, rng):
        prob0 = generous_problem(rng, n=4)
        forb = rs.EllipsoidSpec(np.eye(1), np.array([1e4]), 1.0, POLARITY_UNSAFE)
        prob = rs.VerificationProblem(prob0.system, prob0.x0, prob0.inputs,
                                      (forb,), prob0.t_f)
        verdict = verify(prob, VerifyOptions(seed=0))
        assert verdict.outcome == SAFE

    def test_reachable_forbidden_region_is_unsafe(self):
        # steady state sits at the center of a fat forbidden ellipse
        sys_ = rs.LtiSystem(np.array([[-1.0, 0.5], [0.0, -2.0]]),
                            np.array([[1.0], [2.0]]), np.array([[1.0, 0.2]]))
        x0 = rs.HyperBox([0.0, 0.0], [0.01, 0.01])
        inputs = rs.HyperBox([1.0], [1.0])
        steady = float((sys_.C @ np.linalg.solve(-sys_.A, sys_.B @ np.ones(1)))[0])
        forb = rs.EllipsoidSpec(np.eye(1), np.array([steady]), 0.8, POLARITY_UNSAFE)
        prob = rs.VerificationProblem(sys_, x0, inputs, (forb,), 6.0)
        verdict = verify(prob, VerifyOptions(seed=0))
        assert verdict.outcome == UNSAFE
        assert verdict.witness is not None


    def test_forbidden_ellipsoid_uncleared_step_sets_are_searched(self):
        # the step sets are not certified clear of the shrunk ellipsoid at
        # k = 5, so the search runs and finds a witness that, replayed on the
        # full-order system at a fifth of its step, enters the ellipsoid
        prob = rs.random_problem(9, 6, 2, 2, free_dims=6)
        forb = rs.EllipsoidSpec(np.eye(2) / 0.42586267076342627 ** 2,
                                [-0.07408381891404858, -0.05377992449426636], 1.0,
                                POLARITY_UNSAFE)
        prob = rs.VerificationProblem(prob.system, prob.x0, prob.inputs, (forb,), prob.t_f)
        verdict = verify(prob)
        assert (verdict.outcome, verdict.k_used) == (UNSAFE, 5)
        w = verdict.witness
        steps = w.step_inputs.shape[0]
        d = rs.simulate(prob.system, w.init_state, np.repeat(w.step_inputs, 5, axis=0),
                        prob.t_f, prob.t_f / (5 * steps)).outputs - forb.a
        assert np.min(np.sum((d @ forb.Q) * d, axis=1)) < forb.R ** 2


#: (outcome, k_used) of ``random_problem(seed, n, m, p, free_dims=f,
#: spec_scale=c)`` under the default VerifyOptions, per (n, m, p, f, c) and
#: seed, as the witness search gave them while it drew random candidates
#: only: ``S<k>`` Safe at k, ``U<k>`` Unsafe at k, ``I`` Indeterminate.
WITNESS_FAMILY = {
    (8, 1, 1, None, 0.3): "I I I I S8 S8 U2 I U6 U5 U4 I I I U3 I I U8 I I "
                          "S8 S8 U6 U5 I I S6 S5 S8 I I S8 U4 U6 I S8 U5 U8 I I",
    (8, 1, 1, None, 0.5): "S2 S8 S2 S4 S2 S2 U3 S8 S6 S2 S8 S3 S8 S8 I S8 S8 S8 S3 S2 "
                          "S2 S2 I I S8 S8 S2 S2 S2 S3 S8 S2 I S8 S8 S2 S8 S8 S8 S2",
    (8, 1, 1, None, 0.7): "S2 S2 S2 S2 S2 S2 S8 S2 S2 S2 S2 S2 S2 S2 S2 S2 S2 S2 S2 S2 "
                          "S2 S2 S8 S2 S2 S2 S2 S2 S2 S2 S2 S2 S2 S2 S2 S2 S2 S8 S3 S2",
    (8, 1, 1, None, 1.0): " ".join(["S2"] * 40),
    (12, 2, 2, 4, 0.3): "S9 I U3 S7 U10 I I I I I U10 S7 I U8 I I U3 I U9 S12",
    (12, 2, 2, 4, 0.6): "S3 S3 I S3 I S3 S3 S3 S4 S3 S4 S3 S3 I S3 S6 I S3 S3 S3",
}


def test_witness_family_loses_no_verdict():
    # the search from the optimal input keeps every Unsafe at the same or a
    # lower k and changes no Safe, and every witness, replayed on the
    # full-order system at a fifth of its step, leaves the spec; no Safe
    # contradicts the full-order grid, and 19 Indeterminate verdicts are
    # grid-safe, the completeness gap
    grid_safe_indeterminate = 0
    for (n, m, p, f, c), before in WITNESS_FAMILY.items():
        for seed, token in enumerate(before.split()):
            prob = rs.random_problem(seed, n, m, p, free_dims=f, spec_scale=c)
            verdict = verify(prob)
            slack = grid_slack(prob)
            assert verdict.outcome != SAFE or slack >= 0.0, seed
            grid_safe_indeterminate += verdict.outcome == INDETERMINATE and slack >= 0.0
            if token[0] == "S":
                assert (verdict.outcome, verdict.k_used) == (SAFE, int(token[1:])), seed
            else:
                assert verdict.outcome != SAFE, seed
            if token[0] == "U":
                assert verdict.outcome == UNSAFE and verdict.k_used <= int(token[1:]), seed
            if verdict.outcome == UNSAFE:
                w = verdict.witness
                steps = w.step_inputs.shape[0]
                traj = rs.simulate(prob.system, w.init_state, np.repeat(w.step_inputs, 5, axis=0),
                                   prob.t_f, prob.t_f / (5 * steps))
                spec = prob.spec[0]
                assert np.any(traj.outputs @ spec.Gamma.T + spec.Psi > 0), seed
    assert grid_safe_indeterminate == 19
