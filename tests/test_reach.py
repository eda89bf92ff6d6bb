import numpy as np
import pytest

import redsafe as rs
from redsafe.model import POLARITY_SAFE, POLARITY_UNSAFE
from redsafe.reach import (DROP_TOL, INDETERMINATE, MAYBE_UNSAFE, ORDER_CAP,
                           SAFE, Zonotope, _transition, check_spec, enclose,
                           find_unsafe_witness, reach_lti, simulate)
from redsafe.spectransform import transform_spec

from conftest import batch_trajectories, rand_box, rand_ubox


class TestZonotope:
    def test_from_box_and_hull(self):
        box = rs.HyperBox([-1.0, 2.0], [1.0, 2.0])
        z = Zonotope.from_box(box)
        assert z.order == 1
        hull = z.interval_hull()
        assert hull == box

    def test_support_function(self, rng):
        z = Zonotope(rng.standard_normal(3), rng.standard_normal((3, 5)))
        v = rng.standard_normal(3)
        # exact support: maximize over sign choices
        signs = np.sign(v @ z.generators)
        signs[signs == 0] = 1.0
        best = v @ (z.center + z.generators @ signs)
        assert z.support(v) == pytest.approx(best, rel=1e-12)

    def test_enclose_contains_both(self, rng):
        z1 = Zonotope(rng.standard_normal(2), rng.standard_normal((2, 3)))
        z2 = Zonotope(rng.standard_normal(2), rng.standard_normal((2, 2)))
        hull = enclose(z1, z2)
        for z in (z1, z2):
            for _ in range(50):
                xi = rng.uniform(-1, 1, z.order)
                point = z.center + z.generators @ xi
                # membership via support functions in random directions
                for _ in range(10):
                    v = rng.standard_normal(2)
                    assert v @ point <= hull.support(v) + 1e-9


class TestReach:
    def test_frozen_dynamics(self):
        sys_ = rs.LtiSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2))
        box = rs.HyperBox([-1.0, 0.5], [1.0, 0.5])
        steps = reach_lti(sys_, box, rs.HyperBox([0.0], [0.0]), 1.0, 0.1)
        for s in steps:
            hull = s.outputs.interval_hull()
            assert np.allclose(hull.lb, [-1.0, 0.5], atol=1e-12)
            assert np.allclose(hull.ub, [1.0, 0.5], atol=1e-12)

    def test_scalar_decay_contains_truth(self):
        sys_ = rs.LtiSystem([[-1.0]], [[0.0]], [[1.0]])
        steps = reach_lti(sys_, rs.HyperBox([1.0], [1.0]), rs.HyperBox([0.0], [0.0]),
                          2.0, 0.02)
        for s in steps:
            for t in np.linspace(s.t0, s.t1, 5):
                y = np.exp(-t)
                hull = s.outputs.interval_hull()
                assert hull.lb[0] - 1e-9 <= y <= hull.ub[0] + 1e-9

    def test_simulation_containment_oracle(self, rng):
        # 500 simulated trajectories stay inside their interval's step set
        sys_ = rs.random_stable_system(rng, 4, 2, 2)
        x0 = rand_box(rng, 4, 4)
        ubox = rand_ubox(rng, 2)
        t_f = 1.5
        steps = reach_lti(sys_, x0, ubox, t_f)
        h_sim = (steps[0].t1 - steps[0].t0) / 3
        n_traj = 500
        X0 = x0.sample(rng, n_traj)
        # piecewise-constant inputs, new draw every few steps
        state = {"U": ubox.sample(rng, n_traj)}

        def u_plan(step):
            if step % 7 == 0:
                state["U"] = ubox.sample(rng, n_traj)
            return state["U"]

        out = batch_trajectories(sys_.A, sys_.B, sys_.C, X0, u_plan, t_f, h_sim)
        times = np.arange(out.shape[0]) * h_sim
        violations = 0
        for idx, t in enumerate(times):
            inside = [s for s in steps if s.t0 - 1e-12 <= t <= s.t1 + 1e-12]
            assert inside
            s = inside[0]
            hull = s.outputs.interval_hull()
            Y = out[idx]
            violations += int(np.any(Y < hull.lb[:, None] - 1e-9) or
                              np.any(Y > hull.ub[:, None] + 1e-9))
        assert violations == 0

    def test_step_validation(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 1, 1)
        with pytest.raises(rs.ModelError, match="step_h"):
            reach_lti(sys_, rand_box(rng, 3, 1), rand_ubox(rng, 1), 1.0, -0.1)

    def test_intervals_tile_horizon(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 1, 1)
        steps = reach_lti(sys_, rand_box(rng, 3, 2), rand_ubox(rng, 1), 1.0, 0.3)
        assert steps[0].t0 == 0.0
        assert steps[-1].t1 == pytest.approx(1.0)
        for a, b in zip(steps, steps[1:]):
            assert a.t1 == pytest.approx(b.t0)


def naive_reach(sys_, x0, u_box, t_f, step_h, order_cap=ORDER_CAP):
    """Reference recurrence: every step maps all state generators through
    Phi, encloses consecutive states and prunes decayed columns into rho."""
    A, B, C = sys_.A, sys_.B, sys_.C
    L, nB = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
    ur = u_box.halfwidth
    in_norm, drift = nB * np.linalg.norm(ur), np.linalg.norm(B @ u_box.center) / L

    def data(h):
        Phi, PsiB = _transition(A, h, B)
        Gin = PsiB * ur
        e = np.exp(L * h)
        return (Phi, PsiB @ u_box.center, Gin[:, np.linalg.norm(Gin, axis=0) > 0],
                np.linalg.norm(Phi, 2), ((e - 1) / L - h) * nB * 2 * np.linalg.norm(ur),
                e - 1 - L * h, 2 * (e - 1) / L)

    Phi, vin, Gin, nPhi, res, ebl, sweep = data(step_h)
    state, rho, t, steps = Zonotope.from_box(x0), 0.0, 0.0, []
    while t < t_f - 1e-12 * max(1.0, t_f):
        h = min(step_h, t_f - t)
        if h < step_h * (1 - 1e-9):
            Phi, vin, Gin, nPhi, res, ebl, sweep = data(h)
        nxt = Zonotope(Phi @ state.center + vin, np.hstack([Phi @ state.generators, Gin]))
        rho_next = nPhi * rho + res
        ball = max(rho, rho_next) + 2 * ebl * (state.norm_bound() + rho + drift) \
            + sweep * in_norm
        hull = enclose(state, nxt).map(C)
        steps.append(rs.ReachStep(t, t + h, Zonotope(hull.center, np.hstack(
            [hull.generators, np.diag(ball * np.linalg.norm(C, axis=1))]))))
        state, rho = nxt, rho_next
        if state.order > max(order_cap * sys_.n, 4 * sys_.n):
            norms = np.linalg.norm(state.generators, axis=0)
            dead = norms <= DROP_TOL * np.sum(norms) / norms.size
            state = Zonotope(state.center, state.generators[:, ~dead])
            rho += np.sum(norms[dead])
        t += h
    return steps


def assert_same_sets(steps, ref, rng):
    assert [(s.t0, s.t1, s.outputs.order) for s in steps] == \
        [(s.t0, s.t1, s.outputs.order) for s in ref]
    for s, r in zip(steps, ref):
        a, b = s.outputs.interval_hull(), r.outputs.interval_hull()
        scale = np.max(np.abs(np.concatenate([b.lb, b.ub])))
        assert np.allclose(a.lb, b.lb, rtol=1e-12, atol=1e-12 * scale)
        assert np.allclose(a.ub, b.ub, rtol=1e-12, atol=1e-12 * scale)
        for v in rng.standard_normal((5, s.outputs.dim)):
            assert s.outputs.support(v) == pytest.approx(
                r.outputs.support(v), rel=1e-12, abs=1e-12 * scale * np.abs(v).sum())


class TestReachEquivalence:
    """reach_lti's age table against the all-generators reference."""

    def test_random_systems(self, rng):
        partial = 0
        for _ in range(12):
            n, m, p = (int(v) for v in rng.integers(1, 5, size=3))
            sys_ = rs.random_stable_system(rng, n, m, p)
            x0, ubox = rand_box(rng, n, int(rng.integers(1, n + 1))), rand_ubox(rng, m)
            t_f = float(rng.uniform(0.5, 2.0))
            step_h = t_f / float(rng.uniform(20, 60))
            steps = reach_lti(sys_, x0, ubox, t_f, step_h, order_cap=2)
            partial += steps[-1].t1 - steps[-1].t0 < step_h * (1 - 1e-9)
            assert_same_sets(steps, naive_reach(sys_, x0, ubox, t_f, step_h, 2), rng)
        assert partial  # some horizons end on a shorter step

    def test_partial_last_step_and_single_step(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3), rand_ubox(rng, 2)
        for t_f, step_h in ((1.0, 0.3), (0.2, 0.3)):
            steps = reach_lti(sys_, x0, ubox, t_f, step_h)
            assert steps[-1].t1 - steps[-1].t0 < step_h
            assert_same_sets(steps, naive_reach(sys_, x0, ubox, t_f, step_h), rng)

    def test_zero_width_input_channel(self, rng):
        sys_ = rs.random_stable_system(rng, 4, 3, 2)
        x0 = rand_box(rng, 4, 2)
        ubox = rs.HyperBox([-0.5, 0.3, 0.0], [0.5, 0.3, 0.2])  # channel 1 pinned
        steps = reach_lti(sys_, x0, ubox, 1.5, 0.07)
        assert_same_sets(steps, naive_reach(sys_, x0, ubox, 1.5, 0.07), rng)
        # each step adds two hull columns per live channel, none for channel 1
        assert steps[1].outputs.order - steps[0].outputs.order == 2 * 2

    def _decaying(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 2, 2, decay=(4.0, 8.0))
        return sys_, rand_box(rng, 3), rand_ubox(rng, 2), 6.0, 0.05

    def test_pruning_matches_reference(self, rng):
        sys_, x0, ubox, t_f, step_h = self._decaying(rng)
        pruned = reach_lti(sys_, x0, ubox, t_f, step_h, order_cap=1)
        full = reach_lti(sys_, x0, ubox, t_f, step_h, order_cap=10**6)
        assert_same_sets(pruned, naive_reach(sys_, x0, ubox, t_f, step_h, 1), rng)
        # decayed columns were dropped: far fewer generators than unpruned
        assert pruned[-1].outputs.order < full[-1].outputs.order // 2

    def test_pruned_sets_contain_simulations(self, rng):
        sys_, x0, ubox, t_f, step_h = self._decaying(rng)
        steps = reach_lti(sys_, x0, ubox, t_f, step_h, order_cap=1)
        h_sim = step_h / 2
        X0 = np.hstack([x0.vertices(cap=64), x0.sample(rng, 200)])
        state = {"U": ubox.sample(rng, X0.shape[1])}

        def u_plan(step):
            if step % 3 == 0:
                state["U"] = np.where(rng.random((2, X0.shape[1])) < 0.5,
                                      ubox.lb[:, None], ubox.ub[:, None])
            return state["U"]

        out = batch_trajectories(sys_.A, sys_.B, sys_.C, X0, u_plan, t_f, h_sim)
        for idx in range(out.shape[0]):
            t = idx * h_sim
            covering = [s for s in steps if s.t0 - 1e-12 <= t <= s.t1 + 1e-12]
            hull = covering[0].outputs.interval_hull()
            assert np.all(out[idx] >= hull.lb[:, None] - 1e-9)
            assert np.all(out[idx] <= hull.ub[:, None] + 1e-9)


class TestSimulate:
    def test_scalar_closed_form(self):
        sys_ = rs.LtiSystem([[-1.0]], [[0.0]], [[2.0]])
        traj = simulate(sys_, np.array([1.0]), None, 1.0, 0.001)
        assert traj.outputs[-1, 0] == pytest.approx(2 * np.exp(-1.0), abs=1e-12)

    def test_step_response_closed_form(self, rng):
        sys_ = rs.random_stable_system(rng, 4, 1, 1)
        u = np.array([0.8])
        x0 = rng.standard_normal(4)
        traj = simulate(sys_, x0, u, 2.0, 0.01)
        Ainv = np.linalg.inv(sys_.A)
        for idx in (len(traj.times) // 2, -1):
            t = traj.times[idx]
            eAt = __import__("scipy.linalg", fromlist=["expm"]).expm(sys_.A * t)
            expected = sys_.C @ (eAt @ x0 + Ainv @ (eAt - np.eye(4)) @ (sys_.B @ u))
            assert traj.outputs[idx] == pytest.approx(expected, abs=1e-9)

    def test_zero_horizon_single_sample(self):
        sys_ = rs.LtiSystem([[-1.0]], [[1.0]], [[3.0]])
        traj = simulate(sys_, np.array([2.0]), None, 0.0, 0.1)
        assert traj.times.shape == (1,)
        assert traj.outputs[0, 0] == pytest.approx(6.0)


class TestCheckSpec:
    def _steps(self, center, rad):
        z = Zonotope(np.array(center), np.diag(rad))
        return [rs.ReachStep(0.0, 1.0, z)]

    def test_far_inside_safe(self):
        spec = rs.PolytopeSpec([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                               [-10.0] * 4, POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.1, 0.1]))
        assert check_spec(self._steps([0.0, 0.0], [1.0, 1.0]), ts) == SAFE

    def test_center_inside_unsafe_ellipse(self):
        spec = rs.EllipsoidSpec(np.eye(2), np.zeros(2), 1.0, POLARITY_UNSAFE)
        ts = transform_spec(spec, np.array([0.05, 0.05]))
        assert check_spec(self._steps([0.0, 0.0], [0.2, 0.2]), ts) == MAYBE_UNSAFE

    def test_straddling_boundary_is_indeterminate(self):
        spec = rs.PolytopeSpec([[1.0]], [-1.0], POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.01]))
        # set spans [0.985, 1.005]: leaves the shrunk safe set (y <= 0.99) but
        # stays inside the grown one (y <= 1.01), forcing the three-way split
        assert check_spec(self._steps([0.995], [0.01]), ts) == INDETERMINATE

    def test_safe_requires_all_predicates(self):
        inner = rs.PolytopeSpec([[1.0]], [-10.0], POLARITY_SAFE)
        tight = rs.PolytopeSpec([[1.0]], [-0.1], POLARITY_SAFE)
        ts1 = transform_spec(inner, np.zeros(1))
        ts2 = transform_spec(tight, np.zeros(1))
        steps = self._steps([0.5], [0.1])
        assert check_spec(steps, ts1) == SAFE
        assert check_spec(steps, [ts1, ts2]) != SAFE

    def test_unsafe_polarity_disjointness(self):
        spec = rs.EllipsoidSpec(np.eye(2), np.array([5.0, 5.0]), 1.0, POLARITY_UNSAFE)
        ts = transform_spec(spec, np.array([0.1, 0.1]))
        assert check_spec(self._steps([0.0, 0.0], [0.5, 0.5]), ts) == SAFE
        assert check_spec(self._steps([5.0, 5.0], [0.2, 0.2]), ts) == MAYBE_UNSAFE

    def test_empty_safe_marker_blocks_safe(self):
        spec = rs.EllipsoidSpec(np.eye(1), np.zeros(1), 0.5, POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.7]))
        assert ts.safe_region is None
        assert check_spec(self._steps([0.0], [0.01]), ts) != SAFE


class TestWitness:
    def test_budget_validation(self, rng):
        sys_ = rs.random_stable_system(rng, 2, 1, 1)
        spec = rs.PolytopeSpec([[1.0]], [-1.0], POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.1]))
        with pytest.raises(ValueError, match="budget"):
            find_unsafe_witness(sys_, rand_box(rng, 2, 1), rand_ubox(rng, 1),
                                ts, 1.0, 0)

    def test_immediate_witness_at_t0(self):
        # the initial output already violates the grown safe interval
        sys_ = rs.LtiSystem([[-1.0]], [[0.0]], [[1.0]])
        spec = rs.PolytopeSpec([[1.0]], [-0.5], POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.1]))
        box = rs.HyperBox([2.0], [2.0])
        w = find_unsafe_witness(sys_, box, rs.HyperBox([0.0], [0.0]), ts, 1.0, 4)
        assert w is not None
        assert w.margin > 0
        assert w.times[w.sample_index] == pytest.approx(0.0)

    def test_no_witness_when_disjoint(self, rng):
        # reach set provably inside a ball far away from the unsafe region
        sys_ = rs.LtiSystem(-np.eye(2), 0.1 * np.ones((2, 1)), np.eye(2))
        box = rs.HyperBox([-0.1, -0.1], [0.1, 0.1])
        ubox = rs.HyperBox([0.0], [0.2])
        spec = rs.EllipsoidSpec(np.eye(2), np.array([50.0, 50.0]), 1.0,
                                POLARITY_UNSAFE)
        ts = transform_spec(spec, np.array([0.1, 0.1]))
        assert find_unsafe_witness(sys_, box, ubox, ts, 2.0, 16, seed=3) is None

    def test_witness_revalidated_on_finer_grid(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 1, 1)
        box = rand_box(rng, 3, 3, center=(0.5, 1.0))
        ubox = rand_ubox(rng, 1)
        # huge forbidden halfspace so a witness certainly exists
        spec = rs.PolytopeSpec([[1.0]], [10.0], POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.01]))
        w = find_unsafe_witness(sys_, box, ubox, ts, 1.0, 8, seed=1)
        assert w is not None
        # margin was re-checked at 10x finer resolution
        assert w.margin >= 0.5 * 1e-9 * ts.witness_scale


class TestReachProperties:
    def test_containment_across_many_systems(self, rng):
        # 20 random systems: simulated trajectories never exit the step sets
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 3))
            sys_ = rs.random_stable_system(rng, n, m, 1)
            x0 = rand_box(rng, n, n)
            ubox = rand_ubox(rng, m)
            t_f = 1.0
            steps = reach_lti(sys_, x0, ubox, t_f)
            h_sim = (steps[0].t1 - steps[0].t0) / 2
            X0 = np.hstack([x0.vertices(cap=64), x0.sample(rng, 8)])
            state = {"U": ubox.sample(rng, X0.shape[1])}

            def u_plan(step):
                if step % 5 == 0:
                    state["U"] = ubox.sample(rng, X0.shape[1])
                return state["U"]

            out = batch_trajectories(sys_.A, sys_.B, sys_.C, X0, u_plan, t_f, h_sim)
            times = np.arange(out.shape[0]) * h_sim
            for idx, t in enumerate(times):
                covering = [s for s in steps if s.t0 - 1e-12 <= t <= s.t1 + 1e-12]
                hull = covering[0].outputs.interval_hull()
                assert np.all(out[idx] >= hull.lb[:, None] - 1e-9)
                assert np.all(out[idx] <= hull.ub[:, None] + 1e-9)

    def test_refinement_keeps_safe_verdicts(self, rng):
        # halving the step never flips a decisive Safe on these instances
        from redsafe.model import POLARITY_SAFE
        flips = []
        checked = 0
        for trial in range(10):
            n = int(rng.integers(2, 6))
            sys_ = rs.random_stable_system(rng, n, 1, 1)
            x0 = rand_box(rng, n, n)
            ubox = rand_ubox(rng, 1)
            t_f = 1.0
            h = t_f / 100
            coarse = reach_lti(sys_, x0, ubox, t_f, h)
            bound = 1.5 * max(float(np.max(np.abs(s.outputs.interval_hull().ub)))
                              for s in coarse)
            spec = rs.PolytopeSpec([[1.0], [-1.0]], [-bound, -bound], POLARITY_SAFE)
            ts = transform_spec(spec, np.array([0.0]))
            if check_spec(coarse, ts) != SAFE:
                continue
            checked += 1
            fine = reach_lti(sys_, x0, ubox, t_f, h / 2)
            if check_spec(fine, ts) != SAFE:
                flips.append(trial)
        assert checked >= 5
        assert not flips
