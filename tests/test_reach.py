import math
import tracemalloc
import types

import numpy as np
import pytest

import redsafe as rs
from redsafe import reach
from redsafe.model import POLARITY_SAFE, POLARITY_UNSAFE
from redsafe.reach import (INDETERMINATE, MAYBE_UNSAFE, SAFE, Zonotope,
                           _transition, check_spec,
                           find_unsafe_witness, reach_lti, simulate)
from redsafe.spectransform import transform_spec

from conftest import batch_trajectories, rand_box, rand_ubox


def row_spread(z: Zonotope, Gamma: np.ndarray) -> np.ndarray:
    """Per-row sum_j |(Gamma G)_ij|: over the zonotope, Gamma y lies within
    this much of Gamma @ center."""
    return np.sum(np.abs(Gamma @ z.generators), axis=1)


def support(z, v):
    """max over the zonotope z of <v, x>."""
    return float(v @ z.center + row_spread(z, v[None])[0])


def enclose(z1: Zonotope, z2: Zonotope) -> Zonotope:
    """Zonotope over-approximation of conv(z1 U z2): generators
    [(c1 - c2) / 2, (G1 + G2) / 2, (G1 - G2) / 2], the shorter of G1 and G2
    padded with zero columns.  Written into one array, with no padded copy."""
    g = max(z1.order, z2.order)
    G = np.zeros((z1.dim, 1 + 2 * g))
    G[:, 0] = (z1.center - z2.center) / 2.0
    plus, minus = G[:, 1:1 + g], G[:, 1 + g:]
    plus[:, :z1.order] = minus[:, :z1.order] = z1.generators
    plus[:, :z2.order] += z2.generators
    minus[:, :z2.order] -= z2.generators
    G[:, 1:] /= 2.0
    return Zonotope((z1.center + z2.center) / 2.0, G)


def quad_lower(z: Zonotope, ell: rs.EllipsoidSpec) -> float:
    """Sound lower bound on min over the zonotope of (y-a)^T Q (y-a), from
    its generator array: the reference for reach._quad_lowers, which reads
    the same bound from an age table.

    Directional Cauchy-Schwarz bounds (v^T x)^2 <= (v^T Q^-1 v)(x^T Q x)
    over the output axes plus the gradient direction."""
    d = z.center - ell.a
    best = 0.0
    cands = list(np.eye(ell.p))
    grad = ell.Q @ d
    if np.linalg.norm(grad) > 0:
        cands.append(grad / np.linalg.norm(grad))
    for v in cands:
        lo = max(0.0, abs(float(v @ d)) - float(np.sum(np.abs(v @ z.generators))))
        denom = float(v @ ell.Q_inv @ v)
        if denom > 0:
            best = max(best, lo * lo / denom)
    return best


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
        assert support(z, v) == pytest.approx(best, rel=1e-12)

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
                    assert v @ point <= support(hull, v) + 1e-9


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
        steps = list(reach_lti(sys_, x0, ubox, t_f))
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

    @pytest.mark.parametrize("t_f, step_h, name", [
        (float("nan"), None, "t_f"), (float("inf"), None, "t_f"), (0.0, 0.1, "t_f"),
        (float("nan"), 0.1, "t_f"), (1.0, float("inf"), "step_h"),
        (1.0, float("nan"), "step_h"), (1.0, 0.0, "step_h")])
    def test_bad_scalars_refused(self, rng, t_f, step_h, name):
        # NaN passes a `t_f <= 0` test; every t_f or step that is not a
        # positive finite real is refused by name, before a step count or a
        # transition is drawn from it
        sys_ = rs.random_stable_system(rng, 3, 1, 1)
        with pytest.raises(rs.ModelError, match=f"^{name} must be positive and finite"):
            reach_lti(sys_, rand_box(rng, 3, 1), rand_ubox(rng, 1), t_f, step_h)

    def test_intervals_tile_horizon(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 1, 1)
        steps = reach_lti(sys_, rand_box(rng, 3, 2), rand_ubox(rng, 1), 1.0, 0.3)
        assert steps[0].t0 == 0.0
        assert steps[-1].t1 == pytest.approx(1.0)
        for a, b in zip(steps, steps[1:]):
            assert a.t1 == pytest.approx(b.t0)


def naive_reach(sys_, x0, u_box, t_f, step_h):
    """Reference recurrence over the steps of ``linspace(0, t_f, N + 1)``
    for the even step ``step_h`` = t_f / N: every step maps all state
    generators through Phi and encloses consecutive states, keeping every
    generator."""
    A, B, C = sys_.A, sys_.B, sys_.C
    L, nB = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
    ur = u_box.halfwidth
    in_norm, drift = nB * np.linalg.norm(ur), np.linalg.norm(B @ u_box.center) / L
    Phi, PsiB = _transition(A, step_h, B)
    vin, Gin = PsiB @ u_box.center, PsiB * ur
    Gin = Gin[:, np.linalg.norm(Gin, axis=0) > 0]
    e = np.exp(L * step_h)
    nPhi, res = np.linalg.norm(Phi, 2), ((e - 1) / L - step_h) * nB * 2 * np.linalg.norm(ur)
    ebl, sweep = e - 1 - L * step_h, 2 * (e - 1) / L
    times = np.linspace(0.0, t_f, round(t_f / step_h) + 1)
    state = x0 if isinstance(x0, Zonotope) else Zonotope.from_box(x0)
    rho, steps = 0.0, []
    for t0, t1 in zip(times[:-1], times[1:]):
        nxt = Zonotope(Phi @ state.center + vin, np.hstack([Phi @ state.generators, Gin]))
        rho_next = nPhi * rho + res
        state_norm = np.linalg.norm(state.center) \
            + np.sum(np.linalg.norm(state.generators, axis=0))
        ball = max(rho, rho_next) + 2 * ebl * (state_norm + rho + drift) + sweep * in_norm
        hull = enclose(state, nxt)
        hull = Zonotope(C @ hull.center, C @ hull.generators)
        steps.append(rs.ReachStep(float(t0), float(t1), Zonotope(hull.center, np.hstack(
            [hull.generators, np.diag(ball * np.linalg.norm(C, axis=1))]))))
        state, rho = nxt, rho_next
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
            assert support(s.outputs, v) == pytest.approx(
                support(r.outputs, v), rel=1e-12, abs=1e-12 * scale * np.abs(v).sum())


class TestReachEquivalence:
    """reach_lti's age table against the all-generators reference."""

    def test_random_systems(self, rng):
        shortened = 0
        for _ in range(12):
            n, m, p = (int(v) for v in rng.integers(1, 5, size=3))
            sys_ = rs.random_stable_system(rng, n, m, p)
            x0, ubox = rand_box(rng, n, int(rng.integers(1, n + 1))), rand_ubox(rng, m)
            t_f = float(rng.uniform(0.5, 2.0))
            step_h = t_f / float(rng.uniform(20, 60))
            steps = reach_lti(sys_, x0, ubox, t_f, step_h)
            h = t_f / len(steps)
            shortened += h < step_h * (1 - 1e-9)
            assert_same_sets(steps, naive_reach(sys_, x0, ubox, t_f, h), rng)
        assert shortened  # some horizons are off the grid of step_h

    def test_partial_last_step_and_single_step(self, rng):
        # horizons off the grid of step_h, which once ended on a shorter
        # step, and below one step: every step is t_f / N long
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3), rand_ubox(rng, 2)
        for t_f, step_h, count in ((1.0, 0.3, 4), (0.2, 0.3, 1)):
            steps = reach_lti(sys_, x0, ubox, t_f, step_h)
            assert len(steps) == count and steps.t1[-1] == t_f
            assert_same_sets(steps, naive_reach(sys_, x0, ubox, t_f, t_f / count), rng)

    @pytest.mark.parametrize("t_f, step_h", [(1.0, 0.03), (0.02, 0.03), (2.645, 0.025)])
    def test_last_step_contains_trajectories(self, rng, t_f, step_h):
        # horizons off the grid of step_h, which once ended on a shorter
        # step: trajectories of a lightly damped oscillator (||A|| h about
        # 0.09) from every vertex of the box under bang-bang inputs, sampled
        # 40 times a step, stay inside the last step set
        sys_ = rs.LtiSystem([[-0.1, 3.0], [-3.0, -0.1]], [[0.1, 0.0], [0.0, 0.1]], np.eye(2))
        x0, ubox = rs.HyperBox([0.95, -0.05], [1.05, 0.05]), rand_ubox(rng, 2)
        sets = reach_lti(sys_, x0, ubox, t_f, step_h)
        last = sets[-1]
        X0 = np.repeat(x0.vertices(), 8, axis=1)

        def bang_bang(step):
            if step % 5 == 0:
                bang_bang.U = np.where(rng.random((2, X0.shape[1])) < 0.5,
                                       ubox.lb[:, None], ubox.ub[:, None])
            return bang_bang.U

        h_sim = t_f / (40 * len(sets))
        out = batch_trajectories(sys_.A, sys_.B, sys_.C, X0, bang_bang, t_f, h_sim)
        V = np.vstack([np.eye(2), -np.eye(2), rng.standard_normal((4, 2))])
        top = V @ last.outputs.center + row_spread(last.outputs, V)
        inside = [idx for idx in range(out.shape[0])
                  if last.t0 - 1e-12 <= idx * h_sim <= last.t1 + 1e-12]
        assert len(inside) == 41
        for idx in inside:
            assert np.all(V @ out[idx] <= (top + 1e-9 * (1.0 + np.abs(top)))[:, None])

    def test_zero_width_input_channel(self, rng):
        sys_ = rs.random_stable_system(rng, 4, 3, 2)
        x0 = rand_box(rng, 4, 2)
        ubox = rs.HyperBox([-0.5, 0.3, 0.0], [0.5, 0.3, 0.2])  # channel 1 pinned
        steps = reach_lti(sys_, x0, ubox, 1.5, 0.07)
        assert_same_sets(steps, naive_reach(sys_, x0, ubox, 1.5, 1.5 / 22), rng)
        # each step adds two hull columns per live channel, none for channel 1
        assert steps[1].outputs.order - steps[0].outputs.order == 2 * 2

    def test_decaying_sets_contain_simulations(self, rng):
        # a fast-decaying system over a long horizon: 120 steps, most of
        # whose input columns have decayed to nothing
        sys_ = rs.random_stable_system(rng, 3, 2, 2, decay=(4.0, 8.0))
        x0, ubox, t_f, step_h = rand_box(rng, 3), rand_ubox(rng, 2), 6.0, 0.05
        steps = list(reach_lti(sys_, x0, ubox, t_f, step_h))
        h_sim = step_h / 2
        assert x0.vertex_count() <= 64
        X0 = np.hstack([x0.vertices(), x0.sample(rng, 200)])
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

    @pytest.mark.parametrize("t_f, h, name", [
        (1.0, float("nan"), "step h"), (1.0, float("inf"), "step h"), (1.0, -0.1, "step h"),
        (float("nan"), 0.1, "t_f"), (float("inf"), 0.1, "t_f"), (float("-inf"), 0.1, "t_f"),
        (float("nan"), None, "t_f"), (float("inf"), None, "t_f")])
    def test_non_finite_arguments_refused(self, t_f, h, name):
        # NaN passes a `h <= 0` test; every non-finite t_f or h is refused by
        # name, before a step count is drawn from it
        sys_ = rs.LtiSystem([[-1.0]], [[1.0]], [[3.0]])
        with pytest.raises(rs.ModelError, match=f"^{name} must be"):
            simulate(sys_, np.array([2.0]), None, t_f, h)

    @pytest.mark.parametrize("x0, u, name", [
        (np.array([np.nan, 0.0]), None, "x0"),
        (np.array([[1.0, 0.0], [0.0, np.inf]]), None, "x0"),  # a batch
        (np.zeros(3), None, "x0"),
        (np.zeros((3, 2)), None, "x0"),
        (np.zeros(2), np.array([np.inf]), "u"),
        (np.zeros(2), lambda t: np.array([np.inf if t > 0.3 else 0.0]), "u"),
        (np.zeros(2), np.full((10, 1), np.nan), "u"),
        (np.zeros((2, 3)), np.full((10, 1, 3), -np.inf), "u")])
    def test_bad_initial_state_or_input_refused(self, x0, u, name):
        # refused by name before the first step, not blamed on the dynamics
        # as a state that became non-finite, nor left to a bare reshape error
        sys_ = rs.LtiSystem(-np.eye(2), [[1.0], [0.0]], [[1.0, 1.0]])
        with pytest.raises(rs.ModelError, match=f"^{name} must"):
            simulate(sys_, x0, u, 1.0, 0.1)


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

    @pytest.mark.parametrize("args, name", [
        ({"t_f": float("nan")}, "t_f"), ({"t_f": float("inf")}, "t_f"),
        ({"h": float("nan")}, "step h"), ({"h": 0.0}, "step h"), ({"h": float("inf")}, "step h"),
        ({"eta": float("nan")}, "eta"), ({"eta": float("inf")}, "eta"),
        ({"eta": -float("inf")}, "eta"),
        ({"budget": 0}, "witness budget"), ({"budget": 2.5}, "witness budget")])
    def test_bad_scalars_refused(self, rng, args, name):
        # each bad scalar is refused by name with ModelError, not passed on
        # to fail as a bare ValueError, an overflow or a division by zero,
        # or (eta = NaN or inf) to fail every margin test and return None
        sys_ = rs.random_stable_system(rng, 2, 1, 1)
        ts = transform_spec(rs.PolytopeSpec([[1.0]], [-1.0], POLARITY_SAFE), np.array([0.1]))
        call = {"t_f": 1.0, "budget": 4, **args}
        with pytest.raises(rs.ModelError, match=f"^{name} must be"):
            find_unsafe_witness(sys_, rand_box(rng, 2, 1), rand_ubox(rng, 1), ts, **call)

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
            steps = list(reach_lti(sys_, x0, ubox, t_f))
            h_sim = (steps[0].t1 - steps[0].t0) / 2
            assert x0.vertex_count() <= 64
            X0 = np.hstack([x0.vertices(), x0.sample(rng, 8)])
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


# --------------------------------------------------------------------------
# Batched simulation, batched witness margins and the batched witness search
# against their one-at-a-time references.
# --------------------------------------------------------------------------

def naive_margin(ts, y):
    """Witness margin of one output sample, written out from the regions."""
    if ts.source_polarity == POLARITY_SAFE:
        reg = ts.unsafe_region
        if isinstance(reg, rs.PolytopeSpec):
            return float(np.max(reg.margins(y)))
        return reg.quad(y) - reg.R ** 2
    reg = ts.witness_region
    if reg is None:
        return float("-inf")
    if isinstance(reg, rs.PolytopeSpec):
        return float(-np.max(reg.margins(y)))
    return reg.R ** 2 - reg.quad(y)


def naive_witness(sys_, x0, u_box, specs, t_f, budget, init_map=None, seed=0,
                  eta=None, h=None, log=None):
    """Candidate-by-candidate search: one simulate call per candidate and one
    margin per output sample.  ``log`` collects ("coarse", candidate,
    predicate, peak) for every scored candidate and ("fine", candidate,
    predicate, passed) for every re-simulation."""
    specs = [specs] if isinstance(specs, rs.TransformedSpec) else list(specs)
    rng = np.random.default_rng(seed)
    h = reach.default_step(t_f, sys_.A) if h is None else h
    etas = [1e-9 * ts.witness_scale if eta is None else eta for ts in specs]
    if x0.vertex_count() <= max(2, budget):
        verts = x0.vertices()
        inits = [verts[:, i] for i in range(verts.shape[1])]
    else:
        inits = []
    while len(inits) < budget:
        inits.append(x0.sample(rng, 1)[:, 0])

    def input_plan(kind, steps):
        lo, hi = u_box.lb, u_box.ub
        if kind == 0:
            return np.broadcast_to(hi, (steps, u_box.dim)).copy()
        if kind == 1:
            return np.broadcast_to(lo, (steps, u_box.dim)).copy()
        if kind == 2:
            plan = np.empty((steps, u_box.dim))
            nsw, slots = int(rng.integers(1, 4)), max(steps, 2)
            bounds = np.sort(rng.choice(slots, size=min(nsw, slots), replace=False))
            cur, b = hi.copy(), 0
            for j in range(steps):
                if b < len(bounds) and j >= bounds[b]:
                    cur = lo + (hi - lo) * rng.integers(0, 2, u_box.dim)
                    b += 1
                plan[j] = cur
            return plan
        return lo + (hi - lo) * rng.random((steps, u_box.dim))

    log = [] if log is None else log
    for tried in range(min(budget, len(inits))):
        x = inits[tried]
        lifted = x if init_map is None else init_map @ x
        steps = max(1, int(np.ceil(t_f / h - 1e-12)))
        plan = input_plan(tried % 4, steps)
        traj = simulate(sys_, lifted, plan, t_f, h)
        for ts_i, ts in enumerate(specs):
            vals = np.array([naive_margin(ts, y) for y in traj.outputs])
            log.append(("coarse", tried, ts_i, float(np.max(vals))))
            if np.max(vals) > etas[ts_i]:
                # a tenth of the even step; rounding may add a sub-step,
                # which the last plan row covers
                fine_h = t_f / steps / 10
                fine_steps = int(np.ceil(t_f / fine_h - 1e-12))
                fine_plan = plan[np.minimum(np.arange(fine_steps) // 10, steps - 1)]
                fine = simulate(sys_, lifted, fine_plan, t_f, fine_h)
                fvals = np.array([naive_margin(ts, y) for y in fine.outputs])
                fj = int(np.argmax(fvals))
                log.append(("fine", tried, ts_i, bool(fvals[fj] >= etas[ts_i] / 2)))
                if fvals[fj] >= etas[ts_i] / 2:
                    return rs.WitnessTrajectory(
                        times=fine.times, outputs=fine.outputs, init_state=x,
                        step_inputs=plan, margin=float(fvals[fj]),
                        predicate_index=ts_i, sample_index=fj)
    return None


def assert_same_witness(w, ref):
    if ref is None:
        assert w is None
        return
    assert w is not None
    assert np.array_equal(w.init_state, ref.init_state)
    assert np.array_equal(w.step_inputs, ref.step_inputs)
    assert (w.sample_index, w.predicate_index) == (ref.sample_index, ref.predicate_index)
    assert w.margin == pytest.approx(ref.margin, rel=1e-12)


def peaks_of(log, predicate=0):
    """Coarse peak margin per candidate, in candidate order."""
    return np.array([e[3] for e in log if e[0] == "coarse" and e[2] == predicate])


def first_y0_spec(threshold):
    """Safe region y_0 <= threshold, untransformed: margin = y_0 - threshold."""
    spec = rs.PolytopeSpec([[1.0, 0.0]], [-threshold], POLARITY_SAFE)
    return transform_spec(spec, np.zeros(2))


def late_witness_case(rng, nfree, budget, h=None, first=None, seed=5):
    """A random 2-output system and a y_0 threshold that no candidate before
    ``first`` (half the budget by default) crosses and some later one does."""
    first = budget // 2 if first is None else first
    for _ in range(50):
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3, nfree), rand_ubox(rng, 2)
        log = []
        naive_witness(sys_, x0, ubox, first_y0_spec(1e6), 1.0, budget, seed=seed,
                      h=h, log=log)
        y0_peak = peaks_of(log) + 1e6
        early, late = np.max(y0_peak[:first]), np.max(y0_peak[first:])
        if late > early + 1e-3 * (abs(early) + 1e-3):
            return sys_, x0, ubox, first_y0_spec((early + late) / 2)
    raise AssertionError("no instance with a late witness")


class TestBatchedSimulate:
    def test_columns_match_single_calls(self, rng):
        # on the grid, 34 even steps of 1/34 off the grid of 0.03, t_f = 0
        for t_f, h in ((1.0, 0.01), (1.0, 0.03), (0.0, 0.1)):
            sys_ = rs.random_stable_system(rng, 4, 2, 3)
            X = rng.standard_normal((4, 5))
            steps = max(1, int(np.ceil(t_f / h - 1e-12)))
            U = rng.standard_normal((steps, 2, 5))
            for u, u_of in ((U, lambda b: U[:, :, b]), (None, lambda b: None),
                            (np.array([0.3, -0.2]), lambda b: np.array([0.3, -0.2])),
                            (U[:, :, 0], lambda b: U[:, :, 0]),
                            (lambda t: np.array([np.sin(t), 1.0]),
                             lambda b: (lambda t: np.array([np.sin(t), 1.0])))):
                batch = simulate(sys_, X, u, t_f, h)
                assert batch.outputs.shape == (len(batch.times), 3, 5)
                for b in range(5):
                    one = simulate(sys_, X[:, b], u_of(b), t_f, h)
                    assert np.array_equal(one.times, batch.times)
                    assert one.outputs.shape == (len(one.times), 3)
                    assert np.allclose(batch.outputs[:, :, b], one.outputs,
                                       rtol=1e-12, atol=1e-12 * np.abs(one.outputs).max())

    def test_batch_input_shape_checked(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 2, 1)
        with pytest.raises(rs.ModelError, match="shape"):
            simulate(sys_, np.zeros((3, 4)), np.zeros((10, 2, 3)), 1.0, 0.1)

    def test_overflow_raises(self):
        sys_ = rs.LtiSystem([[50.0]], [[0.0]], [[1.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(rs.ModelError, match="non-finite"):
            simulate(sys_, np.array([[1.0, 0.0]]), None, 20.0, 0.1)


def four_spec_kinds(rng, p):
    """One transformed spec per kind: polytope and ellipsoid, each with safe
    and unsafe polarity, plus an unsafe ellipsoid with an empty witness region."""
    Q = rng.standard_normal((p, p))
    Q = Q @ Q.T + np.eye(p)
    Gamma = rng.standard_normal((3, p))
    delta = rng.uniform(0.0, 0.1, p)
    specs = [rs.PolytopeSpec(Gamma, rng.uniform(-2, -0.5, 3), POLARITY_SAFE),
             rs.PolytopeSpec(Gamma, rng.uniform(-0.5, 1.0, 3), POLARITY_UNSAFE),
             rs.EllipsoidSpec(Q, rng.uniform(-0.5, 0.5, p), 1.5, POLARITY_SAFE),
             rs.EllipsoidSpec(Q, rng.uniform(-1.5, 1.5, p), 0.7, POLARITY_UNSAFE),
             rs.EllipsoidSpec(Q, np.zeros(p), 0.01, POLARITY_UNSAFE)]
    out = [transform_spec(s, delta) for s in specs]
    assert out[-1].witness_region is None
    return out


class TestWitnessMargins:
    def test_batch_matches_single_samples(self, rng):
        for p in (1, 2, 4):
            for ts in four_spec_kinds(rng, p):
                Y = rng.uniform(-2, 2, (7, 3, p))
                vals = ts.witness_margins(Y)
                assert vals.shape == (7, 3)
                assert ts.witness_margins(Y[:, 0]).shape == (7,)
                for idx in np.ndindex(7, 3):
                    single = ts.witness_margins(Y[idx][None])[0]
                    assert isinstance(single, float)
                    assert single == pytest.approx(naive_margin(ts, Y[idx]), rel=1e-12,
                                                   abs=1e-12)
                    if np.isinf(single):
                        assert vals[idx] == single
                    else:
                        assert vals[idx] == pytest.approx(single, rel=1e-12, abs=1e-12)

    def test_peak_over_sample_blocks(self, rng, monkeypatch):
        # each candidate's peak over blocks of samples is its one-shot peak,
        # bit for bit, with some candidate peaking at every sample
        for ts in four_spec_kinds(rng, 2):
            Y = rng.uniform(-2, 2, (23, 200, 2))
            margins = ts.witness_margins(Y)
            if ts.witness_region is not None:
                assert set(np.argmax(margins, axis=0)) == set(range(23))
            width = 3 if isinstance(ts.witness_region, rs.PolytopeSpec) else 2
            for block in (1, 2, 7, 22, 23, 40):
                monkeypatch.setattr(reach, "WITNESS_MARGIN_BLOCK", block * 200 * width)
                assert np.array_equal(reach._peak_margins(ts, Y), margins.max(axis=0))


def set_witness_chunk(monkeypatch, chunk):
    """Make every chunk of the witness search hold ``chunk`` candidates."""
    monkeypatch.setattr(reach, "_witness_chunk", lambda steps, m, p: chunk)


def assert_bit_identical(w, ref):
    if ref is None:
        assert w is None
        return
    assert np.array_equal(w.init_state, ref.init_state)
    assert np.array_equal(w.step_inputs, ref.step_inputs)
    assert (w.sample_index, w.predicate_index, w.margin) == \
        (ref.sample_index, ref.predicate_index, ref.margin)


class TestBatchedWitness:
    def test_spec_kinds_and_polarities(self, rng, monkeypatch):
        # every search runs with the samples scored at once and in blocks of
        # 1 and of 7 samples (for a family, 4 for the 3-row polytopes and 7
        # for the 2-output ellipsoids): the witnesses are bit-identical
        def search(specs, block):
            width = 3 if isinstance(specs, rs.TransformedSpec) \
                and isinstance(specs.witness_region, rs.PolytopeSpec) else 2
            monkeypatch.setattr(reach, "WITNESS_MARGIN_BLOCK", block * 12 * width)
            return find_unsafe_witness(sys_, x0, ubox, specs, 1.0, 12, seed=trial)

        found = {}
        for trial in range(10):
            sys_ = rs.random_stable_system(rng, 3, 2, 2)
            x0, ubox = rand_box(rng, 3, 2), rand_ubox(rng, 2)
            specs = four_spec_kinds(rng, 2)
            # a family: predicates are scanned in order within each candidate
            for kind, ts in list(enumerate(specs)) + [("family", specs)]:
                ref = naive_witness(sys_, x0, ubox, ts, 1.0, 12, seed=trial)
                one_shot = search(ts, 10 ** 6)
                assert_same_witness(one_shot, ref)
                for block in (1, 7):
                    assert_bit_identical(search(ts, block), one_shot)
                found.setdefault(kind, set()).add(ref is not None)
        assert found[4] == {False}
        for kind in range(4):
            assert found[kind] == {True, False}, kind

    def test_witness_at_a_middle_candidate(self, rng, monkeypatch):
        budget = 12
        sys_, x0, ubox, ts = late_witness_case(rng, 2, budget)
        for chunk in (None, 5):
            if chunk is not None:
                set_witness_chunk(monkeypatch, chunk)
            log = []
            ref = naive_witness(sys_, x0, ubox, ts, 1.0, budget, seed=5, log=log)
            assert ref is not None
            assert budget // 2 <= log[-1][1] < budget
            assert_same_witness(find_unsafe_witness(sys_, x0, ubox, ts, 1.0, budget,
                                                    seed=5), ref)

    def test_failed_revalidation(self, rng, monkeypatch):
        # with a negative eta a coarse hit (margin > eta) can miss the fine
        # bar (margin >= eta/2): first every hit fails, then a later record
        # candidate passes after earlier ones failed
        set_witness_chunk(monkeypatch, 4)
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3, 3), rand_ubox(rng, 2)
        ts = first_y0_spec(1e3)
        log = []
        naive_witness(sys_, x0, ubox, ts, 1.0, 16, seed=2, log=log)
        peaks = peaks_of(log)
        assert np.all(peaks < 0)
        log = []
        eta = 1.5 * np.max(peaks)
        assert naive_witness(sys_, x0, ubox, ts, 1.0, 16, seed=2, eta=eta, log=log) is None
        assert any(e[0] == "fine" and not e[3] for e in log)
        assert find_unsafe_witness(sys_, x0, ubox, ts, 1.0, 16, seed=2, eta=eta) is None
        # j: the record after the widest climb over the earlier best
        records = [j for j in range(1, 16) if peaks[j] > np.max(peaks[:j])]
        j = max(records, key=lambda j: peaks[j] - np.max(peaks[:j]))
        eta = np.max(peaks[:j]) + peaks[j]
        log = []
        ref = naive_witness(sys_, x0, ubox, ts, 1.0, 16, seed=2, eta=eta, log=log)
        fine = [e for e in log if e[0] == "fine"]
        assert ref is not None and not fine[0][3] and fine[-1][3]
        assert_same_witness(find_unsafe_witness(sys_, x0, ubox, ts, 1.0, 16, seed=2,
                                                eta=eta), ref)

    @pytest.mark.parametrize("nfree, budget", [
        (1, 1),    # two vertices, budget one: the first vertex only
        (2, 12),   # four vertices, then samples
        (3, 8),    # eight vertices, exactly the budget
        (5, 12),   # 32 vertices exceed the budget: samples only
    ])
    def test_vertex_and_sampled_initial_states(self, rng, nfree, budget):
        if budget == 1:
            sys_ = rs.random_stable_system(rng, 3, 2, 2)
            x0, ubox = rand_box(rng, 3, nfree), rand_ubox(rng, 2)
            ts = first_y0_spec(-1e3)  # every candidate crosses at once
        else:
            sys_, x0, ubox, ts = late_witness_case(rng, nfree, budget)
        if nfree > 1:
            x0 = rs.HyperBox(np.pad(x0.lb, (0, 2)), np.pad(x0.ub, (0, 2)))
            x0 = x0 if nfree < 5 else rs.HyperBox(x0.lb - np.r_[0, 0, 0, 0.1, 0.1],
                                                  x0.ub + np.r_[0, 0, 0, 0.1, 0.1])
        lift = np.hstack([np.eye(3), 0.1 * rng.standard_normal((3, 2))]) \
            if x0.dim == 5 else None
        ref = naive_witness(sys_, x0, ubox, ts, 1.0, budget, init_map=lift, seed=5)
        assert ref is not None
        assert_same_witness(find_unsafe_witness(sys_, x0, ubox, ts, 1.0, budget,
                                                init_map=lift, seed=5), ref)

    @pytest.mark.parametrize("chunk", [4, None])
    def test_budgets_around_the_chunk_size(self, rng, monkeypatch, chunk):
        # None: the chunk comes from the doubles budget, here set to hold 5
        # candidates of 200 steps with 2 inputs and 2 outputs and a part of
        # a sixth
        h = 0.005
        if chunk is None:
            monkeypatch.setattr(reach, "WITNESS_CHUNK_DOUBLES", 5 * 802 + 401)
            assert reach._witness_chunk(200, 2, 2) == 5
            chunk = 5
        else:
            set_witness_chunk(monkeypatch, chunk)
        for budget in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            sys_, x0, ubox, ts = late_witness_case(rng, 2, budget, h=h)
            ref = naive_witness(sys_, x0, ubox, ts, 1.0, budget, seed=5, h=h)
            assert_same_witness(find_unsafe_witness(sys_, x0, ubox, ts, 1.0, budget,
                                                    seed=5, h=h), ref)
            never = first_y0_spec(1e6)
            assert naive_witness(sys_, x0, ubox, never, 1.0, budget, seed=5, h=h) is None
            assert find_unsafe_witness(sys_, x0, ubox, never, 1.0, budget, seed=5,
                                       h=h) is None

    def test_single_step_horizon(self, rng):
        # with one step, a bang-bang switch drawn at step 1 lies past the end
        # and draws no input value, and a draw of three switches takes both
        # steps; the fourth candidate's random inputs come after the third
        # one's bang-bang draws
        checked = 0
        for seed in range(8):
            sys_, x0, ubox, ts = late_witness_case(rng, 3, 4, h=1.0, first=3, seed=seed)
            ref = naive_witness(sys_, x0, ubox, ts, 1.0, 4, seed=seed, h=1.0)
            assert_same_witness(find_unsafe_witness(sys_, x0, ubox, ts, 1.0, 4,
                                                    seed=seed, h=1.0), ref)
            checked += 1
        assert checked == 8

    def test_one_simulate_call_per_chunk(self, rng, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(np.ndim(args[1]))
            return simulate(*args, **kwargs)

        monkeypatch.setattr(reach, "simulate", counting)
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3, 3), rand_ubox(rng, 2)
        # 200 steps of 2 inputs and 2 outputs: 802 doubles per candidate
        budget = 2 * reach._witness_chunk(200, 2, 2) + 1
        assert budget == 2 * (reach.WITNESS_CHUNK_DOUBLES // 802) + 1
        assert find_unsafe_witness(sys_, x0, ubox, first_y0_spec(1e6), 1.0, budget,
                                   h=0.005) is None
        assert calls == [2, 2, 2]


# --------------------------------------------------------------------------
# check_spec's shared polytope spread against a per-region reference.
# --------------------------------------------------------------------------

def naive_check_polytope(steps, ts, events):
    """Verdict of step sets against a polytope TransformedSpec, each region's
    row bounds computed on their own; counts steps that leave the safe region
    and steps that certainly hit the unsafe rows in ``events``."""
    def rows(z, spec, sign):
        spread = np.sum(np.abs(spec.Gamma @ z.generators), axis=1)
        return spec.Gamma @ z.center + sign * spread + spec.Psi

    all_ok, hit = True, False
    for step in steps:
        z = step.outputs
        if ts.source_polarity == POLARITY_SAFE:
            if np.all(rows(z, ts.safe_region, 1.0) <= 0.0):
                continue
            events["uncontained"] += 1
            all_ok = False
            if np.any(rows(z, ts.unsafe_region, 1.0) > 0.0):
                events["hit"] += 1
                hit = True
        elif not np.any(rows(z, ts.unsafe_region, -1.0) > 0.0):
            events["uncontained"] += 1
            all_ok = False
            if reach._quad_center_candidate(z, ts.unsafe_region) is not None:
                events["hit"] += 1
                hit = True
    return SAFE if all_ok else (MAYBE_UNSAFE if hit else INDETERMINATE)


class TestSharedSpread:
    def test_matches_per_region_reference(self, rng):
        events = {"uncontained": 0, "hit": 0}
        verdicts = set()
        for trial in range(60):
            p, r = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            polarity = (POLARITY_SAFE, POLARITY_UNSAFE)[trial % 2]
            spec = rs.PolytopeSpec(rng.standard_normal((r, p)),
                                   -rng.uniform(0.5, 3.0, r), polarity)
            ts = transform_spec(spec, rng.uniform(0.0, 0.5, p))
            scale = rng.uniform(0.2, 2.0)
            steps = [rs.ReachStep(j, j + 1, Zonotope(rng.uniform(-scale, scale, p),
                                                     rng.uniform(-0.3, 0.3, (p, g))))
                     for j, g in enumerate(rng.integers(0, 6, size=rng.integers(1, 5)))]
            expected = naive_check_polytope(steps, ts, events)
            assert check_spec(steps, ts) == expected
            verdicts.add(expected)
        assert verdicts == {SAFE, MAYBE_UNSAFE, INDETERMINATE}
        assert events["uncontained"] > events["hit"] > 0

    def test_regions_with_different_rows(self, rng):
        # a hand-built spec whose unsafe rows differ from its safe rows gets
        # its own spread per region
        safe = rs.PolytopeSpec([[1.0, 0.0]], [-1.0], POLARITY_SAFE)
        unsafe = rs.PolytopeSpec([[0.0, 1.0]], [-1.0], POLARITY_UNSAFE)
        ts = rs.TransformedSpec(source=safe, safe_region=safe, unsafe_region=unsafe,
                                witness_region=unsafe, delta_used=np.zeros(2),
                                Delta=np.zeros(1))
        z = Zonotope(np.array([2.0, 0.0]), 0.1 * np.eye(2))   # outside safe, y1 < 1
        steps = [rs.ReachStep(0.0, 1.0, z)]
        assert check_spec(steps, ts) == naive_check_polytope(
            steps, ts, {"uncontained": 0, "hit": 0}) == INDETERMINATE


# --------------------------------------------------------------------------
# Polytope checks from reach's age table against assembled step sets.

from hypothesis import given, strategies as st  # noqa: E402

from redsafe import verifier  # noqa: E402
from redsafe.balancing import box_image, image_zonotope  # noqa: E402


def assert_table_spreads(sets, Gamma):
    """Each step's row spread as check_spec reads it (from the age table for
    its rows) equals sum |Gamma G| over its assembled generators within
    1e-12 of their scale."""
    _, spreads = reach._poly_spreads(sets, Gamma)
    assert len(spreads) == len(sets)
    for step, spread in zip(sets, spreads):
        direct = np.sum(np.abs(Gamma @ step.outputs.generators), axis=1)
        np.testing.assert_allclose(spread, direct, rtol=1e-12,
                                   atol=1e-12 * np.max(direct, initial=0.0))


def reach_cases(rng):
    """(system, x0, input box, t_f, step_h) with step_h = t_f / N, the even
    step that reach_lti and naive_reach both take: random systems, a step
    of 0.3 over 1.0, a zero-width input channel and long decaying runs, one
    of them off the grid of 0.05."""
    for _ in range(6):
        n, m, p = (int(v) for v in rng.integers(1, 5, size=3))
        t_f = float(rng.uniform(0.5, 2.0))
        yield (rs.random_stable_system(rng, n, m, p), rand_box(rng, n, int(rng.integers(1, n + 1))),
               rand_ubox(rng, m), t_f, t_f / int(rng.integers(20, 61)))
    yield rs.random_stable_system(rng, 3, 2, 2), rand_box(rng, 3), rand_ubox(rng, 2), 1.0, 1.0 / 4
    yield (rs.random_stable_system(rng, 4, 3, 2), rand_box(rng, 4, 2),
           rs.HyperBox([-0.5, 0.3, 0.0], [0.5, 0.3, 0.2]), 1.5, 1.5 / 22)
    for t_f in (6.0, 5.98):
        yield (rs.random_stable_system(rng, 3, 2, 2, decay=(4.0, 8.0)), rand_box(rng, 3),
               rand_ubox(rng, 2), t_f, t_f / 120)


def polytope_specs(rng, steps, p):
    """Transformed polytope specs of both polarities whose offsets sit across
    the row range of the step sets, so that every verdict occurs."""
    Gamma = rng.standard_normal((int(rng.integers(1, 5)), p))
    rows = [(Gamma @ s.outputs.center, np.sum(np.abs(Gamma @ s.outputs.generators), axis=1))
            for s in steps]
    hi = np.max([c + r for c, r in rows], axis=0)
    lo = np.min([c - r for c, r in rows], axis=0)
    for polarity in (POLARITY_SAFE, POLARITY_UNSAFE):
        for frac in (-0.3, 0.2, 0.6, 0.95, 1.3):
            spec = rs.PolytopeSpec(Gamma, -(lo + frac * (hi - lo)), polarity)
            yield transform_spec(spec, rng.uniform(0.0, 0.05, p) * np.max(hi - lo))


class TestTableSpread:
    def test_check_spec_matches_assembled_reference(self, rng):
        events = {"uncontained": 0, "hit": 0}
        verdicts = set()
        for sys_, x0, ubox, t_f, step_h in reach_cases(rng):
            ref = naive_reach(sys_, x0, ubox, t_f, step_h)
            for ts in polytope_specs(rng, ref, sys_.p):
                # fresh step sets per spec: none is assembled before its check
                steps = reach_lti(sys_, x0, ubox, t_f, step_h)
                expected = naive_check_polytope(ref, ts, events)
                assert check_spec(steps, ts) == expected
                verdicts.add((ts.source_polarity, expected))
        assert {v for _, v in verdicts} == {SAFE, MAYBE_UNSAFE, INDETERMINATE}
        assert {pol for pol, _ in verdicts} == {POLARITY_SAFE, POLARITY_UNSAFE}

    def test_spreads_match_assembled_generators(self, rng):
        for sys_, x0, ubox, t_f, step_h in reach_cases(rng):
            steps = reach_lti(sys_, x0, ubox, t_f, step_h)
            Gamma = rng.standard_normal((4, sys_.p))
            Gamma[1] = 0.0
            assert_table_spreads(steps, Gamma)

    def test_untraced_verify_assembles_no_step_set(self, monkeypatch):
        # a polytope spec (the gen instance) and the motor's unsafe-region
        # ellipsoids both read their step sets from reach's age table
        assembled, reached = [], []
        generators, reach_fn = reach._AgeTable.generators, verifier.reach_lti

        def counting_generators(self, j):
            assembled.append(j)
            return generators(self, j)

        def counting_reach(*args, **kwargs):
            steps = reach_fn(*args, **kwargs)
            reached.append(len(steps))
            return steps

        monkeypatch.setattr(reach._AgeTable, "generators", counting_generators)
        monkeypatch.setattr(verifier, "reach_lti", counting_reach)
        # Safe at k = 5 from the exact initial zonotope (k = 6 from its hull)
        verdict = rs.verify(rs.random_problem(1, n=6, m=2, p=2, free_dims=3, spec_scale=0.5))
        assert verdict.outcome == SAFE and verdict.k_used == 5
        assert len(reached) == 3 and min(reached) > 0
        assert assembled == []

        reached.clear()
        motor = rs.motor_benchmark()
        assert all(isinstance(s, rs.EllipsoidSpec) and s.polarity == POLARITY_UNSAFE
                   for s in motor.spec)
        verdict = rs.verify_pss(motor, verifier.VerifyOptions(
            k0=5, k_max=5, e1_methods=(rs.E1_THEOREM2, rs.SIMULATION),
            e2_methods=(rs.SIMULATION,), step_lh=0.05))
        assert verdict.outcome == SAFE and verdict.k_used == 5
        assert len(reached) == 2 and min(reached) > 0
        assert assembled == []


@st.composite
def table_cases(draw):
    n, m, p = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decay = draw(st.sampled_from([(0.5, 2.0), (4.0, 8.0)]))
    sys_ = rs.random_stable_system(rng, n, m, p, decay=decay)
    ubox = rand_ubox(rng, m)
    if draw(st.booleans()):
        pinned = draw(st.integers(0, m - 1))
        ubox = rs.HyperBox(np.where(np.arange(m) == pinned, ubox.center, ubox.lb),
                           np.where(np.arange(m) == pinned, ubox.center, ubox.ub))
    Gamma = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "repeat"]),
                              min_size=1, max_size=6)):
        if kind == "zero":
            Gamma.append(np.zeros(p))
        elif kind == "repeat" and Gamma:
            Gamma.append(Gamma[draw(st.integers(0, len(Gamma) - 1))].copy())
        else:
            Gamma.append(rng.standard_normal(p))
    t_f = draw(st.floats(0.3, 3.0))
    step_h = t_f / draw(st.floats(1.0, 60.0))
    return (sys_, rand_box(rng, n, draw(st.integers(1, n))), ubox, t_f, step_h,
            np.array(Gamma))


@given(table_cases())
def test_table_spread_matches_assembled_generators(case):
    sys_, x0, ubox, t_f, step_h, Gamma = case
    assert_table_spreads(reach_lti(sys_, x0, ubox, t_f, step_h), Gamma)


# --------------------------------------------------------------------------
# reach_lti's recursions, built by doubling, against the step loop of
# naive_reach.

#: Step counts around the powers of two the doubling splits at.
DOUBLING_COUNTS = sorted({1, 2, 3} | {2 ** j + d for j in range(2, 9) for d in (-1, 1)})


@st.composite
def doubling_cases(draw):
    """(system, x0, input box, t_f, step_h, steps) at orders 1-12, with an
    all-pinned input box, a point x0, a non-Hurwitz A, and a horizon on
    the grid of step_h or off it (t_f < step_h for one step) drawn in; the
    horizon takes ``steps`` steps."""
    n, m, p = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys_ = rs.random_stable_system(rng, n, m, p)
    if draw(st.booleans()):
        # shift the spectrum right: some eigenvalues unstable
        sys_ = rs.LtiSystem(sys_.A + draw(st.floats(0.5, 2.5)) * np.eye(n), sys_.B, sys_.C)
    ubox = rand_ubox(rng, m)
    if draw(st.booleans()):
        ubox = rs.HyperBox(ubox.center, ubox.center)
    x0 = rand_box(rng, n, draw(st.integers(0, n)))
    count = draw(st.sampled_from(DOUBLING_COUNTS))
    short = draw(st.sampled_from([0.0, 0.37, 0.81]))
    step_h = draw(st.floats(0.2, 1.0)) * reach.STEP_LH / np.linalg.norm(sys_.A, 2)
    return sys_, x0, ubox, step_h * (count - short), step_h, count


@given(doubling_cases(), st.integers(0, 2**32 - 1))
def test_doubling_matches_naive_reach(case, seed):
    sys_, x0, ubox, t_f, step_h, count = case
    steps = reach_lti(sys_, x0, ubox, t_f, step_h)
    assert len(steps) == count
    ref = naive_reach(sys_, x0, ubox, t_f, t_f / count)
    # the step times are the step loop's, bit for bit
    assert [(s.t0, s.t1) for s in steps] == [(r.t0, r.t1) for r in ref]
    assert_same_sets(steps, ref, np.random.default_rng(seed))


# --------------------------------------------------------------------------
# Reach from the exact image of an initial box against reach from its
# interval hull.

@st.composite
def image_cases(draw):
    """(system of order k, L, box, input box, t_f, step_h): the order-k image
    L x0 of a box in N >= 1 dims with f free dims, f below, at and above k."""
    k, m, p = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    N, f = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decay = draw(st.sampled_from([(0.5, 2.0), (4.0, 8.0)]))
    sys_ = rs.random_stable_system(rng, k, m, p, decay=decay)
    t_f = draw(st.floats(0.3, 3.0))
    step_h = t_f / draw(st.floats(5.0, 60.0))
    return (sys_, rng.standard_normal((k, N)), rand_box(rng, N, min(f, N)),
            rand_ubox(rng, m), t_f, step_h)


class TestExactInitialSet:
    @given(image_cases())
    def test_steps_lie_within_the_hull_steps(self, case):
        # per step and per row of Gamma, the exact-init set's offset from
        # the hull-init set's center plus its spread is at most the hull's
        # spread, and every ball is at most the hull's ball
        sys_, L, box, ubox, t_f, step_h = case
        exact = reach_lti(sys_, image_zonotope(L, box), ubox, t_f, step_h)
        hull = reach_lti(sys_, box_image(L, box), ubox, t_f, step_h)
        assert [(s.t0, s.t1) for s in exact] == [(s.t0, s.t1) for s in hull]
        Gamma = np.vstack([np.eye(sys_.p),
                           np.random.default_rng(L.size).standard_normal((3, sys_.p))])
        Gc_e, spread_e = reach._poly_spreads(exact, Gamma)
        Gc_h, spread_h = reach._poly_spreads(hull, Gamma)
        scale = np.abs(Gc_h) + spread_h
        assert np.all(np.abs(Gc_e - Gc_h) + spread_e <= spread_h + 1e-12 * scale)
        assert np.all(exact.table.balls
                      <= hull.table.balls + 1e-12 * np.max(scale, initial=0.0))
        assert_same_sets(exact, naive_reach(sys_, image_zonotope(L, box), ubox, t_f,
                                            t_f / len(exact)), np.random.default_rng(0))

    @given(image_cases())
    def test_trajectories_stay_inside(self, case):
        # reduced trajectories from L times the box's vertices and random
        # points, under bang-bang inputs, stay inside the exact-init step set
        # of their time in every row of Gamma
        sys_, L, box, ubox, t_f, step_h = case
        rng = np.random.default_rng(L.size)
        sets = reach_lti(sys_, image_zonotope(L, box), ubox, t_f, step_h)
        verts = box.vertices() if box.vertex_count() <= 64 else np.zeros((box.dim, 0))
        X0 = L @ np.hstack([verts, box.sample(rng, 40)])
        switch = rng.integers(1, 6)

        def bang_bang(step):
            if step % switch == 0:
                bang_bang.U = np.where(rng.random((sys_.m, X0.shape[1])) < 0.5,
                                       ubox.lb[:, None], ubox.ub[:, None])
            return bang_bang.U

        h_sim = step_h / 3
        out = batch_trajectories(sys_.A, sys_.B, sys_.C, X0, bang_bang, t_f, h_sim)
        Gamma = np.vstack([np.eye(sys_.p), -np.eye(sys_.p), rng.standard_normal((4, sys_.p))])
        Gc, spread = reach._poly_spreads(sets, Gamma)
        for idx in range(out.shape[0]):
            t = idx * h_sim
            if t > t_f * (1 + 1e-12):
                break
            j = min(int(np.searchsorted(sets.t1, t - 1e-12 * t_f)), len(sets) - 1)
            rows = Gamma @ out[idx]
            tol = 1e-9 * (1.0 + np.abs(Gc[j]) + spread[j])
            assert np.all(np.abs(rows - Gc[j][:, None]) <= (spread[j] + tol)[:, None])

    @pytest.mark.parametrize("f", [0, 2, 3, 5])  # below, at and above k = 3
    def test_dense_columns_per_initial_generator(self, rng, f):
        bal = rs.balance(rs.random_stable_system(rng, 6, 2, 2))
        abstraction = rs.truncate(bal, 3, rand_box(rng, 6, f))
        sets = reach_lti(abstraction.reduced, abstraction.x0_zonotope, rand_ubox(rng, 2),
                         1.0, 0.05)
        assert sets.table.dense.shape[2] == 1 + 2 * min(f, 3)


# --------------------------------------------------------------------------
# Unsafe-region ellipsoid checks from reach's age table against assembled
# step sets.

def random_ellipsoid(rng, p, a, R=1.0):
    """Unsafe-region ellipsoid centered at a with a random positive definite Q."""
    A = rng.standard_normal((p, p))
    return rs.EllipsoidSpec(A @ A.T + np.eye(p), a, R, POLARITY_UNSAFE)


def naive_check_ellipsoid(steps, ts):
    """check_spec against one unsafe-polarity ellipsoid, one step at a time
    on assembled generators."""
    ell, R2 = ts.unsafe_region, ts.unsafe_region.R ** 2
    failed = [s.outputs for s in steps if not quad_lower(s.outputs, ell) > R2]
    if not failed:
        return SAFE
    hit = any(ell.quad(reach._quad_extreme_point(z, ell, maximize=False)) <= R2
              for z in failed)
    return MAYBE_UNSAFE if hit else INDETERMINATE


@given(table_cases(), st.integers(0, 2**32 - 1))
def test_table_quad_lower_matches_assembled_generators(case, seed):
    # an unsafe ellipsoid radius far above every step's bound leaves every
    # table row to the gradient direction
    sys_, x0, ubox, t_f, step_h, _ = case
    rng = np.random.default_rng(seed)
    steps = reach_lti(sys_, x0, ubox, t_f, step_h)
    zs = [s.outputs for s in steps]
    ell = random_ellipsoid(rng, sys_.p, zs[int(rng.integers(len(zs)))].center
                           + rng.uniform(-2.0, 2.0, sys_.p), R=1e150)
    lows = reach._quad_lowers(steps, ell, ell.R ** 2)
    assert np.all(lows <= ell.R ** 2)
    for z, low in zip(zs, lows):
        # quad_upper bounds (|v d| + spread)^2 / (v Q^-1 v) for every
        # direction v, the scale of the rounding in lo^2 / (v Q^-1 v)
        assert low == pytest.approx(quad_lower(z, ell), rel=1e-12,
                                    abs=1e-12 * reach.quad_upper(z, ell))


class TestTableEllipsoid:
    def test_check_spec_matches_assembled_reference(self, rng):
        verdicts = set()
        for sys_, x0, ubox, t_f, step_h in reach_cases(rng):
            ref = naive_reach(sys_, x0, ubox, t_f, step_h)
            p = sys_.p
            for _ in range(3):
                ell = random_ellipsoid(rng, p, ref[int(rng.integers(len(ref)))].outputs.center
                                       + rng.uniform(-0.5, 0.5, p))
                lows = [quad_lower(s.outputs, ell) for s in ref]
                hi = max(reach.quad_upper(s.outputs, ell) for s in ref)
                for R2 in (0.5 * min(lows), min(lows) + 0.5 * (max(lows) - min(lows)),
                           max(lows) + 0.1 * hi, 2.0 * hi):
                    if not R2 > 0:
                        continue
                    spec = rs.EllipsoidSpec(ell.Q, ell.a, np.sqrt(R2), POLARITY_UNSAFE)
                    ts = transform_spec(spec, rng.uniform(0.0, 0.02, p) * np.sqrt(R2))
                    # fresh step sets per spec: none is assembled before its check
                    steps = reach_lti(sys_, x0, ubox, t_f, step_h)
                    expected = naive_check_ellipsoid(ref, ts)
                    assert check_spec(steps, ts) == expected
                    verdicts.add(expected)
        assert verdicts == {SAFE, MAYBE_UNSAFE, INDETERMINATE}

    def test_decided_rows_skip_the_gradient(self, rng, monkeypatch):
        # rows the axis spreads already put above the radius read no
        # gradient spread; the verdict is the same either way
        calls = []
        spreads = reach._AgeTable.direction_spreads

        def counting(self, V, rows):
            calls.append(len(rows))
            return spreads(self, V, rows)

        monkeypatch.setattr(reach._AgeTable, "direction_spreads", counting)
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        steps = reach_lti(sys_, rand_box(rng, 3), rand_ubox(rng, 2), 1.0, 0.02)
        zs = [s.outputs for s in steps]
        far = np.max([np.abs(z.center) + z.radius_vector() for z in zs]) * 10.0
        ell = random_ellipsoid(rng, 2, np.full(2, far))
        assert check_spec(steps, transform_spec(ell, np.zeros(2))) == SAFE
        assert sum(calls) == 0
        calls.clear()
        lows = reach._quad_lowers(steps, ell, np.inf)
        assert calls == [len(zs)] and np.all(lows > ell.R ** 2)


class TestBatchedSteps:
    """reach_lti's per-step arrays, column by column, against naive_reach's
    per-step enclosures; every step, the last one too, is a row of the
    table."""

    def test_steps_match_per_step_reference(self, rng):
        for sys_, x0, ubox, t_f, step_h in reach_cases(rng):
            sets = reach_lti(sys_, x0, ubox, t_f, step_h)
            ref = naive_reach(sys_, x0, ubox, t_f, step_h)
            assert [(s.t0, s.t1) for s in sets] == [(r.t0, r.t1) for r in ref]
            table, p, g0 = sets.table, sys_.p, Zonotope.from_box(x0).order
            C_rows = np.linalg.norm(sys_.C, axis=1)
            Gamma = rng.standard_normal((3, p))
            spreads = table.row_spreads(Gamma)
            for j, (s, r) in enumerate(zip(sets, ref)):
                z, G = s.outputs, r.outputs.generators
                scale = np.max(np.abs(G))
                close = dict(rtol=0, atol=1e-12 * scale)
                np.testing.assert_allclose(z.center, r.outputs.center, rtol=0,
                                           atol=1e-12 * np.max(np.abs(r.outputs.center)))
                np.testing.assert_allclose(z.generators, G, **close)
                np.testing.assert_allclose(spreads[j], np.sum(np.abs(Gamma @ G), axis=1),
                                           rtol=1e-12, atol=1e-12 * scale * np.abs(Gamma).sum())
                hull = (G.shape[1] - 1 - p) // 2
                cols = np.r_[0, 1:1 + g0, 1 + hull:1 + hull + g0]
                np.testing.assert_allclose(table.dense[j], G[:, cols], **close)
                np.testing.assert_allclose(table.balls[j] * C_rows, np.diag(G[:, -p:]), **close)

    def test_shared_table_is_read_only(self, rng):
        # a step set's center, the table's dense columns and its spreads are
        # shared by every read of the result; changing one in place must
        # fail, not alter the rest
        sys_, x0, ubox, t_f, step_h = next(iter(reach_cases(rng)))
        sets = reach_lti(sys_, x0, ubox, t_f, step_h)
        z = sets[0].outputs
        for view in (z.center, sets.table.dense[0], sets.table.row_spreads(np.eye(sys_.p))):
            with pytest.raises(ValueError, match="read-only"):
                view *= 2.0
        z.generators[...] = 0.0  # the assembled array is the step's own
        assert np.any(sets[0].outputs.generators != 0.0)


class TestReachSets:
    """The result of reach_lti as a sequence of steps, and check_spec on it
    against check_spec on its explicit zonotopes."""

    def test_sequence_matches_naive_reach(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3), rand_ubox(rng, 2)
        # a horizon on the grid of step_h, one off it and one below a step:
        # every step is a row of the table, t_f / count long
        for t_f, step_h, count in ((0.9, 0.3, 3), (1.0, 0.3, 4), (0.2, 0.3, 1)):
            sets = reach_lti(sys_, x0, ubox, t_f, step_h)
            ref = naive_reach(sys_, x0, ubox, t_f, t_f / count)
            assert isinstance(sets, rs.ReachSets)
            assert sets.table is not None
            assert len(sets) == len(sets.table.balls) == len(ref) == count
            assert_same_sets(list(sets), ref, rng)
            assert [s.t0 for s in sets] == [r.t0 for r in ref]
            assert [s.t1 for s in sets] == [r.t1 for r in ref]
            for j in range(-len(sets), len(sets)):
                a, b = sets[j], ref[j]
                assert (a.t0, a.t1) == (b.t0, b.t1)
                np.testing.assert_array_equal(a.outputs.center, sets[j % len(sets)].outputs.center)
            for sl in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2),
                       slice(5, 9)):
                got = sets[sl]
                assert isinstance(got, list)
                assert [(s.t0, s.t1, s.outputs.order) for s in got] == \
                    [(s.t0, s.t1, s.outputs.order) for s in ref[sl]]
            for j in (len(sets), -len(sets) - 1):
                with pytest.raises(IndexError):
                    sets[j]

    @given(st.floats(1e-3, 1.0), st.integers(1, 500),
           st.sampled_from(["below", "on", "off"]), st.floats(0.01, 0.99))
    def test_steps_tile_the_horizon_evenly(self, step_h, count, kind, short):
        # t_f below one step, on the grid of step_h up to rounding, and off
        # it: ceil(t_f / step_h) steps of t_f / N <= step_h, the last
        # ending at t_f exactly
        t_f = {"below": step_h * short, "on": step_h * count,
               "off": step_h * (count - short)}[kind]
        sys_ = rs.LtiSystem([[-1.0, 0.5], [0.0, -2.0]], [[1.0], [0.5]], [[1.0, 1.0]])
        sets = reach_lti(sys_, rs.HyperBox([0.0, 0.0], [0.1, 0.1]),
                         rs.HyperBox([-0.1], [0.1]), t_f, step_h)
        steps = 1 if kind == "below" else count
        if kind != "on":  # on the grid, t_f / step_h may round above count
            assert steps == math.ceil(t_f / step_h)
        assert len(sets) == len(sets.table.balls) == steps
        assert sets.t0[0] == 0.0 and sets.t1[-1] == t_f
        np.testing.assert_array_equal(sets.t0[1:], sets.t1[:-1])
        lengths = sets.t1 - sets.t0
        np.testing.assert_allclose(lengths, t_f / steps, rtol=1e-12, atol=0.0)
        assert np.all(lengths <= step_h * (1 + 1e-12))

    def test_steps_are_assembled_on_each_read(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        sets = reach_lti(sys_, rand_box(rng, 3), rand_ubox(rng, 2), 1.0, 0.3)
        first, again = sets[1], sets[1]
        assert first is not again and first.outputs.generators is not again.outputs.generators
        np.testing.assert_array_equal(first.outputs.generators, again.outputs.generators)
        assert first.t0 == sets.t0[1] and type(first.t0) is float

    def test_of_explicit_steps(self, rng):
        # explicit step sets become an age table with no input ages and no
        # balls: each zonotope's generators are its row's dense columns,
        # zero-padded to the widest
        steps = [rs.ReachStep(j, j + 1.0, Zonotope(rng.standard_normal(2),
                                                   rng.standard_normal((2, g))))
                 for j, g in enumerate((3, 1, 0, 4))]
        sets = rs.ReachSets.of(steps)
        assert len(sets) == 4 and sets.table.m == 0 and np.all(sets.table.balls == 0.0)
        for got, step in zip(sets, steps):
            z, g = got.outputs, step.outputs.order
            assert (got.t0, got.t1) == (step.t0, step.t1)
            np.testing.assert_array_equal(z.center, step.outputs.center)
            np.testing.assert_array_equal(z.generators[:, :g], step.outputs.generators)
            assert z.generators.shape == (2, 4) and np.all(z.generators[:, g:] == 0.0)
        assert rs.ReachSets.of(sets) is sets
        assert len(rs.ReachSets.of(steps[:1])) == 1

    def test_no_step_sets_are_refused(self):
        # a verdict over no step sets says nothing; check_spec once called
        # them Safe
        with pytest.raises(rs.ModelError, match="^no step sets"):
            rs.ReachSets.of([])
        for spec in (rs.PolytopeSpec([[1.0, 0.0]], [-1.0], POLARITY_SAFE),
                     rs.EllipsoidSpec(np.eye(2), np.zeros(2), 1.0, POLARITY_UNSAFE)):
            with pytest.raises(rs.ModelError, match="^no step sets"):
                check_spec([], transform_spec(spec, np.zeros(2)))

    @given(st.floats(1e-3, 1.0), st.integers(1, 500),
           st.sampled_from(["below", "on", "off"]), st.floats(0.01, 0.99))
    def test_simulate_and_witness_share_the_reach_grid(self, step_h, count, kind, short):
        # t_f below one step, on the grid of step_h up to rounding, and off
        # it: simulate samples reach's grid bit for bit, with the outputs of
        # a per-step loop at t_f / N, and the witness search plans one input
        # row per reach step
        t_f = {"below": step_h * short, "on": step_h * count,
               "off": step_h * (count - short)}[kind]
        sys_ = rs.LtiSystem([[-1.0, 0.5], [0.0, -2.0]], [[1.0], [0.5]], [[1.0, 1.0]])
        x0, ubox = rs.HyperBox([0.0, 0.0], [0.1, 0.1]), rs.HyperBox([-0.1], [0.1])
        sets = reach_lti(sys_, x0, ubox, t_f, step_h)
        plan = np.linspace(-0.1, 0.1, len(sets))[:, None]
        traj = simulate(sys_, x0.ub, plan, t_f, step_h)
        np.testing.assert_array_equal(traj.times, np.r_[sets.t0[0], sets.t1])
        assert_matches_stepwise(sys_, x0.ub, plan, t_f, step_h)
        everywhere = transform_spec(rs.PolytopeSpec([[1.0]], [1e3], POLARITY_SAFE), np.zeros(1))
        w = find_unsafe_witness(sys_, x0, ubox, everywhere, t_f, 1, h=step_h)
        assert w.step_inputs.shape == (len(sets), 1)

    def test_check_spec_matches_explicit_steps(self, rng):
        # list(sets) holds explicit zonotopes, which check_spec reads as a
        # table of their assembled generators with no input ages; reach's
        # own table of the same sets must agree
        verdicts = set()
        for sys_, x0, ubox, t_f, step_h in reach_cases(rng):
            sets = reach_lti(sys_, x0, ubox, t_f, step_h)
            steps, p = list(sets), sys_.p
            specs = list(polytope_specs(rng, steps, p))
            for _ in range(2):
                ell = random_ellipsoid(rng, p, steps[int(rng.integers(len(steps)))].outputs.center)
                lows = [quad_lower(s.outputs, ell) for s in steps]
                # radii just above the closest step's bound and around the
                # median decide on the spreads of single steps
                for R2 in (0.5 * min(lows), (1 + 1e-6) * min(lows), float(np.median(lows)),
                           max(lows) + 0.1, 4.0 * max(lows) + 1.0):
                    if R2 > 0:
                        for polarity in (POLARITY_SAFE, POLARITY_UNSAFE):
                            spec = rs.EllipsoidSpec(ell.Q, ell.a, np.sqrt(R2), polarity)
                            specs.append(transform_spec(spec, np.zeros(p)))
            for ts in specs:
                expected = check_spec(steps, ts)
                assert check_spec(sets, ts) == expected
                verdicts.add((type(ts.source).__name__, ts.source_polarity, expected))
        assert {v for *_, v in verdicts} == {SAFE, MAYBE_UNSAFE, INDETERMINATE}
        assert {kind for kind, *_ in verdicts} == {"PolytopeSpec", "EllipsoidSpec"}
        assert {pol for _, pol, _ in verdicts} == {POLARITY_SAFE, POLARITY_UNSAFE}


# --------------------------------------------------------------------------
# The scaling-and-squaring exponential against scipy (a test-only oracle).

import scipy.linalg  # noqa: E402
from hypothesis import example  # noqa: E402

#: One ||A||_1 inside each Pade degree's range (3, 5, 7, 9), then degree 13
#: without and with squarings; the motor's ||A||_1 h is about 1.4e3.
DEGREE_NORMS = ((1e-3, 3, 0), (0.1, 5, 0), (0.5, 7, 0), (1.5, 9, 0), (5.0, 13, 0),
                (1.4e3, 13, 9), (1e4, 13, 11))


def stable_matrix(seed: int, n: int, norm1: float) -> np.ndarray:
    """A random matrix shifted left of its spectral radius (so e^A stays
    bounded at any scale) and scaled to the given 1-norm."""
    A = np.random.default_rng(seed).standard_normal((n, n))
    A -= (np.max(np.abs(np.linalg.eigvals(A))) + 0.1) * np.eye(n)
    return A * (norm1 / np.abs(A).sum(axis=0).max())


@pytest.mark.parametrize("norm1, degree, squarings", DEGREE_NORMS)
def test_expm_picks_the_pade_degree_by_norm(norm1, degree, squarings, monkeypatch):
    calls = []
    pade = reach._pade

    def spy(A, m):
        calls.append((m, np.abs(A).sum(axis=0).max()))
        return pade(A, m)
    monkeypatch.setattr(reach, "_pade", spy)
    reach._expm(stable_matrix(0, 6, norm1))
    (m, scaled), = calls
    assert m == degree and scaled == pytest.approx(norm1 / 2.0 ** squarings, rel=1e-15)


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(-3.0, 4.0))
@example(0, 8, -3.0)
@example(1, 8, -1.0)
@example(2, 8, float(np.log10(0.5)))
@example(3, 8, float(np.log10(1.5)))
@example(4, 8, float(np.log10(5.0)))
@example(5, 8, float(np.log10(1.4e3)))
@example(6, 8, 4.0)
def test_expm_matches_scipy(seed, n, log_norm):
    # both are backward stable, and the exponential's relative condition
    # number grows with ||A||, so they agree to about ||A||_1 units in the
    # last place (measured: 5e-12 relative at ||A||_1 = 1e3)
    A = stable_matrix(seed, n, 10.0 ** log_norm)
    ref = scipy.linalg.expm(A)
    tol = 100 * np.finfo(float).eps * max(1.0, np.abs(A).sum(axis=0).max())
    assert np.linalg.norm(reach._expm(A) - ref) <= tol * np.linalg.norm(ref)


def test_motor_transitions_match_scipy():
    # the motor's full-order transitions at its verification step
    for mode in rs.motor_benchmark().system.modes:
        h = 0.05 / np.linalg.norm(mode.A, 2)
        Phi, PsiB = _transition(mode.A, h, mode.B)
        M = np.block([[mode.A, mode.B], [np.zeros((mode.m, mode.n + mode.m))]])
        E = scipy.linalg.expm(M * h)
        np.testing.assert_allclose(Phi, E[:mode.n, :mode.n], rtol=0, atol=1e-14)
        np.testing.assert_allclose(PsiB, E[:mode.n, mode.n:], rtol=0,
                                   atol=1e-14 * np.abs(E[:mode.n, mode.n:]).max())


def test_expm_not_finite_raises_model_error():
    with pytest.raises(rs.ModelError, match="not finite"):
        reach._expm(np.array([[np.nan]]))
    with pytest.raises(rs.ModelError, match="not finite"):
        reach._expm(np.array([[1e3]]))


# --------------------------------------------------------------------------
# simulate's block kernel against the per-step loop.

def stepwise(sys_, x0, u, t_f, h):
    """Per-step reference: x <- Phi x + Psi u_j one step at a time over the
    N = ceil(t_f / h) even steps of t_f / N that tile [0, t_f].  Returns
    (outputs, time of the first non-finite state or None); the outputs stop
    before that state."""
    x = np.asarray(x0, dtype=float)
    steps = max(1, math.ceil(t_f / h - 1e-12))
    times = np.linspace(0.0, t_f, steps + 1)
    U = reach._step_inputs(u, sys_.m, times, x.shape[1:])
    Phi, Psi = _transition(sys_.A, t_f / steps, sys_.B)
    outputs = [sys_.C @ x]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            x = Phi @ x + Psi @ U[j]
            if not np.all(np.isfinite(x)):
                return np.array(outputs), times[j + 1]
            outputs.append(sys_.C @ x)
    return np.array(outputs), None


def assert_matches_stepwise(sys_, x0, u, t_f, h):
    traj = simulate(sys_, x0, u, t_f, h)
    ref, _ = stepwise(sys_, x0, u, t_f, h)
    assert traj.outputs.shape == ref.shape
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, t_f, len(ref)))
    np.testing.assert_allclose(traj.outputs, ref, rtol=1e-12,
                               atol=1e-12 * max(1.0, np.abs(ref).max()))


def no_input_system(rng, n, p):
    """A system with m = 0, which LtiSystem refuses but simulate reads."""
    A = rs.random_stable_system(rng, n, 1, p).A
    return types.SimpleNamespace(A=A, B=np.zeros((n, 0)), C=rng.standard_normal((p, n)),
                                 n=n, m=0, p=p)


class TestBlockSimulate:
    def test_block_kernel_is_b_steps(self, rng):
        sys_ = rs.random_stable_system(rng, 5, 2, 3)
        Phi, Psi = _transition(sys_.A, 0.1, sys_.B)
        for b in (1, 2, 5):
            x, U = rng.standard_normal(5), rng.standard_normal((b, 2))
            Z = reach._block_kernel(Phi, Psi, sys_.C, b) @ np.concatenate([x, U.ravel()])
            for i in range(b):
                x = Phi @ x + Psi @ U[i]
                np.testing.assert_allclose(Z[i * 3:(i + 1) * 3], sys_.C @ x, rtol=1e-13,
                                           atol=1e-13)
            np.testing.assert_allclose(Z[b * 3:], x, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("steps", [1, 3, 4, 5, 8, 9])
    def test_steps_around_the_block(self, rng, steps, monkeypatch):
        # n = 8 with p = m = 1 takes blocks of SIM_BLOCK_MAX = 4 steps: fewer
        # steps than a block, exactly one, a remainder, and each of those
        # over a horizon 0.04 short of the grid of 0.1, which the same count
        # of even steps tiles; single states and batches under every kind
        # of input
        monkeypatch.setattr(reach, "SIM_BLOCK_MAX", 4)
        sys_ = rs.random_stable_system(rng, 8, 1, 1)
        for t_f in (0.1 * steps, 0.1 * steps - 0.04):
            for batch in ((), (3,)):
                x0 = rng.standard_normal((8,) + batch)
                plan = rng.standard_normal((steps, 1) + batch)
                for u in (None, np.array([0.7]), lambda t: np.array([np.cos(3 * t)]),
                          plan[..., 0] if batch else plan, plan):
                    assert_matches_stepwise(sys_, x0, u, t_f, 0.1)

    def test_no_inputs_and_zero_horizon(self, rng):
        # on the grid of 0.05, 40 even steps of 1.97 / 40 off it, and the
        # one sample of a zero horizon
        sys_ = no_input_system(rng, 6, 2)
        for t_f in (2.0, 1.97, 0.0):
            for x0 in (rng.standard_normal(6), rng.standard_normal((6, 4))):
                if t_f == 0.0:
                    traj = simulate(sys_, x0, None, t_f, 0.05)
                    np.testing.assert_array_equal(traj.outputs, (sys_.C @ x0)[None])
                else:
                    assert_matches_stepwise(sys_, x0, None, t_f, 0.05)

    @given(st.integers(1, 20), st.integers(1, 6), st.integers(1, 5), st.integers(0, 5),
           st.integers(0, 2**32 - 1), st.floats(0.2, 3.0))
    def test_random_shapes_match_stepwise(self, n, m, p, B, seed, t_f):
        rng = np.random.default_rng(seed)
        sys_ = rs.random_stable_system(rng, n, m, p)
        # a step off the grid of t_f, tiled by N = ceil(t_f / h) even steps
        h = 0.05 / max(1.0, np.linalg.norm(sys_.A, 2))
        shape = (n, B) if B else (n,)
        steps = math.ceil(t_f / h - 1e-12)
        u = rng.standard_normal((steps, m, B) if B else (steps, m))
        assert_matches_stepwise(sys_, rng.standard_normal(shape), u, t_f, h)

    def test_first_non_finite_time_matches_stepwise(self):
        # n = 4, p = m = 1: blocks of 4 steps; the fast mode overflows inside
        # a block, which is taken again step by step to name the state's time
        A = np.diag([50.0, -1.0, -2.0, -3.0])
        sys_ = rs.LtiSystem(A, np.ones((4, 1)), np.ones((1, 4)))
        for x0 in (np.eye(4)[0], np.stack([np.zeros(4), np.eye(4)[0]], axis=1)):
            _, t_bad = stepwise(sys_, x0, None, 20.0, 0.1)
            assert t_bad == pytest.approx(14.2)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(rs.ModelError, match=f"non-finite at t={t_bad:.6g}$"):
                simulate(sys_, x0, None, 20.0, 0.1)

    def test_overflowing_kernel_falls_back_to_steps(self):
        # Phi = e^200 is finite but Phi^4 in the block kernel is not: from the
        # origin with no input every state is 0, and the blocks taken again
        # step by step say so
        A = np.diag([2000.0, -1.0, -2.0, -3.0])
        sys_ = rs.LtiSystem(A, np.ones((4, 1)), np.ones((1, 4)))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(sys_, np.zeros(4), np.zeros(1), 1.0, 0.1)
        np.testing.assert_array_equal(traj.outputs, np.zeros((11, 1)))


# --------------------------------------------------------------------------
# reach_lti's orbits built a chunk at a time against one chunk.

def assert_same_table(sets, ref, rng):
    assert len(sets) == len(ref)
    a, b = sets.table, ref.table
    for name in ("centers", "dense", "balls", "Y_plus", "Y_minus", "Y_new"):
        x, y = getattr(a, name), getattr(b, name)
        np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(y).max()),
                                   err_msg=name)
    Gamma = rng.standard_normal((3, a.centers.shape[1]))
    y = b.row_spreads(Gamma)
    np.testing.assert_allclose(a.row_spreads(Gamma), y, rtol=1e-12,
                               atol=1e-12 * max(1.0, np.abs(y).max()))
    for s, r in zip(sets, ref):
        assert (s.t0, s.t1) == (r.t0, r.t1)
        for x, y in ((s.outputs.center, r.outputs.center),
                     (s.outputs.generators, r.outputs.generators)):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(y).max()))


class TestReachChunks:
    @pytest.mark.parametrize("orbit", ["center", "initial", "inputs"])
    @pytest.mark.parametrize("off_grid", [False, True])
    def test_chunk_boundaries_match_one_chunk(self, rng, monkeypatch, orbit, off_grid):
        # order 3, 2 input columns, 1 initial generator: chunks of c = 4
        # states of one orbit ([c; 1] has 4 rows, G0 3 x 1, G_in 3 x 2), and
        # orbits of c - 1, c, c + 1 and 2c + 1 states (the center and the
        # initial orbit hold one state more than there are steps), over
        # horizons on the grid of step_h and off it
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox, step_h, c = rand_box(rng, 3, 1), rand_ubox(rng, 2), 0.1, 4
        size, more = {"center": (4, 1), "initial": (3, 1), "inputs": (6, 0)}[orbit]
        for count in (c - 1, c, c + 1, 2 * c + 1):
            steps = count - more
            t_f = step_h * (steps - (0.4 if off_grid else 0.0))
            monkeypatch.setattr(reach, "REACH_CHUNK_DOUBLES", 1 << 30)
            ref = reach_lti(sys_, x0, ubox, t_f, step_h)
            monkeypatch.setattr(reach, "REACH_CHUNK_DOUBLES", c * size)
            sets = reach_lti(sys_, x0, ubox, t_f, step_h)
            assert len(sets) == len(sets.table.balls) == steps
            assert_same_table(sets, ref, rng)


# --------------------------------------------------------------------------
# Memory: reach's orbits and the witness search's chunks stay bounded.

def traced_peak(call):
    """(result, peak bytes above the start, bytes kept at the end)."""
    tracemalloc.start()
    try:
        out = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, kept


def test_reach_peak_memory_stays_below_its_input_orbit():
    # a call shaped like the k = 40 reach of the n = 150 sweep (6 free box
    # dims, 12 inputs, N = 1000 steps): what it forms beyond what it keeps
    # is under half of the N k m doubles of its input orbit M_a = Phi^a G_in,
    # and its whole traced peak is below that orbit
    rng = np.random.default_rng(40)
    k, m = 40, 12
    sys_ = rs.random_stable_system(rng, k, m, 4)
    x0, ubox = rand_box(rng, k, 6), rand_ubox(rng, m)
    steps, peak, kept = traced_peak(lambda: reach_lti(sys_, x0, ubox, 1.0, 1e-3))
    orbit = 8 * len(steps) * k * m
    assert len(steps) == len(steps.table.balls) == 1000
    assert peak - kept < 0.5 * orbit
    assert peak < orbit


def test_witness_peak_memory_does_not_grow_with_the_budget():
    # k = 40, 1000 steps, 12 inputs, 4 outputs: no candidate crosses, so
    # every chunk is simulated; the traced peak stays within the chunk's
    # doubles budget (plus the initial states, 40 doubles a candidate),
    # and a budget of 256 peaks no higher than one of 64
    rng = np.random.default_rng(41)
    k, m, p = 40, 12, 4
    sys_ = rs.random_stable_system(rng, k, m, p)
    x0, ubox = rand_box(rng, k, 6), rand_ubox(rng, m)
    never = transform_spec(rs.PolytopeSpec(np.eye(p)[:1], [-1e9], POLARITY_SAFE), np.zeros(p))
    peaks = {}
    for budget in (64, 256):
        found, peak, _ = traced_peak(lambda: find_unsafe_witness(
            sys_, x0, ubox, never, 1.0, budget, h=1e-3))
        assert found is None
        peaks[budget] = peak - 8 * k * budget
    assert reach._witness_chunk(1000, m, p) == 16
    assert peaks[256] <= 1.05 * peaks[64]
    assert peaks[256] < 1.5 * 8 * reach.WITNESS_CHUNK_DOUBLES
