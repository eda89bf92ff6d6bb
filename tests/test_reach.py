import collections
import itertools
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
from redsafe.spectransform import ellipsoid_margin, transform_spec

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


def quad_bounds(z: Zonotope, ell: rs.EllipsoidSpec) -> tuple[float, float]:
    """Sound bounds max(d - s, 0)^2 @ lambda and (d + s)^2 @ lambda on the
    min and the max over the zonotope z of (y-a)^T Q (y-a), for
    Q = E^T diag(lambda) E, from its generator array: d = |E (c - a)| and
    the spreads s = sum |E G|, so that |E_i (y - a)| lies in
    [max(d_i - s_i, 0), d_i + s_i] over z.  The reference for
    reach._certified, which reads the same spreads from the age table."""
    lam, E = ell.axes
    d, s = np.abs(E @ (z.center - ell.a)), row_spread(z, E)
    return float(np.maximum(d - s, 0.0) ** 2 @ lam), float((d + s) ** 2 @ lam)


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

    def test_balls_keep_their_second_order_terms_at_small_steps(self):
        # at L h = 1e-8 the in-step envelope 2 (e^{Lh} - 1 - Lh) ||x|| is
        # (Lh)^2 ||x||, about 1e-16, and with u in [-1, 1] the input sweep
        # 2 ((e^{Lh} - 1) / L) ||B|| ||u_r|| alone is above 2 h = 0.02: e^{Lh} - 1
        # taken as exp(Lh) - 1 cancels to rounding and leaves both below
        sys_ = rs.LtiSystem([[-1e-6]], [[1.0]], [[1.0]])
        x0, t_f, h = rs.HyperBox([1.0], [1.0]), 2.0, 0.01
        free = reach_lti(sys_, x0, rs.HyperBox([0.0], [0.0]), t_f)
        assert len(free) == 200 and np.all(free.t1 - free.t0 == pytest.approx(h))
        # ||x|| stays within 2e-6 of 1 over [0, 2]
        assert np.all(free.balls >= (1.0 - 1e-5) * (1e-6 * h) ** 2)
        forced = reach_lti(sys_, x0, rs.HyperBox([-1.0], [1.0]), t_f)
        assert np.all(forced.balls >= 2.0 * h)

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


def orbit_stride(sys_):
    """reach_lti's giant-step stride: its orbit's n + 1 state rows (the
    center's constant among them) over the p output rows it is read
    through, floor((n + 1) / p) where n + 1 >= 4p and 1 otherwise."""
    n, p = sys_.n, sys_.p
    return (n + 1) // p if n + 1 >= 4 * p else 1


def naive_orbit(sys_, x0, u_box, step_h, steps):
    """The output images (steps+1, p, 1 + g0 + m) and the exact state norms
    (steps+1, 1 + g0 + m) of the center, the initial generators and the
    input columns of age j at sample j, from a per-state loop."""
    Phi, PsiB = _transition(sys_.A, step_h, sys_.B)
    Gin = PsiB * u_box.halfwidth
    init = x0 if isinstance(x0, Zonotope) else Zonotope.from_box(x0)
    X = np.hstack([init.center[:, None], init.generators,
                   Gin[:, np.linalg.norm(Gin, axis=0) > 0]])
    images, norms = [], []
    for _ in range(steps + 1):
        images.append(sys_.C @ X)
        norms.append(np.linalg.norm(X, axis=0))
        X = Phi @ X
        X[:, 0] += PsiB @ u_box.center
    return np.array(images), np.array(norms)


def rule_norms(sys_, u_box, step_h, norms, stride):
    """reach_lti's orbit rule on exact column norms: at sample j, a = j mod s
    samples after the giant sample j - a, each column's norm there times
    ||Phi||^a, the center's plus sum_{i<a} ||Phi||^i ||PsiB u_c|| for its
    drift."""
    Phi, PsiB = _transition(sys_.A, step_h, sys_.B)
    a = np.arange(len(norms)) % stride
    powers = np.linalg.norm(Phi, 2) ** np.arange(stride)
    drift = np.concatenate([[0.0], np.cumsum(powers[:-1])])[a]
    out = norms[np.arange(len(norms)) - a] * powers[a, None]
    out[:, 0] += drift * np.linalg.norm(PsiB @ u_box.center)
    return out


def naive_balls(sys_, x0, u_box, t_f, step_h, stride):
    """Each step's ball over the steps of ``linspace(0, t_f, N + 1)`` for
    the even step ``step_h`` = t_f / N, from the state norms of a per-state
    loop: exact at stride 1, reach_lti's orbit rule on them at stride s."""
    A, B = sys_.A, sys_.B
    L, nB = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
    ur = u_box.halfwidth
    in_norm, drift = nB * np.linalg.norm(ur), np.linalg.norm(B @ u_box.center) / L
    e = np.exp(L * step_h)
    nPhi = np.linalg.norm(_transition(A, step_h, B)[0], 2)
    res = ((e - 1) / L - step_h) * nB * 2 * np.linalg.norm(ur)
    ebl, sweep = e - 1 - L * step_h, 2 * (e - 1) / L
    steps = round(t_f / step_h)
    g0 = (x0 if isinstance(x0, Zonotope) else Zonotope.from_box(x0)).order
    norms = rule_norms(sys_, u_box, step_h, naive_orbit(sys_, x0, u_box, step_h, steps)[1],
                       stride)
    # the center, the initial generators and every input column before it
    state = norms[:, 0] + norms[:, 1:1 + g0].sum(axis=1) \
        + np.concatenate([[0.0], np.cumsum(norms[:-1, 1 + g0:].sum(axis=1))])
    rho, balls = 0.0, []
    for j in range(steps):
        rho_next = nPhi * rho + res
        balls.append(max(rho, rho_next) + 2 * ebl * (state[j] + rho + drift) + sweep * in_norm)
        rho = rho_next
    return np.array(balls)


def naive_reach(sys_, x0, u_box, t_f, step_h):
    """Reference recurrence over the steps of ``linspace(0, t_f, N + 1)``
    for the even step ``step_h`` = t_f / N: every step maps all state
    generators through Phi and encloses consecutive states, keeping every
    generator, with reach_lti's balls (:func:`naive_balls` at its stride)."""
    C = sys_.C
    Phi, PsiB = _transition(sys_.A, step_h, sys_.B)
    vin, Gin = PsiB @ u_box.center, PsiB * u_box.halfwidth
    Gin = Gin[:, np.linalg.norm(Gin, axis=0) > 0]
    times = np.linspace(0.0, t_f, round(t_f / step_h) + 1)
    balls = naive_balls(sys_, x0, u_box, t_f, step_h, orbit_stride(sys_))
    state = x0 if isinstance(x0, Zonotope) else Zonotope.from_box(x0)
    steps = []
    for t0, t1, ball in zip(times[:-1], times[1:], balls):
        nxt = Zonotope(Phi @ state.center + vin, np.hstack([Phi @ state.generators, Gin]))
        hull = enclose(state, nxt)
        hull = Zonotope(C @ hull.center, C @ hull.generators)
        steps.append(rs.ReachStep(float(t0), float(t1), Zonotope(hull.center, np.hstack(
            [hull.generators, np.diag(ball * np.linalg.norm(C, axis=1))]))))
        state = nxt
    return steps


def assert_balls_bracketed(sets, sys_, x0, u_box):
    """Every ball of reach_lti's step sets is at least the one from the
    exact state norms of a per-state loop and at most the one from the
    orbit rule's bound on them, within rounding."""
    t_f = float(sets.t1[-1])
    h = t_f / len(sets)
    exact = naive_balls(sys_, x0, u_box, t_f, h, 1)
    rule = naive_balls(sys_, x0, u_box, t_f, h, orbit_stride(sys_))
    balls = sets.balls
    assert np.all(balls >= exact * (1 - 1e-12)) and np.all(balls <= rule * (1 + 1e-12))


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
        shortened = strided = 0
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
            assert_balls_bracketed(steps, sys_, x0, ubox)
            strided += orbit_stride(sys_) > 1
        assert shortened  # some horizons are off the grid of step_h
        assert strided  # some orbits take giant steps

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


def static_sets(center, G):
    """The one-step ReachSets whose output set is the zonotope center + G xi:
    reach_lti over t_f = step_h = 1 on the static system A = 0, B = 0,
    C = [G | center] of g + 1 states from Zonotope(e_(g+1), [I_g; 0]), with a
    zero input box.  Its ball is 0 and its generators are G beside zero
    columns."""
    center, G = np.asarray(center, dtype=float), np.asarray(G, dtype=float)
    g = G.shape[1]
    sys_ = rs.LtiSystem(np.zeros((g + 1, g + 1)), np.zeros((g + 1, 1)),
                        np.hstack([G, center[:, None]]))
    x0 = Zonotope(np.eye(g + 1)[g], np.eye(g + 1)[:, :g])
    return reach_lti(sys_, x0, rs.HyperBox([0.0], [0.0]), 1.0, 1.0)


class TestCheckSpec:
    def _steps(self, center, rad):
        return static_sets(center, np.diag(rad))

    def test_static_sets_hold_the_zonotope(self, rng):
        center, G = rng.standard_normal(3), rng.standard_normal((3, 4))
        sets = static_sets(center, G)
        assert len(sets) == 1 and np.all(sets.balls == 0.0)
        z = sets[0].outputs
        np.testing.assert_array_equal(z.center, center)
        nonzero = z.generators[:, np.any(z.generators != 0.0, axis=0)]
        np.testing.assert_array_equal(nonzero, G)

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


def search(sys_, x0, u_box, specs, t_f, h=None, init_map=None):
    """The witness search on the step sets reach_lti returns for the same
    system, initial set (init_map x0) and grid."""
    init = x0 if init_map is None else image_zonotope(init_map, x0)
    sets = reach_lti(sys_, init, u_box, t_f, h)
    return find_unsafe_witness(sys_, x0, u_box, specs, sets, init_map=init_map)


class TestWitness:
    def test_immediate_witness_at_t0(self):
        # the initial output already violates the grown safe interval
        sys_ = rs.LtiSystem([[-1.0]], [[0.0]], [[1.0]])
        spec = rs.PolytopeSpec([[1.0]], [-0.5], POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.1]))
        box = rs.HyperBox([2.0], [2.0])
        w = search(sys_, box, rs.HyperBox([0.0], [0.0]), ts, 1.0)
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
        assert search(sys_, box, ubox, ts, 2.0) is None

    def test_witness_revalidated_on_finer_grid(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 1, 1)
        box = rand_box(rng, 3, 3, center=(0.5, 1.0))
        ubox = rand_ubox(rng, 1)
        # huge forbidden halfspace so a witness certainly exists
        spec = rs.PolytopeSpec([[1.0]], [10.0], POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.01]))
        w = search(sys_, box, ubox, ts, 1.0)
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
# Batched simulation and batched witness margins against their
# one-at-a-time references, and the search's candidates replayed.
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


def first_y0_spec(threshold):
    """Safe region y_0 <= threshold, untransformed: margin = y_0 - threshold."""
    spec = rs.PolytopeSpec([[1.0, 0.0]], [-threshold], POLARITY_SAFE)
    return transform_spec(spec, np.zeros(2))


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


def four_spec_kinds(rng, p, delta_max=0.1):
    """One transformed spec per kind: polytope and ellipsoid, each with safe
    and unsafe polarity, plus an unsafe ellipsoid with an empty witness
    region, its radius half the radius margin of Q at delta; each entry of
    delta is drawn below ``delta_max``."""
    Q = rng.standard_normal((p, p))
    Q = Q @ Q.T + np.eye(p)
    Gamma = rng.standard_normal((3, p))
    delta = rng.uniform(0.0, delta_max, p)
    specs = [rs.PolytopeSpec(Gamma, rng.uniform(-2, -0.5, 3), POLARITY_SAFE),
             rs.PolytopeSpec(Gamma, rng.uniform(-0.5, 1.0, 3), POLARITY_UNSAFE),
             rs.EllipsoidSpec(Q, rng.uniform(-0.5, 0.5, p), 1.5, POLARITY_SAFE),
             rs.EllipsoidSpec(Q, rng.uniform(-1.5, 1.5, p), 0.7, POLARITY_UNSAFE)]
    specs.append(rs.EllipsoidSpec(Q, np.zeros(p), 0.5 * ellipsoid_margin(specs[2], delta)[0],
                                  POLARITY_UNSAFE))
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


def assert_bit_identical(w, ref):
    if ref is None:
        assert w is None
        return
    assert np.array_equal(w.init_state, ref.init_state)
    assert np.array_equal(w.step_inputs, ref.step_inputs)
    assert (w.sample_index, w.predicate_index, w.margin) == \
        (ref.sample_index, ref.predicate_index, ref.margin)


def assert_replays(w, sys_, x0, specs, t_f, init_map=None):
    """The witness starts at a vertex of x0 and, re-simulated at a tenth of
    its step, meets its predicate with the margin it reports, at least half
    of 1e-9 of the predicate's witness scale."""
    specs = [specs] if isinstance(specs, rs.TransformedSpec) else list(specs)
    ts = specs[w.predicate_index]
    gap = np.minimum(np.abs(w.init_state - x0.lb), np.abs(w.init_state - x0.ub))
    assert np.all(gap <= 1e-12 * (np.abs(x0.center) + 1.0))
    steps = w.step_inputs.shape[0]
    lifted = w.init_state if init_map is None else init_map @ w.init_state
    traj = simulate(sys_, lifted, np.repeat(w.step_inputs, 10, axis=0), t_f, t_f / (10 * steps))
    margins = np.array([naive_margin(ts, y) for y in traj.outputs])
    assert w.margin == pytest.approx(margins.max(), rel=1e-9, abs=1e-12)
    assert margins[w.sample_index] >= 0.5e-9 * ts.witness_scale


def counting_simulate(monkeypatch):
    """Make reach's simulate record the batch width of every call (0 for one
    state)."""
    calls = []

    def counting(sys_, x0, *args, **kwargs):
        calls.append(np.shape(x0)[1] if np.ndim(x0) == 2 else 0)
        return simulate(sys_, x0, *args, **kwargs)

    monkeypatch.setattr(reach, "simulate", counting)
    return calls


class TestBatchedWitness:
    def test_spec_kinds_and_polarities(self, rng, monkeypatch):
        # each kind of predicate, and a family of all five, is decided by its
        # one candidate: one simulate call of one candidate per predicate
        # with a witness region, a witness that replays, and a second call
        # that returns it bit for bit; each kind finds a witness in some
        # draws and none in others
        found = {}
        for trial in range(10):
            sys_ = rs.random_stable_system(rng, 3, 2, 2)
            x0, ubox = rand_box(rng, 3, 2), rand_ubox(rng, 2)
            specs = four_spec_kinds(rng, 2)
            sets = reach_lti(sys_, x0, ubox, 1.0)
            for kind, ts in list(enumerate(specs)) + [("family", specs)]:
                calls = counting_simulate(monkeypatch)
                w = find_unsafe_witness(sys_, x0, ubox, ts, sets)
                monkeypatch.undo()
                assert calls[:1] == ([] if kind == 4 else [4] if kind == "family" else [1])
                if w is not None:
                    assert_replays(w, sys_, x0, ts, 1.0)
                assert_bit_identical(find_unsafe_witness(sys_, x0, ubox, ts, sets), w)
                found.setdefault(kind, set()).add(w is not None)
        assert found[4] == {False}
        for kind in range(4):
            assert found[kind] == {True, False}, kind

    def test_failed_revalidation(self, rng, monkeypatch):
        # a fine re-simulation that lowers y_0 by ``drop`` makes a coarse hit
        # miss the fine bar: the candidate crosses y_0 <= threshold by 2 on
        # the grid, so a drop of 3 leaves no witness and a drop of 1 leaves
        # one; in a family, the next predicate the candidate crosses is
        # taken when the first fails
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3, 3), rand_ubox(rng, 2)
        sets = reach_lti(sys_, x0, ubox, 1.0)
        top = float(sets.sample_supports(np.array([[1.0, 0.0]])).max())
        coarse_h, exact = reach.default_step(1.0, sys_.A), reach.simulate

        def search_lowered(specs, drop):
            def lowered(sys_, x, u, t_f, h=None):
                traj = exact(sys_, x, u, t_f, h)
                if h is None or h > coarse_h / 2:
                    return traj
                return reach.Trajectory(traj.times, traj.outputs - np.array([drop, 0.0]))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reach, "simulate", lowered)
                return find_unsafe_witness(sys_, x0, ubox, specs, sets)

        assert search_lowered(first_y0_spec(top - 2.0), 3.0) is None
        w = search_lowered(first_y0_spec(top - 2.0), 1.0)
        assert w is not None and w.margin == pytest.approx(1.0, abs=0.1)
        w = search_lowered([first_y0_spec(top - 2.0), first_y0_spec(top - 10.0)], 3.0)
        assert w is not None and w.predicate_index == 1

    def test_single_step_horizon(self, rng):
        # with one step the plan is one input row; the search finds a
        # witness exactly when some box vertex under some constant input
        # vertex crosses on the two grid samples
        found = set()
        for seed in range(8):
            sys_ = rs.random_stable_system(rng, 3, 2, 2)
            x0, ubox = rand_box(rng, 3, 3), rand_ubox(rng, 2)
            sets = reach_lti(sys_, x0, ubox, 1.0, 1.0)
            ts = crossing_spec(np.random.default_rng(seed), sets)
            w = find_unsafe_witness(sys_, x0, ubox, ts, sets)
            assert (w is not None) == grid_crosses(sys_, x0, ubox, ts, 1.0, 1.0, np.eye(3))
            if w is not None:
                assert w.step_inputs.shape == (1, 2)
                assert_replays(w, sys_, x0, ts, 1.0)
            found.add(w is not None)
        assert found == {True, False}


# --------------------------------------------------------------------------
# check_spec's shared polytope spread against a per-region reference.
# --------------------------------------------------------------------------

def naive_check_polytope(steps, ts, events):
    """Verdict of step sets against a polytope TransformedSpec, each region's
    row bounds computed on their own: MaybeUnsafe when some step that fails
    its check is not certified clear of the witness region by the same row
    test.  Counts failing steps and failing steps left uncleared in
    ``events``."""
    def rows(z, spec, sign):
        spread = np.sum(np.abs(spec.Gamma @ z.generators), axis=1)
        return spec.Gamma @ z.center + sign * spread + spec.Psi

    all_ok, hit = True, False
    for step in steps:
        z = step.outputs
        if ts.source_polarity == POLARITY_SAFE:
            if np.all(rows(z, ts.safe_region, 1.0) <= 0.0):
                continue
            uncleared = np.any(rows(z, ts.witness_region, 1.0) > 0.0)
        elif not np.any(rows(z, ts.unsafe_region, -1.0) > 0.0):
            uncleared = not np.any(rows(z, ts.witness_region, -1.0) > 0.0)
        else:
            continue
        events["uncontained"] += 1
        all_ok = False
        if uncleared:
            events["uncleared"] += 1
            hit = True
    return SAFE if all_ok else (MAYBE_UNSAFE if hit else INDETERMINATE)


class TestSharedSpread:
    def test_matches_per_region_reference(self, rng):
        # reach's step sets of random systems on one to eight steps, against
        # a spec of random rows with offsets drawn across their row range
        events = {"uncontained": 0, "uncleared": 0}
        verdicts = set()
        for trial in range(60):
            n, m, p, r = (int(v) for v in rng.integers(1, [5, 3, 4, 5]))
            sys_ = rs.random_stable_system(rng, n, m, p)
            sets = reach_lti(sys_, rand_box(rng, n, int(rng.integers(0, n + 1))),
                             rand_ubox(rng, m), 1.0, 1.0 / int(rng.integers(1, 9)))
            steps = list(sets)
            Gamma = rng.standard_normal((r, p))
            rows = [(Gamma @ s.outputs.center, row_spread(s.outputs, Gamma)) for s in steps]
            hi = np.max([c + w for c, w in rows], axis=0)
            lo = np.min([c - w for c, w in rows], axis=0)
            polarity = (POLARITY_SAFE, POLARITY_UNSAFE)[trial % 2]
            spec = rs.PolytopeSpec(Gamma, -(lo + rng.uniform(-0.3, 1.3, r) * (hi - lo)), polarity)
            ts = transform_spec(spec, rng.uniform(0.0, 0.5, p) * np.max(hi - lo))
            expected = naive_check_polytope(steps, ts, events)
            assert check_spec(sets, ts) == expected
            verdicts.add(expected)
        assert verdicts == {SAFE, MAYBE_UNSAFE, INDETERMINATE}
        assert events["uncontained"] > events["uncleared"] > 0

    def test_regions_with_different_rows(self, rng):
        # a hand-built spec whose unsafe rows differ from its safe rows gets
        # its own spread per region
        safe = rs.PolytopeSpec([[1.0, 0.0]], [-1.0], POLARITY_SAFE)
        unsafe = rs.PolytopeSpec([[0.0, 1.0]], [-1.0], POLARITY_UNSAFE)
        ts = rs.TransformedSpec(source=safe, safe_region=safe, unsafe_region=unsafe,
                                witness_region=unsafe, delta_used=np.zeros(2),
                                Delta=np.zeros(1))
        sets = static_sets([2.0, 0.0], 0.1 * np.eye(2))   # outside safe, y1 < 1
        assert check_spec(sets, ts) == naive_check_polytope(
            list(sets), ts, {"uncontained": 0, "uncleared": 0}) == INDETERMINATE


# --------------------------------------------------------------------------
# Polytope checks from reach's age table against assembled step sets.

from hypothesis import given, strategies as st  # noqa: E402

from redsafe import verifier  # noqa: E402
from redsafe.balancing import box_image, image_zonotope  # noqa: E402


def assert_table_spreads(sets, Gamma):
    """Each step's row spread as check_spec reads it (from the age table for
    its rows) equals sum |Gamma G| over its assembled generators within
    1e-12 of their scale."""
    spreads = sets.row_spreads(Gamma)
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
        events = {"uncontained": 0, "uncleared": 0}
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
        generators, reach_fn = reach.ReachSets.generators, verifier.reach_lti

        def counting_generators(self, j):
            assembled.append(j)
            return generators(self, j)

        def counting_reach(*args, **kwargs):
            steps = reach_fn(*args, **kwargs)
            reached.append(len(steps))
            return steps

        monkeypatch.setattr(reach.ReachSets, "generators", counting_generators)
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
    assert_balls_bracketed(steps, sys_, x0, ubox)


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
        Gc_e, spread_e = exact.centers @ Gamma.T, exact.row_spreads(Gamma)
        Gc_h, spread_h = hull.centers @ Gamma.T, hull.row_spreads(Gamma)
        scale = np.abs(Gc_h) + spread_h
        assert np.all(np.abs(Gc_e - Gc_h) + spread_e <= spread_h + 1e-12 * scale)
        assert np.all(exact.balls <= hull.balls + 1e-12 * np.max(scale, initial=0.0))
        assert_same_sets(exact, naive_reach(sys_, image_zonotope(L, box), ubox, t_f,
                                            t_f / len(exact)), np.random.default_rng(0))
        assert_balls_bracketed(exact, sys_, image_zonotope(L, box), ubox)

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
        Gc, spread = sets.centers @ Gamma.T, sets.row_spreads(Gamma)
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
        # g0 <= min(f, k) initial generators: a sample holds 1 + g0 + m
        # columns, and step j's hull 1 + 2 g0 of them beside its inputs
        bal = rs.balance(rs.random_stable_system(rng, 6, 2, 2))
        abstraction = rs.truncate(bal, 3, rand_box(rng, 6, f))
        sets = reach_lti(abstraction.reduced, abstraction.x0_zonotope, rand_ubox(rng, 2),
                         1.0, 0.05)
        g0 = min(f, 3)
        assert sets.g0 == g0 and sets.Y.shape[2] == 1 + g0 + 2
        for j in (0, len(sets) - 1):
            assert sets[j].outputs.order == 1 + 2 * g0 + 2 * (j + 1) * 2 + 2


# --------------------------------------------------------------------------
# Ellipsoid checks from reach's age table against assembled step sets.

def random_ellipsoid(rng, p, a, R=1.0):
    """Unsafe-region ellipsoid centered at a with a random positive definite Q."""
    A = rng.standard_normal((p, p))
    return rs.EllipsoidSpec(A @ A.T + np.eye(p), a, R, POLARITY_UNSAFE)


def table_quad_bounds(sets, ell):
    """Per step, the lower and upper bounds on (y-a)^T Q (y-a) that
    reach._certified tests, from the age table's spreads s along the rows
    of E and d = |E (c - a)|: max(d - s, 0)^2 @ lambda and (d + s)^2 @ lambda."""
    lam, E = ell.axes
    d, s = np.abs((sets.centers - ell.a) @ E.T), sets.row_spreads(E)
    return np.maximum(d - s, 0.0) ** 2 @ lam, (d + s) ** 2 @ lam


def naive_check_ellipsoid(steps, ts):
    """check_spec against one unsafe-polarity ellipsoid, one step at a time
    on assembled generators: MaybeUnsafe when some failing step's lower
    bound does not clear the witness region (the shrunk ellipsoid)."""
    ell, R2, wit = ts.unsafe_region, ts.unsafe_region.R ** 2, ts.witness_region
    failed = [s.outputs for s in steps if not quad_bounds(s.outputs, ell)[0] > R2]
    if not failed:
        return SAFE
    hit = wit is not None and any(not quad_bounds(z, wit)[0] > wit.R ** 2 for z in failed)
    return MAYBE_UNSAFE if hit else INDETERMINATE


def naive_check_safe_ellipsoid(steps, ts):
    """check_spec against one safe-polarity ellipsoid, one step at a time on
    assembled generators: MaybeUnsafe when some step whose upper bound
    exceeds the shrunk radius also exceeds the grown one (the witness
    region's)."""
    def inside(reg):
        return [reg is not None and quad_bounds(s.outputs, reg)[1] <= reg.R ** 2
                for s in steps]
    ok, clear = inside(ts.safe_region), inside(ts.witness_region)
    if all(ok):
        return SAFE
    return INDETERMINATE if all(o or c for o, c in zip(ok, clear)) else MAYBE_UNSAFE


@given(table_cases(), st.integers(0, 2**32 - 1))
def test_table_quad_lower_matches_assembled_generators(case, seed):
    # both bounds from the table's spreads match the assembled generators',
    # and reach's tests decide by them at radii on and around each
    sys_, x0, ubox, t_f, step_h, _ = case
    rng = np.random.default_rng(seed)
    sets = reach_lti(sys_, x0, ubox, t_f, step_h)
    zs = [s.outputs for s in sets]
    ell = random_ellipsoid(rng, sys_.p, zs[int(rng.integers(len(zs)))].center
                           + rng.uniform(-2.0, 2.0, sys_.p))
    lows, highs = table_quad_bounds(sets, ell)
    for z, low, high in zip(zs, lows, highs):
        ref_low, ref_high = quad_bounds(z, ell)
        # the upper bound is the scale of the rounding in both
        assert low == pytest.approx(ref_low, rel=1e-12, abs=1e-12 * high)
        assert high == pytest.approx(ref_high, rel=1e-12)
    j = int(rng.integers(len(zs)))
    for R2 in (lows[j], np.median(lows), highs[j], np.median(highs)):
        if R2 > 0:
            for polarity, inside in ((POLARITY_UNSAFE, False), (POLARITY_SAFE, True)):
                reg = rs.EllipsoidSpec(ell.Q, ell.a, np.sqrt(R2), polarity)
                expected = highs <= reg.R ** 2 if inside else lows > reg.R ** 2
                np.testing.assert_array_equal(reach._certified(sets, reg, inside), expected)


@given(table_cases(), st.integers(0, 2**32 - 1))
def test_trajectories_stay_between_the_quad_bounds(case, seed):
    # box vertices under bang-bang plans switching every sub-step or every
    # step and under random plans, simulated at a tenth of reach's step:
    # every output's (y-a)^T Q (y-a) lies between the lower and the upper
    # bound of its step, for a random positive definite Q
    sys_, x0, ubox, t_f, step_h, _ = case
    rng = np.random.default_rng(seed)
    sets = reach_lti(sys_, x0, ubox, t_f, step_h)
    steps, fine = len(sets), 10 * len(sets)
    ell = random_ellipsoid(rng, sys_.p, sets.centers[int(rng.integers(steps))]
                           + rng.uniform(-2.0, 2.0, sys_.p))
    lows, highs = table_quad_bounds(sets, ell)
    X = np.repeat(x0.vertices(), 3, axis=1)
    draws = rng.random((fine, sys_.m, X.shape[1]))
    draws[:, :, 0::3] = np.round(draws[:, :, 0::3])
    draws[:, :, 1::3] = np.round(np.repeat(draws[::10, :, 1::3], 10, axis=0))
    plans = ubox.lb[:, None] + (ubox.ub - ubox.lb)[:, None] * draws
    D = np.swapaxes(simulate(sys_, X, plans, t_f, t_f / fine).outputs, 1, 2) - ell.a
    quads = np.einsum("sbi,ij,sbj->sb", D, ell.Q, D)
    # sample i of the fine grid lies in step i // 10, the last in the last step
    j = np.minimum(np.arange(fine + 1) // 10, steps - 1)
    tol = 1e-9 * highs[j, None]
    assert np.all(lows[j, None] - tol <= quads) and np.all(quads <= highs[j, None] + tol)


class TestTableEllipsoid:
    def test_check_spec_matches_assembled_reference(self, rng):
        verdicts = set()
        for sys_, x0, ubox, t_f, step_h in reach_cases(rng):
            ref = naive_reach(sys_, x0, ubox, t_f, step_h)
            p = sys_.p
            for _ in range(3):
                ell = random_ellipsoid(rng, p, ref[int(rng.integers(len(ref)))].outputs.center
                                       + rng.uniform(-0.5, 0.5, p))
                lows = [quad_bounds(s.outputs, ell)[0] for s in ref]
                hi = max(quad_bounds(s.outputs, ell)[1] for s in ref)
                # at R^2 = min(lows) every failing step clears the shrunk
                # ellipsoid: Indeterminate
                for R2 in (0.5 * min(lows), min(lows),
                           min(lows) + 0.5 * (max(lows) - min(lows)), max(lows) + 0.1 * hi,
                           2.0 * hi):
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

    def test_safe_region_assembles_no_step_set(self, rng, monkeypatch):
        # a safe-region ellipsoid reads the table's spreads too: with the
        # generator arrays refused, it decides as the assembled reference
        # does, every verdict among them
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3), rand_ubox(rng, 2)
        ref = list(reach_lti(sys_, x0, ubox, 1.0, 0.02))
        ell = random_ellipsoid(rng, 2, ref[0].outputs.center)
        highs = [quad_bounds(s.outputs, ell)[1] for s in ref]

        def refuse(self, j):
            raise AssertionError(f"step {j} assembled")

        monkeypatch.setattr(reach.ReachSets, "generators", refuse)
        sets = reach_lti(sys_, x0, ubox, 1.0, 0.02)
        verdicts = set()
        for R2 in (0.5 * min(highs), float(np.median(highs)), 1.01 * max(highs)):
            spec = rs.EllipsoidSpec(ell.Q, ell.a, np.sqrt(R2), POLARITY_SAFE)
            for scale in (0.0, 0.2):
                ts = transform_spec(spec, np.full(2, scale * np.sqrt(R2)))
                verdict = check_spec(sets, ts)
                assert verdict == naive_check_safe_ellipsoid(ref, ts)
                verdicts.add(verdict)
        assert verdicts == {SAFE, MAYBE_UNSAFE, INDETERMINATE}


class TestBatchedSteps:
    """reach_lti's per-step arrays, column by column, against naive_reach's
    per-step enclosures; every step, the last one too, is a row of the
    table."""

    def test_steps_match_per_step_reference(self, rng):
        for sys_, x0, ubox, t_f, step_h in reach_cases(rng):
            sets = reach_lti(sys_, x0, ubox, t_f, step_h)
            ref = naive_reach(sys_, x0, ubox, t_f, step_h)
            assert [(s.t0, s.t1) for s in sets] == [(r.t0, r.t1) for r in ref]
            p, g0 = sys_.p, Zonotope.from_box(x0).order
            C_rows = np.linalg.norm(sys_.C, axis=1)
            Gamma = rng.standard_normal((3, p))
            spreads = sets.row_spreads(Gamma)
            for j, (s, r) in enumerate(zip(sets, ref)):
                z, G = s.outputs, r.outputs.generators
                scale = np.max(np.abs(G))
                close = dict(rtol=0, atol=1e-12 * scale)
                np.testing.assert_allclose(z.center, r.outputs.center, rtol=0,
                                           atol=1e-12 * np.max(np.abs(r.outputs.center)))
                np.testing.assert_allclose(z.generators, G, **close)
                np.testing.assert_allclose(spreads[j], np.sum(np.abs(Gamma @ G), axis=1),
                                           rtol=1e-12, atol=1e-12 * scale * np.abs(Gamma).sum())
                # the reference's columns from samples j and j + 1: the
                # center gap, the initial pairs, and each input column of
                # age a paired with its age a - 1 (the newest with 0),
                # oldest first
                hull = (G.shape[1] - 1 - p) // 2
                x, x2 = sets.Y[j], sets.Y[j + 1]
                later = sets.Y[:j + 1, :, 1 + g0:][::-1]
                earlier = np.concatenate([later[1:], np.zeros_like(later[:1])])
                inputs = np.hstack([((earlier + later) / 2.0).transpose(1, 0, 2).reshape(p, -1),
                                    ((earlier - later) / 2.0).transpose(1, 0, 2).reshape(p, -1)])
                np.testing.assert_allclose((x[:, 0] - x2[:, 0]) / 2.0, G[:, 0], **close)
                np.testing.assert_allclose((x[:, 1:1 + g0] + x2[:, 1:1 + g0]) / 2.0,
                                           G[:, 1:1 + g0], **close)
                np.testing.assert_allclose((x[:, 1:1 + g0] - x2[:, 1:1 + g0]) / 2.0,
                                           G[:, 1 + hull:1 + hull + g0], **close)
                np.testing.assert_allclose(
                    inputs, G[:, np.r_[1 + g0:1 + hull, 1 + hull + g0:1 + 2 * hull]], **close)
                np.testing.assert_allclose(sets.balls[j] * C_rows, np.diag(G[:, -p:]), **close)
            assert_balls_bracketed(sets, sys_, x0, ubox)

    def test_shared_table_is_read_only(self, rng):
        # a step set's center, the step sets' samples, centers and spreads are
        # shared by every read of the result; changing one in place must
        # fail, not alter the rest
        sys_, x0, ubox, t_f, step_h = next(iter(reach_cases(rng)))
        sets = reach_lti(sys_, x0, ubox, t_f, step_h)
        z = sets[0].outputs
        for view in (z.center, sets.Y, sets.Y[0], sets.centers,
                     sets.row_spreads(np.eye(sys_.p))):
            with pytest.raises(ValueError, match="read-only"):
                view *= 2.0
        z.generators[...] = 0.0  # the assembled array is the step's own
        assert np.any(sets[0].outputs.generators != 0.0)


def assert_witness_on_reach_grid(sys_, x0, ubox, sets):
    """The witness search's one coarse simulation samples reach's grid bit
    for bit, and its witness of a spec that every trajectory leaves holds
    one input row per reach step."""
    grids = []

    def recording(*args, **kwargs):
        traj = simulate(*args, **kwargs)
        grids.append(traj.times)
        return traj

    everywhere = transform_spec(rs.PolytopeSpec([[1.0]], [1e3], POLARITY_SAFE), np.zeros(1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reach, "simulate", recording)
        w = find_unsafe_witness(sys_, x0, ubox, everywhere, sets)
    np.testing.assert_array_equal(grids[0], np.r_[sets.t0[0], sets.t1])
    assert w.step_inputs.shape == (len(sets), 1)


class TestReachSets:
    """The result of reach_lti as a sequence of steps, and check_spec on it
    against its rule written out on its explicit zonotopes."""

    def test_sequence_matches_naive_reach(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3), rand_ubox(rng, 2)
        # a horizon on the grid of step_h, one off it and one below a step:
        # every step is a row of the table, t_f / count long
        for t_f, step_h, count in ((0.9, 0.3, 3), (1.0, 0.3, 4), (0.2, 0.3, 1)):
            sets = reach_lti(sys_, x0, ubox, t_f, step_h)
            ref = naive_reach(sys_, x0, ubox, t_f, t_f / count)
            assert isinstance(sets, rs.ReachSets)
            assert len(sets) == len(sets.balls) == len(ref) == count
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
        assert len(sets) == len(sets.balls) == steps
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

    def test_no_step_sets_are_refused(self):
        # a verdict over no step sets says nothing; check_spec once called
        # them Safe
        for spec in (rs.PolytopeSpec([[1.0, 0.0]], [-1.0], POLARITY_SAFE),
                     rs.EllipsoidSpec(np.eye(2), np.zeros(2), 1.0, POLARITY_UNSAFE)):
            with pytest.raises(rs.ModelError, match="ReachSets, got list$"):
                check_spec([], transform_spec(spec, np.zeros(2)))

    def test_check_spec_refuses_steps_not_from_reach(self, rng):
        # step sets are reach_lti's table: a list of its assembled steps and
        # a slice of it, which indexing returns as a list, are refused by
        # what they are
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        sets = reach_lti(sys_, rand_box(rng, 3), rand_ubox(rng, 2), 1.0, 0.1)
        ts = transform_spec(rs.PolytopeSpec([[1.0, 0.0]], [-1.0], POLARITY_SAFE), np.zeros(2))
        for steps in (list(sets), sets[:2], tuple(sets)):
            with pytest.raises(rs.ModelError, match=f"got {type(steps).__name__}$"):
                check_spec(steps, ts)

    def test_no_predicates_are_refused(self, rng):
        # a verdict over no predicates says nothing; check_spec once called
        # it Safe
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        sets = reach_lti(sys_, rand_box(rng, 3), rand_ubox(rng, 2), 1.0, 0.1)
        for family in ([], ()):
            with pytest.raises(rs.ModelError, match="^no predicates to check$"):
                check_spec(sets, family)

    @given(st.floats(1e-3, 1.0), st.integers(1, 500),
           st.sampled_from(["below", "on", "off"]), st.floats(0.01, 0.99))
    def test_simulate_and_witness_share_the_reach_grid(self, step_h, count, kind, short):
        # t_f below one step, on the grid of step_h up to rounding, and off
        # it: simulate samples reach's grid bit for bit, with the outputs of
        # a per-step loop at t_f / N, and the witness search reads that grid
        # from the step sets: its coarse samples are reach's, with one input
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
        assert_witness_on_reach_grid(sys_, x0, ubox, sets)

    @pytest.mark.parametrize("t_f, step_h, steps", [(1.0, 0.03, 34),
                                                     (0.3, 0.3 / 18143.5, 18144)],
                             ids=["off-grid", "past-rounding"])
    def test_witness_steps_on_the_reach_grid(self, t_f, step_h, steps):
        # off the grid of 0.03, and 18,144 steps over 0.3, where a step of
        # t_f / N gave simulate N + 1 steps under an absolute allowance
        sys_ = rs.LtiSystem([[-1.0, 0.5], [0.0, -2.0]], [[1.0], [0.5]], [[1.0, 1.0]])
        x0, ubox = rs.HyperBox([0.0, 0.0], [0.1, 0.1]), rs.HyperBox([-0.1], [0.1])
        sets = reach_lti(sys_, x0, ubox, t_f, step_h)
        assert len(sets) == steps
        assert_witness_on_reach_grid(sys_, x0, ubox, sets)

    @pytest.mark.parametrize("t_f", [0.1, 0.15, 0.3, 1.0, 2.0, 3.3, 4.7, 5.0])
    def test_step_of_t_f_over_n_gives_n_steps(self, t_f):
        # every N below 60,000 and every 10 N: an allowance of 1e-12 of a
        # step, not of the horizon, once gave N + 1 on 41,878 of these grids
        N = np.arange(1, 60_000)
        for count in (N, 10 * N):
            np.testing.assert_array_equal(reach._step_count(t_f, t_f / count), count)
        # and a tenth of t_f / N, the witness search's old revalidation step
        for count in (1, 817, 5999):
            assert reach._time_grid(t_f, t_f / count / 10, None, "h").size == 10 * count + 1

    def test_witness_revalidates_on_ten_sub_steps_per_reach_step(self):
        # 817 reach steps over t_f = 1, where a tenth of t_f / N once gave
        # 8,171 sub-steps: the revalidation takes exactly 10 N, and plan row
        # i drives sub-steps 10 i ... 10 i + 9 of a per-step replay
        sys_ = rs.LtiSystem([[-0.5, 20.0], [-20.0, -0.5]], [[1.0], [0.0]], [[1.0, 0.0]])
        x0, ubox, t_f = rs.HyperBox([0.0, 0.0], [0.0, 0.0]), rs.HyperBox([-1.0], [1.0]), 1.0
        sets = reach_lti(sys_, x0, ubox, t_f, t_f / 817)
        top = float(sets.sample_supports(np.array([[1.0]])).max())
        spec = rs.PolytopeSpec([[1.0]], [-top / 2], POLARITY_SAFE)
        w = find_unsafe_witness(sys_, x0, ubox, transform_spec(spec, np.zeros(1)), sets)
        assert len(sets) == 817 and w is not None
        np.testing.assert_array_equal(w.times, np.linspace(0.0, t_f, 8171))
        assert w.step_inputs.shape == (817, 1) and np.unique(w.step_inputs).size == 2
        ref, _ = stepwise(sys_, x0.center, w.step_inputs[np.arange(8170) // 10], t_f, t_f / 8170)
        np.testing.assert_allclose(w.outputs, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_check_spec_matches_explicit_steps(self, rng):
        # check_spec on reach's table against its rule written out on the
        # explicit zonotopes of list(sets), per predicate kind and polarity
        verdicts = set()
        for sys_, x0, ubox, t_f, step_h in reach_cases(rng):
            sets = reach_lti(sys_, x0, ubox, t_f, step_h)
            steps, p = list(sets), sys_.p
            specs = list(polytope_specs(rng, steps, p))
            for _ in range(2):
                ell = random_ellipsoid(rng, p, steps[int(rng.integers(len(steps)))].outputs.center)
                lows = [quad_bounds(s.outputs, ell)[0] for s in steps]
                # radii just above the closest step's bound and around the
                # median decide on the spreads of single steps
                for R2 in (0.5 * min(lows), (1 + 1e-6) * min(lows), float(np.median(lows)),
                           max(lows) + 0.1, 4.0 * max(lows) + 1.0):
                    if R2 > 0:
                        for polarity in (POLARITY_SAFE, POLARITY_UNSAFE):
                            spec = rs.EllipsoidSpec(ell.Q, ell.a, np.sqrt(R2), polarity)
                            specs.append(transform_spec(spec, np.zeros(p)))
            for ts in specs:
                if isinstance(ts.source, rs.PolytopeSpec):
                    expected = naive_check_polytope(steps, ts, collections.Counter())
                elif ts.source_polarity == POLARITY_UNSAFE:
                    expected = naive_check_ellipsoid(steps, ts)
                else:
                    expected = naive_check_safe_ellipsoid(steps, ts)
                assert check_spec(sets, ts) == expected
                verdicts.add((type(ts.source).__name__, ts.source_polarity, expected))
        assert {v for *_, v in verdicts} == {SAFE, MAYBE_UNSAFE, INDETERMINATE}
        assert {kind for kind, *_ in verdicts} == {"PolytopeSpec", "EllipsoidSpec"}
        assert {pol for _, pol, _ in verdicts} == {POLARITY_SAFE, POLARITY_UNSAFE}


class TestOutputDimsRefused:
    """Output dims that do not match are refused by name with ModelError,
    not left to fail in a matrix product or a broadcast."""

    @pytest.mark.parametrize("kind", ["polytope", "ellipsoid"])
    def test_check_spec_on_another_p(self, rng, kind):
        sys_ = rs.random_stable_system(rng, 3, 1, 2)
        sets = reach_lti(sys_, rand_box(rng, 3), rand_ubox(rng, 1), 1.0, 0.1)
        spec = (rs.PolytopeSpec(np.ones((1, 3)), [-1.0], POLARITY_SAFE) if kind == "polytope"
                else rs.EllipsoidSpec(np.eye(3), np.zeros(3), 1.0, POLARITY_UNSAFE))
        ts = transform_spec(spec, np.zeros(3))
        with pytest.raises(rs.ModelError, match="^spec has 3 outputs, the step sets 2$"):
            check_spec(sets, ts)

    def test_witness_spec_on_another_p(self, rng):
        sys_ = rs.random_stable_system(rng, 3, 1, 2)
        ts = transform_spec(rs.PolytopeSpec(np.ones((1, 1)), [-1.0], POLARITY_SAFE),
                            np.zeros(1))
        with pytest.raises(rs.ModelError, match="^spec has 1 outputs, the system 2$"):
            search(sys_, rand_box(rng, 3), rand_ubox(rng, 1), ts, 1.0)


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
    N = ceil(t_f / h) even steps of t_f / N that tile [0, t_f], with
    _time_grid's relative rounding allowance of 1e-12.  Returns
    (outputs, time of the first non-finite state or None); the outputs stop
    before that state."""
    x = np.asarray(x0, dtype=float)
    steps = max(1, math.ceil(t_f / h - 1e-12 * (t_f / h)))
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
        # blocks of SIM_BLOCK_MAX = 16 steps at every order; the fast mode
        # overflows inside the block of steps 128 to 143, which is taken
        # again step by step to name the state's time
        A = np.diag([50.0, -1.0, -2.0, -3.0])
        sys_ = rs.LtiSystem(A, np.ones((4, 1)), np.ones((1, 4)))
        for x0 in (np.eye(4)[0], np.stack([np.zeros(4), np.eye(4)[0]], axis=1)):
            _, t_bad = stepwise(sys_, x0, None, 20.0, 0.1)
            assert t_bad == pytest.approx(14.2)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(rs.ModelError, match=f"non-finite at t={t_bad:.6g}$"):
                simulate(sys_, x0, None, 20.0, 0.1)

    def test_overflowing_kernel_falls_back_to_steps(self):
        # Phi = e^200 is finite but Phi^16 in the block kernel is not: from
        # the origin with no input every state is 0, and the block taken
        # again step by step says so
        A = np.diag([2000.0, -1.0, -2.0, -3.0])
        sys_ = rs.LtiSystem(A, np.ones((4, 1)), np.ones((1, 4)))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(sys_, np.zeros(4), np.zeros(1), 2.0, 0.1)
        np.testing.assert_array_equal(traj.outputs, np.zeros((21, 1)))


# --------------------------------------------------------------------------
# reach_lti's orbit read in blocks of giant steps against one block, and
# against a per-state loop.

def assert_same_table(sets, ref, rng):
    assert len(sets) == len(ref)
    a, b = sets, ref
    for name in ("Y", "centers", "balls"):
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
    @pytest.mark.parametrize("columns", ["center", "initial", "inputs"])
    @pytest.mark.parametrize("off_grid", [False, True])
    def test_chunk_boundaries_match_one_chunk(self, rng, monkeypatch, columns, off_grid):
        # order 3: the one orbit of [c, G0, G_in; 1, 0, 0] (4 rows) holding
        # the center alone, the center and 1 initial generator, or both and
        # 2 input columns, read through [C, 0]: every state at 2 outputs,
        # every 4th at 1 output.  Blocks of one giant step and of three
        # (ORBIT_BLOCK_DOUBLES sized to hold them) against the whole horizon
        # in one block, over horizons that end just before, at and after a
        # block and a block later, on the grid of step_h and off it
        step_h = 0.1
        free, width = {"center": (0, 1), "initial": (1, 2), "inputs": (1, 4)}[columns]
        for p, stride in ((2, 1), (1, 4)):
            sys_ = rs.random_stable_system(rng, 3, 2, p)
            x0, ubox = rand_box(rng, 3, free), rand_ubox(rng, 2)
            if columns != "inputs":  # a zero-width input box drops every channel
                ubox = rs.HyperBox(ubox.lb, ubox.lb)
            assert orbit_stride(sys_) == stride
            for giants in (1, 3):
                block = giants * stride
                for steps in sorted({max(1, block - 1), block, block + 1, 2 * block + 1}):
                    t_f = step_h * (steps - (0.4 if off_grid else 0.0))
                    monkeypatch.setattr(reach, "ORBIT_BLOCK_DOUBLES", 1 << 30)
                    ref = reach_lti(sys_, x0, ubox, t_f, step_h)
                    monkeypatch.setattr(reach, "ORBIT_BLOCK_DOUBLES",
                                        giants * width * (4 + 2 * stride * p))
                    sets = reach_lti(sys_, x0, ubox, t_f, step_h)
                    assert sets.Y.shape == (steps + 1, p, width)
                    assert len(sets) == len(sets.balls) == steps
                    assert_same_table(sets, ref, rng)


@st.composite
def stride_cases(draw):
    """(system, x0, input box, t_f, step_h, steps) at orders up to 30 with
    p <= 3 outputs and n + 1 >= 4p, so that reach's orbit takes giant steps
    (s > 1): a contractive A (sym A negative definite) or one with
    lambda_max(sym A) > 0, and an input box with a nonzero center."""
    p, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(4 * p - 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    top = np.linalg.eigvalsh(G + G.T).max() / 2.0
    sign = 1.0 if draw(st.booleans()) else -1.0
    A = G - (top + sign * draw(st.floats(0.05, 1.0))) * np.eye(n)
    sys_ = rs.LtiSystem(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)))
    steps = draw(st.integers(1, 80))
    step_h = draw(st.floats(0.2, 1.0)) * reach.STEP_LH / np.linalg.norm(A, 2)
    return (sys_, rand_box(rng, n, draw(st.integers(0, n))), rand_ubox(rng, m),
            step_h * steps, step_h, steps)


@given(stride_cases())
def test_orbit_rule_bounds_every_state_norm(case):
    # reach's age table against a per-state loop at giant steps of s > 1:
    # its images within 1e-13 of the loop's, and every sample's state-norm
    # bound (the center with its drift, each initial generator and each
    # input column of the sample's age) at least the loop's exact norm,
    # contractive or not
    sys_, x0, ubox, t_f, step_h, steps = case
    assert orbit_stride(sys_) > 1 and np.all(ubox.center != 0)
    sets = reach_lti(sys_, x0, ubox, t_f, step_h)
    assert len(sets) == steps
    images, norms = naive_orbit(sys_, x0, ubox, t_f / steps, steps)
    assert np.max(np.abs(sets.Y - images)) <= 1e-13 * np.max(np.abs(images))
    assert np.all(sets.norms >= norms * (1 - 1e-13))
    # and never above the rule applied to the loop's exact norms, nor
    # above the simulation bounds' rule: e^{mu a h} times the giant
    # sample's, mu = max(lambda_max(sym A), 0) and ||Phi|| <= e^{mu h}, the
    # center's plus a e^{mu a h} ||PsiB u_c||
    h, stride = t_f / steps, orbit_stride(sys_)
    rule = rule_norms(sys_, ubox, h, norms, stride)
    assert np.all(sets.norms <= rule * (1 + 1e-13))
    A, a = sys_.A, np.arange(steps + 1) % stride
    growth = np.exp(max(np.linalg.eigvalsh((A + A.T) / 2.0).max(), 0.0) * a * h)
    limit = norms[np.arange(steps + 1) - a] * growth[:, None]
    limit[:, 0] += a * growth * np.linalg.norm(_transition(A, h, sys_.B)[1] @ ubox.center)
    assert np.all(sets.norms <= limit * (1 + 1e-13))


# --------------------------------------------------------------------------
# Memory: reach's orbits stay bounded.

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
    assert len(steps) == len(steps.balls) == 1000
    assert peak - kept < 0.5 * orbit
    assert peak < orbit


# --------------------------------------------------------------------------
# The witness search from the grid samples of reach's age table: supports,
# each predicate's one candidate, and a brute force over grid plans.

@st.composite
def certificate_cases(draw):
    """(system of order k, L, box, input box, t_f, step_h, seed): the order-k
    image L x0 of a box in n <= 6 dims with f free dims, f at most and above
    k, on one to 40 even steps, and in some draws an input channel of zero
    width."""
    n = draw(st.integers(1, 6))
    k, f = draw(st.integers(1, n)), draw(st.integers(0, n))
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sys_ = rs.random_stable_system(rng, k, m, p)
    ubox = rand_ubox(rng, m)
    if draw(st.booleans()):
        ubox = rs.HyperBox(ubox.lb, np.r_[ubox.lb[0], ubox.ub[1:]])
    t_f = draw(st.floats(0.3, 3.0))
    return (sys_, rng.standard_normal((k, n)), rand_box(rng, n, f), ubox, t_f,
            t_f / draw(st.integers(1, 40)), seed)


@st.composite
def exact_grid_cases(draw):
    """Like :func:`certificate_cases`, with n <= 4, f <= k free dims (so the
    initial set is exact), one or two inputs and one to 12 steps."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    f = draw(st.integers(0, k))
    m, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sys_ = rs.random_stable_system(rng, k, m, p)
    t_f = draw(st.floats(0.3, 3.0))
    return (sys_, rng.standard_normal((k, n)), rand_box(rng, n, f), rand_ubox(rng, m), t_f,
            t_f / draw(st.integers(1, 12)), seed)


def crossing_spec(rng, sets):
    """A safe-polarity polytope spec of three random rows whose bounds sit
    within 30% of their largest sample supports, all on one side: the
    supports reach the region in some draws and not in others."""
    p = sets.centers.shape[1]
    Gamma = rng.standard_normal((3, p))
    top = sets.sample_supports(Gamma).max(axis=0)
    Psi = -(top + rng.uniform(-0.3, 0.3) * (np.abs(top) + 1.0))
    return transform_spec(rs.PolytopeSpec(Gamma, Psi, POLARITY_SAFE), np.zeros(p))


def grid_margin(sys_, x0, u_box, ts, t_f, step_h, L):
    """The largest witness margin that a vertex of x0 meets at a grid sample
    under a grid plan that is constant at a vertex of u_box, or switches
    once from one vertex to another."""
    steps = int(np.ceil(t_f / step_h - 1e-12))
    verts = u_box.vertices()
    plans = [np.broadcast_to(v, (steps, u_box.dim)) for v in verts.T]
    for a, b in itertools.permutations(verts.T, 2):
        for s in range(1, steps):
            plans.append(np.vstack([np.broadcast_to(a, (s, u_box.dim)),
                                    np.broadcast_to(b, (steps - s, u_box.dim))]))
    X = x0.vertices()
    U = np.repeat(np.stack(plans, axis=2), X.shape[1], axis=2)
    Y = simulate(sys_, L @ np.tile(X, len(plans)), U, t_f, step_h).outputs
    return float(ts.witness_margins(np.swapaxes(Y, 1, 2)).max())


def grid_crosses(sys_, x0, u_box, ts, t_f, step_h, L):
    """Whether some grid plan of :func:`grid_margin` meets the witness
    predicate with margin > 1e-9 of its scale."""
    return grid_margin(sys_, x0, u_box, ts, t_f, step_h, L) > 1e-9 * ts.witness_scale


def supports_reach(ts, S):
    """Whether some sample support S of the witness region's rows reaches the
    region within 1e-9 of the largest of the support, |Psi| and the spec's
    witness scale."""
    Psi = ts.witness_region.Psi
    tol = 1e-9 * np.maximum(np.maximum(np.abs(S), np.abs(Psi)), ts.witness_scale)
    return bool(np.any(S + Psi > -tol))


class TestWitnessCertificate:
    @given(certificate_cases())
    def test_sample_supports_match_the_exact_samples(self, case):
        # per sample j, Gamma C (Phi^j c + sum_(i<j) Phi^(j-1-i) PsiB u_c)
        # plus the spreads of Phi^j G0 and of every age's Phi^a PsiB diag(u_r),
        # stepped one sample at a time
        sys_, L, box, ubox, t_f, step_h, seed = case
        z = image_zonotope(L, box)
        sets = reach_lti(sys_, z, ubox, t_f, step_h)
        Gamma = np.random.default_rng(seed).standard_normal((3, sys_.p))
        GC = Gamma @ sys_.C
        Phi, PsiB = _transition(sys_.A, t_f / len(sets), sys_.B)
        x, G, P, ages, ref = z.center, z.generators, np.eye(sys_.n), np.zeros(3), []
        for _ in range(len(sets) + 1):
            ref.append(GC @ x + np.sum(np.abs(GC @ G), axis=1) + ages)
            ages = ages + np.sum(np.abs(GC @ P @ PsiB * ubox.halfwidth), axis=1)
            x, G, P = Phi @ x + PsiB @ ubox.center, Phi @ G, Phi @ P
        np.testing.assert_allclose(sets.sample_supports(Gamma), ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())

    @given(certificate_cases())
    def test_trajectories_stay_below_the_sample_supports(self, case):
        # the optimal candidate, box vertices and samples under random and
        # bang-bang grid plans: every row value at every sample is at most
        # its support, none crosses when no support reaches the region, and
        # with f <= k the optimal candidate attains its support, and crosses
        # unless no support reaches the region
        sys_, L, box, ubox, t_f, step_h, seed = case
        rng = np.random.default_rng(seed)
        sets = reach_lti(sys_, image_zonotope(L, box), ubox, t_f, step_h)
        ts = crossing_spec(rng, sets)
        Gamma, steps = ts.witness_region.Gamma, len(sets)
        S = sets.sample_supports(Gamma)
        reaches = supports_reach(ts, S)
        X, plans, _, ((j, l, top, _),) = reach._candidates(sys_, box, ubox, [ts], sets, L)
        X = np.hstack([X, box.vertices()[:, :16], box.sample(rng, 8)])
        draws = rng.random((steps, sys_.m, X.shape[1] - 1))
        draws[:, :, ::2] = np.round(draws[:, :, ::2])
        plans = np.concatenate([plans, ubox.lb[:, None] + (ubox.ub - ubox.lb)[:, None] * draws],
                               axis=2)
        Y = simulate(sys_, L @ X, plans, t_f, step_h).outputs
        rows = np.einsum("rp,spb->srb", Gamma, Y)
        assert np.all(rows <= (S + 1e-9 * (np.abs(S) + 1.0))[:, :, None])
        crossed = rows + ts.witness_region.Psi[:, None] > 0
        assert reaches or not np.any(crossed)
        if box.free_dims().size <= L.shape[0]:
            assert rows[j, l, 0] == pytest.approx(top, rel=1e-9, abs=1e-9)
            assert reaches == crossed[j, l, 0]

    @given(certificate_cases())
    def test_certificate_agrees_with_the_search(self, case):
        # the search simulates its one candidate once: when no support
        # reaches the region it returns None after that one simulation, and
        # with f <= k, a support that crosses clearly gives a witness after
        # one re-simulation
        sys_, L, box, ubox, t_f, step_h, seed = case
        rng = np.random.default_rng(seed)
        sets = reach_lti(sys_, image_zonotope(L, box), ubox, t_f, step_h)
        ts = crossing_spec(rng, sets)
        S = sets.sample_supports(ts.witness_region.Gamma)
        with pytest.MonkeyPatch.context() as mp:
            calls = counting_simulate(mp)
            found = find_unsafe_witness(sys_, box, ubox, ts, sets, init_map=L)
        assert calls[0] == 1
        if found is not None:
            assert_replays(found, sys_, box, ts, t_f, L)
        if not supports_reach(ts, S):
            assert found is None and calls == [1]
        top = float(np.max(S + ts.witness_region.Psi))
        if box.free_dims().size <= L.shape[0] and top > 1e-6 * (np.abs(S).max() + 1.0):
            assert found is not None and calls == [1, 0]

    @given(exact_grid_cases())
    def test_search_loses_no_grid_witness(self, case):
        # every box vertex under every constant and one-switch bang-bang
        # plan on reach's grid: whenever one crosses, the search returns a
        # witness, and every witness it returns replays
        sys_, L, box, ubox, t_f, step_h, seed = case
        sets = reach_lti(sys_, image_zonotope(L, box), ubox, t_f, step_h)
        ts = crossing_spec(np.random.default_rng(seed), sets)
        w = find_unsafe_witness(sys_, box, ubox, ts, sets, init_map=L)
        if grid_crosses(sys_, box, ubox, ts, t_f, step_h, L):
            assert w is not None
        if w is not None:
            assert_replays(w, sys_, box, ts, t_f, L)

    def test_other_predicates_keep_the_search(self, rng, monkeypatch):
        # unsafe-polarity polytopes and both ellipsoids take their one
        # candidate from the sample centers: one simulation of one
        # candidate, and the same witness on a second call
        for trial in range(6):
            sys_ = rs.random_stable_system(rng, 3, 2, 2)
            x0, ubox = rand_box(rng, 3, 2), rand_ubox(rng, 2)
            sets = reach_lti(sys_, x0, ubox, 1.0)
            for ts in four_spec_kinds(rng, 2)[1:4]:
                calls = counting_simulate(monkeypatch)
                w = find_unsafe_witness(sys_, x0, ubox, ts, sets)
                monkeypatch.undo()
                assert calls[0] == 1 and len(calls) <= 2
                assert_bit_identical(find_unsafe_witness(sys_, x0, ubox, ts, sets), w)

    def test_two_calls_return_bit_equal_witnesses(self, rng):
        # nothing is drawn: a family whose candidates cross gives the same
        # witness, bit for bit, on every call
        sys_ = rs.random_stable_system(rng, 4, 2, 2)
        x0, ubox = rand_box(rng, 4, 3), rand_ubox(rng, 2)
        sets = reach_lti(sys_, x0, ubox, 1.0)
        specs = [crossing_spec(rng, sets) for _ in range(3)] + [first_y0_spec(-1e3)]
        first = find_unsafe_witness(sys_, x0, ubox, specs, sets)
        assert first is not None
        for _ in range(2):
            again = find_unsafe_witness(sys_, x0, ubox, specs, sets)
            assert_bit_identical(again, first)
            assert np.array_equal(again.outputs, first.outputs)

    def test_support_below_a_trajectory_raises(self, rng, monkeypatch):
        # the runtime check of the certificate: supports lowered by one are
        # exceeded by the optimal candidate that should attain them
        sys_ = rs.random_stable_system(rng, 3, 2, 2)
        x0, ubox = rand_box(rng, 3, 2), rand_ubox(rng, 2)
        sets = reach_lti(sys_, x0, ubox, 1.0)
        exact = reach.ReachSets.sample_supports
        monkeypatch.setattr(reach.ReachSets, "sample_supports",
                            lambda self, Gamma: exact(self, Gamma) - 1.0)
        with pytest.raises(rs.ModelError, match="above its certified support"):
            find_unsafe_witness(sys_, x0, ubox, first_y0_spec(1e3), sets)


# --------------------------------------------------------------------------
# check_spec's gate on the witness search: the test it runs, applied to
# each predicate's witness region.

class TestWitnessGate:
    @given(exact_grid_cases())
    def test_indeterminate_leaves_no_grid_witness(self, case):
        # every predicate kind, with deltas up to 0.5 so that every verdict
        # occurs: a Safe or Indeterminate check leaves every box vertex
        # under every constant and one-switch bang-bang grid plan with no
        # witness margin above the search's bar, and an Indeterminate one
        # leaves the search nothing to find
        sys_, L, box, ubox, t_f, step_h, seed = case
        sets = reach_lti(sys_, image_zonotope(L, box), ubox, t_f, step_h)
        for ts in four_spec_kinds(np.random.default_rng(seed), sys_.p, delta_max=0.5):
            verdict = check_spec(sets, ts)
            if verdict != MAYBE_UNSAFE:
                assert not grid_crosses(sys_, box, ubox, ts, t_f, step_h, L)
            if verdict == INDETERMINATE:
                assert find_unsafe_witness(sys_, box, ubox, ts, sets, init_map=L) is None

    def test_empty_shrunk_ellipsoid_is_indeterminate_without_search(self, monkeypatch):
        # a forbidden ellipsoid smaller than its radius margin has no
        # witness region: a step set on it is Indeterminate, and verify
        # never searches
        ts = transform_spec(rs.EllipsoidSpec(np.eye(2), np.zeros(2), 0.01, POLARITY_UNSAFE),
                            np.full(2, 0.1))
        assert ts.witness_region is None
        assert check_spec(static_sets(np.zeros(2), 0.05 * np.eye(2)), ts) == INDETERMINATE

        prob = rs.random_problem(3, n=5, m=1, p=2, free_dims=3)
        center = simulate(prob.system, prob.x0.center, prob.inputs.center, prob.t_f)
        forb = rs.EllipsoidSpec(np.eye(2), center.outputs[len(center.times) // 2], 1e-9,
                                POLARITY_UNSAFE)
        prob = rs.VerificationProblem(prob.system, prob.x0, prob.inputs, (forb,), prob.t_f)
        calls = []
        monkeypatch.setattr(verifier, "find_unsafe_witness",
                            lambda *args, **kwargs: calls.append(1))
        verdict = verifier.verify(prob, verifier.VerifyOptions(k_max=4))
        assert verdict.outcome == INDETERMINATE and calls == []
        assert [e.outcome for e in verdict.per_k_log] == [INDETERMINATE] * 2

    def test_safe_ellipsoid_between_its_regions_is_indeterminate(self):
        # a step set inside the grown safe ellipsoid but not inside the
        # shrunk one stays clear of the witness region, the outside of the
        # grown one; below a smaller grown radius it is MaybeUnsafe
        sets = static_sets(np.zeros(2), 0.1 * np.eye(2))
        for R, verdict in ((np.sqrt(0.02), INDETERMINATE), (0.1, MAYBE_UNSAFE)):
            ts = transform_spec(rs.EllipsoidSpec(np.eye(2), np.zeros(2), R, POLARITY_SAFE),
                                np.full(2, 0.005))
            upper = quad_bounds(sets[0].outputs, ts.safe_region)[1]
            assert ts.safe_region.R ** 2 < upper == pytest.approx(0.02)
            assert (upper <= ts.unsafe_region.R ** 2) == (verdict == INDETERMINATE)
            assert check_spec(sets, ts) == verdict

    def test_ellipsoid_regions_of_another_center_get_their_own_bound(self):
        # a hand-built unsafe-polarity spec whose witness ellipsoid is
        # centered elsewhere is tested on its own: a step set on the
        # forbidden ellipsoid that clears the witness one is Indeterminate,
        # one that meets it MaybeUnsafe
        forb = rs.EllipsoidSpec(np.eye(2), np.zeros(2), 1.0, POLARITY_UNSAFE)
        sets = static_sets(np.zeros(2), 0.1 * np.eye(2))
        for a, verdict in (([5.0, 0.0], INDETERMINATE), ([0.2, 0.0], MAYBE_UNSAFE)):
            wit = rs.EllipsoidSpec(np.eye(2), np.array(a), 0.5, POLARITY_UNSAFE)
            ts = rs.TransformedSpec(source=forb, safe_region=None, unsafe_region=forb,
                                    witness_region=wit, delta_used=np.zeros(2), Delta=0.0)
            assert check_spec(sets, ts) == verdict
