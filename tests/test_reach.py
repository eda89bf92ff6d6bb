import numpy as np
import pytest

import redsafe as rs
from redsafe import reach
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
                fine_steps = max(1, int(np.ceil(t_f / (h / 10) - 1e-12)))
                fine_plan = plan[np.minimum(np.arange(fine_steps) // 10, steps - 1)]
                fine = simulate(sys_, lifted, fine_plan, t_f, h / 10)
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
        for t_f, h in ((1.0, 0.01), (1.0, 0.03), (0.0, 0.1)):  # partial last step, t_f = 0
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
                assert batch.states.shape == (len(batch.times), 4, 5)
                for b in range(5):
                    one = simulate(sys_, X[:, b], u_of(b), t_f, h)
                    assert np.array_equal(one.times, batch.times)
                    assert one.outputs.shape == (len(one.times), 3)
                    assert np.allclose(batch.outputs[:, :, b], one.outputs,
                                       rtol=1e-12, atol=1e-12 * np.abs(one.outputs).max())
                    assert np.allclose(batch.states[:, :, b], one.states,
                                       rtol=1e-12, atol=1e-12 * np.abs(one.states).max())

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
                    single = ts.witness_margin(Y[idx])
                    assert isinstance(single, float)
                    assert single == pytest.approx(naive_margin(ts, Y[idx]), rel=1e-12,
                                                   abs=1e-12)
                    if np.isinf(single):
                        assert vals[idx] == single
                    else:
                        assert vals[idx] == pytest.approx(single, rel=1e-12, abs=1e-12)


class TestBatchedWitness:
    def test_spec_kinds_and_polarities(self, rng):
        found = {}
        for trial in range(10):
            sys_ = rs.random_stable_system(rng, 3, 2, 2)
            x0, ubox = rand_box(rng, 3, 2), rand_ubox(rng, 2)
            specs = four_spec_kinds(rng, 2)
            for kind, ts in enumerate(specs):
                ref = naive_witness(sys_, x0, ubox, ts, 1.0, 12, seed=trial)
                assert_same_witness(find_unsafe_witness(sys_, x0, ubox, ts, 1.0, 12,
                                                        seed=trial), ref)
                found.setdefault(kind, set()).add(ref is not None)
            # a family: predicates are scanned in order within each candidate
            ref = naive_witness(sys_, x0, ubox, specs, 1.0, 12, seed=trial)
            assert_same_witness(find_unsafe_witness(sys_, x0, ubox, specs, 1.0, 12,
                                                    seed=trial), ref)
        assert found[4] == {False}
        for kind in range(4):
            assert found[kind] == {True, False}, kind

    def test_witness_at_a_middle_candidate(self, rng, monkeypatch):
        budget = 12
        sys_, x0, ubox, ts = late_witness_case(rng, 2, budget)
        for chunk in (reach.WITNESS_CHUNK, 5):
            monkeypatch.setattr(reach, "WITNESS_CHUNK", chunk)
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
        monkeypatch.setattr(reach, "WITNESS_CHUNK", 4)
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
        if chunk is not None:
            monkeypatch.setattr(reach, "WITNESS_CHUNK", chunk)
        chunk = reach.WITNESS_CHUNK
        for budget in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            sys_, x0, ubox, ts = late_witness_case(rng, 2, budget)
            ref = naive_witness(sys_, x0, ubox, ts, 1.0, budget, seed=5)
            assert_same_witness(find_unsafe_witness(sys_, x0, ubox, ts, 1.0, budget,
                                                    seed=5), ref)
            never = first_y0_spec(1e6)
            assert naive_witness(sys_, x0, ubox, never, 1.0, budget, seed=5) is None
            assert find_unsafe_witness(sys_, x0, ubox, never, 1.0, budget, seed=5) is None

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
        budget = 2 * reach.WITNESS_CHUNK + 1
        assert find_unsafe_witness(sys_, x0, ubox, first_y0_spec(1e6), 1.0, budget) is None
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
