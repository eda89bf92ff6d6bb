import os

import numpy as np
import pytest

import redsafe as rs
from redsafe.balancing import balance
from redsafe.bounds import (BoundError, augment, combine,
                            contraction_defect, e1_optimization, e1_simulation,
                            e1_theoretical, e2_simulation, e2_theoretical,
                            E1_THEOREM1, E1_THEOREM2, E2_THEOREM3, SIMULATION)
from redsafe.reach import _transition, simulate

from conftest import rand_box, rand_ubox


def scalar_balanced():
    return balance(rs.LtiSystem([[-1.0]], [[2.0]], [[3.0]]))


class TestAugment:
    def test_scalar_blocks(self):
        bal = scalar_balanced()
        aug = augment(bal, 1)
        a = bal.A_t[0, 0]
        c = bal.C_t[0, 0]
        assert np.allclose(aug.A_bar, np.diag([a, a]))
        assert np.allclose(aug.C_bar, [[c, -c]])
        assert np.allclose(aug.B_bar, np.vstack([bal.B_t, bal.B_t]))

    def test_output_is_error_signal(self, rng):
        # paired-simulation oracle: augmented output == full minus reduced
        sys_ = rs.random_stable_system(rng, 6, 2, 2)
        bal = balance(sys_)
        k = 3
        aug = augment(bal, k)
        x0 = rng.standard_normal(6)
        u = rng.standard_normal(2) * 0.5
        h = 0.01 / np.linalg.norm(aug.A_bar, 2)
        full = simulate(sys_, x0, u, 1.0, h)
        red = simulate(rs.LtiSystem(bal.A_t[:k, :k], bal.B_t[:k], bal.C_t[:, :k]),
                       bal.H[:k] @ x0, u, 1.0, h)
        err = full.outputs - red.outputs
        aug_sys = rs.LtiSystem(aug.A_bar, aug.B_bar, aug.C_bar)
        aug_traj = simulate(aug_sys, aug.lift @ x0, u, 1.0, h)
        assert np.allclose(aug_traj.outputs, err, atol=1e-9)

    def test_zero_input_zero_state_gives_zero_output(self, rng):
        sys_ = rs.random_stable_system(rng, 4, 1, 1)
        bal = balance(sys_)
        aug = augment(bal, 2)
        traj = simulate(rs.LtiSystem(aug.A_bar, aug.B_bar, aug.C_bar),
                        np.zeros(6), None, 1.0, 0.01)
        assert np.allclose(traj.outputs, 0.0)


class TestE1Theoretical:
    def test_zero_initial_set(self):
        bal = scalar_balanced()
        aug = augment(bal, 1)
        box = rs.HyperBox([0.0], [0.0])
        assert np.array_equal(e1_theoretical(aug, box), np.zeros(1))

    def test_scalar_chain_value(self):
        # hand-evaluated: C_bar = [2.4495, -2.4495], ||C_bar|| = 3.4641,
        # sup ||xbar0|| = 1.7321 over X0 = [-1, 1]
        bal = scalar_balanced()
        aug = augment(bal, 1)
        bound = e1_theoretical(aug, rs.HyperBox([-1.0], [1.0]))
        assert bound == pytest.approx([6.0], rel=1e-12)

    def test_identity_truncation_floor(self, rng):
        # k = n: the true error is 0, any sound bound is >= it
        sys_ = rs.random_stable_system(rng, 4, 1, 1)
        bal = balance(sys_)
        aug = augment(bal, 4)
        box = rand_box(rng, 4, 3)
        sim = e1_simulation(aug, box, 2.0)
        assert np.all(sim <= 1e-10)
        assert np.all(e1_theoretical(aug, box) >= sim)

    def test_noncontractive_rejected(self):
        # a stable but non-contractive pair would make the bound unsound
        A = np.array([[-0.1, 10.0], [0.0, -0.1]])
        from redsafe.bounds import AugmentedSystem
        bad = AugmentedSystem(A_bar=A, B_bar=np.zeros((2, 1)),
                              C_bar=np.ones((1, 2)), lift=np.ones((2, 1)), n=1, k=1)
        assert contraction_defect(bad) > 0
        with pytest.raises(BoundError, match="contractive"):
            e1_theoretical(bad, rs.HyperBox([-1.0], [1.0]))


class TestE1Optimization:
    def test_zero_initial_set(self):
        bal = scalar_balanced()
        aug = augment(bal, 1)
        box = rs.HyperBox([0.0], [0.0])
        assert np.array_equal(e1_optimization(aug, box), np.zeros(1))

    def test_never_worse_than_closed_form(self, rng):
        for _ in range(6):
            n = int(rng.integers(3, 9))
            sys_ = rs.random_stable_system(rng, n, 1, 1)
            bal = balance(sys_)
            k = int(rng.integers(2, n + 1))
            aug = augment(bal, k)
            box = rand_box(rng, n, min(n, 6))
            t1 = e1_theoretical(aug, box)
            t2 = e1_optimization(aug, box)
            assert np.all(t2 <= 1.05 * t1 + 1e-12)

    def test_monte_carlo_soundness(self, rng):
        # 200 sampled vertices of a 6-dim system never exceed the bound
        sys_ = rs.random_stable_system(rng, 6, 1, 1)
        bal = balance(sys_)
        aug = augment(bal, 3)
        box = rand_box(rng, 6, 6)
        bound = e1_optimization(aug, box)
        verts = box.vertices()[:, rng.choice(64, size=min(200, 64), replace=False)]
        X = aug.lift @ verts
        h = 0.01 / np.linalg.norm(aug.A_bar, 2)
        Phi = _transition(aug.A_bar, h)
        peak = np.max(np.abs(aug.C_bar @ X), axis=1)
        for _ in range(int(4.0 / h)):
            X = Phi @ X
            peak = np.maximum(peak, np.max(np.abs(aug.C_bar @ X), axis=1))
        assert np.all(peak <= bound * (1 + 1e-9))


class TestE1Simulation:
    def test_zero_initial_set(self):
        bal = scalar_balanced()
        aug = augment(bal, 1)
        box = rs.HyperBox([0.0], [0.0])
        assert np.allclose(e1_simulation(aug, box, 1.0), 0.0)

    def test_below_theorem_one(self, rng):
        sys_ = rs.random_stable_system(rng, 4, 1, 1)
        bal = balance(sys_)
        aug = augment(bal, 2)
        box = rand_box(rng, 4, 4)
        sim = e1_simulation(aug, box, 3.0)
        t1 = e1_theoretical(aug, box)
        assert np.all(sim <= t1 * (1 + 1e-9))

    def test_vertex_cap_refusal_names_count(self, rng):
        sys_ = rs.random_stable_system(rng, 13, 1, 1)
        bal = balance(sys_)
        aug = augment(bal, 2)
        box = rs.HyperBox(-np.ones(13), np.ones(13))
        with pytest.raises(rs.ModelError, match="8192"):
            e1_simulation(aug, box, 1.0, vertex_cap=4096)


class TestE2Theoretical:
    def test_empty_tail(self):
        assert np.array_equal(
            e2_theoretical(np.array([2.0, 0.5]), 2, rs.HyperBox([0.0], [1.0]), 1),
            np.zeros(1))

    def test_direct_substitution(self):
        # 2 * (2*2-1) * 0.5 * 1.0 = 3.0
        val = e2_theoretical(np.array([2.0, 0.5]), 1, rs.HyperBox([-1.0], [1.0]), 2)
        assert val == pytest.approx([3.0, 3.0], rel=1e-15)

    def test_nonincreasing_in_k(self, rng):
        sigma = np.sort(rng.uniform(0.01, 2.0, size=8))[::-1]
        ubox = rand_ubox(rng, 2)
        vals = [e2_theoretical(sigma, k, ubox, 1)[0] for k in range(1, 9)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestE2Simulation:
    def test_zero_b(self, rng):
        sys_ = rs.random_stable_system(rng, 4, 1, 1)
        bal = balance(sys_)
        aug = augment(bal, 2)
        from redsafe.bounds import AugmentedSystem
        zb = AugmentedSystem(A_bar=aug.A_bar, B_bar=np.zeros_like(aug.B_bar),
                             C_bar=aug.C_bar, lift=aug.lift, n=aug.n, k=aug.k)
        plain, split, truncated = e2_simulation(zb, rs.HyperBox([-1.0], [1.0]))
        assert np.array_equal(plain, np.zeros(1)) and np.array_equal(split, np.zeros(1))
        assert not truncated

    def test_identity_truncation_negligible(self, rng):
        sys_ = rs.random_stable_system(rng, 5, 2, 1)
        bal = balance(sys_)
        aug = augment(bal, 5)
        plain, split, truncated = e2_simulation(aug, rand_ubox(rng, 2))
        assert not truncated
        assert np.all(plain <= 1e-5) and np.all(split <= 1e-5)

    def test_below_theorem_three(self, rng):
        sys_ = rs.random_stable_system(rng, 8, 1, 1)
        bal = balance(sys_)
        aug = augment(bal, 4)
        ubox = rand_ubox(rng, 1)
        sim, _, truncated = e2_simulation(aug, ubox)
        assert not truncated
        thm = e2_theoretical(bal.sigma, 4, ubox, 1)
        assert np.all(sim <= thm + 1e-9)

    def test_split_never_worse_than_plain(self, rng):
        # |running integral| <= integral of |kernel| makes the split form
        # dominate whenever it applies
        sys_ = rs.random_stable_system(rng, 7, 2, 2)
        bal = balance(sys_)
        aug = augment(bal, 3)
        ubox = rs.HyperBox([0.2, 0.1], [0.4, 0.3])
        plain, split, _ = e2_simulation(aug, ubox)
        assert np.all(split <= plain * (1 + 1e-9) + 1e-12)

    def test_horizon_limits_accumulation(self, rng):
        sys_ = rs.random_stable_system(rng, 6, 1, 1)
        bal = balance(sys_)
        aug = augment(bal, 2)
        ubox = rs.HyperBox([-1.0], [1.0])
        short, short_split, _ = e2_simulation(aug, ubox, horizon=0.05)
        full, full_split, _ = e2_simulation(aug, ubox)
        assert np.all(short <= full + 1e-12)
        assert np.all(short_split <= full_split + 1e-12)

    def test_step_cap_flags_truncation(self, rng, monkeypatch):
        sys_ = rs.random_stable_system(rng, 5, 1, 1)
        bal = balance(sys_)
        aug = augment(bal, 2)
        import redsafe.bounds as bmod

        def no_certificate(A):
            return None
        monkeypatch.setattr(bmod, "_decay_certificate", no_certificate)
        _, _, truncated = e2_simulation(aug, rs.HyperBox([-1.0], [1.0]), max_steps=5)
        assert truncated


class TestCombine:
    def test_theorem_pair_unbloated(self):
        b = combine(np.array([0.2]), np.array([0.3]), 0.01, E1_THEOREM1, E2_THEOREM3)
        assert b.delta == pytest.approx([0.5], rel=1e-15)
        assert b.gamma == 0.0

    def test_simulation_pair_bloated(self):
        b = combine(np.array([0.2]), np.array([0.3]), 0.01, SIMULATION, SIMULATION)
        assert b.delta == pytest.approx([0.505], rel=1e-12)
        assert b.gamma == 0.01

    def test_mixed_pair_bloats_whole_sum(self):
        b = combine(np.array([0.2]), np.array([0.3]), 0.01, E1_THEOREM2, SIMULATION)
        assert b.delta == pytest.approx([0.505], rel=1e-12)

    def test_monotone_in_components(self, rng):
        e1 = rng.uniform(0, 1, 3)
        e2 = rng.uniform(0, 1, 3)
        base = combine(e1, e2, 0.01, SIMULATION, SIMULATION).delta
        bumped = combine(e1 + 0.1, e2, 0.01, SIMULATION, SIMULATION).delta
        assert np.all(bumped >= base)

    def test_rho_bounds(self, rng):
        e1 = rng.uniform(0, 1, 4)
        e2 = rng.uniform(0, 1, 4)
        b = combine(e1, e2, 0.01, E1_THEOREM1, E2_THEOREM3)
        assert b.rho >= np.max(b.delta) - 1e-15
        assert b.rho <= np.sqrt(4) * np.max(b.delta) + 1e-15

    def test_invariant_delta_formula(self, rng):
        e1 = rng.uniform(0, 1, 2)
        e2 = rng.uniform(0, 1, 2)
        b = combine(e1, e2, 0.05, SIMULATION, E2_THEOREM3)
        assert np.allclose(b.delta, (1 + b.gamma) * (b.e1 + b.e2))

    def test_method_tags_validated(self):
        with pytest.raises(rs.ModelError, match="e1_method"):
            combine(np.zeros(1), np.zeros(1), 0.01, "magic", E2_THEOREM3)
        with pytest.raises(rs.ModelError, match="e2_method"):
            combine(np.zeros(1), np.zeros(1), 0.01, E1_THEOREM1, "magic")
        with pytest.raises(rs.ModelError, match="gamma"):
            combine(np.zeros(1), np.zeros(1), -0.5)


@pytest.mark.skipif(not os.environ.get("REDSAFE_BM_MANIFEST"),
                    reason="SLICOT building-model matrices are not bundled")
def test_bm_theoretical_bounds_match_published():
    prob = rs.parse_problem(os.environ["REDSAFE_BM_MANIFEST"])
    bal = balance(prob.system)
    e2 = e2_theoretical(bal.sigma, 10, prob.inputs, 1)
    assert e2[0] == pytest.approx(0.0047, rel=0.15)
    aug = augment(bal, 10)
    e1 = e1_theoretical(aug, prob.x0)
    delta = combine(e1, e2, 0.0, E1_THEOREM1, E2_THEOREM3).delta
    assert delta[0] == pytest.approx(0.0050, rel=0.15)


# --------------------------------------------------------------------------
# The simulation bounds against naive per-order step loops over the whole
# augmented system (the implementation before the full-order half was shared
# across orders), kept here as the reference.

import redsafe.bounds as bmod  # noqa: E402
from redsafe.bounds import AugmentedSystem, FullOrderResponse  # noqa: E402
from redsafe.verifier import problem_modes  # noqa: E402


def naive_e1_simulation(aug, x0, t_f, decay_tol=bmod.DECAY_TOL):
    """Every vertex stepped through e^{A_bar h}; returns (bound, steps)."""
    X = aug.lift @ x0.vertices()
    best = np.max(np.abs(aug.C_bar @ X), axis=1)
    L = float(np.linalg.norm(aug.A_bar, 2))
    h = bmod.E1_SIM_LH / L
    Phi = _transition(aug.A_bar, h)
    x0n = float(np.max(np.linalg.norm(X, axis=0)))
    contractive = contraction_defect(aug) <= bmod.CONTRACTION_TOL_REL * max(1.0, L)
    t = 0.0
    steps = 0
    decayed = False
    while t < t_f:
        X = Phi @ X
        t += h
        steps += 1
        best = np.maximum(best, np.max(np.abs(aug.C_bar @ X), axis=1))
        if contractive and float(np.max(np.linalg.norm(X, axis=0))) <= decay_tol * x0n:
            decayed = True
            break
    if decayed:
        tail = np.linalg.norm(aug.C_bar, axis=1) * float(np.max(np.linalg.norm(X, axis=0)))
        best = np.maximum(best, tail)
    return best, steps


def naive_e2_simulation(aug, u_box, decay_tol=bmod.DECAY_TOL, horizon=None,
                        max_steps=bmod.MAX_IMPULSE_STEPS):
    """The impulse responses stepped through e^{A_bar h} one step at a time;
    returns (plain, split, truncated, steps)."""
    p, m = aug.p, aug.m
    if m == 0 or not np.any(aug.B_bar):
        return np.zeros(p), np.zeros(p), False, 0
    L = float(np.linalg.norm(aug.A_bar, 2))
    h = bmod.SIM_LH / L
    Phi = _transition(aug.A_bar, h)
    X = aug.B_bar.copy()
    x0_norms = np.linalg.norm(X, axis=0)
    x0_norms[x0_norms == 0] = 1.0
    c_norms = np.linalg.norm(aug.C_bar, axis=1)
    grow = np.exp(L * h)
    D2 = aug.C_bar @ aug.A_bar @ aug.A_bar
    d2_norms = np.linalg.norm(D2, axis=1)
    I_abs = np.zeros((p, m))
    R_run = np.zeros((p, m))
    R_max = np.zeros((p, m))
    trap_budget = np.zeros((p, m))
    Y_prev = aug.C_bar @ X
    D2_prev = np.abs(D2 @ X)
    norms_prev = np.linalg.norm(X, axis=0)
    t = 0.0
    steps = 0
    reached_horizon = False
    while True:
        if horizon is not None and t >= horizon - 1e-12 * horizon:
            reached_horizon = True
            break
        norms = np.linalg.norm(X, axis=0)
        if np.all(norms <= decay_tol * x0_norms) or steps >= max_steps:
            break
        X = Phi @ X
        Y_cur = aug.C_bar @ X
        D2_cur = np.abs(D2 @ X)
        norms_cur = np.linalg.norm(X, axis=0)
        peak = np.maximum(np.abs(Y_prev), np.abs(Y_cur))
        ddot = np.maximum(D2_prev, D2_cur) \
            + (grow - 1.0) * np.outer(d2_norms, np.maximum(norms_prev, norms_cur))
        bulge = (h * h / 8.0) * ddot
        I_abs += h * (peak * (1.0 + L * h) + bulge)
        R_run += h * (Y_prev + Y_cur) / 2.0
        trap_budget += (h ** 3 / 12.0) * ddot
        R_max = np.maximum(R_max, np.abs(R_run) + h * (peak + bulge) + trap_budget)
        Y_prev, D2_prev, norms_prev = Y_cur, D2_cur, norms_cur
        t += h
        steps += 1
    truncated = False
    if not reached_horizon:
        kappa = bmod._decay_certificate(aug.A_bar)
        if kappa is None:
            truncated = True
        else:
            tail = kappa * np.outer(c_norms, np.linalg.norm(X, axis=0))
            I_abs += tail
            R_max += tail
    plain = I_abs @ np.maximum(np.abs(u_box.lb), np.abs(u_box.ub))
    split = R_max @ np.abs(u_box.center) + I_abs @ u_box.halfwidth
    return plain, split, truncated, steps


def mirrored(aug):
    """The augmented system with output y + y_r instead of y - y_r."""
    n = aug.n
    return AugmentedSystem(A_bar=aug.A_bar, B_bar=aug.B_bar,
                           C_bar=np.hstack([aug.C_bar[:, :n], -aug.C_bar[:, n:]]),
                           lift=aug.lift, n=n, k=aug.k)


def assert_matches(new, ref, scale):
    """Agreement within 1e-12 relative.  The error y - y_r is a difference,
    so its rounding is relative to the size of the two halves (``scale``,
    the same bound on y + y_r), not to the difference: at k = n the shared
    computation gives exactly 0 where the naive loop leaves rounding noise."""
    assert np.all(np.abs(new - ref) <= 1e-12 * np.maximum(np.abs(ref), scale))


@pytest.fixture
def steps_taken(monkeypatch):
    """Steps of the last e1/e2 simulation bound, counted from the per-step
    rows that reach its accumulators (e2 runs three accumulators)."""
    counts = {"e1": 0, "e2": 0}
    peak, accumulate = bmod._vertex_peak, bmod._accumulate

    def counting_peak(Y):
        counts["e1"] += len(Y) if Y.ndim == 3 else 0
        return peak(Y)

    def counting_accumulate(carry, incs):
        counts["e2"] += len(incs)
        return accumulate(carry, incs)

    monkeypatch.setattr(bmod, "_vertex_peak", counting_peak)
    monkeypatch.setattr(bmod, "_accumulate", counting_accumulate)

    def take(kind):
        n = counts[kind] // (3 if kind == "e2" else 1)
        counts[kind] = 0
        return n
    return take


def check_e1(aug, x0, t_f, steps_taken):
    ref, ref_steps = naive_e1_simulation(aug, x0, t_f)
    new = e1_simulation(aug, x0, t_f)
    assert steps_taken("e1") == ref_steps
    assert_matches(new, ref, e1_simulation(mirrored(aug), x0, t_f))
    steps_taken("e1")


def check_e2(aug, u_box, steps_taken, **kw):
    *ref, ref_truncated, ref_steps = naive_e2_simulation(aug, u_box, **kw)
    *new, truncated = e2_simulation(aug, u_box, **kw)
    assert steps_taken("e2") == ref_steps
    assert truncated == ref_truncated
    scale = e2_simulation(mirrored(aug), u_box, **kw)
    steps_taken("e2")
    for a, b, s in zip(new, ref, scale):
        assert_matches(a, b, s)
    return ref_steps


class TestSimulationMatchesNaiveLoops:
    def test_random_systems(self, rng, steps_taken):
        for trial in range(6):
            n = int(rng.integers(2, 31)) if trial else 5
            sys_ = rs.random_stable_system(rng, n, int(rng.integers(1, 4)),
                                           int(rng.integers(1, 4)))
            bal = balance(sys_)
            x0 = rand_box(rng, n, 4)
            u_box = rand_ubox(rng, sys_.m)
            horizon = float(rng.uniform(0.2, 1.5))
            for k in sorted({1, int(rng.integers(1, n + 1)), n}):
                aug = augment(bal, k)
                check_e1(aug, x0, horizon, steps_taken)
                check_e2(aug, u_box, steps_taken, horizon=horizon)
                if n <= 8:
                    check_e2(aug, u_box, steps_taken)

    def test_horizon_on_a_step_boundary(self, rng, steps_taken):
        # horizons that are whole multiples of h: the accumulated time lands
        # within rounding of the horizon, where the 1e-12 relative slack of
        # the stop rule decides the step count
        bal = balance(rs.random_stable_system(rng, 6, 2, 2))
        u_box = rand_ubox(rng, 2)
        for k in (2, 6):
            aug = augment(bal, k)
            h = bmod.SIM_LH / np.linalg.norm(aug.A_bar, 2)
            for count in (7, 100, 333, 1000):
                assert check_e2(aug, u_box, steps_taken, horizon=count * h) == count

    def test_motor_modes(self, steps_taken):
        problem = rs.motor_benchmark()
        for _, system, x0, duration in problem_modes(problem):
            bal = balance(system)
            for k in (3, 5, system.n):
                aug = augment(bal, k)
                check_e1(aug, x0, duration, steps_taken)
                check_e2(aug, problem.inputs, steps_taken, horizon=duration)

    def test_step_cap(self, rng, steps_taken, monkeypatch):
        bal = balance(rs.random_stable_system(rng, 6, 2, 2))
        aug = augment(bal, 3)
        u_box = rand_ubox(rng, 2)
        # the cap lands inside a block and, at 700, past the first block
        for cap in (5, 37, 700):
            assert check_e2(aug, u_box, steps_taken, max_steps=cap) == cap
        monkeypatch.setattr(bmod, "_decay_certificate", lambda A: None)
        assert check_e2(aug, u_box, steps_taken, max_steps=37) == 37
        assert e2_simulation(aug, u_box, max_steps=37)[2]

    def test_zero_input_columns(self, rng, steps_taken):
        aug = augment(balance(rs.random_stable_system(rng, 7, 3, 2)), 4)
        zero_col = AugmentedSystem(A_bar=aug.A_bar, B_bar=aug.B_bar * [1.0, 0.0, 1.0],
                                   C_bar=aug.C_bar, lift=aug.lift, n=aug.n, k=aug.k)
        zero_b = AugmentedSystem(A_bar=aug.A_bar, B_bar=np.zeros_like(aug.B_bar),
                                 C_bar=aug.C_bar, lift=aug.lift, n=aug.n, k=aug.k)
        u_box = rand_ubox(rng, 3)
        check_e2(zero_col, u_box, steps_taken, horizon=0.7)
        assert check_e2(zero_b, u_box, steps_taken, horizon=0.7) == 0

    def test_contractive_early_decay(self, rng, steps_taken):
        # fast modes decay to 1e-9 long before the window closes, so e1 stops
        # on decay with the monotone tail and e2 adds the certificate tail
        sys_ = rs.random_stable_system(rng, 6, 2, 2, decay=(30.0, 60.0), coupling=0.2)
        bal = balance(sys_)
        x0 = rand_box(rng, 6, 4)
        u_box = rand_ubox(rng, 2)
        for k in (2, 4, 6):
            aug = augment(bal, k)
            assert contraction_defect(aug) < 0
            _, e1_steps = naive_e1_simulation(aug, x0, 50.0)
            assert e1_steps < 50.0 * np.linalg.norm(aug.A_bar, 2) / bmod.E1_SIM_LH / 2
            check_e1(aug, x0, 50.0, steps_taken)
            for horizon in (None, 50.0):
                steps = check_e2(aug, u_box, steps_taken, horizon=horizon)
                assert 0 < steps < 50.0 * np.linalg.norm(aug.A_bar, 2) / bmod.SIM_LH / 2


class TestFullOrderResponse:
    def test_shared_response_matches_fresh_calls(self):
        # the shared half is filled at k=40, then read at k=5 and k=20
        prob = rs.random_problem(11, 48, 3, 2, free_dims=4)
        bal = balance(prob.system)
        full = FullOrderResponse.of(bal)
        for k in (40, 5, 20):
            aug = augment(bal, k)
            shared = (e1_simulation(aug, prob.x0, prob.t_f, full=full),
                      *e2_simulation(aug, prob.inputs, horizon=prob.t_f, full=full))
            fresh = (e1_simulation(aug, prob.x0, prob.t_f),
                     *e2_simulation(aug, prob.inputs, horizon=prob.t_f))
            for a, b in zip(shared, fresh):
                assert np.array_equal(a, b)

    def test_response_of_another_system_is_refused(self, rng):
        full = FullOrderResponse.of(balance(rs.random_stable_system(rng, 5, 1, 1)))
        aug = augment(balance(rs.random_stable_system(rng, 5, 1, 1)), 2)
        with pytest.raises(rs.ModelError, match="another system"):
            e2_simulation(aug, rs.HyperBox([-1.0], [1.0]), full=full)
        with pytest.raises(rs.ModelError, match="another system"):
            e1_simulation(aug, rs.HyperBox(-np.ones(5), np.ones(5)), 1.0, full=full)

    def test_each_pss_mode_gets_its_own_response(self, monkeypatch):
        problem = rs.motor_benchmark()
        seen = []
        original = bmod.e2_simulation

        def recording(aug, *args, full=None, **kwargs):
            seen.append((aug.k, full))
            return original(aug, *args, full=full, **kwargs)
        monkeypatch.setattr(bmod, "e2_simulation", recording)
        rs.verify_pss(problem, rs.VerifyOptions(k0=3, k_max=5, e1_methods=(E1_THEOREM1,),
                                                e2_methods=(SIMULATION,)))
        assert [k for k, _ in seen] == [3, 3, 4, 4, 5, 5]  # Safe at k=5
        per_mode = [{id(full) for _, full in seen[rho::2]} for rho in (0, 1)]
        assert all(len(ids) == 1 for ids in per_mode) and per_mode[0] != per_mode[1]
        for (_, system, _, _), (_, full) in zip(problem_modes(problem), seen[:2]):
            assert np.array_equal(full.A, balance(system).A_t)
