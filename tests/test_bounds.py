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
