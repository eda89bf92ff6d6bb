"""Acceptance suite: one test per exit criterion, each timed against its
stated budget.  The terminal summary prints one PASS/FAIL line per criterion
(see conftest.pytest_terminal_summary)."""

import time

import numpy as np
import pytest

import redsafe as rs
from redsafe.balancing import balance, truncate
from redsafe.bounds import (FullOrderResponse, assemble, augment, e1_optimization, e1_simulation,
                            e1_theoretical, e2_simulation, e2_theoretical,
                            E1_THEOREM1, E1_THEOREM2, E2_THEOREM3, SIMULATION)
from redsafe.model import POLARITY_SAFE
from redsafe.reach import SAFE, UNSAFE, _transition, simulate
from redsafe.spectransform import transform_spec
from redsafe.verifier import VerifyOptions, verify, verify_pss

from conftest import batch_trajectories, rand_box, rand_ubox


def timed(budget):
    """Context manager asserting the block finished inside the budget."""
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            if exc[0] is None:
                assert self.elapsed < budget, \
                    f"runtime {self.elapsed:.1f}s exceeded budget {budget}s"
            return False
    return _Timer()


def test_criterion_01_closed_form_exactness():
    with timed(1.0):
        sys_ = rs.LtiSystem([[-1.0]], [[2.0]], [[3.0]])
        g = rs.gramians(sys_)
        assert abs(g.Wc[0, 0] - 2.0) < 1e-12
        assert abs(g.Wo[0, 0] - 4.5) < 1e-12
        sigma = rs.hankel_singular_values(sys_)
        assert abs(sigma[0] - 3.0) < 1e-12


def test_criterion_02_lyapunov_residuals():
    rng = np.random.default_rng(2)
    with timed(30.0):
        for _ in range(100):
            n = int(rng.integers(5, 51))
            sys_ = rs.random_stable_system(rng, n, 2, 2)
            g = rs.gramians(sys_)
            assert g.residual_c <= 1e-8
            assert g.residual_o <= 1e-8


def test_criterion_03_hsv_similarity_invariance():
    rng = np.random.default_rng(3)
    with timed(30.0):
        for _ in range(50):
            n = int(rng.integers(3, 21))
            sys_ = rs.random_stable_system(rng, n, 2, 1)
            hsv = rs.hankel_singular_values(sys_)
            U, _, Vt = np.linalg.svd(rng.standard_normal((n, n)))
            T = U @ np.diag(np.logspace(0, 2, n)) @ Vt  # cond(T) = 100
            Tinv = np.linalg.inv(T)
            moved = rs.LtiSystem(T @ sys_.A @ Tinv, T @ sys_.B, sys_.C @ Tinv)
            moved_hsv = rs.hankel_singular_values(moved)
            assert np.allclose(moved_hsv, hsv, rtol=1e-6)


def _soundness_instances(rng, count=20):
    """Random systems with their abstractions, bounds and trial sets."""
    instances = []
    while len(instances) < count:
        n = int(rng.integers(6, 21))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        if p >= n:
            continue
        sys_ = rs.random_stable_system(rng, n, m, p)
        try:
            bal = balance(sys_)
        except rs.RankDeficiencyError:
            continue
        k = int(rng.integers(p + 1, n + 1))
        x0 = rand_box(rng, n, nfree=min(n, 10))
        u_box = rand_ubox(rng, m)
        instances.append((sys_, bal, k, x0, u_box))
    return instances


TRIAL_TF = 6.0


def _component_bounds(bal, k, x0, u_box):
    aug = augment(FullOrderResponse.of(bal, x0, TRIAL_TF), k)
    e1 = {
        E1_THEOREM1: e1_theoretical(aug),
        E1_THEOREM2: e1_optimization(aug),
        SIMULATION: e1_simulation(aug),
    }
    sim2 = e2_simulation(aug, u_box)
    e2 = {
        E2_THEOREM3: e2_theoretical(bal.sigma, k, u_box, aug.p),
        SIMULATION: sim2,
    }
    return aug, e1, e2


def test_criterion_04_bound_soundness():
    rng = np.random.default_rng(4)
    trials_run = 0
    violations = 0
    with timed(300.0):
        for sys_, bal, k, x0, u_box in _soundness_instances(rng):
            aug, e1s, e2s = _component_bounds(bal, k, x0, u_box)
            L = float(np.linalg.norm(aug.A_bar, 2))
            h = 0.01 / L
            steps = int(np.ceil(TRIAL_TF / h))
            Phi, PsiB = _transition(aug.A_bar, h, aug.B_bar)

            def peaks(X, u_draw=None):
                nonlocal trials_run
                best = np.max(np.abs(aug.C_bar @ X), axis=1)
                U = None
                for s in range(steps):
                    X = Phi @ X
                    if u_draw is not None:
                        if s % 23 == 0:
                            U = u_draw()
                        X = X + PsiB @ U
                    best = np.maximum(best, np.max(np.abs(aug.C_bar @ X), axis=1))
                trials_run += X.shape[1]
                return best

            def exceeded(peak, bound):
                return np.any(peak > bound + 1e-10 * np.maximum(1.0, bound))

            # zero-input trials validate the e1 routes alone, unbloated
            assert x0.vertex_count() <= 4096
            Xv = x0.vertices()
            Xi = x0.sample(rng, 10)
            z_in = peaks(aug.lift @ np.hstack([Xv, Xi]))
            for bound in e1s.values():
                violations += exceeded(z_in, bound)

            # zero-state trials validate the e2 routes alone, unbloated
            Z = np.zeros((aug.A_bar.shape[0], 12))
            z_state = peaks(Z, u_draw=lambda: u_box.sample(rng, 12))
            for bound in e2s.values():
                violations += exceeded(z_state, bound)

            # mixed trials validate the assembled delta = min e1 + min e2,
            # which no e1 x e2 pairing undercuts
            Xm = aug.lift @ np.hstack([Xv[:, rng.choice(Xv.shape[1],
                                                        min(6, Xv.shape[1]),
                                                        replace=False)],
                                       x0.sample(rng, 4)])
            z_mix = peaks(Xm, u_draw=lambda: u_box.sample(rng, Xm.shape[1]))
            violations += exceeded(z_mix, assemble(e1s, e2s).delta)

    assert trials_run >= 1000, f"only {trials_run} trials run"
    assert violations == 0, f"{violations} bound violations"


def test_criterion_05_bound_ordering():
    rng = np.random.default_rng(4)  # same instance distribution as criterion 4
    ORDER_ATOL = 1e-5  # theorem 3 is exactly 0 at k = n; see decisions ledger
    with timed(120.0):
        ok_e2 = 0
        ok_e1 = 0
        total = 0
        for sys_, bal, k, x0, u_box in _soundness_instances(rng):
            aug, e1s, e2s = _component_bounds(bal, k, x0, u_box)
            total += 1
            if np.all(e2s[SIMULATION] <= e2s[E2_THEOREM3] + ORDER_ATOL):
                ok_e2 += 1
            else:
                print(f"ordering violation (e2): sim {e2s[SIMULATION]} "
                      f"thm3 {e2s[E2_THEOREM3]} (n={sys_.n}, k={k})")
            if np.all(e1s[E1_THEOREM2] <= 1.05 * e1s[E1_THEOREM1] + 1e-12):
                ok_e1 += 1
            else:
                print(f"ordering violation (e1): thm2 {e1s[E1_THEOREM2]} "
                      f"thm1 {e1s[E1_THEOREM1]} (n={sys_.n}, k={k})")
        assert ok_e2 / total >= 0.95, f"e2 ordering held in {ok_e2}/{total}"
        assert ok_e1 / total >= 0.95, f"e1 ordering held in {ok_e1}/{total}"


def test_criterion_06_spec_transform_reproduction():
    with timed(1.0):
        bm = rs.PolytopeSpec([[1.0], [-1.0]], [-0.0015, -0.0015], POLARITY_SAFE)
        ts = transform_spec(bm, np.array([3.7219e-4]))
        assert abs(-ts.safe_region.Psi[0] - 0.00112781) < 5e-9
        assert abs(ts.safe_region.Psi[1] - (-0.00112781)) < 5e-9

        motor = rs.motor_benchmark()
        ts = transform_spec(motor.spec[0], np.array([0.0234, 0.0189]))
        assert 1.56 <= ts.unsafe_region.R <= 1.57


def test_criterion_07_safety_relation_sampling():
    rng = np.random.default_rng(7)
    with timed(10.0):
        # polytope
        spec = rs.PolytopeSpec(rng.standard_normal((5, 2)),
                               -np.abs(rng.standard_normal(5)) - 0.3, POLARITY_SAFE)
        delta = rng.uniform(0.02, 0.3, 2)
        ts = transform_spec(spec, delta)
        Yr = rng.uniform(-3, 3, (10_000, 2))
        Y = Yr + rng.uniform(-1, 1, (10_000, 2)) * delta
        marg_r = Yr @ ts.safe_region.Gamma.T + ts.safe_region.Psi
        marg = Y @ spec.Gamma.T + spec.Psi
        in_tsafe = np.all(marg_r <= 0, axis=1)
        in_safe = np.all(marg <= 0, axis=1)
        assert not np.any(in_tsafe & ~in_safe)
        marg_u = Yr @ ts.unsafe_region.Gamma.T + ts.unsafe_region.Psi
        in_tunsafe = np.any(marg_u > 0, axis=1)
        assert not np.any(in_tunsafe & in_safe)

        # ellipsoid
        Q = rng.standard_normal((2, 2))
        Q = Q @ Q.T + np.eye(2)
        espec = rs.EllipsoidSpec(Q, rng.standard_normal(2), 2.0, POLARITY_SAFE)
        ts = transform_spec(espec, delta)
        Yr = rng.uniform(-4, 4, (10_000, 2))
        Y = Yr + rng.uniform(-1, 1, (10_000, 2)) * delta
        quad = lambda S, R: np.einsum("bi,ij,bj->b", S - espec.a, Q, S - espec.a) <= R ** 2
        in_tsafe = quad(Yr, ts.safe_region.R) if ts.safe_region is not None \
            else np.zeros(len(Yr), bool)
        in_safe = quad(Y, espec.R)
        assert not np.any(in_tsafe & ~in_safe)
        in_tunsafe = ~quad(Yr, ts.unsafe_region.R)
        assert not np.any(in_tunsafe & in_safe)


def test_criterion_08_motor_case_study():
    with timed(120.0):
        prob = rs.motor_benchmark()
        opts = VerifyOptions(k0=5, k_max=5,
                             e1_methods=(E1_THEOREM2, SIMULATION),
                             e2_methods=(SIMULATION,),
                             step_lh=0.05, seed=0)
        verdict = verify_pss(prob, opts)
        assert verdict.outcome == SAFE
        assert verdict.k_used == 5
        published = [np.array([0.0234, 0.0189]), np.array([0.0228, 0.0177])]
        for bound, theirs in zip(verdict.delta, published, strict=True):
            ours = bound.delta
            ratio = ours / theirs
            assert np.all(ratio <= 2.0) and np.all(ratio >= 0.5), \
                f"delta {ours} not within 2x of published {theirs}"


def _oracle_outputs(prob, rng, fine=2000):
    """Dense output sampling: vertices x (corner + random piecewise-constant
    inputs) on a fine grid; >= 1e5 output samples."""
    sys_ = prob.system
    assert prob.x0.vertex_count() <= 1 << 12 and prob.inputs.vertex_count() <= 64
    X0 = np.hstack([prob.x0.vertices(),
                    prob.x0.sample(rng, 16)])
    n_traj = X0.shape[1]
    h = prob.t_f / fine
    plans = []
    corners = prob.inputs.vertices()
    for i in range(corners.shape[1]):
        plans.append(lambda s, i=i: np.tile(corners[:, i:i + 1], (1, n_traj)))
    state = {}

    def random_plan(s, key):
        if (key, s // 37) not in state:
            state[(key, s // 37)] = prob.inputs.sample(rng, n_traj)
        return state[(key, s // 37)]
    for key in range(8):
        plans.append(lambda s, key=key: random_plan(s, key))
    outs = []
    for plan in plans:
        outs.append(batch_trajectories(sys_.A, sys_.B, sys_.C, X0, plan,
                                       prob.t_f, h))
    return np.concatenate(outs, axis=2)


def _violates(prob, outputs):
    """Whether any output sample leaves the (safe-polarity) original spec."""
    spec = prob.spec[0]
    margins = np.einsum("qp,spb->sqb", spec.Gamma, outputs) + spec.Psi[None, :, None]
    return bool(np.any(np.max(margins, axis=1) > 0))


def test_criterion_09_verifier_vs_oracle():
    rng = np.random.default_rng(9)
    scales = [0.25, 0.6, 1.2, 3.0, 8.0, 0.4]
    outcomes = {"Safe": 0, "Unsafe": 0, "Indeterminate": 0}
    with timed(600.0):
        for i in range(30):
            seed = 900 + i
            while True:
                prob = rs.random_problem(seed, n=int(rng.integers(3, 7)), m=1, p=1,
                                         free_dims=4,
                                         spec_scale=scales[i % len(scales)])
                try:
                    balance(prob.system)  # skip numerically non-minimal draws
                    break
                except rs.RankDeficiencyError:
                    seed += 10_000
            verdict = verify(prob, VerifyOptions(seed=i, witness_budget=48))
            outcomes[verdict.outcome] += 1
            if verdict.outcome == SAFE:
                oracle = _oracle_outputs(prob, np.random.default_rng(1000 + i))
                assert not _violates(prob, oracle), \
                    f"instance {i}: verifier said Safe, oracle found a violation"
            elif verdict.outcome == UNSAFE:
                # replay the witness on the full-order system at a finer step
                w = verdict.witness
                h = prob.t_f / w.step_inputs.shape[0]
                fine_steps = int(np.ceil(prob.t_f / (h / 5) - 1e-12))
                plan = w.step_inputs[np.minimum(np.arange(fine_steps) // 5,
                                                w.step_inputs.shape[0] - 1)]
                traj = simulate(prob.system, w.init_state, plan, prob.t_f, h / 5)
                assert _violates(prob, traj.outputs[:, :, None]), \
                    f"instance {i}: verifier said Unsafe, witness replay stays safe"
    print(f"verifier-vs-oracle outcomes: {outcomes}")
    assert outcomes["Safe"] >= 1 and outcomes["Unsafe"] >= 1


def test_criterion_10_scale_smoke():
    with timed(60.0):
        # enough I/O channels and mixing to keep the gramians numerically
        # minimal at this dimension (single-channel systems this large are
        # legitimately refused as numerically non-minimal)
        rng = np.random.default_rng(10)
        sys_ = rs.random_stable_system(rng, 500, 40, 10,
                                       decay=(0.5, 1.0), coupling=2.0)
        x0 = rand_box(rng, 500, nfree=10)
        u_box = rand_ubox(rng, 40)
        bal = balance(sys_)
        k = 20
        abstraction = truncate(bal, k, x0)
        aug = augment(FullOrderResponse.of(bal, x0, 2.0), k)
        e1 = e1_theoretical(aug)
        e2 = e2_theoretical(bal.sigma, k, u_box, 10)
        delta = assemble({E1_THEOREM1: e1}, {E2_THEOREM3: e2}).delta
        assert np.all(np.isfinite(delta)) and np.all(delta >= 0)
        assert abstraction.reduced.n == k
