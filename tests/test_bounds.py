import os

import numpy as np
import pytest

import redsafe as rs
from redsafe.balancing import balance
from redsafe.bounds import (BoundError, FullOrderResponse, assemble, augment,
                            e1_optimization, e1_simulation, e1_theoretical,
                            e2_simulation, e2_theoretical, E1_THEOREM1,
                            E1_THEOREM2, E2_THEOREM3, SIMULATION)
from redsafe.reach import _transition, simulate
from redsafe.verifier import bound_candidates

from conftest import contraction_defect, rand_box, rand_ubox


def scalar_balanced():
    return balance(rs.LtiSystem([[-1.0]], [[2.0]], [[3.0]]))


def response(bal, x0=None, horizon=1.0):
    """``FullOrderResponse.of(bal, x0, horizon)``, with the origin for ``x0``
    where no bound reads the box."""
    n = bal.A_t.shape[0]
    return FullOrderResponse.of(bal, rs.HyperBox(np.zeros(n), np.zeros(n)) if x0 is None else x0,
                                horizon)


class TestAugment:
    def test_scalar_blocks(self):
        bal = scalar_balanced()
        aug = augment(response(bal), 1)
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
        aug = augment(response(bal), k)
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

    def test_refuses_a_non_integer_order(self):
        # a float order would only fail as numpy's TypeError deep in the
        # block assembly
        full = response(balance(rs.random_stable_system(np.random.default_rng(1), 5, 1, 1)))
        with pytest.raises(rs.ModelError, match="k must be an integer"):
            augment(full, 3.0)

    def test_zero_input_zero_state_gives_zero_output(self, rng):
        sys_ = rs.random_stable_system(rng, 4, 1, 1)
        bal = balance(sys_)
        aug = augment(response(bal), 2)
        traj = simulate(rs.LtiSystem(aug.A_bar, aug.B_bar, aug.C_bar),
                        np.zeros(6), None, 1.0, 0.01)
        assert np.allclose(traj.outputs, 0.0)


class TestE1Theoretical:
    def test_zero_initial_set(self):
        bal = scalar_balanced()
        box = rs.HyperBox([0.0], [0.0])
        aug = augment(response(bal, box), 1)
        assert np.array_equal(e1_theoretical(aug), np.zeros(1))

    def test_scalar_chain_value(self):
        # hand-evaluated: C_bar = [2.4495, -2.4495], ||C_bar|| = 3.4641,
        # sup ||xbar0|| = 1.7321 over X0 = [-1, 1]
        bal = scalar_balanced()
        aug = augment(response(bal, rs.HyperBox([-1.0], [1.0])), 1)
        bound = e1_theoretical(aug)
        assert bound == pytest.approx([6.0], rel=1e-12)

    def test_identity_truncation_floor(self, rng):
        # k = n: the true error is 0, any sound bound is >= it
        sys_ = rs.random_stable_system(rng, 4, 1, 1)
        bal = balance(sys_)
        box = rand_box(rng, 4, 3)
        aug = augment(response(bal, box, 2.0), 4)
        sim = e1_simulation(aug)
        assert np.all(sim <= 1e-10)
        assert np.all(e1_theoretical(aug) >= sim)

    def test_noncontractive_rejected(self):
        # a stable but non-contractive pair would make the bound unsound
        A = np.array([[-0.1, 10.0], [0.0, -0.1]])
        box = rs.HyperBox([-1.0, -1.0], [1.0, 1.0])
        bad = augment(FullOrderResponse(A, np.zeros((2, 1)), np.ones((1, 2)), np.eye(2), box,
                                        1.0), 1)
        assert contraction_defect(bad) > 0
        with pytest.raises(BoundError, match="contractive"):
            e1_theoretical(bad)


class TestE1Optimization:
    def test_zero_initial_set(self):
        bal = scalar_balanced()
        aug = augment(response(bal), 1)
        assert np.array_equal(e1_optimization(aug), np.zeros(1))

    def test_never_worse_than_closed_form(self, rng):
        for _ in range(6):
            n = int(rng.integers(3, 9))
            sys_ = rs.random_stable_system(rng, n, 1, 1)
            bal = balance(sys_)
            k = int(rng.integers(2, n + 1))
            aug = augment(response(bal, rand_box(rng, n, min(n, 6))), k)
            t1 = e1_theoretical(aug)
            t2 = e1_optimization(aug)
            assert np.all(t2 <= 1.05 * t1 + 1e-12)

    def test_monte_carlo_soundness(self, rng):
        # 200 sampled vertices of a 6-dim system never exceed the bound
        sys_ = rs.random_stable_system(rng, 6, 1, 1)
        bal = balance(sys_)
        box = rand_box(rng, 6, 6)
        aug = augment(response(bal, box), 3)
        bound = e1_optimization(aug)
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
        aug = augment(response(bal), 1)
        assert np.allclose(e1_simulation(aug), 0.0)

    def test_below_theorem_one(self, rng):
        sys_ = rs.random_stable_system(rng, 4, 1, 1)
        bal = balance(sys_)
        box = rand_box(rng, 4, 4)
        aug = augment(response(bal, box, 3.0), 2)
        sim = e1_simulation(aug)
        t1 = e1_theoretical(aug)
        assert np.all(sim <= t1 * (1 + 1e-9))


class TestE2Theoretical:
    def test_empty_tail(self):
        assert np.array_equal(
            e2_theoretical(np.array([2.0, 0.5]), 2, rs.HyperBox([0.0], [1.0]), 1),
            np.zeros(1))

    def test_direct_substitution(self):
        # 2 * (2*2-1) * 0.5 * 1.0 = 3.0
        val = e2_theoretical(np.array([2.0, 0.5]), 1, rs.HyperBox([-1.0], [1.0]), 2)
        assert val == pytest.approx([3.0, 3.0], rel=1e-15)

    def test_refuses_a_non_integer_order(self):
        # a float order would only fail as numpy's TypeError on slicing
        with pytest.raises(rs.ModelError, match="k must be an integer"):
            e2_theoretical(np.array([2.0, 1.0, 0.5, 0.1]), 3.0, rs.HyperBox([-1.0], [1.0]), 1)

    def test_nonincreasing_in_k(self, rng):
        sigma = np.sort(rng.uniform(0.01, 2.0, size=8))[::-1]
        ubox = rand_ubox(rng, 2)
        vals = [e2_theoretical(sigma, k, ubox, 1)[0] for k in range(1, 9)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestE2Simulation:
    def test_zero_b(self, rng):
        sys_ = rs.random_stable_system(rng, 4, 1, 1)
        bal = balance(sys_)
        zb = augment(FullOrderResponse(bal.A_t, np.zeros_like(bal.B_t), bal.C_t, bal.H,
                                       rand_box(rng, 4, 2), 5.0), 2)
        e2 = e2_simulation(zb, rs.HyperBox([-1.0], [1.0]))
        assert np.array_equal(e2, np.zeros(1))

    def test_identity_truncation_negligible(self, rng):
        sys_ = rs.random_stable_system(rng, 5, 2, 1)
        bal = balance(sys_)
        aug = augment(response(bal, horizon=50.0), 5)
        e2 = e2_simulation(aug, rand_ubox(rng, 2))
        assert np.all(e2 <= 1e-5)

    def test_below_theorem_three(self, rng):
        sys_ = rs.random_stable_system(rng, 8, 1, 1)
        bal = balance(sys_)
        aug = augment(response(bal, horizon=50.0), 4)
        ubox = rand_ubox(rng, 1)
        sim = e2_simulation(aug, ubox)
        thm = e2_theoretical(bal.sigma, 4, ubox, 1)
        assert np.all(sim <= thm + 1e-9)

    def test_split_never_worse_than_plain(self, rng):
        # the center factor is clamped at the |kernel| integral, so the
        # center+deviation bound never exceeds the plain I_abs ||u||_inf,
        # here with I_abs from the naive step loop
        sys_ = rs.random_stable_system(rng, 7, 2, 2)
        bal = balance(sys_)
        aug = augment(response(bal, horizon=20.0), 3)
        ubox = rs.HyperBox([0.2, 0.1], [0.4, 0.3])
        e2 = e2_simulation(aug, ubox)
        I_abs = naive_simulation(aug, ubox)[3]
        plain = I_abs @ np.maximum(np.abs(ubox.lb), np.abs(ubox.ub))
        assert np.all(e2 <= plain * (1 + 1e-9) + 1e-12)

    def test_horizon_limits_accumulation(self, rng):
        sys_ = rs.random_stable_system(rng, 6, 1, 1)
        bal = balance(sys_)
        ubox = rs.HyperBox([-1.0], [1.0])
        short = e2_simulation(augment(response(bal, horizon=0.05), 2), ubox)
        full = e2_simulation(augment(response(bal, horizon=50.0), 2), ubox)
        assert np.all(short <= full + 1e-12)


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf"), "1"])
def test_response_refuses_unreachable_horizons(horizon):
    # a horizon the simulation bounds could not reach is refused by name
    # where the mode's response binds it, also for a system whose zero
    # input matrix gives e2 exact zeros; a string would otherwise fail
    # inside np.isfinite with numpy's TypeError
    bal = balance(rs.random_stable_system(np.random.default_rng(2), 5, 1, 1))
    box = rs.HyperBox(-np.ones(5), np.ones(5))
    for make in (lambda: FullOrderResponse.of(bal, box, horizon),
                 lambda: FullOrderResponse(bal.A_t, np.zeros_like(bal.B_t), bal.C_t, bal.H,
                                           box, horizon)):
        with pytest.raises(rs.ModelError, match="horizon must be a finite positive real"):
            make()


class TestCombine:
    """delta = min over the e1 candidates + min over the e2 candidates, as
    ``bound_candidates`` feeds them to ``assemble``: every candidate is the
    value of its method as it stands, with no bloat."""

    K = 4

    @staticmethod
    def problem(seed=3):
        prob = rs.random_problem(seed, 8, 2, 2, free_dims=4)
        bal = balance(prob.system)
        return prob, bal, FullOrderResponse.of(bal, prob.x0, prob.t_f)

    def candidates(self, k=K, seed=3, **options):
        prob, bal, full = self.problem(seed)
        e1s, e2s, bound, notes = bound_candidates(bal, full, k, prob.inputs,
                                                  rs.VerifyOptions(**options))
        assert not notes
        return prob, bal, augment(full, k), e1s, e2s, bound

    def test_theorem_pair_unbloated(self):
        prob, bal, aug, e1s, e2s, _ = self.candidates()
        assert np.array_equal(e1s[E1_THEOREM1], e1_theoretical(aug))
        assert np.array_equal(e1s[E1_THEOREM2], e1_optimization(aug))
        assert np.array_equal(e2s[E2_THEOREM3],
                              e2_theoretical(bal.sigma, self.K, prob.inputs, aug.p))
        b = assemble({E1_THEOREM1: e1s[E1_THEOREM1]}, {E2_THEOREM3: e2s[E2_THEOREM3]})
        assert np.array_equal(b.delta, e1s[E1_THEOREM1] + e2s[E2_THEOREM3])

    def test_mixed_pair_unbloated(self):
        # a theorem e1 next to a simulated e2, and the two simulated bounds
        # together, are bloated nowhere
        prob, _, aug, _, e2s, bound = self.candidates(
            e1_methods=(E1_THEOREM2,), e2_methods=(SIMULATION,))
        assert np.array_equal(bound.delta, e1_optimization(aug) + e2s[SIMULATION])
        assert bound.e1_method == (E1_THEOREM2,) * aug.p
        assert bound.e2_method == (SIMULATION,) * aug.p
        prob, _, aug, e1s, e2s, bound = self.candidates(
            e1_methods=(SIMULATION,), e2_methods=(SIMULATION,))
        assert np.array_equal(e1s[SIMULATION], e1_simulation(aug))
        assert np.array_equal(e2s[SIMULATION], e2_simulation(aug, prob.inputs))
        assert np.array_equal(bound.delta, e1s[SIMULATION] + e2s[SIMULATION])

    def test_monotone_in_components(self, rng):
        e1s = {E1_THEOREM1: rng.uniform(0, 1, 3), SIMULATION: rng.uniform(0, 1, 3)}
        e2s = {E2_THEOREM3: rng.uniform(0, 1, 3), SIMULATION: rng.uniform(0, 1, 3)}
        base = assemble(e1s, e2s).delta
        for bumped in ({**e1s, label: e1s[label] + 0.1} for label in e1s):
            assert np.all(assemble(bumped, e2s).delta >= base)
        for bumped in ({**e2s, label: e2s[label] + 0.1} for label in e2s):
            assert np.all(assemble(e1s, bumped).delta >= base)
        raised = {label: v + 0.1 for label, v in e1s.items()}
        assert np.all(assemble(raised, e2s).delta > base)

    def test_invariant_delta_formula(self, rng):
        e1s = {m: rng.uniform(0, 1, 4) for m in (E1_THEOREM1, E1_THEOREM2, SIMULATION)}
        e2s = {m: rng.uniform(0, 1, 4) for m in (E2_THEOREM3, SIMULATION)}
        b = assemble(e1s, e2s)
        assert np.array_equal(b.e1, np.min(np.stack(list(e1s.values())), axis=0))
        assert np.array_equal(b.e2, np.min(np.stack(list(e2s.values())), axis=0))
        assert np.array_equal(b.delta, b.e1 + b.e2)
        assert [e1s[m][i] for i, m in enumerate(b.e1_method)] == b.e1.tolist()
        assert [e2s[m][i] for i, m in enumerate(b.e2_method)] == b.e2.tolist()

    def test_labels_per_output_first_wins_ties(self):
        e1s = {E1_THEOREM1: np.array([1.0, 2.0, 3.0]), E1_THEOREM2: np.array([1.0, 1.0, 3.0]),
               SIMULATION: np.array([2.0, 1.5, 0.5])}
        b = assemble(e1s, {E2_THEOREM3: np.zeros(3), SIMULATION: np.zeros(3)})
        assert b.e1_method == (E1_THEOREM1, E1_THEOREM2, SIMULATION)
        assert b.e2_method == (E2_THEOREM3,) * 3
        # on a contractive system theorem2 equals theorem1 bit for bit, and
        # the first of the two in the options' order names every output
        for order in ((E1_THEOREM1, E1_THEOREM2), (E1_THEOREM2, E1_THEOREM1)):
            _, _, aug, e1s, _, bound = self.candidates(e1_methods=order)
            assert aug.full.contractive
            assert np.array_equal(e1s[E1_THEOREM1], e1s[E1_THEOREM2])
            assert bound.e1_method == (order[0],) * aug.p

    def test_method_tags_validated(self):
        with pytest.raises(rs.ModelError, match="e1 method"):
            rs.VerifyOptions(e1_methods=("magic",))
        with pytest.raises(rs.ModelError, match="e2 method"):
            rs.VerifyOptions(e2_methods=("magic",))

    def test_non_finite_components_refused(self):
        ok = np.array([0.1, 0.2])
        for bad in (np.nan, np.inf, -1e-3):
            with pytest.raises(rs.ModelError, match="finite and nonnegative"):
                assemble({E1_THEOREM1: ok, SIMULATION: np.array([0.1, bad])},
                         {E2_THEOREM3: ok})
            with pytest.raises(rs.ModelError, match="finite and nonnegative"):
                assemble({E1_THEOREM1: ok}, {E2_THEOREM3: np.array([bad, 0.1])})
        with pytest.raises(rs.ModelError, match="shape"):
            assemble({E1_THEOREM1: ok}, {E2_THEOREM3: np.zeros(3)})
        with pytest.raises(rs.ModelError, match="at least one"):
            assemble({}, {E2_THEOREM3: ok})


@pytest.mark.skipif(not os.environ.get("REDSAFE_BM_MANIFEST"),
                    reason="SLICOT building-model matrices are not bundled")
def test_bm_theoretical_bounds_match_published():
    prob = rs.parse_problem(os.environ["REDSAFE_BM_MANIFEST"])
    bal = balance(prob.system)
    e2 = e2_theoretical(bal.sigma, 10, prob.inputs, 1)
    assert e2[0] == pytest.approx(0.0047, rel=0.15)
    aug = augment(FullOrderResponse.of(bal, prob.x0, prob.t_f), 10)
    e1 = e1_theoretical(aug)
    delta = assemble({E1_THEOREM1: e1}, {E2_THEOREM3: e2}).delta
    assert delta[0] == pytest.approx(0.0050, rel=0.15)


# --------------------------------------------------------------------------
# The simulation bounds against naive per-order step loops over the whole
# augmented system (the implementation before the full-order half was shared
# across orders), kept here as the reference.

import dataclasses  # noqa: E402

import redsafe.bounds as bmod  # noqa: E402
from redsafe import reach  # noqa: E402
from redsafe.verifier import problem_modes  # noqa: E402


class NormRule:
    """Squared state norms per column as the walk carries them: the whole
    augmented state's exact every ``stride`` steps (floor(n / rows) where
    n >= 4 rows, else 1, or 1 when ``exact``) and e^{2 mu a h} times that
    value a steps later, with mu = max(lambda_max(sym A_t), 0).  Both
    halves take that rule, the reduced one at the full-order half's
    stride.  Called once per step, from step 0 on."""

    def __init__(self, aug, rows, h, exact=False):
        n = aug.n
        self.stride = n // rows if n >= 4 * rows and not exact else 1
        A_t = aug.A_bar[:n, :n]
        self.mu = max(float(np.linalg.eigvalsh((A_t + A_t.T) / 2.0).max()), 0.0)
        self.h = h

    def __call__(self, X, step):
        a = step % self.stride
        if a == 0:
            self.anchor = np.sum(X ** 2, axis=0)
            return self.anchor
        return np.exp(2.0 * self.mu * self.h * a) * self.anchor


class NaiveDdot:
    """The in-step |y''| bound of the naive loop per step and column, from
    C_bar A_bar^2 x and C_bar A_bar^3 x at the step's endpoints and the
    bound :meth:`change` on the change of the latter within h/2 of them."""

    def __init__(self, aug, h, X0):
        n, k = aug.n, aug.k
        L = float(np.linalg.norm(aug.A_bar, 2))
        self.D2 = aug.C_bar @ aug.A_bar @ aug.A_bar
        self.D3 = self.D2 @ aug.A_bar
        grow = np.expm1(L * h / 2.0)
        a3 = np.linalg.norm(self.D3[:, :n], axis=1)
        self.E = np.linalg.norm(aug.A_bar[k:n, :k])
        self.norm_coef = grow * np.linalg.norm(self.D3, axis=1)
        self.w_coef = grow * a3
        self.x_coef = a3 * (h / 2.0) * np.exp(L * h / 2.0) * self.E \
            + np.linalg.norm(self.D3[:, :k] + self.D3[:, n:], axis=1) * grow
        self.w0 = np.linalg.norm(np.vstack([X0[:k] - X0[n:], X0[k:n]]), axis=0)
        self.r0 = np.linalg.norm(X0[n:], axis=0)
        self.mu = max(contraction_defect(aug), 0.0)
        self.h = h

    def w_norm(self, t):
        """e^{mu t} (||w(0)|| + t ||A_t[k:, :k]|| ||x_r(0)||) per column, a
        bound on ||x_f(t) - P x_r(t)|| with P = [I_k; 0]."""
        return np.exp(self.mu * t) * (self.w0 + t * self.E * self.r0)

    def change(self, N, W):
        """Bound on |C_bar A_bar^3 (x(t+s) - x(t))| for |s| <= h/2, where
        ||x(t)|| <= N and :meth:`w_norm` is W: the smaller of the one by
        N alone and the one through w."""
        return np.minimum(np.outer(self.norm_coef, N),
                          np.outer(self.w_coef, W) + np.outer(self.x_coef, N))

    def ends(self, X, norms, t):
        return np.abs(self.D2 @ X), np.abs(self.D3 @ X), norms, self.w_norm(t)

    def __call__(self, prev, cur):
        # w_norm grows with t, so the later end bounds both
        (D2a, D3a, Na, _), (D2b, D3b, Nb, Wb) = prev, cur
        return np.maximum(D2a, D2b) + (self.h / 2.0) * (
            np.maximum(D3a, D3b) + self.change(np.maximum(Na, Nb), Wb))


def naive_simulation(aug, u_box, exact_norms=False):
    """Every vertex of the box ``aug.full.x0`` and the start columns
    [B_bar | lift c, lift r_1 e_1, ..., lift r_f e_f] stepped through
    e^{A_bar h} one step at a time on reach's grid rule: N =
    reach._step_count(horizon, SIM_LH / L) steps of h = horizon / N, step j
    at t = j h, to the horizon ``aug.full.horizon``, with the column norms
    read by :class:`NormRule` (``exact_norms``: at every step).  For e1 step j takes the larger
    vertex peak of its ends plus h^2/8 times the generators' summed in-step
    |y''| bounds, whose norms sum to the bound on every vertex norm; for e2
    the input columns' trapezoid envelopes.  Returns (e1, e2, steps,
    I_abs)."""
    x0, horizon, m, p = aug.full.x0, aug.full.horizon, aug.m, aug.p
    X = aug.lift @ x0.vertices()
    G = np.hstack([aug.B_bar, aug.lift @ np.column_stack(
        [x0.center, np.diag(x0.halfwidth)[:, x0.free_dims()]])])
    L = float(np.linalg.norm(aug.A_bar, 2))
    steps = int(reach._step_count(horizon, bmod.SIM_LH / L))
    h = horizon / steps
    Phi = _transition(aug.A_bar, h)
    norm = NormRule(aug, 3 * p, h, exact_norms)
    ddot = NaiveDdot(aug, h, G)
    peak_prev = np.max(np.abs(aug.C_bar @ X), axis=1)
    Y_prev = aug.C_bar @ G[:, :m]
    ends_prev = ddot.ends(G, np.sqrt(norm(G, 0)), 0.0)
    e1 = np.zeros(p)
    I_abs, R_run, R_max, trap_budget = (np.zeros((p, m)) for _ in range(4))
    for j in range(1, steps + 1):
        X, G = Phi @ X, Phi @ G
        peak_cur = np.max(np.abs(aug.C_bar @ X), axis=1)
        Y_cur = aug.C_bar @ G[:, :m]
        ends_cur = ddot.ends(G, np.sqrt(norm(G, j)), j * h)
        M = ddot(ends_prev, ends_cur)
        e1 = np.maximum(e1, np.maximum(peak_prev, peak_cur)
                        + (h * h / 8.0) * np.sum(M[:, m:], axis=1))
        M = M[:, :m]
        node_prev = np.abs(R_run) + trap_budget
        I_abs += h * (np.abs(Y_prev) + np.abs(Y_cur)) / 2.0 + (h ** 3 / 12.0) * M
        R_run += h * (Y_prev + Y_cur) / 2.0
        trap_budget += (h ** 3 / 12.0) * M
        node_cur = np.abs(R_run) + trap_budget
        R_max = np.maximum(R_max, np.maximum(node_prev, node_cur)
                           + (h / 8.0) * np.abs(Y_cur - Y_prev) + (h ** 3 / 16.0) * M)
        peak_prev, Y_prev, ends_prev = peak_cur, Y_cur, ends_cur
    e2 = np.minimum(R_max, I_abs) @ np.abs(u_box.center) + I_abs @ u_box.halfwidth
    return e1, e2, steps, I_abs


def mirrored(aug):
    """The augmented system with output y + y_r instead of y - y_r (its
    full-order half, C_t, is unchanged)."""
    n = aug.n
    return dataclasses.replace(aug, C_bar=np.hstack([aug.C_bar[:, :n], -aug.C_bar[:, n:]]))


def assert_matches(new, ref, scale):
    """Agreement within 1e-12 relative.  The error y - y_r is a difference,
    so its rounding is relative to the size of the two halves (``scale``,
    the same bound on y + y_r), not to the difference: at k = n the shared
    computation gives exactly 0 where the naive loop leaves rounding noise."""
    assert np.all(np.abs(new - ref) <= 1e-12 * np.maximum(np.abs(ref), scale))


@pytest.fixture
def steps_taken(monkeypatch):
    """Steps walked by the simulation bounds since the last call, counted
    from the per-step rows that reach the vertex peaks (the state before
    each block comes first)."""
    count = [0]
    peak = bmod._vertex_peak

    def counting_peak(Y):
        count[0] += len(Y) - 1
        return peak(Y)
    monkeypatch.setattr(bmod, "_vertex_peak", counting_peak)

    def take():
        steps, count[0] = count[0], 0
        return steps
    return take


def check(aug, u_box, steps_taken):
    """Both simulation bounds from one walk of the naive loop's steps, each
    within 1e-12 relative of the loop's; returns the steps."""
    ref_e1, ref_e2, ref_steps, _ = naive_simulation(aug, u_box)
    new_e1, new_e2 = e1_simulation(aug), e2_simulation(aug, u_box)
    assert steps_taken() == ref_steps
    mir = mirrored(aug)
    assert_matches(new_e1, ref_e1, e1_simulation(mir))
    assert_matches(new_e2, ref_e2, e2_simulation(mir, u_box))
    steps_taken()
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
                check(augment(FullOrderResponse.of(bal, x0, horizon), k), u_box, steps_taken)
                if n <= 8:
                    # a window of many decay times
                    check(augment(FullOrderResponse.of(bal, x0, 60.0), k), u_box, steps_taken)

    def test_horizon_on_a_step_boundary(self, rng, steps_taken):
        # horizons that are whole multiples of SIM_LH / L: the ratio lands
        # within rounding of an integer, where the 1e-12 relative allowance
        # of reach's grid rule decides the step count
        bal = balance(rs.random_stable_system(rng, 6, 2, 2))
        x0 = rand_box(rng, 6, 4)
        u_box = rand_ubox(rng, 2)
        L = np.linalg.norm(bal.A_t, 2)
        for k in (2, 6):
            for count in (7, 100, 333, 1000):
                aug = augment(FullOrderResponse.of(bal, x0, count * bmod.SIM_LH / L), k)
                assert check(aug, u_box, steps_taken) == count

    def test_motor_modes(self, steps_taken):
        problem = rs.motor_benchmark()
        for _, system, x0, duration in problem_modes(problem):
            bal = balance(system)
            for k in (3, 5, system.n):
                check(augment(FullOrderResponse.of(bal, x0, duration), k), problem.inputs,
                      steps_taken)

    def test_zero_input_columns(self, rng, steps_taken):
        # a zero input matrix walks as far as the box's generators and gives
        # e2 exact zeros
        bal = balance(rs.random_stable_system(rng, 7, 3, 2))
        box = rand_box(rng, 7, 3)
        zero_col, zero_b = (augment(FullOrderResponse(bal.A_t, B, bal.C_t, bal.H, box, 0.7), 4)
                            for B in (bal.B_t * [1.0, 0.0, 1.0], np.zeros_like(bal.B_t)))
        u_box = rand_ubox(rng, 3)
        check(zero_col, u_box, steps_taken)
        assert check(zero_b, u_box, steps_taken) > 0
        assert np.array_equal(e2_simulation(zero_b, u_box), np.zeros(2))

    def test_contractive_early_decay(self, rng, steps_taken):
        # fast modes decay by e^{-60} or more before the window closes, and
        # the walk still takes every step of the mode's grid
        sys_ = rs.random_stable_system(rng, 6, 2, 2, decay=(30.0, 60.0), coupling=0.2)
        bal = balance(sys_)
        x0 = rand_box(rng, 6, 4)
        u_box = rand_ubox(rng, 2)
        for k in (2, 4, 6):
            aug = augment(FullOrderResponse.of(bal, x0, 2.0), k)
            assert contraction_defect(aug) < 0
            assert check(aug, u_box, steps_taken) == aug.full.steps


#: Giant-size systems (n, seed, m, p, decay) of the bracket tests: the
#: fast-decaying one over a window of many decay times, 12, in whose last
#: stretch every column's norm bound is below 1e-9 of its start (from
#: t = 8.6 at k = 16 and 11.2 at k = 2), the others over 0.5; the n = 96
#: one is not contractive, so its norm bounds grow between giant steps.
BRACKET_SYSTEMS = ((48, 6, 3, 2, (2.0, 4.0)), (96, 2, 2, 2, (0.5, 2.0)),
                   (150, 3, 12, 4, (0.5, 2.0)))
BRACKET_CASES = [pytest.param(system, k, id=f"n{system[0]}-k{k}")
                 for system in BRACKET_SYSTEMS for k in (2, system[0] // 3)]


_BRACKETS = {}


def giant_bracket(system, k, steps_taken):
    """Order k of a :data:`BRACKET_SYSTEMS` system, built once: (aug, the
    walk's and the exact-norm naive loop's step counts, and per bound, e1
    and e2, (bound, the naive loop's bound with exact norms at every step,
    the mirrored system's bound))."""
    if (system, k) in _BRACKETS:
        return _BRACKETS[system, k]
    n, seed, m, p, decay = system
    rng = np.random.default_rng(seed)
    bal = balance(rs.random_stable_system(rng, n, m, p, decay=decay))
    x0 = rand_box(rng, n, 3)
    u_box = rand_ubox(rng, m)
    aug = augment(FullOrderResponse.of(bal, x0, 12.0 if decay[0] > 1.0 else 0.5), k)
    steps_taken()
    new = (e1_simulation(aug), e2_simulation(aug, u_box))
    walk_steps = steps_taken()
    *ref, ref_steps, _ = naive_simulation(aug, u_box, exact_norms=True)
    mirror = mirrored(aug)
    bounds = list(zip(new, ref, (e1_simulation(mirror), e2_simulation(mirror, u_box))))
    steps_taken()
    _BRACKETS[system, k] = aug, walk_steps, ref_steps, bounds
    return _BRACKETS[system, k]


@pytest.mark.parametrize("system, k", BRACKET_CASES)
def test_giant_steps_bracket_exact_norm_loops(system, k, steps_taken):
    # at giant sizes each bound lies at or above the naive loop's with exact
    # norms at every step, within rounding relative to the two halves' size
    # (the mirrored bound, as in assert_matches), and both take every step
    # of the mode's grid
    aug, walk_steps, ref_steps, bounds = giant_bracket(system, k, steps_taken)
    assert aug.full.orbit.stride > 1
    assert walk_steps == ref_steps == aug.full.steps
    for new, ref, scale in bounds:
        assert np.all(new >= ref - 1e-12 * np.maximum(ref, scale))


@pytest.mark.parametrize("system, k", [
    pytest.param(*case.values, id=case.id, marks=pytest.mark.xfail(strict=True, reason=(
        "known excess: e2 is 4.6e-6 above the exact-norm loop, from the norm "
        "bound between giant steps in its third-order growth term")))
    if case.id == "n96-k32" else case for case in BRACKET_CASES])
def test_giant_steps_within_1e6_of_exact_norm_loops(system, k, steps_taken):
    # each bound lies within 1e-6 relative of the exact-norm loop's; the
    # non-contractive n = 96 system at k = 32, where e2 is about a thousandth
    # of the two halves' size, does not meet it (see ROADMAP item 7)
    for new, ref, _ in giant_bracket(system, k, steps_taken)[-1]:
        assert np.all(new <= ref * (1.0 + 1e-6))


class TestFullOrderResponse:
    def test_shared_response_matches_fresh_calls(self):
        # the shared half is filled at k=40, then read at k=5 and k=20; each
        # fresh system simulates its own full-order half
        prob = rs.random_problem(11, 48, 3, 2, free_dims=4)
        bal = balance(prob.system)
        full = FullOrderResponse.of(bal, prob.x0, prob.t_f)
        for k in (40, 5, 20):
            fresh_aug = augment(FullOrderResponse.of(bal, prob.x0, prob.t_f), k)
            aug = augment(full, k)
            assert aug.full is full and fresh_aug.full is not full
            shared = (e1_simulation(aug), e2_simulation(aug, prob.inputs))
            fresh = (e1_simulation(fresh_aug), e2_simulation(fresh_aug, prob.inputs))
            for a, b in zip(shared, fresh):
                assert np.array_equal(a, b)

    def test_each_pss_mode_gets_its_own_response(self, monkeypatch):
        problem = rs.motor_benchmark()
        seen = []
        original = bmod.e2_simulation

        def recording(aug, *args, **kwargs):
            seen.append((aug.k, aug.full))
            return original(aug, *args, **kwargs)
        monkeypatch.setattr(bmod, "e2_simulation", recording)
        rs.verify_pss(problem, rs.VerifyOptions(k0=3, k_max=5, e1_methods=(E1_THEOREM1,),
                                                e2_methods=(SIMULATION,)))
        assert [k for k, _ in seen] == [3, 3, 4, 4, 5, 5]  # Safe at k=5
        per_mode = [{id(full) for _, full in seen[rho::2]} for rho in (0, 1)]
        assert all(len(ids) == 1 for ids in per_mode) and per_mode[0] != per_mode[1]
        for (_, system, _, _), (_, full) in zip(problem_modes(problem), seen[:2]):
            assert np.array_equal(full.A, balance(system).A_t)

    def test_one_orbit_per_mode(self, monkeypatch):
        # both simulation bounds at every order of a mode read one orbit,
        # and each of the motor's two modes builds its own; each order builds
        # one reduced orbit of its k states, like its mode's
        problem = rs.motor_benchmark()
        built, reduced = [], []
        orbit = bmod._Orbit

        def recording(Phi, *args, like=None):
            made = orbit(Phi, *args, like=like)
            if like is None:
                built.append((Phi, made))
            else:
                reduced.append((Phi.shape[0], like))
            return made
        monkeypatch.setattr(bmod, "_Orbit", recording)
        verdict = rs.verify_pss(problem, rs.VerifyOptions(k0=3, k_max=5))
        assert verdict.k_used == 5 and len(verdict.per_k_log) == 3
        assert len(built) == 2
        # each mode's orbit steps by e^{A_t h} at its own h, N even steps of
        # at most SIM_LH / ||A_t|| over the mode's duration
        for (_, system, _, duration), (Phi, _) in zip(problem_modes(problem), built):
            A_t = balance(system).A_t
            h = duration / reach._step_count(duration, bmod.SIM_LH / np.linalg.norm(A_t, 2))
            assert np.array_equal(Phi, _transition(A_t, h))
        modes = [made for _, made in built]
        assert sorted(k for k, _ in reduced) == [3, 3, 4, 4, 5, 5]
        assert all(sum(like is mode for _, like in reduced) == 3 for mode in modes)

    def test_one_walk_per_mode_and_order(self, monkeypatch):
        # one verify_pss on the motor walks each (mode, order)'s augmented
        # orbit once, and the verifier still calls each simulation bound
        # once there
        seen = {"_simulate": [], "e1_simulation": [], "e2_simulation": []}

        def record(name, key):
            original = getattr(bmod, name)

            def recording(*args):
                seen[name].append(key(*args))
                return original(*args)
            monkeypatch.setattr(bmod, name, recording)
        # the mode by its orbit or its response, the order by k
        record("_simulate", lambda aug: (id(aug.full.orbit), aug.k))
        record("e1_simulation", lambda aug: (id(aug.full), aug.k))
        record("e2_simulation", lambda aug, u_box: (id(aug.full), aug.k))
        verdict = rs.verify_pss(rs.motor_benchmark(), rs.VerifyOptions(k0=3, k_max=5))
        assert verdict.k_used == 5 and len(verdict.per_k_log) == 3
        for keys in seen.values():
            assert len(keys) == len(set(keys)) == 6
            assert sorted(k for _, k in keys) == [3, 3, 4, 4, 5, 5]
            assert len({mode for mode, _ in keys}) == 2

    def test_mirrored_system_gets_its_own_walk(self, rng, monkeypatch):
        # the walk is cached on its augmented system: reading a bound again
        # walks nothing, and a system built from it by dataclasses.replace
        # walks its own orbit instead of reading the cached one
        bal = balance(rs.random_stable_system(rng, 6, 2, 2))
        aug = augment(response(bal, rand_box(rng, 6, 3)), 3)
        walks = []
        simulate = bmod._simulate

        def recording(*args):
            walks.append(args)
            return simulate(*args)
        monkeypatch.setattr(bmod, "_simulate", recording)
        u_box = rand_ubox(rng, 2)
        e1, e2 = e1_simulation(aug), e2_simulation(aug, u_box)
        assert len(walks) == 1
        mir = mirrored(aug)
        assert not np.array_equal(e1_simulation(mir), e1)
        assert not np.array_equal(e2_simulation(mir, u_box), e2)
        assert len(walks) == 2 and mir.simulated is not aug.simulated
        assert np.array_equal(e1_simulation(aug), e1) and len(walks) == 2


# --------------------------------------------------------------------------
# Block propagation by doubling against a sequential step loop, and the
# contraction test read once per mode.

import scipy.linalg  # noqa: E402
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402


@st.composite
def orbit_cases(draw):
    """A stable Phi (spectral radius in [0.5, 0.999]), a start block X and
    a block size, the sizes the orbits use and odd ones around them."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Phi = rng.standard_normal((n, n))
    Phi *= draw(st.floats(0.5, 0.999)) / np.max(np.abs(np.linalg.eigvals(Phi)))
    return Phi, rng.standard_normal((n, m)), draw(st.sampled_from([16, 17, 291, 512]))


@settings(deadline=None, max_examples=60)
@given(orbit_cases())
def test_doubling_matches_step_loop(case):
    Phi, X, steps = case
    n, m = X.shape
    got = reach._propagate(reach._doubling_powers(Phi, steps), X, steps)
    assert got.shape == (n, steps * m)
    expected = np.empty((n, steps, m))
    x = X
    for j in range(steps):
        x = Phi @ x
        expected[:, j] = x
    scale = np.max(np.linalg.norm(expected, axis=0))
    assert np.max(np.abs(got.reshape(n, steps, m) - expected)) <= 1e-12 * scale


def orbit_steps(orbit, blocks):
    """The first ``blocks`` blocks of an orbit per step, from step 0: the
    images (steps+1, rows, w) and the squared column norms (steps+1, w),
    NaN between giant steps, where the orbit forms no state.  Row j of a
    block is its step j, the last row its last giant state's."""
    images, data = [], []
    for i in range(blocks):
        Y, sq = orbit[i]
        s, giants, width = orbit.stride, len(sq) - 1, orbit.width
        assert Y.shape == (giants * s + 1, orbit.rows, width) and sq.shape == (giants + 1, width)
        size = min(orbit.block, orbit.steps - i * orbit.block)
        first = 0 if i == 0 else 1
        images.append(Y[first:size + 1])
        norms = np.full((giants * s + 1, width), np.nan)
        norms[::s] = sq
        data.append(norms[first:size + 1])
    return np.concatenate(images), np.concatenate(data)


def test_block_projections_match_per_step_maps(rng):
    # maps and squared column norms at every step, from blocks that each
    # start at the last state of the block before, the last one ending at
    # the orbit's step count
    A = rs.random_stable_system(rng, 9, 1, 1).A
    X0 = rng.standard_normal((9, 500))
    maps = (rng.standard_normal((2, 9)), rng.standard_normal((4, 9)))
    Phi = _transition(A, 0.01)
    block = bmod._Orbit(Phi, X0, maps, 10 ** 6).block
    orbit = bmod._Orbit(Phi, X0, maps, 2 * block + 7)
    assert orbit.stride == 1 and orbit.block == block < 100
    images, data = orbit_steps(orbit, 3)
    with pytest.raises(IndexError):
        orbit[3]
    Phi, states = _transition(A, 0.01), [X0]
    for _ in range(orbit.steps):
        states.append(Phi @ states[-1])
    states = np.stack(states)
    scale = np.max(np.linalg.norm(states, axis=1))
    for M, got in zip(maps, np.split(images, [2], axis=1)):
        np.testing.assert_allclose(got, M @ states, rtol=0,
                                   atol=1e-12 * scale * np.linalg.norm(M))
    np.testing.assert_allclose(data, np.sum(states * states, axis=1), rtol=0,
                               atol=1e-12 * scale * scale)


@st.composite
def giant_orbit_cases(draw):
    """A state matrix A, contractive (negative-definite symmetric part) or
    Hurwitz with lambda_max(sym A) > 0, at n >= 4 rows; three maps of p
    rows each, as the walk reads; a start block X0 of width w whose first
    column is the top eigenvector of sym A, along which the norm grows at
    first when A is not contractive; a step h with ||A|| h in [0.01, 0.1];
    an order k, whose principal block A[:k, :k] a second orbit walks from
    X0[:k] through three maps of its own; and blocks of one to four giant
    steps over up to three blocks' steps."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(max(16, 12 * p), 96))
    width = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    top = np.linalg.eigvalsh(G + G.T).max() / 2.0
    right = np.max(np.linalg.eigvals(G).real)
    if draw(st.booleans()):
        shift = top + draw(st.floats(0.05, 1.0))
    else:
        shift = right + draw(st.floats(0.1, 0.9)) * (top - right)
    A = G - shift * np.eye(n)
    maps = tuple(rng.standard_normal((p, n)) for _ in range(3))
    h = draw(st.floats(0.01, 0.1)) / np.linalg.norm(A, 2)
    X0 = rng.standard_normal((n, width))
    X0[:, 0] = np.linalg.eigh(A + A.T)[1][:, -1]
    k = draw(st.integers(1, n))
    maps_r = tuple(rng.standard_normal((p, k)) for _ in range(3))
    giants = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 3 * giants * (n // (3 * p))))
    return A, h, X0, maps, k, maps_r, giants, steps


def step_loop(A, h, X0, maps, steps):
    """The stacked maps' images (steps+1, rows, w) and the squared column
    norms (steps+1, w) of X0, Phi X0, ..., one step at a time."""
    Phi, x, images, norms = _transition(A, h), X0, [], []
    for _ in range(steps + 1):
        images.append(np.vstack(maps) @ x)
        norms.append(np.sum(x * x, axis=0))
        x = Phi @ x
    return np.stack(images), np.stack(norms)


@settings(deadline=None, max_examples=40)
@given(giant_orbit_cases())
def test_giant_steps_match_step_loop(case):
    # an orbit and one like it of the principal block A[:k, :k], as each
    # order's reduced half takes its mode's stride and block, against step
    # loops over every block: each orbit's images within rounding at every
    # step and its squared column norms exact at giant steps; and the error
    # orbit's sums of the two over every column, with norm bounds exact at
    # giant steps and never below the exact ones between them
    A, h, X0, maps, k, maps_r, giants, steps = case
    (n, width), rows = X0.shape, 3 * maps[0].shape[0]
    stride = n // rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reach, "ORBIT_BLOCK_DOUBLES", giants * width * (n + 2 * stride * rows))
        orbit = bmod._Orbit(_transition(A, h), X0, maps, steps)
    Phi_r = _transition(A[:k, :k], h)
    reduced = bmod._Orbit(Phi_r, X0[:k], maps_r, steps, like=orbit)
    assert orbit.stride == reduced.stride == stride
    assert orbit.block == reduced.block == min(giants, -(-steps // stride)) * stride
    blocks = -(-steps // orbit.block)
    loops = [step_loop(A, h, X0, maps, steps), step_loop(A[:k, :k], h, X0[:k], maps_r, steps)]
    scale = np.sqrt(np.max(loops[0][1] + loops[1][1]))
    slack = 1e-12 * scale * scale
    at_giant = np.arange(steps + 1) % stride == 0
    for made, (images, norms), M in zip((orbit, reduced), loops, (maps, maps_r)):
        got, data = orbit_steps(made, blocks)
        with pytest.raises(IndexError):
            made[blocks]
        assert np.max(np.abs(got - images)) <= 1e-12 * scale * np.linalg.norm(np.vstack(M))
        assert np.all(np.isnan(data[~at_giant]))
        assert np.max(np.abs(data[at_giant] - norms[at_giant])) <= slack
    # the error orbit as the walk forms it: each block of the reduced orbit
    # written into a caller's buffer, where it equals the block a twin orbit
    # allocates and leaves the buffer's further rows untouched, plus the
    # mode's kept block, summed over the block's steps up to ``steps``: the
    # rows past them, NaN here, are never read
    defect = np.linalg.eigvalsh(A + A.T).max() / 2.0
    growth = np.exp(2.0 * max(defect, 0.0) * h * np.arange(stride))
    reduced, twin = (bmod._Orbit(Phi_r, X0[:k], maps_r, steps, like=orbit) for _ in range(2))
    buffer = np.full((orbit.block + 2, rows, width), np.nan)
    got, data = [], []
    for i in range(blocks):
        F, f_data = orbit[i]
        size = min(orbit.block, steps - i * orbit.block)
        F[size + 1:] = np.nan
        buffer[:] = np.nan
        R, r_data = reduced._next_block(buffer)
        allocated, a_data = twin._next_block()
        assert np.shares_memory(R, buffer) and np.array_equal(R, allocated)
        assert np.array_equal(r_data, a_data) and np.all(np.isnan(buffer[len(R):]))
        first = 0 if i == 0 else 1
        got.append(R[first:size + 1] + F[first:size + 1])
        # a steps after giant state b, e^{2 mu a h} times its squared norms
        sq = (r_data + f_data)[:, None] * growth[:, None]
        data.append(sq.reshape(-1, width)[first:size + 1])
    with pytest.raises(IndexError):
        reduced._next_block(buffer)
    got, data = np.concatenate(got), np.concatenate(data)
    images = loops[0][0] + loops[1][0]
    norms = loops[0][1] + loops[1][1]
    maps_norm = max(np.linalg.norm(np.vstack(maps)), np.linalg.norm(np.vstack(maps_r)))
    assert np.max(np.abs(got - images)) <= 2e-12 * scale * maps_norm
    assert np.max(np.abs(data - norms)[at_giant]) <= slack
    assert np.min(data - norms) >= -slack


def test_giant_step_paths_by_shape(monkeypatch):
    # the motor's orbits and the golden instances' keep the per-step path;
    # the sweep's mode, at n = 150 and p = 4, takes giant steps of 12 (3p
    # rows) for its 12 input columns and 7 generator columns together
    for _, system, x0, _ in problem_modes(rs.motor_benchmark()):
        assert FullOrderResponse.of(balance(system), x0, 1.0).orbit.stride == 1
    for n, seed in ((6, 7), (8, 6)):
        prob = rs.random_problem(seed, n, 1, 1)
        assert FullOrderResponse.of(balance(prob.system), prob.x0,
                                    prob.t_f).orbit.stride == 1
    prob = rs.random_problem(7, 150, 12, 4, free_dims=6, spec_scale=0.9)
    bal = balance(prob.system)
    orbit = FullOrderResponse.of(bal, prob.x0, prob.t_f).orbit
    # each block reads its G giant states through the stack of 12 maps, a
    # row per step, and its last giant state, the next block's first,
    # through the first alone, in its last row
    Y, data = orbit[0]
    assert orbit.stride == 12 and Y.shape == (orbit.block + 1, 12, 12 + 7)
    assert data.shape == (orbit.block // 12 + 1, 12 + 7)
    # on the giant path only giant states are formed: each block of the
    # full-order half's states, and of the order's reduced half's, holds one
    # state per giant step of the block, never a whole block's
    shapes = []
    propagate = reach._propagate

    def recording(powers, X, steps, out=None):
        out = propagate(powers, X, steps, out=out)
        shapes.append(out.shape)
        return out
    monkeypatch.setattr(reach, "_propagate", recording)
    full = FullOrderResponse.of(bal, prob.x0, prob.t_f)
    aug = augment(full, 5)
    e1, e2 = e1_simulation(aug), e2_simulation(aug, prob.inputs)
    orbit = full.orbit
    giants = [-(-min(orbit.block, orbit.steps - i * orbit.block) // 12)
              for i in range(len(orbit._blocks))]
    assert max(giants) == orbit.block // 12 > 1
    assert [shape for shape in shapes if shape[0] == 150] == [(150, g * 19) for g in giants]
    # the order steps its reduced input and generator columns together,
    # block for block with the full-order half
    assert [shape for shape in shapes if shape[0] != 150] == [(5, g * 19) for g in giants]
    # the last block's 2 rows past the horizon are never read: with NaN
    # there, another walk of the order gives the same bounds
    last, _ = orbit[len(giants) - 1]
    size = orbit.steps - (len(giants) - 1) * orbit.block
    assert len(last) == size + 3
    last[size + 1:] = np.nan
    again = augment(full, 5)
    assert np.array_equal(e1_simulation(again), e1)
    assert np.array_equal(e2_simulation(again, prob.inputs), e2)


def test_wide_box_blocks_hold_several_giant_steps():
    # a box with every dim free (f = n = 150, 163 columns at stride 12) gets
    # blocks of several giant steps: a block is sized by the giant states
    # and output rows it holds, not by a state per step
    prob = rs.random_problem(7, 150, 12, 4)
    assert len(prob.x0.free_dims()) == 150
    orbit = FullOrderResponse.of(balance(prob.system), prob.x0, prob.t_f).orbit
    assert orbit.stride == 12 and orbit.block >= 3 * orbit.stride


def test_motor_blocks_end_at_the_horizon():
    # each motor mode's orbit forms one state per step of its N steps of h,
    # whose last ends at the mode's duration, and none after it
    for _, system, x0, duration in problem_modes(rs.motor_benchmark()):
        full = FullOrderResponse.of(balance(system), x0, duration)
        e1_simulation(augment(full, 5))
        orbit = full.orbit
        formed = sum(len(orbit[i][1]) - 1 for i in range(len(orbit._blocks)))
        assert orbit.stride == 1 and formed == orbit.steps == full.steps
        assert full.steps * full.h == pytest.approx(duration, rel=1e-12, abs=0.0)


@st.composite
def grid_cases(draw):
    """A Hurwitz A of n <= 10 states scaled by 1e-2 to 1e2, an input column,
    one output row, a box with free dims, and a horizon: 2e-2 to 400 times
    1 / ||A|| (1 to 8000 steps of SIM_LH / ||A||), or a whole count of those
    steps moved by 0, a few ulps or up to 1e-9 relative, where reach's grid
    rule rounds."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys_ = rs.random_stable_system(rng, n, 1, 1)
    A = sys_.A * 10.0 ** draw(st.floats(-2.0, 2.0))
    L = np.linalg.norm(A, 2)
    if draw(st.booleans()):
        horizon = draw(st.floats(1e-3, 20.0)) * 20.0 / L
    else:
        horizon = draw(st.integers(1, 400)) * bmod.SIM_LH / L \
            * (1.0 + draw(st.sampled_from([0.0, 4e-16, -4e-16, 1e-13, -1e-13, 1e-9, -1e-9])))
    return FullOrderResponse(A, sys_.B, sys_.C, np.eye(n), rand_box(rng, n, 2), horizon)


@settings(deadline=None, max_examples=60)
@given(grid_cases())
def test_walk_takes_reachs_grid(full):
    # the simulation bounds step on reach's grid: N = len(_time_grid) - 1
    # even steps of h, at most SIM_LH / L up to the rule's 1e-12 relative
    # allowance, which end at the horizon, and the walk forms exactly N
    L, horizon = np.linalg.norm(full.A, 2), full.horizon
    grid = reach._time_grid(horizon, bmod.SIM_LH / L, full.A, "h")
    assert full.steps == full.orbit.steps == len(grid) - 1
    assert full.h <= bmod.SIM_LH / L * (1.0 + 1e-12)
    assert full.steps * full.h == pytest.approx(horizon, rel=1e-12, abs=0.0)
    e1_simulation(augment(full, 1))
    assert sum(len(data) - 1 for _, data in full.orbit._blocks) == full.steps


def test_zero_state_matrix_takes_unit_steps():
    # at L = 0 the step is at most 1: ceil(horizon) even steps
    box = rs.HyperBox([-1.0, 0.0], [1.0, 0.0])
    full = FullOrderResponse(np.zeros((2, 2)), np.ones((2, 1)), np.ones((1, 2)), np.eye(2),
                             box, 2.5)
    assert full.steps == 3 and full.h == 2.5 / 3
    assert np.all(np.isfinite(e1_simulation(augment(full, 1))))


class TestContractionPerMode:
    def test_mode_defect_is_every_orders_defect(self, rng):
        for n in (5, 14, 30):
            bal = balance(rs.random_stable_system(rng, n, 2, 2))
            full = response(bal)
            for k in range(1, n + 1):
                aug = augment(response(bal), k)
                assert full.defect == pytest.approx(contraction_defect(aug),
                                                    abs=1e-14 * full.L)

    def test_zero_input_bounds_read_the_response(self, rng, monkeypatch):
        # one symmetric eigenvalue problem per mode, however many orders
        # read the contraction test, and the same bounds as fresh responses
        prob = rs.random_problem(3, 20, 2, 2, free_dims=3)
        bal = balance(prob.system)
        fresh = {}
        for k in (3, 9, 20):
            aug = augment(FullOrderResponse.of(bal, prob.x0, prob.t_f), k)
            fresh[k] = e1_theoretical(aug), e1_optimization(aug)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        full = FullOrderResponse.of(bal, prob.x0, prob.t_f)
        for k, (t1, t2) in fresh.items():
            aug = augment(full, k)
            assert np.array_equal(e1_theoretical(aug), t1)
            assert np.array_equal(e1_optimization(aug), t2)
        assert calls == [(20, 20)]

    def test_noncontractive_mode_refused(self):
        A = np.array([[-0.1, 10.0], [0.0, -0.1]])
        box = rs.HyperBox([-1.0, -1.0], [1.0, 1.0])
        full = FullOrderResponse(A, np.ones((2, 1)), np.ones((1, 2)), np.eye(2), box, 1.0)
        aug = augment(full, 1)
        assert np.array_equal(aug.A_bar, scipy.linalg.block_diag(A, A[:1, :1]))
        assert full.defect == pytest.approx(contraction_defect(aug), abs=1e-14)
        assert not full.contractive
        with pytest.raises(BoundError, match="not contractive"):
            e1_theoretical(aug)
        assert np.all(np.isfinite(e1_optimization(aug)))



# --------------------------------------------------------------------------
# The simulation e2 bound against the exact integrals it bounds, taken on a
# grid 64 times finer than its step.

def fine_kernel_integrals(aug, C, horizon, h):
    """For the kernel K(t) = C e^{A_bar t} B_bar on [0, horizon], sampled at
    step h/64: int |K| (p, m) and the running integrals int_0^t K at every
    sample (samples, p, m), both by the trapezoid rule."""
    hf = h / 64.0
    Phi = scipy.linalg.expm(aug.A_bar * hf)
    # C Phi^j for j = 0 ... 63, then whole coarse steps of Phi^64
    offsets = [C]
    for _ in range(63):
        offsets.append(offsets[-1] @ Phi)
    offsets = np.stack(offsets)
    Phi64 = np.linalg.matrix_power(Phi, 64)
    X, samples = aug.B_bar.copy(), []
    for _ in range(int(horizon / h) + 1):
        samples.append(offsets @ X)
        X = Phi64 @ X
    K = np.concatenate(samples)[:int(horizon / hf) + 1]
    K_abs = np.abs(K)
    abs_integral = hf * (np.sum(K_abs, axis=0) - (K_abs[0] + K_abs[-1]) / 2.0)
    running = np.concatenate([np.zeros_like(K[:1]),
                              np.cumsum(hf * (K[:-1] + K[1:]) / 2.0, axis=0)])
    return abs_integral, running


@st.composite
def e2_cases(draw):
    """A balanced random system at n <= 8, an input box with a nonzero center
    and a horizon of up to a few time constants."""
    n, m, p = draw(st.integers(2, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bal = balance(rs.random_stable_system(rng, n, m, p))
    lo = rng.uniform(-1.0, 1.0, size=m)
    u_box = rs.HyperBox(lo, lo + rng.uniform(0.05, 1.0, size=m))
    return bal, u_box, draw(st.floats(0.2, 3.0))


@settings(deadline=None, max_examples=40)
@given(e2_cases())
def test_e2_simulation_bounds_fine_grid_integrals(case):
    # e2 >= max_t |R(t) u_c| + int |K| u_r, with R the running integral of
    # K; the fine grid is exact to about (h L / 64)^2, far inside the bound's
    # slack, and the 1e-12 of the two halves' size covers rounding where the
    # error kernel vanishes (k = n)
    bal, u_box, horizon = case
    n = bal.A_t.shape[0]
    u_inf = np.maximum(np.abs(u_box.lb), np.abs(u_box.ub))
    for k in (1, n - 1, n):
        aug = augment(response(bal, horizon=horizon), k)
        e2 = e2_simulation(aug, u_box)
        h = bmod.SIM_LH / np.linalg.norm(aug.A_bar, 2)
        I_abs, R = fine_kernel_integrals(aug, aug.C_bar, horizon, h)
        scale = fine_kernel_integrals(aug, mirrored(aug).C_bar, horizon, h)[0] @ u_inf
        slack = 1e-12 * scale
        center = np.max(np.abs(R @ u_box.center), axis=0)
        assert np.all(e2 >= center + I_abs @ u_box.halfwidth - slack)


@settings(deadline=None, max_examples=30)
@given(e2_cases())
def test_in_step_change_bound_covers_the_exact_change(case):
    # the bound on the change of C_bar A_bar^3 x within h/2 of a state, by
    # its norm or through w = x_f - P x_r, covers the exact change of the
    # input and lifted initial columns at every order, and ||w|| stays
    # within its bound; at k = n both are 0 to rounding, which the 1e-12 of
    # the two halves' size covers
    bal, _, horizon = case
    n = bal.A_t.shape[0]
    rng = np.random.default_rng(n)
    for k in sorted({1, n - 1, n}):
        aug = augment(response(bal), k)
        h = bmod.SIM_LH / np.linalg.norm(aug.A_bar, 2)
        X0 = np.hstack([aug.B_bar, aug.lift @ rng.standard_normal((n, 3))])
        ddot = NaiveDdot(aug, h, X0)
        halves = np.sum(np.abs(ddot.D3), axis=1)
        for t in np.linspace(0.0, horizon, 6):
            X = scipy.linalg.expm(aug.A_bar * t) @ X0
            w = X[:n] - np.vstack([X[n:], np.zeros((n - k, X.shape[1]))])
            W = ddot.w_norm(t)
            assert np.all(np.linalg.norm(w, axis=0) <= W * (1 + 1e-9) + 1e-12 * np.max(np.abs(X)))
            bound = ddot.change(np.linalg.norm(X, axis=0), W)
            slack = 1e-12 * np.outer(halves, np.max(np.abs(X), axis=0))
            for s in np.linspace(-h / 2.0, h / 2.0, 9):
                exact = np.abs(ddot.D3 @ (scipy.linalg.expm(aug.A_bar * s) @ X - X))
                assert np.all(exact <= bound + slack)


# --------------------------------------------------------------------------
# The simulation e1 bound on wide initial boxes (no vertex is enumerated)
# against sampled vertices stepped on a grid 50 times finer than its step.

def fine_vertex_peaks(aug, X, horizon, h, fine=50):
    """max over [0, horizon] of |C_bar x(t)| per output for the lifted
    initial states X, sampled at step h / ``fine``."""
    Phi = _transition(aug.A_bar, h / fine)
    # C_bar Phi^a for a = 0 ... fine-1, then whole coarse steps of Phi^fine
    offsets = [aug.C_bar]
    for _ in range(fine - 1):
        offsets.append(offsets[-1] @ Phi)
    offsets = np.vstack(offsets)
    Phi_h = np.linalg.matrix_power(Phi, fine)
    samples = []
    for _ in range(int(horizon / h) + 1):
        samples.append(np.max(np.abs(offsets @ X).reshape(fine, aug.p, -1), axis=2))
        X = Phi_h @ X
    return np.max(np.concatenate(samples)[:int(horizon / (h / fine)) + 1], axis=0)


def wide_box_case(seed, n, nfree, k, horizon, fast):
    """A balanced random system of order n (eigenvalue real parts in
    -(5, 10) when ``fast``, so its responses decay within the window), a
    box with ``nfree`` free dims and the order-k error system."""
    rng = np.random.default_rng(seed)
    sys_ = rs.random_stable_system(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                   decay=(5.0, 10.0) if fast else (0.5, 2.0))
    x0 = rand_box(rng, n, nfree)
    aug = augment(FullOrderResponse.of(balance(sys_), x0, horizon), k)
    return aug, horizon, rng


@st.composite
def wide_box_cases(draw):
    """n <= 40 with up to n free dims, k from 1 to n and a horizon of up to
    a few time constants; instances that do not balance are skipped."""
    n = draw(st.integers(2, 40))
    try:
        return wide_box_case(draw(st.integers(0, 2**32 - 1)), n, draw(st.integers(1, n)),
                             draw(st.integers(1, n)), draw(st.floats(0.2, 6.0)),
                             draw(st.booleans()))
    except rs.RankDeficiencyError:
        assume(False)


@settings(deadline=None, max_examples=30)
@example(case=wide_box_case(3, 40, 40, 8, 2.0, False))
@given(case=wide_box_cases())
def test_e1_simulation_covers_sampled_vertices_of_wide_boxes(case):
    # finite at any number of free dims, at least every sampled vertex's
    # peak on a grid 50 times finer than its step, unbloated (a vertex
    # whose peak falls between the steps is covered by the in-step
    # envelope), and at most theorem1 where the error system contracts
    aug, horizon, rng = case
    x0 = aug.full.x0
    e1 = e1_simulation(aug)
    assert np.all(np.isfinite(e1))
    free = x0.free_dims()
    signs = rng.choice([-1.0, 1.0], size=(len(free), 64))
    X = np.repeat(x0.center[:, None], 64, axis=1)
    X[free] += x0.halfwidth[free, None] * signs
    peak = fine_vertex_peaks(aug, aug.lift @ X, horizon, aug.full.h)
    scale = e1_simulation(mirrored(aug))
    assert np.all(e1 >= peak - 1e-12 * scale)
    if aug.full.contractive:
        assert np.all(e1 <= e1_theoretical(aug) * (1 + 1e-9))


def test_e1_simulation_covers_a_peak_between_steps():
    # a lightly damped oscillator whose error output peaks in the middle of
    # e1's first step: the largest sample misses the peak by about
    # (omega h / 2)^2 / 2 = 3e-4 relative, and the in-step envelope covers
    # it, within 1e-3 of the peak.  The reduced state's output column is
    # zero, so the error output is the full-order one,
    # e^{-zeta omega t} cos(omega t - phi) from x0 = (-sin phi, cos phi).
    omega, zeta = 2.0 * np.pi, 1e-3
    A = omega * np.array([[-zeta, 1.0], [-1.0, -zeta]])
    h = 3.0 / reach._step_count(3.0, bmod.SIM_LH / np.linalg.norm(A, 2))
    phi = omega * h / 2.0
    x0 = rs.HyperBox([-np.sin(phi), np.cos(phi)], [-np.sin(phi), np.cos(phi)])
    full = FullOrderResponse(A, np.zeros((2, 1)), np.array([[0.0, 1.0]]), np.eye(2), x0, 3.0)
    aug = augment(full, 1)
    assert full.h == h and full.contractive
    e1 = e1_simulation(aug)
    on_steps = fine_vertex_peaks(aug, aug.lift @ x0.center[:, None], 3.0, h, fine=1)
    peak = fine_vertex_peaks(aug, aug.lift @ x0.center[:, None], 3.0, h, fine=1000)
    assert np.all(on_steps < peak * (1.0 - 2e-4))
    assert np.all(peak <= e1) and np.all(e1 <= peak * (1.0 + 1e-3))
