import numpy as np
import pytest

import redsafe as rs
from redsafe.gramians import lyapunov_residual, solve_lyapunov

from conftest import rand_box  # noqa: F401  (fixture wiring)


def test_scalar_closed_form():
    # -2P + 4 = 0
    P = solve_lyapunov(np.array([[-1.0]]), np.array([[4.0]]))
    assert P[0, 0] == pytest.approx(2.0, abs=1e-14)


def test_diagonal_decouples():
    P = solve_lyapunov(-np.eye(2), np.eye(2))
    assert np.allclose(P, 0.5 * np.eye(2), atol=1e-14)


def test_zero_q_gives_exact_zero():
    A = np.array([[-1.0, 2.0], [0.0, -3.0]])
    P = solve_lyapunov(A, np.zeros((2, 2)))
    assert np.array_equal(P, np.zeros((2, 2)))


def test_residual_is_its_own_oracle(rng):
    sys_ = rs.random_stable_system(rng, 30, 3, 2)
    Q = sys_.B @ sys_.B.T
    P = solve_lyapunov(sys_.A, Q)
    assert lyapunov_residual(sys_.A, Q, P) <= 1e-8


def test_non_hurwitz_rejected():
    with pytest.raises(rs.StabilityError):
        solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


def test_shape_validation():
    with pytest.raises(ValueError, match="square"):
        solve_lyapunov(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="match"):
        solve_lyapunov(-np.eye(2), np.eye(3))


def test_gramians_scalar_closed_form():
    g = rs.gramians(rs.LtiSystem([[-1.0]], [[2.0]], [[3.0]]))
    assert g.Wc[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert g.Wo[0, 0] == pytest.approx(4.5, abs=1e-14)


def test_zero_b_gives_zero_wc(rng):
    sys_ = rs.random_stable_system(rng, 5, 1, 1)
    zb = rs.LtiSystem(sys_.A, np.zeros((5, 1)), sys_.C)
    g = rs.gramians(zb)
    assert np.array_equal(g.Wc, np.zeros((5, 5)))


def test_gramians_are_psd(rng):
    sys_ = rs.random_stable_system(rng, 20, 2, 2)
    g = rs.gramians(sys_)
    for W in (g.Wc, g.Wo):
        scale = np.linalg.norm(W, "fro")
        assert np.linalg.eigvalsh(W).min() >= -1e-10 * scale
        assert np.max(np.abs(W - W.T)) <= 1e-10 * scale


def test_residual_property_sample(rng):
    for _ in range(20):
        n = int(rng.integers(5, 30))
        sys_ = rs.random_stable_system(rng, n, 2, 2)
        g = rs.gramians(sys_)
        assert g.residual_c <= 1e-8
        assert g.residual_o <= 1e-8


def test_transformation_law(rng):
    # Wc(T A T^-1, T B, C T^-1) = T Wc T^T for well-conditioned T
    for _ in range(5):
        sys_ = rs.random_stable_system(rng, 8, 2, 1)
        g = rs.gramians(sys_)
        U, _, Vt = np.linalg.svd(rng.standard_normal((8, 8)))
        T = U @ np.diag(np.logspace(0, 1.5, 8)) @ Vt
        Tinv = np.linalg.inv(T)
        moved = rs.LtiSystem(T @ sys_.A @ Tinv, T @ sys_.B, sys_.C @ Tinv)
        gm = rs.gramians(moved)
        expected = T @ g.Wc @ T.T
        err = np.linalg.norm(gm.Wc - expected, "fro") / np.linalg.norm(expected, "fro")
        assert err <= 1e-6


# --------------------------------------------------------------------------
# Several right-hand sides per call: one Hurwitz check and one sign iteration.

import importlib  # noqa: E402

import scipy.linalg  # noqa: E402
from hypothesis import assume, given, strategies as st  # noqa: E402

import redsafe.bounds as bmod  # noqa: E402
from redsafe.balancing import balance  # noqa: E402
from redsafe.bounds import FullOrderResponse, augment, e1_optimization  # noqa: E402

from conftest import contraction_defect  # noqa: E402


# the package attribute redsafe.gramians is the function, not the module
gmod = importlib.import_module("redsafe.gramians")


def psd_stack(rng, n, count):
    M = rng.standard_normal((count, n, 2))
    return M @ M.swapaxes(1, 2)


def test_stack_matches_single_solves(rng):
    A = rs.random_stable_system(rng, 12, 1, 1).A
    Qs = psd_stack(rng, 12, 3)
    P = solve_lyapunov(A, Qs)
    assert P.shape == Qs.shape
    for Pi, Qi in zip(P, Qs):
        assert np.array_equal(Pi, solve_lyapunov(A, Qi))
        assert lyapunov_residual(A, Qi, Pi) <= 1e-8


def counting_eigvals(monkeypatch):
    """The list that every later np.linalg.eigvals call appends its shape to."""
    calls = []
    original = np.linalg.eigvals

    def counting(A):
        calls.append(np.shape(A))
        return original(A)
    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


def test_hurwitz_checked_once_per_call(rng, monkeypatch):
    # one check per call, however many right-hand sides: one eigvals
    calls = []
    original = gmod.require_hurwitz

    def counting(A, what):
        calls.append(what)
        return original(A, what)
    monkeypatch.setattr(gmod, "require_hurwitz", counting)
    eigvals = counting_eigvals(monkeypatch)
    A = rs.random_stable_system(rng, 8, 1, 1).A
    solve_lyapunov(A, psd_stack(rng, 8, 5))
    assert len(calls) == 1 and eigvals == [(8, 8)]
    # the dual right-hand sides share the check
    solve_lyapunov(A, psd_stack(rng, 8, 2), Q_t=psd_stack(rng, 8, 3))
    assert len(calls) == 2 and eigvals == [(8, 8)] * 2


def test_balance_computes_the_spectrum_once(rng, monkeypatch):
    # both gramians come from one solve, so one eigvals for the system
    sys_ = rs.random_stable_system(rng, 12, 2, 2)
    eigvals = counting_eigvals(monkeypatch)
    balance(sys_)
    assert eigvals == [(12, 12)]


def test_hurwitz_check_matches_check_stability(rng):
    # a solve raises StabilityError exactly when check_stability calls A
    # unstable, including systems near the margin and unstable ones
    for n in (1, 2, 5, 12, 30):
        for shift in (-1.0, -1e-6, 0.0, 0.5):
            A = rng.standard_normal((n, n))
            A += (shift - np.max(np.linalg.eigvals(A).real)) * np.eye(n)
            stable = rs.check_stability(A).stable
            try:
                solve_lyapunov(A, np.eye(n))
            except rs.StabilityError:
                assert not stable
            else:
                assert stable


def test_non_hurwitz_message_with_zero_right_hand_side(rng):
    # zero right-hand sides are checked like any other
    A = np.array([[1.0, 2.0], [0.0, -3.0]])
    messages = []
    for Q in (np.eye(2), np.zeros((2, 2)), np.zeros((3, 2, 2))):
        with pytest.raises(rs.StabilityError) as err:
            solve_lyapunov(A, Q)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
    assert messages[0].startswith("Lyapunov coefficient matrix A is not asymptotically stable "
                                  "(spectral abscissa 1.000000e+00")
    # balancing names the user's system, as its own check did
    with pytest.raises(rs.StabilityError, match="^system is not asymptotically stable"):
        balance(rs.LtiSystem(A, np.ones((2, 1)), np.ones((1, 2))))
    with pytest.raises(rs.StabilityError, match="^system is not asymptotically stable"):
        balance(rs.LtiSystem(A, np.zeros((2, 1)), np.ones((1, 2))))


def test_one_failing_right_hand_side_raises(rng, monkeypatch):
    A = rs.random_stable_system(rng, 6, 1, 1).A
    Qs = psd_stack(rng, 6, 3)
    original = gmod.lyapunov_residual

    def residual(A_, Q, P):
        return 1.0 if np.array_equal(Q, Qs[1]) else original(A_, Q, P)
    monkeypatch.setattr(gmod, "lyapunov_residual", residual)
    with pytest.raises(rs.SolverError, match="right-hand side 1 exceeds"):
        solve_lyapunov(A, Qs)
    solve_lyapunov(A, Qs[[0, 2]])


def test_zero_right_hand_sides_are_exact(rng, monkeypatch):
    A = rs.random_stable_system(rng, 5, 1, 1).A
    Q = psd_stack(rng, 5, 1)[0]
    P = solve_lyapunov(A, np.stack([Q, np.zeros((5, 5)), Q]))
    assert np.array_equal(P[1], np.zeros((5, 5)))
    assert np.array_equal(P[0], solve_lyapunov(A, Q)) and np.array_equal(P[0], P[2])

    # an all-zero stack is still checked for stability, with one eigvals,
    # and solved exactly
    eigvals = counting_eigvals(monkeypatch)
    assert np.array_equal(solve_lyapunov(A, np.zeros((2, 5, 5))), np.zeros((2, 5, 5)))
    assert eigvals == [(5, 5)]


def test_dual_shape_validation():
    with pytest.raises(ValueError, match="Q_t must match"):
        solve_lyapunov(-np.eye(2), np.eye(2), Q_t=np.eye(3))


# --------------------------------------------------------------------------
# The sign iteration against Bartels-Stewart (scipy, a test-only oracle).

def assert_matches_bartels_stewart(A, Q, Q_t, rtol):
    pair = solve_lyapunov(A, Q, Q_t=Q_t)
    for P, A_, Q_, res in ((pair.Wc, A, Q, pair.residual_c),
                           (pair.Wo, A.T, Q_t, pair.residual_o)):
        ref = scipy.linalg.solve_continuous_lyapunov(A_, -Q_)
        assert np.linalg.norm(P - ref) <= rtol * np.linalg.norm(ref)
        assert res == lyapunov_residual(A_, Q_, P)
        # no less accurate than the Schur-based solve
        assert res <= 10 * lyapunov_residual(A_, Q_, (ref + ref.T) / 2) + 1e-17


def test_sign_solve_matches_bartels_stewart_on_the_motor():
    # the two identical motors repeat every eigenvalue of each mode; the
    # largest difference, 5.4e-13 in Wo, is where the Schur-based residual
    # is a hundred times the sign iteration's
    for mode in rs.motor_benchmark().system.modes:
        assert_matches_bartels_stewart(mode.A, mode.B @ mode.B.T, mode.C.T @ mode.C, 1e-11)


@pytest.mark.parametrize("coupling", [1.0, 3.0, 10.0])
def test_sign_solve_matches_bartels_stewart_non_normal(coupling):
    # triangular A with a strong upper coupling: the Lyapunov operator's
    # condition number reaches 1e18 at coupling 10
    rng = np.random.default_rng(int(coupling))
    n = 10
    A = -np.diag(rng.uniform(0.5, 2.0, n)) + np.triu(coupling * rng.uniform(0.5, 1.5, (n, n)), 1)
    B, C = rng.standard_normal((n, 2)), rng.standard_normal((3, n))
    assert_matches_bartels_stewart(A, B @ B.T, C.T @ C, 1e-12)


def test_dual_solve_equals_a_solve_on_the_transpose(rng):
    for n in (1, 5, 30, 80):
        sys_ = rs.random_stable_system(rng, n, 2, 3)
        Qs, Qts = psd_stack(rng, n, 2), psd_stack(rng, n, 3)
        pair = solve_lyapunov(sys_.A, Qs, Q_t=Qts)
        assert pair.Wc.shape == Qs.shape and pair.Wo.shape == Qts.shape
        # the right-hand sides of A carry through the iteration unchanged
        assert np.array_equal(pair.Wc, solve_lyapunov(sys_.A, Qs))
        separate = solve_lyapunov(sys_.A.T, Qts)
        for P, ref in zip(pair.Wo, separate):
            assert np.linalg.norm(P - ref) <= 1e-12 * np.linalg.norm(ref)
        assert pair.residual_o == max(lyapunov_residual(sys_.A.T, Q, P)
                                      for Q, P in zip(Qts, pair.Wo))


def test_gramians_reuse_the_solve_residuals(rng, monkeypatch):
    # one solve per system, and no second residual evaluation
    sys_ = rs.random_stable_system(rng, 9, 2, 2)
    solves, residuals = [], []
    solve, residual = gmod.solve_lyapunov, gmod.lyapunov_residual
    monkeypatch.setattr(gmod, "solve_lyapunov",
                        lambda *a, **kw: solves.append(a) or solve(*a, **kw))
    monkeypatch.setattr(gmod, "lyapunov_residual",
                        lambda *a: residuals.append(a) or residual(*a))
    g = rs.gramians(sys_)
    assert len(solves) == 1 and len(residuals) == 2
    assert g.residual_c == residual(sys_.A, sys_.B @ sys_.B.T, g.Wc)
    assert g.residual_o == residual(sys_.A.T, sys_.C.T @ sys_.C, g.Wo)


def test_sign_iteration_failures_raise_solver_error(monkeypatch):
    A = np.array([[-1.0, 5.0], [0.0, -2.0]])
    monkeypatch.setattr(gmod, "SIGN_MAX_ITER", 2)
    with pytest.raises(rs.SolverError, match="did not converge in 2 steps"):
        solve_lyapunov(A, np.eye(2))
    monkeypatch.undo()

    def singular(Z):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(rs.SolverError, match="singular iterate"):
        solve_lyapunov(A, np.eye(2))


def test_stack_shape_validation():
    with pytest.raises(ValueError, match="match"):
        solve_lyapunov(-np.eye(2), np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="match"):
        solve_lyapunov(-np.eye(2), np.zeros((1, 1, 2, 2)))
    with pytest.raises(ValueError, match="square"):
        solve_lyapunov(np.ones((2, 3)), np.zeros((2, 2, 3)))


def reference_e1_optimization(aug):
    """The quadratic-certificate bound from 5p separate solves, one per output
    and shift, with the full generalized eigenproblem, and the scaled identity
    as one more candidate when the system is contractive."""
    sup_norm = bmod.sup_box_norm(aug.lift_box())
    scale = max(1.0, float(np.linalg.norm(aug.A_bar, 2)))
    identity_ok = contraction_defect(aug) <= bmod.CONTRACTION_TOL_REL * scale
    eps_grid = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
    nk = aug.A_bar.shape[0]
    out = np.empty(aug.p)
    for i in range(aug.p):
        Ci = aug.C_bar[i:i + 1, :]
        CtC = Ci.T @ Ci
        nc2 = float((Ci @ Ci.T)[0, 0])
        best = np.sqrt(nc2) * sup_norm if identity_ok else np.inf
        for eps_rel in eps_grid:
            try:
                P = solve_lyapunov(aug.A_bar.T, CtC + eps_rel * max(nc2, 1e-300) * np.eye(nk))
                lam = scipy.linalg.eigh(CtC, P, eigvals_only=True)
            except (rs.SolverError, scipy.linalg.LinAlgError):
                continue
            P = max(1.0, float(lam[-1])) * P
            best = min(best, np.sqrt(float(np.linalg.eigvalsh(P).max())) * sup_norm)
        out[i] = best
    return out


def unit_box(n):
    """The box [-1, 1]^n."""
    return rs.HyperBox(-np.ones(n), np.ones(n))


def noncontractive_augmented(rng, n, k, p, x0=None):
    """Hurwitz (triangular) and, unless n is small, not contractive, so the
    certificates and not the scaled identity decide the bound.  The coupling is mild: both ways of
    building P(eps) are accurate to about cond(A_bar) times the unit
    roundoff, so they can only agree that closely.  The initial box is
    ``x0``, by default [-1, 1]^n."""
    A = -np.diag(rng.uniform(0.5, 2.0, n)) + np.triu(rng.uniform(0.5, 1.5, (n, n)), 1)
    C = rng.standard_normal((p, n))
    H = rng.standard_normal((n, n))
    return augment(FullOrderResponse(A, np.zeros((n, 1)), C, H,
                                     unit_box(n) if x0 is None else x0, 1.0), k)


@pytest.mark.filterwarnings("error")
def test_e1_optimization_matches_per_output_solves(rng, monkeypatch):
    # non-contractive systems make one stacked solve of p+1 right-hand sides;
    # contractive (balanced) ones make none and return the scaled-identity
    # value, which no certificate of the reference beats
    solves = []
    original = bmod.solve_lyapunov

    def counting(A, Q):
        solves.append(Q.shape)
        return original(A, Q)
    monkeypatch.setattr(bmod, "solve_lyapunov", counting)
    cases = [noncontractive_augmented(rng, n, k, p) for n, k, p in
             ((3, 1, 1), (5, 2, 3), (8, 8, 2), (12, 5, 4))]
    for n in (6, 14):
        bal = balance(rs.random_stable_system(rng, n, 2, 3))
        cases += [augment(FullOrderResponse.of(bal, unit_box(n), 1.0), k) for k in (4, n)]
    kinds = []
    for aug in cases:
        scale = max(1.0, float(np.linalg.norm(aug.A_bar, 2)))
        contractive = contraction_defect(aug) <= bmod.CONTRACTION_TOL_REL * scale
        kinds.append(contractive)
        expected = reference_e1_optimization(aug)
        assert np.all(np.isfinite(expected))
        solves.clear()
        got = e1_optimization(aug)
        assert np.allclose(got, expected, rtol=1e-10, atol=0)
        if not contractive:
            assert solves == [(aug.p + 1,) + aug.A_bar.shape]
        else:
            assert solves == []
            sup_norm = bmod.sup_box_norm(aug.lift_box())
            assert np.array_equal(got, np.linalg.norm(aug.C_bar, axis=1) * sup_norm)
    # the smallest triangular draw happens to be contractive
    assert kinds == [True, False, False, False, True, True, True, True]


@pytest.mark.filterwarnings("error")
def test_every_certificate_meets_its_own_residual(rng, monkeypatch):
    # a combination P_C,i + eps P_I that misses the tolerance is never used:
    # with every residual reported bad, a non-contractive system has no
    # bound left and a contractive one, which builds no certificate, keeps
    # the scaled identity
    monkeypatch.setattr(bmod, "lyapunov_residual", lambda A, Q, P: 1.0)
    aug = noncontractive_augmented(rng, 5, 2, 2)
    with pytest.raises(rs.bounds.BoundError, match="no quadratic certificate met"):
        e1_optimization(aug)
    aug = augment(FullOrderResponse.of(balance(rs.random_stable_system(rng, 6, 1, 2)),
                                       unit_box(6), 1.0), 3)
    assert np.array_equal(e1_optimization(aug), bmod.e1_theoretical(aug))


@st.composite
def noncontractive_cases(draw):
    """A non-contractive augmented system whose full-order initial box is
    drawn too."""
    n = draw(st.integers(4, 10))
    k = draw(st.integers(1, n))
    p = draw(st.integers(1, 3))
    center = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    radius = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    c, r = np.array(center), np.array(radius)
    aug = noncontractive_augmented(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                                   n, k, p, rs.HyperBox(c - r, c + r))
    scale = max(1.0, float(np.linalg.norm(aug.A_bar, 2)))
    assume(contraction_defect(aug) > bmod.CONTRACTION_TOL_REL * scale)
    return aug


@given(noncontractive_cases())
def test_certificates_never_beat_the_scaled_identity(case):
    # lambda_max(alpha P) >= ||C_i||^2 for every accepted certificate, which
    # is why a contractive system builds none
    aug = case
    identity = np.linalg.norm(aug.C_bar, axis=1) * bmod.sup_box_norm(aug.lift_box())
    assert np.all(e1_optimization(aug) >= (1.0 - 1e-12) * identity)
