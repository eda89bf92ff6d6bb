"""Continuous-time Lyapunov solves and controllability/observability gramians.

The solver is Roberts' sign-function iteration (Int. J. Control 1980), in
the dense form Benner, Quintana-Orti & Quintana-Orti use for balanced
truncation: the scaled Newton iteration Z <- (Z/c + c Z^-1)/2 from Z = A
converges to sign(A) = -I for Hurwitz A, and the right-hand sides carried
along with it converge to twice the solutions.  It needs only inverses and
matrix products.  One call takes one right-hand side or a stack of them,
and optionally a second stack for the dual equation A^T P + P A + Q_t = 0:
every right-hand side shares the one iteration on A, which is how
``gramians`` gets both gramians and ``bounds.e1_optimization`` its p+1
certificate solves per order of a non-contractive system from a single
iteration.  The Hurwitz check computes the eigenvalues of A once per call.
Every solution is symmetrized and checked against a relative residual
threshold so that a silently bad solve cannot propagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LtiSystem, require_hurwitz

#: Accept threshold for the relative Lyapunov residual
#: ||A P + P A^T + Q||_F / (2 ||A||_F ||P||_F + ||Q||_F).
LYAP_TOL = 1e-8

#: Relative symmetry / positive-semidefiniteness slack, scaled by ||W||_F.
SYM_TOL_REL = 1e-10
PSD_TOL_REL = 1e-10

#: Iterations of the sign function after which a solve is given up; a
#: Hurwitz A needs about 7 (n = 8) to 13 (n = 500) with determinant scaling.
SIGN_MAX_ITER = 100


class SolverError(RuntimeError):
    """Lyapunov solve failed or did not meet the residual threshold."""


@dataclass(frozen=True)
class GramianPair:
    """Controllability and observability gramians with solve residuals.

    ``solve_lyapunov`` with a dual right-hand side returns its two solutions
    in this shape too (then a residual is the worst of its stack)."""

    Wc: np.ndarray
    Wo: np.ndarray
    residual_c: float
    residual_o: float


def lyapunov_residual(A: np.ndarray, Q: np.ndarray, P: np.ndarray) -> float:
    """Relative residual of A P + P A^T + Q = 0."""
    num = np.linalg.norm(A @ P + P @ A.T + Q, "fro")
    den = 2 * np.linalg.norm(A, "fro") * np.linalg.norm(P, "fro") + np.linalg.norm(Q, "fro")
    return float(num / den) if den > 0 else float(num)


def _norm1(X: np.ndarray) -> float:
    return np.abs(X).sum(axis=0).max()


def _sign_iteration(A: np.ndarray, eigs: np.ndarray, E: np.ndarray, F: np.ndarray):
    """Run the scaled sign iteration on A and carry the stacks E (for
    A P + P A^T + Q = 0) and F (for A^T P + P A + Q = 0) along; both come
    back holding 2P for their right-hand sides.

    The scale is c = |det Z|^(1/n) until ||Z_next - Z||_1 <= 10 n sqrt(eps)
    ||Z_next||_1, then one unscaled step ends the iteration.  The
    determinant is the product of Z's eigenvalues, which the same map takes
    from A's ``eigs`` to Z's, so it costs no factorization: any c > 0 gives
    the same limit, and c only sets how fast it is reached."""
    n = A.shape[0]
    tol = 10 * n * np.sqrt(np.finfo(float).eps)
    Z, lam = A, eigs.astype(complex)
    scaled = True
    for _ in range(SIGN_MAX_ITER):
        try:
            Zi = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"sign iteration met a singular iterate: {exc}") from exc
        c = np.exp(np.mean(np.log(np.abs(lam)))) if scaled else 1.0
        lam = (lam / c + c / lam) / 2
        Z_next = (Z / c + c * Zi) / 2
        if E.size:
            E = (E / c + c * (Zi @ E @ Zi.T)) / 2
        if F.size:
            F = (F / c + c * (Zi.T @ F @ Zi)) / 2
        if not scaled:
            return E, F
        # a non-finite iterate ends the iteration here, and the residual
        # check rejects what it leaves
        scaled = _norm1(Z_next - Z) > tol * _norm1(Z_next)
        Z = Z_next
    raise SolverError(f"sign iteration did not converge in {SIGN_MAX_ITER} steps")


def _stack(name: str, Q, A: np.ndarray) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    if Q.ndim not in (2, 3) or Q.shape[-2:] != A.shape:
        raise ValueError(f"{name} must match A, got {Q.shape} vs {A.shape}")
    return Q


def _solutions(A: np.ndarray, rhs: np.ndarray, iterated: np.ndarray, active) -> tuple:
    """The symmetrized solutions of every right-hand side of the stack
    ``rhs``, with the worst relative residual; ``iterated`` holds 2P for the
    nonzero right-hand sides listed in ``active``."""
    out = np.zeros_like(rhs)
    worst = 0.0
    for i, X in zip(active, iterated):
        P = out[i]
        P[...] = (X + X.T) / 4.0
        res = lyapunov_residual(A, rhs[i], P)
        if not np.isfinite(res) or res > LYAP_TOL:
            raise SolverError(f"Lyapunov residual {res:.3e} of right-hand side {i} "
                              f"exceeds tolerance {LYAP_TOL:.1e}")
        worst = max(worst, res)
    return out, worst


def solve_lyapunov(A: np.ndarray, Q: np.ndarray,
                   what: str = "Lyapunov coefficient matrix A",
                   Q_t: np.ndarray | None = None):
    """Solve A P + P A^T + Q = 0 for symmetric Q and Hurwitz A.

    ``Q`` is one right-hand side (n, n) or a stack (r, n, n); the symmetrized
    solutions come back in the same shape.  With ``Q_t`` (same rules), the
    dual equation A^T P + P A + Q_t = 0 is solved by the same iteration and
    a :class:`GramianPair` (solutions of Q, of Q_t, and the worst residual of
    each) is returned instead.  A zero right-hand side has the exact
    solution 0.  Raises StabilityError, naming A as ``what``, for
    non-Hurwitz A (the equation is then not uniquely solvable), whatever the
    right-hand sides, and SolverError when the sign iteration fails or the
    relative residual of any solution exceeds LYAP_TOL.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    Q = _stack("Q", Q, A)
    rhs = Q.reshape((-1,) + A.shape)
    dual = Q_t is not None
    rhs_t = _stack("Q_t", Q_t, A).reshape((-1,) + A.shape) if dual else rhs[:0]
    eigs = require_hurwitz(A, what)
    # A P + P A^T = 0 with Hurwitz A has only the trivial solution, so zero
    # right-hand sides are left out of the iteration
    active = [i for i, Qi in enumerate(rhs) if np.any(Qi)]
    active_t = [i for i, Qi in enumerate(rhs_t) if np.any(Qi)]
    E, F = rhs[active], rhs_t[active_t]
    if active or active_t:
        E, F = _sign_iteration(A, eigs, E, F)
    P, res = _solutions(A, rhs, E, active)
    if not dual:
        return P.reshape(Q.shape)
    P_t, res_t = _solutions(A.T, rhs_t, F, active_t)
    return GramianPair(Wc=P.reshape(Q.shape), Wo=P_t.reshape(Q_t.shape),
                       residual_c=res, residual_o=res_t)


def _check_psd(W: np.ndarray, name: str) -> None:
    scale = max(np.linalg.norm(W, "fro"), 1e-300)
    asym = np.max(np.abs(W - W.T)) if W.size else 0.0
    if asym > SYM_TOL_REL * scale:
        raise SolverError(f"{name} is not symmetric within tolerance ({asym:.3e})")
    lmin = float(np.linalg.eigvalsh(W).min())
    if lmin < -PSD_TOL_REL * scale:
        raise SolverError(f"{name} has eigenvalue {lmin:.3e} below the PSD tolerance")


def gramians(sys: LtiSystem) -> GramianPair:
    """Infinite-horizon gramians of a stable system.

    Wc solves A W + W A^T + B B^T = 0 and Wo solves A^T W + W A + C^T C = 0,
    both from one sign iteration on A.  Near-singular gramians (non-minimal
    realizations) are accepted here; the rank decision belongs to balancing.
    A non-Hurwitz system raises StabilityError.
    """
    pair = solve_lyapunov(sys.A, sys.B @ sys.B.T, "system", Q_t=sys.C.T @ sys.C)
    _check_psd(pair.Wc, "controllability gramian")
    _check_psd(pair.Wo, "observability gramian")
    return pair
