"""Continuous-time Lyapunov solves and controllability/observability gramians.

The solver is Roberts' sign-function iteration (Int. J. Control 1980), in
the dense form Benner, Quintana-Orti & Quintana-Orti use for balanced
truncation: the scaled Newton iteration Z <- (Z/c + c Z^-1)/2 from Z = A
converges to sign(A) = -I for Hurwitz A, and the right-hand sides carried
along with it converge to twice the solutions.  It needs only inverses,
matrix products and, for its scale, the determinant of each iterate from
an LU factorization.  One call takes one right-hand side or a stack of
them, and optionally a second stack for the dual equation
A^T P + P A + Q_t = 0: every right-hand side shares the one iteration on
A, which is how ``gramians`` gets both gramians and
``bounds.e1_optimization`` its p+1 certificate solves per order of a
non-contractive system from a single iteration.  A counts as Hurwitz when
the top eigenvalue of its symmetric part lies safely below the stability
margin; only otherwise are its eigenvalues computed, once per call.  Every
solution is symmetrized and checked against a relative residual
threshold so that a silently bad solve cannot propagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LtiSystem, default_margin, require_hurwitz

#: Accept threshold for the relative Lyapunov residual
#: ||A P + P A^T + Q||_F / (2 ||A||_F ||P||_F + ||Q||_F).
LYAP_TOL = 1e-8

#: Relative symmetry / positive-semidefiniteness slack, scaled by ||W||_F.
SYM_TOL_REL = 1e-10
PSD_TOL_REL = 1e-10

#: Iterations of the sign function after which a solve is given up; a
#: Hurwitz A needs about 6 (n = 8) to 13 (n = 500) with determinant scaling.
SIGN_MAX_ITER = 100

#: Slack, in units of n eps ||A||_F (eps the machine epsilon), by which the top
#: eigenvalue of A's symmetric part must clear -margin for A to count as
#: Hurwitz without its eigenvalues: it covers the rounding of both that
#: eigenvalue and the eigenvalues check_stability computes.
HURWITZ_SLACK = 4.0


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


def _sign_iteration(A: np.ndarray, E: np.ndarray, F: np.ndarray):
    """Run the scaled sign iteration on A and carry the stacks E (for
    A P + P A^T + Q = 0) and F (for A^T P + P A + Q = 0) along; both come
    back holding 2P for their right-hand sides.

    Every step is scaled by c = |det Z|^(1/n), read off the LU factorization
    of ``np.linalg.slogdet``: any c > 0 gives the same limit, and c only sets
    how fast it is reached.  Newton's iteration converges quadratically, so
    the iteration ends on the first step with ||Z_next - Z||_1 <= sqrt(eps)
    ||Z_next||_1, eps the machine epsilon (Higham, Functions of Matrices,
    2008, section 5.8)."""
    n = A.shape[0]
    tol = np.sqrt(np.finfo(float).eps)
    Z = A
    for _ in range(SIGN_MAX_ITER):
        try:
            Zi = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"sign iteration met a singular iterate: {exc}") from exc
        c = np.exp(np.linalg.slogdet(Z)[1] / n)
        Z_next = (Z / c + c * Zi) / 2
        if E.size:
            E = (E / c + c * (Zi @ E @ Zi.T)) / 2
        if F.size:
            F = (F / c + c * (Zi.T @ F @ Zi)) / 2
        # written so that a non-finite iterate ends the iteration here, and
        # the residual check rejects what it leaves
        if not _norm1(Z_next - Z) > tol * _norm1(Z_next):
            return E, F
        Z = Z_next
    raise SolverError(f"sign iteration did not converge in {SIGN_MAX_ITER} steps")


def _certified_hurwitz(A: np.ndarray) -> bool:
    """Whether A is Hurwitz with check_stability's margin by its symmetric
    part: the spectral abscissa is at most lambda_max((A + A^T)/2)
    (Soederlind, The logarithmic norm, BIT 2006), and that must lie below
    -(margin + slack), slack = HURWITZ_SLACK n eps ||A||_F.  False when it
    does not, or when A is empty or not finite."""
    scale = np.linalg.norm(A)
    if not (A.size and np.isfinite(scale)):
        return False
    slack = HURWITZ_SLACK * A.shape[0] * np.finfo(float).eps * scale
    top = np.linalg.eigvalsh((A + A.T) / 2.0)[-1]
    return bool(top < -(default_margin(A) + slack))


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
    solution 0.  A whose symmetric part certifies it Hurwitz
    (:func:`_certified_hurwitz`) is solved without its eigenvalues; any
    other A goes through ``require_hurwitz``, which raises StabilityError,
    naming A as ``what``, for non-Hurwitz A (the equation is then not
    uniquely solvable), whatever the right-hand sides.  SolverError is
    raised when the sign iteration fails or the relative residual of any
    solution exceeds LYAP_TOL.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    Q = _stack("Q", Q, A)
    rhs = Q.reshape((-1,) + A.shape)
    dual = Q_t is not None
    rhs_t = _stack("Q_t", Q_t, A).reshape((-1,) + A.shape) if dual else rhs[:0]
    if not _certified_hurwitz(A):
        require_hurwitz(A, what)
    # A P + P A^T = 0 with Hurwitz A has only the trivial solution, so zero
    # right-hand sides are left out of the iteration
    active = [i for i, Qi in enumerate(rhs) if np.any(Qi)]
    active_t = [i for i, Qi in enumerate(rhs_t) if np.any(Qi)]
    E, F = rhs[active], rhs_t[active_t]
    if active or active_t:
        E, F = _sign_iteration(A, E, F)
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
