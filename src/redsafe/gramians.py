"""Continuous-time Lyapunov solves and controllability/observability gramians.

The solver is Bartels-Stewart on the real Schur form.  One call takes one
right-hand side or a stack of them: the Hurwitz check and the Schur form of
the coefficient matrix are computed once and reused for every right-hand
side (one ``trsyl`` each), which is how ``bounds.e1_optimization`` gets its
p+1 certificate solves per order of a non-contractive system from a single
factorization.  The Hurwitz check reads the spectral abscissa off the
diagonal of that Schur form, so a solve computes no eigenvalues.  Every
solution is symmetrized and checked against a relative residual threshold
so that a silently bad solve cannot propagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import LtiSystem, require_hurwitz

#: Accept threshold for the relative Lyapunov residual
#: ||A P + P A^T + Q||_F / (2 ||A||_F ||P||_F + ||Q||_F).
LYAP_TOL = 1e-8

#: Relative symmetry / positive-semidefiniteness slack, scaled by ||W||_F.
SYM_TOL_REL = 1e-10
PSD_TOL_REL = 1e-10


class SolverError(RuntimeError):
    """Lyapunov solve failed or did not meet the residual threshold."""


@dataclass(frozen=True)
class GramianPair:
    """Controllability and observability gramians with solve residuals."""

    Wc: np.ndarray
    Wo: np.ndarray
    residual_c: float
    residual_o: float


def lyapunov_residual(A: np.ndarray, Q: np.ndarray, P: np.ndarray) -> float:
    """Relative residual of A P + P A^T + Q = 0."""
    num = np.linalg.norm(A @ P + P @ A.T + Q, "fro")
    den = 2 * np.linalg.norm(A, "fro") * np.linalg.norm(P, "fro") + np.linalg.norm(Q, "fro")
    return float(num / den) if den > 0 else float(num)


def solve_lyapunov(A: np.ndarray, Q: np.ndarray,
                   what: str = "Lyapunov coefficient matrix A") -> np.ndarray:
    """Solve A P + P A^T + Q = 0 for symmetric Q and Hurwitz A.

    ``Q`` is one right-hand side (n, n) or a stack (r, n, n); the symmetrized
    solutions come back in the same shape.  A zero right-hand side has the
    exact solution 0.  Raises StabilityError, naming A as ``what``, for
    non-Hurwitz A (the equation is then not uniquely solvable), whatever the
    right-hand sides, and SolverError when the Schur-based solve fails or the
    relative residual of any solution exceeds LYAP_TOL.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    if Q.ndim not in (2, 3) or Q.shape[-2:] != A.shape:
        raise ValueError(f"Q must match A, got {Q.shape} vs {A.shape}")
    rhs = Q.reshape((-1,) + A.shape)
    out = np.zeros_like(rhs)
    try:
        R, U = scipy.linalg.schur(A, output="real")
        trsyl, = scipy.linalg.get_lapack_funcs(("trsyl",), (R,))
    except Exception as exc:
        raise SolverError(f"Schur-based Lyapunov solve failed: {exc}") from exc
    # the standardized real Schur form carries the real part of every
    # eigenvalue on its diagonal, including both of a 2x2 block's
    require_hurwitz(A, what, abscissa=float(np.max(np.diag(R), initial=-np.inf)))
    for i, (Qi, P) in enumerate(zip(rhs, out)):
        if not np.any(Qi):
            # A P + P A^T = 0 with Hurwitz A has only the trivial solution.
            continue
        try:
            # U^T (-Q) U = R Y + Y R^T, then P = U Y U^T
            Y, scale, info = trsyl(R, R, U.T.dot((-Qi).dot(U)), tranb="T")
        except Exception as exc:
            raise SolverError(f"Schur-based Lyapunov solve failed: {exc}") from exc
        if info < 0:
            raise SolverError(f"trsyl rejected argument {-info}")
        X = U.dot(Y * scale).dot(U.T)
        P[...] = (X + X.T) / 2.0
        res = lyapunov_residual(A, Qi, P)
        if not np.isfinite(res) or res > LYAP_TOL:
            raise SolverError(f"Lyapunov residual {res:.3e} of right-hand side {i} "
                              f"exceeds tolerance {LYAP_TOL:.1e}")
    return out.reshape(Q.shape)


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

    Wc solves A W + W A^T + B B^T = 0 and Wo solves A^T W + W A + C^T C = 0.
    Near-singular gramians (non-minimal realizations) are accepted here; the
    rank decision belongs to balancing.  A non-Hurwitz system raises
    StabilityError.
    """
    Qc = sys.B @ sys.B.T
    Qo = sys.C.T @ sys.C
    Wc = solve_lyapunov(sys.A, Qc, "system")
    Wo = solve_lyapunov(sys.A.T, Qo, "system")
    _check_psd(Wc, "controllability gramian")
    _check_psd(Wo, "observability gramian")
    return GramianPair(Wc=Wc, Wo=Wo,
                       residual_c=lyapunov_residual(sys.A, Qc, Wc),
                       residual_o=lyapunov_residual(sys.A.T, Qo, Wo))
