"""Balancing transformation, Hankel singular values and truncation.

The balancing matrix follows the square-root procedure: factor Wc = G G^T by
an eigendecomposition Wc = V diag(w) V^T, G = V diag(w)^{1/2} (so
near-semidefinite gramians degrade gracefully), diagonalize
G^T Wo G = K S^2 K^T, and set H = S^{1/2} K^T G^{-1}, where
G^{-1} = diag(w)^{-1/2} V^T needs no inverse.  In the transformed
coordinates both gramians equal diag(sigma).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .gramians import GramianPair, gramians
from .model import HyperBox, LtiSystem, ModelError
from .reach import Zonotope

#: Relative eigenvalue cutoff below which the controllability gramian (or the
#: Hankel spectrum) counts as rank deficient and balancing refuses to proceed.
RANK_TOL = 1e-12

#: Relative deviation allowed between the transformed gramians and
#: diag(sigma) before the realization is rejected as inconsistent.
BAL_TOL = 1e-6

#: Condition-number threshold for the H-conditioning warning.  The
#: computation proceeds; the warning is attached to the result.
COND_MAX = 1e8


class RankDeficiencyError(ModelError):
    """The system is too close to non-minimal for a balancing transform."""


class BalancingWarning(UserWarning):
    pass


@dataclass(frozen=True)
class BalancedRealization:
    """Balanced coordinates of a stable system.

    ``A_t = H A H^-1``, ``B_t = H B``, ``C_t = C H^-1``; ``sigma`` is the
    nonincreasing Hankel spectrum and equals the diagonal of both transformed
    gramians up to ``bal_defect``.
    """

    system: LtiSystem
    H: np.ndarray
    sigma: np.ndarray
    A_t: np.ndarray
    B_t: np.ndarray
    C_t: np.ndarray
    cond_H: float
    bal_defect: float

    @property
    def n(self) -> int:
        return self.system.n


@dataclass(frozen=True)
class Abstraction:
    """Order-k truncation of a balanced realization plus its initial set.

    ``x0_zonotope`` is the initial set reach starts from, the exact image
    {H[:k] x0 : x0 in X0} with one generator per free dim of X0 (see
    :func:`image_zonotope`), and ``x0_reduced`` its componentwise-exact
    interval hull, which a reduced manifest stores.
    """

    reduced: LtiSystem
    k: int
    x0_reduced: HyperBox
    x0_zonotope: Zonotope


def _hankel_factor(g: GramianPair):
    """Factor Wc = G G^T, G = V diag(w)^{1/2}, by an eigendecomposition
    (w ascending), then diagonalize the symmetric G^T Wo G = K diag(s2) K^T
    with s2 nonincreasing; eig(Wc Wo) = s2 even when Wc is near singular."""
    w, V = np.linalg.eigh((g.Wc + g.Wc.T) / 2.0)
    G = V * np.sqrt(np.clip(w, 0.0, None))
    M = G.T @ g.Wo @ G
    s2, K = np.linalg.eigh((M + M.T) / 2.0)
    return w, V, G, s2[::-1], K[:, ::-1]


def hankel_singular_values(sys: LtiSystem) -> np.ndarray:
    """Nonincreasing Hankel spectrum sqrt(eig(Wc Wo)), clamped at zero."""
    s2 = _hankel_factor(gramians(sys))[3]
    return np.sqrt(np.clip(s2, 0.0, None))


def balance(sys: LtiSystem) -> BalancedRealization:
    """Compute the balancing transformation of a stable system.

    A non-Hurwitz system raises StabilityError from the first gramian solve.
    Raises RankDeficiencyError when either gramian is numerically singular
    (non-minimal realization).  An ill-conditioned H (cond > COND_MAX) only
    warns; the condition number is attached to the result.
    """
    g = gramians(sys)
    w, V, G, s2, K = _hankel_factor(g)
    if w[-1] <= 0 or w[0] <= RANK_TOL * w[-1]:
        raise RankDeficiencyError(
            f"controllability gramian is numerically rank deficient "
            f"(eigenvalue ratio {w[0] / max(w[-1], 1e-300):.3e} <= {RANK_TOL:.1e}); "
            "the realization looks non-minimal -- reduce to a minimal realization first")
    sigma = np.sqrt(np.clip(s2, 0.0, None))
    if sigma[0] <= 0 or sigma[-1] <= RANK_TOL * sigma[0]:
        raise RankDeficiencyError(
            f"Hankel spectrum is numerically rank deficient "
            f"(sigma_min/sigma_max = {sigma[-1] / max(sigma[0], 1e-300):.3e}); "
            "the realization looks non-minimal -- reduce to a minimal realization first")
    sqrt_sigma = np.sqrt(sigma)
    # G^-1 = diag(w)^-1/2 V^T, and w > 0 from here on
    H = (sqrt_sigma[:, None] * K.T / np.sqrt(w)[None, :]) @ V.T
    H_inv = (G @ K) / sqrt_sigma[None, :]
    A_t = H @ sys.A @ H_inv
    B_t = H @ sys.B
    C_t = sys.C @ H_inv

    Wct = H @ g.Wc @ H.T
    Wot = H_inv.T @ g.Wo @ H_inv
    D = np.diag(sigma)
    defect = max(np.max(np.abs(Wct - D)), np.max(np.abs(Wot - D))) / sigma[0]
    cond_H = float(np.linalg.cond(H))
    if defect > BAL_TOL:
        raise RankDeficiencyError(
            f"transformed gramians deviate from diag(sigma) by {defect:.3e} relative "
            f"(> {BAL_TOL:.1e}); the balancing transform is numerically unreliable")
    if cond_H > COND_MAX:
        warnings.warn(
            f"balancing matrix is ill conditioned (cond = {cond_H:.3e} > {COND_MAX:.1e}); "
            "downstream bounds remain sound but may be loose", BalancingWarning)
    return BalancedRealization(system=sys, H=H, sigma=sigma,
                               A_t=A_t, B_t=B_t, C_t=C_t,
                               cond_H=cond_H, bal_defect=float(defect))


def box_image(L: np.ndarray, box: HyperBox) -> HyperBox:
    """Componentwise-exact interval hull of {L x : x in box}."""
    mid = L @ box.center
    rad = np.abs(L) @ box.halfwidth
    return HyperBox(mid - rad, mid + rad)


def image_zonotope(L: np.ndarray, box: HyperBox) -> Zonotope:
    """{L x : x in box}, exactly: the zonotope centered at L c with one
    generator L[:, d] r_d per free dim d of the box, in the order of
    :meth:`HyperBox.free_dims`, however many rows L has.  It lies within
    the interval hull :func:`box_image`, and its vertices are the images of
    the box's vertices, so every support of it is attained at one."""
    free = box.free_dims()
    return Zonotope(L @ box.center, L[:, free] * box.halfwidth[free])


def truncate(bal: BalancedRealization, k: int, x0: HyperBox) -> Abstraction:
    """Order-k truncation of a balanced realization.

    Keeps the leading k balanced states; requires p < k <= n so that the
    result qualifies as an output abstraction.
    """
    n, p = bal.n, bal.system.p
    if not (isinstance(k, Integral) and p < k <= n):
        raise ModelError(f"abstraction order must be an integer with p < k <= n, got "
                         f"k={k!r} with p={p}, n={n}")
    if x0.dim != n:
        raise ModelError(f"x0 has dim {x0.dim}, expected n={n}")
    reduced = LtiSystem(bal.A_t[:k, :k], bal.B_t[:k, :], bal.C_t[:, :k])
    H_k = bal.H[:k, :]
    return Abstraction(reduced=reduced, k=k, x0_reduced=box_image(H_k, x0),
                       x0_zonotope=image_zonotope(H_k, x0))
