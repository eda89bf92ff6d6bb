"""Sound per-output error bounds between a full-order system and its
truncation, via the augmented error system.

Four routes are provided: a closed-form zero-input bound from the balanced
contraction property, a Lyapunov-feasible quadratic bound, a Hankel-tail
zero-state bound, and simulation-based bounds for both error sources.
Simulation-derived components are bloated by (1+gamma) when combined, to
absorb discretization error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .balancing import BalancedRealization, box_image
from .gramians import SolverError, solve_lyapunov
from .model import HyperBox, ModelError
from .reach import _transition

E1_THEOREM1 = "theorem1"
E1_THEOREM2 = "theorem2"
E2_THEOREM3 = "theorem3"
SIMULATION = "simulation"

_E1_METHODS = (E1_THEOREM1, E1_THEOREM2, SIMULATION)
_E2_METHODS = (E2_THEOREM3, SIMULATION)

#: Numerical slack, relative to ||A_bar||, for the contraction precondition
#: lambda_max(A_bar + A_bar^T) <= 0 of the closed-form zero-input bound.
CONTRACTION_TOL_REL = 1e-8

#: Default bloat factor applied to simulation-derived bound components.
GAMMA_DEFAULT = 0.01

#: Default vertex budget of the zero-input simulation bound (2^12).
VERTEX_CAP = 4096

#: Simulation step control: ||A_bar|| * h <= this value.
SIM_LH = 0.01

#: Relative state-norm threshold at which an impulse response counts as
#: decayed, and the hard step cap guarding against non-decay.
DECAY_TOL = 1e-9
MAX_IMPULSE_STEPS = 400_000


class BoundError(RuntimeError):
    """A bound precondition failed in a way that would make it unsound."""


@dataclass(frozen=True)
class AugmentedSystem:
    """Block system whose output is the error y - y_r.

    A_bar = diag(A_t, A_r), B_bar stacks (B_t, B_r), C_bar = [C_t, -C_r];
    ``lift`` maps a full-order initial state to (H x0, H[:k] x0).
    """

    A_bar: np.ndarray
    B_bar: np.ndarray
    C_bar: np.ndarray
    lift: np.ndarray
    n: int
    k: int

    @property
    def p(self) -> int:
        return self.C_bar.shape[0]

    @property
    def m(self) -> int:
        return self.B_bar.shape[1]

    def lift_box(self, x0: HyperBox) -> HyperBox:
        """Componentwise-exact interval hull of the lifted initial states
        ``lift @ x0`` over a full-order box."""
        if x0.dim != self.n:
            raise ModelError(f"x0 has dim {x0.dim}, expected n={self.n}")
        return box_image(self.lift, x0)


def augment(bal: BalancedRealization, k: int) -> AugmentedSystem:
    """Augmented error system for the order-k truncation of ``bal``.

    Takes a bare order with no p < k requirement, so degenerate cases
    (k = n = p) remain constructible for oracle checks.
    """
    n = bal.n
    if not (1 <= k <= n):
        raise ModelError(f"k must be in [1, n], got {k}")
    A_t, B_t, C_t = bal.A_t, bal.B_t, bal.C_t
    A_bar = np.zeros((n + k, n + k))
    A_bar[:n, :n] = A_t
    A_bar[n:, n:] = A_t[:k, :k]
    B_bar = np.vstack([B_t, B_t[:k, :]])
    C_bar = np.hstack([C_t, -C_t[:, :k]])
    lift = np.vstack([bal.H, bal.H[:k, :]])
    return AugmentedSystem(A_bar=A_bar, B_bar=B_bar, C_bar=C_bar, lift=lift, n=n, k=k)


def contraction_defect(aug: AugmentedSystem) -> float:
    """lambda_max of the symmetric part of A_bar (must be <= 0 for the
    zero-input bounds)."""
    S = (aug.A_bar + aug.A_bar.T) / 2.0
    return float(np.linalg.eigvalsh(S).max())


def _require_contractive(aug: AugmentedSystem) -> None:
    defect = contraction_defect(aug)
    scale = max(1.0, float(np.linalg.norm(aug.A_bar, 2)))
    if defect > CONTRACTION_TOL_REL * scale:
        raise BoundError(
            f"augmented system is not contractive (lambda_max(sym A_bar) = {defect:.3e}); "
            "the zero-input bound would be unsound")


def sup_box_norm(box: HyperBox) -> float:
    """Sound upper bound on sup ||x||_2 over a box: the norm of the worst
    corner per coordinate (exact when the coordinates are independent)."""
    return float(np.linalg.norm(np.maximum(np.abs(box.lb), np.abs(box.ub))))


def e1_theoretical(aug: AugmentedSystem, x0: HyperBox) -> np.ndarray:
    """Zero-input bound ||C_bar_i||_2 * sup ||x0_bar|| per output, with x0_bar
    ranging over the lift of the full-order initial box ``x0``.

    Valid for all t >= 0 because the balanced augmented system is monotone
    convergent (||x_bar(t)|| never exceeds ||x_bar(0)||); the square root on
    lambda_max(C_i^T C_i) follows the quadratic chain of that argument.
    """
    _require_contractive(aug)
    row_norms = np.linalg.norm(aug.C_bar, axis=1)
    return row_norms * sup_box_norm(aug.lift_box(x0))


def _feasible_quadratic(aug: AugmentedSystem, CtC: np.ndarray, eps: float) -> np.ndarray:
    """A P with P > 0, A_bar^T P + P A_bar < 0 and C^T C <= P, built from the
    Lyapunov equation A_bar^T P + P A_bar = -(C^T C + eps I) and a generalized
    eigenvalue rescale."""
    nk = aug.A_bar.shape[0]
    P = solve_lyapunov(aug.A_bar.T, CtC + eps * np.eye(nk))
    lam = scipy.linalg.eigh(CtC, P, eigvals_only=True)
    alpha = max(1.0, float(lam[-1]))
    return alpha * P


def e1_optimization(aug: AugmentedSystem, x0: HyperBox,
                    refine: bool = True) -> np.ndarray:
    """Zero-input bound via a feasible (not trace-optimal) quadratic certificate.

    For each output row a P satisfying P > 0, A_bar^T P + P A_bar < 0 and
    C_i^T C_i <= P is constructed; the bound is sqrt(lambda_max(P)) times the
    sup norm of the lifted full-order initial box ``x0``.  ``refine``
    searches a small grid of Lyapunov shifts; the scaled-identity certificate
    is always included, so the result never exceeds the closed-form bound
    when that bound applies.
    Falls back to :func:`e1_theoretical` with a warning if every Lyapunov
    construction fails.
    """
    sup_norm = sup_box_norm(aug.lift_box(x0))
    defect = contraction_defect(aug)
    scale = max(1.0, float(np.linalg.norm(aug.A_bar, 2)))
    identity_ok = defect <= CONTRACTION_TOL_REL * scale
    eps_grid = (1e-8,) if not refine else (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
    out = np.empty(aug.p)
    for i in range(aug.p):
        Ci = aug.C_bar[i:i + 1, :]
        CtC = Ci.T @ Ci
        nc2 = float((Ci @ Ci.T)[0, 0])
        best = np.inf
        if identity_ok:
            # P = ||C_i||^2 I is feasible (non-strict decrease suffices for
            # the level-set argument) and reproduces the closed-form bound.
            best = np.sqrt(nc2) * sup_norm
        for eps_rel in eps_grid:
            try:
                P = _feasible_quadratic(aug, CtC, eps_rel * max(nc2, 1e-300))
            except (SolverError, scipy.linalg.LinAlgError):
                continue
            lam_max = float(np.linalg.eigvalsh(P).max())
            best = min(best, np.sqrt(lam_max) * sup_norm)
        if not np.isfinite(best):
            warnings.warn("feasible quadratic certificate construction failed; "
                          "falling back to the closed-form zero-input bound")
            return e1_theoretical(aug, x0)
        out[i] = best
    return out


#: Step control of the vertex simulation (peaks are broad; gamma covers the
#: grid gap).
E1_SIM_LH = 0.02


def e1_simulation(aug: AugmentedSystem, x0: HyperBox, t_f: float,
                  vertex_cap: int = VERTEX_CAP,
                  decay_tol: float = DECAY_TOL) -> np.ndarray:
    """Zero-input bound by simulating every vertex of the initial box.

    The bound is the max over vertices and the time grid of |ybar_i(t)|.
    The error is linear in the initial state, so the vertex max covers the
    whole box at each sampled time; the remaining discretization gap is what
    the gamma bloat in :func:`combine` absorbs.  Refuses boxes with more than
    ``vertex_cap`` vertices, naming the count.

    When the augmented system is contractive the simulation stops once the
    states have decayed, covering the remaining window with the monotone tail
    ||C_i|| ||x(T)||.
    """
    if x0.dim != aug.n:
        raise ModelError(f"x0 has dim {x0.dim}, expected n={aug.n}")
    count = x0.vertex_count()
    if count > vertex_cap:
        raise ModelError(
            f"initial box has 2**{len(x0.free_dims())} = {count} vertices, "
            f"exceeding the cap {vertex_cap}; use a theoretical e1 bound instead")
    if t_f <= 0:
        raise ModelError(f"t_f must be positive, got {t_f}")
    X = aug.lift @ x0.vertices()
    best = np.max(np.abs(aug.C_bar @ X), axis=1)
    L = float(np.linalg.norm(aug.A_bar, 2))
    if L == 0.0:
        return best
    h = E1_SIM_LH / L
    Phi = _transition(aug.A_bar, h)
    x0n = float(np.max(np.linalg.norm(X, axis=0)))
    scale = max(1.0, L)
    contractive = contraction_defect(aug) <= CONTRACTION_TOL_REL * scale
    t = 0.0
    decayed = False
    while t < t_f:
        X = Phi @ X
        t += h
        best = np.maximum(best, np.max(np.abs(aug.C_bar @ X), axis=1))
        if contractive and float(np.max(np.linalg.norm(X, axis=0))) <= decay_tol * x0n:
            decayed = True
            break
    if decayed:
        # monotone convergence: |y_i(t)| <= ||C_i|| ||x(T)|| for all t >= T
        tail = np.linalg.norm(aug.C_bar, axis=1) * float(np.max(np.linalg.norm(X, axis=0)))
        best = np.maximum(best, tail)
    return best


def e2_theoretical(sigma: np.ndarray, k: int, u_box: HyperBox,
                   n_outputs: int) -> np.ndarray:
    """Hankel-tail zero-state bound 2 sum_{j=k+1}^n (2j-1) sigma_j * ||u||_inf.

    The same value applies to every output; ||u||_inf is the componentwise
    sup-norm max_j max(|lb_j|, |ub_j|).
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    if not (1 <= k <= n):
        raise ModelError(f"k must be in [1, n], got {k}")
    if k == n:
        return np.zeros(n_outputs)
    j = np.arange(k + 1, n + 1)
    u_inf = float(np.max(np.maximum(np.abs(u_box.lb), np.abs(u_box.ub)))) \
        if u_box.dim else 0.0
    tail = 2.0 * float(np.sum((2 * j - 1) * sigma[k:]))
    return np.full(n_outputs, tail * u_inf)


def _decay_certificate(A: np.ndarray) -> float | None:
    """kappa with int_T^inf ||x(t)|| dt <= kappa ||x(T)|| for dx/dt = A x,
    from a Lyapunov certificate; None if unavailable."""
    try:
        P = solve_lyapunov(A.T, np.eye(A.shape[0]))
    except Exception:
        return None
    ev = np.linalg.eigvalsh(P)
    if ev[0] <= 0:
        return None
    # V = x^T P x decays at rate 1/lmax; ||x|| <= sqrt(cond) e^{-t/(2 lmax)}
    return float(np.sqrt(ev[-1] / ev[0]) * 2.0 * ev[-1])


def e2_simulation(aug: AugmentedSystem, u_box: HyperBox,
                  decay_tol: float = DECAY_TOL,
                  horizon: float | None = None,
                  max_steps: int = MAX_IMPULSE_STEPS
                  ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Zero-state bound by integrating the augmented impulse responses.

    One simulation per input channel (state initialized to that column of
    B_bar, zero input) runs until the state norm falls below ``decay_tol``
    relative, or to ``horizon`` when given (sound for windows the error
    cannot outlive, e.g. PSS mode durations).  The per-step integrand is
    over-approximated by the max of the endpoint values times (1 + ||A_bar||h)
    to keep the bound one sided, and an analytic tail term covers whatever
    lies beyond the simulated range.

    The same pass yields two bounds.  The plain one multiplies the |kernel|
    integral by ||u||_inf.  The split one splits the input box into center
    and deviation: the center part is bounded by the running signed kernel
    integral (with a rigorous trapezoid remainder) and only the deviation
    multiplies the |kernel| integral.  Both are sound for arbitrary
    measurable inputs in the box; the split one is much tighter when the box
    is a narrow band around a nonzero center.

    Returns (plain, split, truncated); ``truncated`` is set when the step cap
    was reached before decay and no tail certificate was available, in which
    case the caller should reject both bounds.
    """
    if u_box.dim != aug.m:
        raise ModelError(f"input box has dim {u_box.dim}, expected m={aug.m}")
    p, m = aug.p, aug.m
    if m == 0 or not np.any(aug.B_bar):
        return np.zeros(p), np.zeros(p), False
    L = float(np.linalg.norm(aug.A_bar, 2))
    h = SIM_LH / L if L > 0 else 1.0
    Phi = _transition(aug.A_bar, h)
    X = aug.B_bar.copy()
    x0_norms = np.linalg.norm(X, axis=0)
    x0_norms[x0_norms == 0] = 1.0
    c_norms = np.linalg.norm(aug.C_bar, axis=1)
    grow = np.exp(L * h)
    # second-derivative observable: |y_i''| = |C_i A^2 x| inherits whatever
    # cancellation the kernel has (exact zero at k = n), unlike ||C_i|| ||x||
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
        # in-step |y''| bound: endpoint max of the observed |C A^2 x| plus the
        # first-order growth (e^{Lh}-1) ||C_i A^2|| ||x||
        ddot = np.maximum(D2_prev, D2_cur) \
            + (grow - 1.0) * np.outer(d2_norms, np.maximum(norms_prev, norms_cur))
        # interior max of a C^2 signal exceeds its endpoint max by at most
        # h^2/8 max|y''|, which also covers zero crossings
        bulge = (h * h / 8.0) * ddot
        I_abs += h * (peak * (1.0 + L * h) + bulge)
        R_run += h * (Y_prev + Y_cur) / 2.0
        # rigorous per-step trapezoid remainder: h^3/12 max|y''|
        trap_budget += (h ** 3 / 12.0) * ddot
        R_max = np.maximum(R_max, np.abs(R_run) + h * (peak + bulge) + trap_budget)
        Y_prev = Y_cur
        D2_prev = D2_cur
        norms_prev = norms_cur
        t += h
        steps += 1

    # whatever lies beyond the simulated range is covered by a Lyapunov tail
    # certificate; without one the bound is flagged as truncated.
    truncated = False
    if not reached_horizon:
        kappa = _decay_certificate(aug.A_bar)
        if kappa is None:
            truncated = True
        else:
            tail = kappa * np.outer(c_norms, np.linalg.norm(X, axis=0))
            I_abs += tail
            R_max += tail

    plain = I_abs @ np.maximum(np.abs(u_box.lb), np.abs(u_box.ub))
    split = R_max @ np.abs(u_box.center) + I_abs @ u_box.halfwidth
    return plain, split, truncated


@dataclass(frozen=True)
class ErrorBound:
    """Combined per-output bound delta = (1+gamma)(e1 + e2).

    ``gamma`` is the bloat factor actually applied: zero when both components
    are theorem derived, the configured value otherwise.  ``rho`` = ||delta||_2
    is the precision of the induced approximate bisimulation.
    """

    e1: np.ndarray
    e2: np.ndarray
    delta: np.ndarray
    rho: float
    e1_method: str
    e2_method: str
    gamma: float


def combine(e1: np.ndarray, e2: np.ndarray, gamma: float = GAMMA_DEFAULT,
            e1_method: str = E1_THEOREM1, e2_method: str = E2_THEOREM3) -> ErrorBound:
    """Total bound delta_i = (1+gamma_applied)(e1_i + e2_i).

    gamma_applied is zero when both components are theorem derived and
    ``gamma`` when either came from simulation (conservative for mixed
    pairs).
    """
    if gamma < 0:
        raise ModelError(f"gamma must be nonnegative, got {gamma}")
    if e1_method not in _E1_METHODS:
        raise ModelError(f"e1_method must be one of {_E1_METHODS}, got {e1_method!r}")
    if e2_method not in _E2_METHODS:
        raise ModelError(f"e2_method must be one of {_E2_METHODS}, got {e2_method!r}")
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if e1.shape != e2.shape:
        raise ModelError(f"e1 and e2 have different shapes: {e1.shape} vs {e2.shape}")
    if np.any(e1 < 0) or np.any(e2 < 0) or not np.all(np.isfinite(e1)) \
            or not np.all(np.isfinite(e2)):
        raise ModelError("bound components must be finite and nonnegative")
    applied = 0.0 if (e1_method != SIMULATION and e2_method != SIMULATION) else float(gamma)
    delta = (1.0 + applied) * (e1 + e2)
    return ErrorBound(e1=e1, e2=e2, delta=delta, rho=float(np.linalg.norm(delta)),
                      e1_method=e1_method, e2_method=e2_method, gamma=applied)
