"""Sound per-output error bounds between a full-order system and its
truncation, via the augmented error system.

Four routes are provided: a closed-form zero-input bound from the balanced
contraction property, a Lyapunov-feasible quadratic bound, a Hankel-tail
zero-state bound, and simulation-based bounds for both error sources.
Simulation-derived components are bloated by (1+gamma) when combined, to
absorb discretization error.

The augmented matrix A_bar = diag(A_t, A_t[:k,:k]) is block diagonal and
||A_bar||_2 = ||A_t||_2, so the simulation step and the full-order half of
every simulated response are the same at every order k.  A
:class:`FullOrderResponse` simulates that half once per mode, keeping only
its output samples and state-norm data, and each order then simulates only
its k-dimensional reduced half.  Every certificate alpha P >= C_i^T C_i of
the quadratic bound has lambda_max(alpha P) >= ||C_i||^2, so none beats the
scaled identity, which is feasible when the augmented system is contractive;
certificates (p+1 Lyapunov solves per order) are built only where it is not.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .balancing import BalancedRealization, box_image
from .gramians import LYAP_TOL, SolverError, lyapunov_residual, solve_lyapunov
from .model import HyperBox, ModelError, StabilityError
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


def _contractive(aug: AugmentedSystem, norm: float | None = None) -> bool:
    """lambda_max(sym A_bar) <= 0 up to CONTRACTION_TOL_REL * max(1, ||A_bar||_2);
    ``norm`` is ||A_bar||_2 when the caller has it."""
    norm = float(np.linalg.norm(aug.A_bar, 2)) if norm is None else norm
    return contraction_defect(aug) <= CONTRACTION_TOL_REL * max(1.0, norm)


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
    if not _contractive(aug):
        raise BoundError(
            "augmented system is not contractive (lambda_max(sym A_bar) = "
            f"{contraction_defect(aug):.3e}); the zero-input bound would be unsound")
    row_norms = np.linalg.norm(aug.C_bar, axis=1)
    return row_norms * sup_box_norm(aug.lift_box(x0))


def e1_optimization(aug: AugmentedSystem, x0: HyperBox) -> np.ndarray:
    """Zero-input bound via a feasible (not trace-optimal) quadratic certificate.

    A P > 0 with A_bar^T P + P A_bar <= 0 and C_i^T C_i <= P bounds output i
    by sqrt(lambda_max(P)) times the sup norm of the lifted full-order box
    ``x0``.  Any such P has lambda_max(P) >= C_i P C_i^T / ||C_i||^2 >=
    ||C_i||^2, so on a contractive A_bar, where ||C_i||^2 I is feasible, that
    scaled identity is best and its value is returned without a solve.
    Otherwise the candidates are alpha P(eps) over a grid of shifts, with
    A_bar^T P(eps) + P(eps) A_bar = -(C_i^T C_i + eps I) and
    alpha = max(1, C_i P(eps)^-1 C_i^T) (the generalized eigenvalue of the
    rank-one pair).  P(eps) = P_C,i + eps P_I comes from p+1 solves on one
    Schur form; each combination must meet the Lyapunov residual tolerance
    against its own right-hand side, and BoundError is raised when no
    candidate of some output does.
    """
    sup_norm = sup_box_norm(aug.lift_box(x0))
    if _contractive(aug):
        return np.array([np.sqrt(float(Ci @ Ci)) * sup_norm for Ci in aug.C_bar])
    failure = BoundError(f"no quadratic certificate met the residual tolerance {LYAP_TOL:.1e}")
    At = aug.A_bar.T
    eye = np.eye(At.shape[0])
    CtC = aug.C_bar[:, :, None] * aug.C_bar[:, None, :]
    try:
        *P_C, P_I = solve_lyapunov(At, np.concatenate([CtC, eye[None]]))
    except SolverError as exc:
        raise failure from exc
    out = np.full(aug.p, np.inf)
    for i, Ci in enumerate(aug.C_bar):
        nc2 = float(Ci @ Ci)
        for eps_rel in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
            eps = eps_rel * max(nc2, 1e-300)
            P = P_C[i] + eps * P_I
            if not lyapunov_residual(At, CtC[i] + eps * eye, P) <= LYAP_TOL:
                continue
            try:
                alpha = max(1.0, float(Ci @ scipy.linalg.cho_solve(
                    scipy.linalg.cho_factor(P), Ci)))
            except scipy.linalg.LinAlgError:
                continue
            lam_max = float(np.linalg.eigvalsh(alpha * P).max())
            out[i] = min(out[i], np.sqrt(lam_max) * sup_norm)
    if not np.all(np.isfinite(out)):
        raise failure
    return out


#: Step control of the vertex simulation (peaks are broad; gamma covers the
#: grid gap).
E1_SIM_LH = 0.02

#: Doubles held by one block of simulated states: a block of steps is
#: propagated one state at a time and then projected as a whole.
ORBIT_BLOCK_DOUBLES = 1 << 19


def _propagate(Phi: np.ndarray, X: np.ndarray, steps: int) -> np.ndarray:
    """The states Phi X, Phi^2 X, ..., Phi^steps X, shape (steps, *X.shape)."""
    out = np.empty((steps,) + X.shape)
    for j in range(steps):
        X = np.matmul(Phi, X, out=out[j])
    return out


def _project(states: np.ndarray, maps: tuple[np.ndarray, ...],
             gram: bool) -> list[np.ndarray]:
    """Each map applied to a block of states, then the squared column norms
    of the states (``gram`` False) or their Gram matrices (``gram`` True)."""
    out = [M @ states for M in maps]
    if gram:
        out.append(states.swapaxes(-1, -2) @ states)
    else:
        out.append(np.einsum("...ij,...ij->...j", states, states))
    return out


class _Orbit:
    """Projections of the states Phi^j X0, j = 0, 1, ..., with Phi = e^{A h},
    simulated block by block on first request and kept; of the states only
    the last is kept."""

    def __init__(self, A: np.ndarray, h: float, X0: np.ndarray,
                 maps: tuple[np.ndarray, ...], gram: bool):
        self.h = h
        self.block = max(16, min(512, ORBIT_BLOCK_DOUBLES // max(1, X0.size)))
        self.head = _project(X0[None], maps, gram)
        self.maps, self._gram = maps, gram
        self._Phi, self._last = _transition(A, h), X0
        self._blocks: list[list[np.ndarray]] = []

    def __getitem__(self, i: int) -> list[np.ndarray]:
        """Block i: the projections of steps 1 + i*block ... (i+1)*block."""
        while len(self._blocks) <= i:
            states = _propagate(self._Phi, self._last, self.block)
            self._last = states[-1].copy()
            self._blocks.append(_project(states, self.maps, self._gram))
        return self._blocks[i]


def _error_orbit(full: _Orbit, A_r: np.ndarray, X_r: np.ndarray,
                 maps_r: tuple[np.ndarray, ...], gram: bool):
    """Projected blocks of the augmented orbit: the shared full-order part
    plus this order's reduced part, stepped by the same h.  Step 0 comes
    first as a block of its own, then blocks of ``full.block`` steps."""
    yield [f + r for f, r in zip(full.head, _project(X_r[None], maps_r, gram))]
    Phi_r = _transition(A_r, full.h)
    for i in itertools.count():
        states = _propagate(Phi_r, X_r, full.block)
        X_r = states[-1]
        yield [f + r for f, r in zip(full[i], _project(states, maps_r, gram))]


def _block_times(t: float, h: float, count: int) -> np.ndarray:
    """The times t + h, (t + h) + h, ... accumulated as a step loop does."""
    return np.cumsum(np.concatenate([[t], np.full(count, h)]))[1:]


def _accumulate(carry: np.ndarray, incs: np.ndarray) -> np.ndarray:
    """Running sums carry + incs[0], (carry + incs[0]) + incs[1], ..."""
    return np.cumsum(np.concatenate([carry[None], incs]), axis=0)[1:]


class FullOrderResponse:
    """The full-order half of the simulation bounds of one mode, shared by
    every order k.

    The e2 impulse responses start from B_t and record C_t x, C_t A_t^2 x
    and ||x||^2 per channel; the e1 responses start from the lifted
    generators [H c, H diag(r)] of the initial box (center c, free half-widths
    r) and record C_t x and the generators' Gram matrix, from which every
    vertex follows.  Both are simulated lazily, block by block, as far as the
    orders asking for them need.  Build one per mode with
    ``FullOrderResponse.of(bal)`` and pass it to every order's bounds.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray, H: np.ndarray):
        self.A, self.B, self.C, self.H = A, B, C, H
        self._impulse: _Orbit | None = None
        self._initial: tuple[HyperBox, _Orbit] | None = None

    @functools.cached_property
    def L(self) -> float:
        """||A_bar||_2 of every augmented system of this mode."""
        return float(np.linalg.norm(self.A, 2))

    def _step(self, lh: float) -> float:
        return lh / self.L if self.L > 0 else 1.0

    @classmethod
    def of(cls, bal: BalancedRealization) -> "FullOrderResponse":
        return cls(bal.A_t, bal.B_t, bal.C_t, bal.H)

    def impulse(self) -> _Orbit:
        """The e2 orbit from B_t at step SIM_LH / L."""
        if self._impulse is None:
            self._impulse = _Orbit(self.A, self._step(SIM_LH), self.B,
                                   (self.C, self.C @ self.A @ self.A), gram=False)
        return self._impulse

    def initial(self, x0: HyperBox) -> _Orbit:
        """The e1 orbit from the lifted generators of ``x0`` at step
        E1_SIM_LH / L (rebuilt when asked for another box)."""
        if self._initial is None or self._initial[0] != x0:
            self._initial = (x0, _Orbit(self.A, self._step(E1_SIM_LH),
                                        self.H @ _box_generators(x0), (self.C,),
                                        gram=True))
        return self._initial[1]


def _response(aug: AugmentedSystem, full: FullOrderResponse | None) -> FullOrderResponse:
    """``full`` after checking that it is the full-order half of ``aug``, or a
    fresh response when it is None."""
    n = aug.n
    parts = aug.A_bar[:n, :n], aug.B_bar[:n], aug.C_bar[:, :n], aug.lift[:n]
    if full is None:
        return FullOrderResponse(*parts)
    if not all(np.array_equal(a, b) for a, b in zip((full.A, full.B, full.C, full.H), parts)):
        raise ModelError("full-order response belongs to another system")
    return full


def _box_generators(box: HyperBox) -> np.ndarray:
    """[c, r_1 e_1, ..., r_f e_f] over the free dims: vertex s is c + sum s_d r_d e_d."""
    free = box.free_dims()
    gens = np.zeros((box.dim, 1 + len(free)))
    gens[:, 0] = box.center
    gens[free, 1 + np.arange(len(free))] = box.halfwidth[free]
    return gens


def _vertex_signs(f: int) -> np.ndarray:
    """(1+f, 2^f) coefficients [1; s] of every vertex of an f-dim box."""
    bits = (np.arange(1 << f)[None, :] >> np.arange(f)[:, None]) & 1
    return np.vstack([np.ones((1, 1 << f)), 2.0 * bits - 1.0])


def _vertex_peak(Y: np.ndarray) -> np.ndarray:
    """max over vertices of |y_s| = |y_c| + sum_d |y_d|, per row of the
    generator outputs Y (last axis: center, then one column per free dim)."""
    return np.abs(Y[..., 0]) + np.sum(np.abs(Y[..., 1:]), axis=-1)


def _max_vertex_norm(gram: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """max over vertices of ||x_s|| = sqrt(s^T G s), per Gram matrix G of a block."""
    chunk = max(1, ORBIT_BLOCK_DOUBLES // signs.size)
    sq = [np.max(np.sum((gram[a:a + chunk] @ signs) * signs, axis=1), axis=1)
          for a in range(0, len(gram), chunk)]
    return np.sqrt(np.maximum(np.concatenate(sq), 0.0))


def _decayed_vertex_norms(gram: np.ndarray, signs: np.ndarray,
                          threshold: float) -> np.ndarray:
    """Per Gram matrix of a block, the max vertex norm where it is at most
    ``threshold`` and inf elsewhere.  The vertex mean of s^T G s is trace(G),
    so only steps whose trace is near or below threshold^2 are enumerated."""
    out = np.full(len(gram), np.inf)
    near = np.nonzero(np.trace(gram, axis1=1, axis2=2)
                      <= (1.0 + 1e-6) * threshold * threshold)[0]
    if near.size:
        norms = _max_vertex_norm(gram[near], signs)
        out[near] = np.where(norms <= threshold, norms, np.inf)
    return out


def e1_simulation(aug: AugmentedSystem, x0: HyperBox, t_f: float,
                  vertex_cap: int = VERTEX_CAP,
                  decay_tol: float = DECAY_TOL,
                  full: FullOrderResponse | None = None) -> np.ndarray:
    """Zero-input bound by simulating every vertex of the initial box.

    The bound is the max over vertices and the time grid of |ybar_i(t)|.
    The error is linear in the initial state, so the vertex max covers the
    whole box at each sampled time; the remaining discretization gap is what
    the gamma bloat in :func:`combine` absorbs.  Refuses boxes with more than
    ``vertex_cap`` vertices, naming the count.  The vertex responses are
    those of the box generators: at every step the vertex max of |ybar_i| is
    |ybar_i(c)| + sum_d |ybar_i(r_d e_d)|, and vertex state norms come from
    the generators' Gram matrix.  The full-order half of these responses is
    read from ``full`` (built here when not given).

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
    full = _response(aug, full)
    n, L = aug.n, full.L
    orbit = full.initial(x0)
    blocks = _error_orbit(orbit, aug.A_bar[n:, n:], aug.lift[n:] @ _box_generators(x0),
                          (aug.C_bar[:, n:],), gram=True)
    Y, G = next(blocks)
    best = _vertex_peak(Y[0])
    if L == 0.0:
        return best
    signs = _vertex_signs(len(x0.free_dims()))
    contractive = _contractive(aug, L)
    x0n = float(_max_vertex_norm(G, signs)[0]) if contractive else 0.0
    t = 0.0
    for Y, G in blocks:
        times = _block_times(t, orbit.h, len(Y))
        # the max vertex norm at decayed steps, inf elsewhere
        decayed = _decayed_vertex_norms(G, signs, decay_tol * x0n) if contractive \
            else np.full(len(Y), np.inf)
        stop = (times >= t_f) | (decayed < np.inf)
        end = int(np.argmax(stop)) + 1 if stop.any() else len(Y)
        best = np.maximum(best, np.max(_vertex_peak(Y[:end]), axis=0))
        if stop.any():
            break
        t = times[-1]
    if decayed[end - 1] < np.inf:
        # monotone convergence: |y_i(t)| <= ||C_i|| ||x(T)|| for all t >= T
        best = np.maximum(best, np.linalg.norm(aug.C_bar, axis=1) * decayed[end - 1])
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
    except (SolverError, StabilityError, np.linalg.LinAlgError):
        return None
    ev = np.linalg.eigvalsh(P)
    if ev[0] <= 0:
        return None
    # V = x^T P x decays at rate 1/lmax; ||x|| <= sqrt(cond) e^{-t/(2 lmax)}
    return float(np.sqrt(ev[-1] / ev[0]) * 2.0 * ev[-1])


def e2_simulation(aug: AugmentedSystem, u_box: HyperBox,
                  decay_tol: float = DECAY_TOL,
                  horizon: float | None = None,
                  max_steps: int = MAX_IMPULSE_STEPS,
                  full: FullOrderResponse | None = None
                  ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Zero-state bound by integrating the augmented impulse responses.

    One simulation per input channel (state initialized to that column of
    B_bar, zero input) runs until the state norm falls below ``decay_tol``
    relative, or to ``horizon`` when given (sound for windows the error
    cannot outlive, e.g. PSS mode durations).  The per-step integrand is
    over-approximated by the max of the endpoint values times (1 + ||A_bar||h)
    to keep the bound one sided, and an analytic tail term covers whatever
    lies beyond the simulated range.  The full-order half of the responses
    (C_t x, C_t A_t^2 x and ||x||^2 per step) is read from ``full`` (built
    here when not given); this order simulates only its reduced half, and
    the per-step envelopes are evaluated block by block as array operations.

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
    p, m, n = aug.p, aug.m, aug.n
    if m == 0 or not np.any(aug.B_bar):
        return np.zeros(p), np.zeros(p), False
    full = _response(aug, full)
    L = full.L
    orbit = full.impulse()
    h = orbit.h
    A_r, C_r = aug.A_bar[n:, n:], aug.C_bar[:, n:]
    # second-derivative observable: |y_i''| = |C_i A^2 x| inherits whatever
    # cancellation the kernel has (exact zero at k = n), unlike ||C_i|| ||x||
    D2_r = C_r @ A_r @ A_r
    blocks = _error_orbit(orbit, A_r, aug.B_bar[n:], (C_r, D2_r), gram=False)
    d2_norms = np.linalg.norm(np.hstack([orbit.maps[1], D2_r]), axis=1)
    x0_norms = np.linalg.norm(aug.B_bar, axis=0)
    x0_norms[x0_norms == 0] = 1.0
    grow = np.exp(L * h)

    I_abs = np.zeros((p, m))
    R_run = np.zeros((p, m))
    R_max = np.zeros((p, m))
    trap_budget = np.zeros((p, m))
    t = 0.0
    first = 0
    prev = None
    for Y, D2, sq in blocks:
        # states first, first+1, ... of this block, at the times a step loop
        # would have reached them
        count = len(Y)
        times = np.zeros(1) if prev is None else _block_times(t, h, count)
        D2 = np.abs(D2)
        norms = np.sqrt(sq)
        at_horizon = np.zeros(count, bool) if horizon is None \
            else times >= horizon - 1e-12 * horizon
        stop = at_horizon | np.all(norms <= decay_tol * x0_norms, axis=1) \
            | (first + np.arange(count) >= max_steps)
        stopped = bool(stop.any())
        end = int(np.argmax(stop)) + 1 if stopped else count
        if prev is not None:
            # step j runs from state j-1 to state j
            Ys = np.concatenate([prev[0][None], Y[:end]])
            D2s = np.concatenate([prev[1][None], D2[:end]])
            Ns = np.concatenate([prev[2][None], norms[:end]])
            peak = np.maximum(np.abs(Ys[:-1]), np.abs(Ys[1:]))
            # in-step |y''| bound: endpoint max of the observed |C A^2 x| plus
            # the first-order growth (e^{Lh}-1) ||C_i A^2|| ||x||
            ddot = np.maximum(D2s[:-1], D2s[1:]) \
                + (grow - 1.0) * (d2_norms[:, None] * np.maximum(Ns[:-1], Ns[1:])[:, None, :])
            # interior max of a C^2 signal exceeds its endpoint max by at most
            # h^2/8 max|y''|, which also covers zero crossings
            bulge = (h * h / 8.0) * ddot
            I_abs = _accumulate(I_abs, h * (peak * (1.0 + L * h) + bulge))[-1]
            runs = _accumulate(R_run, h * (Ys[:-1] + Ys[1:]) / 2.0)
            # rigorous per-step trapezoid remainder: h^3/12 max|y''|
            traps = _accumulate(trap_budget, (h ** 3 / 12.0) * ddot)
            R_max = np.maximum(R_max, np.max(np.abs(runs) + h * (peak + bulge) + traps,
                                             axis=0))
            R_run, trap_budget = runs[-1], traps[-1]
        if stopped:
            break
        prev = (Y[-1], D2[-1], norms[-1])
        t = times[-1]
        first += count
    reached_horizon = bool(at_horizon[end - 1])
    final_norms = norms[end - 1]

    # whatever lies beyond the simulated range is covered by a Lyapunov tail
    # certificate; without one the bound is flagged as truncated.
    truncated = False
    if not reached_horizon:
        kappa = _decay_certificate(aug.A_bar)
        if kappa is None:
            truncated = True
        else:
            tail = kappa * np.outer(np.linalg.norm(aug.C_bar, axis=1), final_norms)
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
