"""Sound per-output error bounds between a full-order system and its
truncation, via the augmented error system.

Four routes are provided: a closed-form zero-input bound from the balanced
contraction property, a Lyapunov-feasible quadratic bound, a Hankel-tail
zero-state bound, and simulation-based bounds for both error sources.  Each
is sound for its own error source, so :func:`assemble` bounds the output
error by delta = min over the zero-input (e1) candidates + min over the
zero-state (e2) candidates, per output.  Both simulation bounds cover the
gaps between their steps with a rigorous second-order envelope, from one
in-step bound on |y''| per column, so no candidate is bloated.

Both simulation bounds hold on a finite window [0, horizon] (t_f, or a PSS
mode's duration) and read one walk of each order's augmented orbit.  It
stops at the horizon, or earlier only when the augmented system is
contractive and every column has decayed, at T.  A monotone tail covers the
rest of the window:
||x(t)|| <= e^{mu tau} ||x(T)|| on [T, horizon], tau = horizon - T, with
mu = max(lambda_max(sym A_bar), 0), which a contractive system keeps within
the contraction tolerance.  So e1 bounds |y_i| there by ||C_i|| e^{mu tau}
||x(T)||, and e2 the integral of channel j's |y_i| by ||C_i|| ||x_j(T)|| tau
e^{mu tau}.

The augmented matrix A_bar = diag(A_t, A_t[:k,:k]) is block diagonal and
||A_bar||_2 = ||A_t||_2, so the simulation step and the full-order half of
every simulated response are the same at every order k.  By Cauchy
interlacing so is lambda_max(sym A_bar) = lambda_max(sym A_t), the
contraction test of the zero-input bounds.  A :class:`FullOrderResponse`
binds the mode's initial box and horizon, computes these once per mode and
simulates that half once, from the input columns and the box's generators
side by side, keeping only its output samples and state-norm bounds, exact
where its states are formed; :func:`augment` builds each order's system
from it, which simulates only its k-dimensional reduced half.  Both halves
are simulated in blocks of steps built by doubling: within a block, the
states f+1 ... 2f are Phi^f times the states 1 ... f, from Phi, Phi^2,
Phi^4, ... computed once per orbit, so a block costs about log2(block)
matrix products and one projection product instead of a Python-level step
loop.  Where the full-order half has at least four states per output row it
takes giant steps of s = floor(n / rows) steps instead: only every s-th
state is formed, each step's outputs are read from the last one through
the left stack [M Phi; ...; M Phi^{s-1}] of its maps M (and as M times
the next one at giant steps), and the state norms between giant steps
are bounded from the last giant step's, so a step costs about 4 rows n m
flops instead of 2 n^2 m.  Every certificate alpha P >= C_i^T C_i of the
quadratic bound has lambda_max(alpha P) >= ||C_i||^2, so none beats the
scaled identity, which is feasible when the augmented system is
contractive; certificates (p+1 Lyapunov solves per order) are built only
where it is not.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .balancing import BalancedRealization, box_image
from .gramians import LYAP_TOL, SolverError, lyapunov_residual, solve_lyapunov
from .model import HyperBox, ModelError
from .reach import Zonotope, _doubling_powers, _propagate, _transition

E1_THEOREM1 = "theorem1"
E1_THEOREM2 = "theorem2"
E2_THEOREM3 = "theorem3"
SIMULATION = "simulation"
#: Every bound method of each error source, in the default order.
E1_METHODS = (E1_THEOREM1, E1_THEOREM2, SIMULATION)
E2_METHODS = (E2_THEOREM3, SIMULATION)

#: Numerical slack, relative to ||A_bar||, for the contraction precondition
#: lambda_max(A_bar + A_bar^T) <= 0 of the closed-form zero-input bound.
CONTRACTION_TOL_REL = 1e-8

#: Step control of the simulation bounds' orbit: ||A_bar|| * h = this
#: value.  Their per-step envelopes are rigorous at any h; the step sets how
#: close the bounds come to the exact sups and integrals.
SIM_LH = 0.05

#: Relative state-norm threshold at which a simulated response of a
#: contractive system counts as decayed.
DECAY_TOL = 1e-9


class BoundError(RuntimeError):
    """A bound precondition failed in a way that would make it unsound."""


@dataclass(frozen=True)
class AugmentedSystem:
    """Block system whose output is the error y - y_r.

    A_bar = diag(A_t, A_r), B_bar stacks (B_t, B_r), C_bar = [C_t, -C_r];
    ``lift`` maps a full-order initial state to (H x0, H[:k] x0).  ``full``
    is the mode's response, whose A, B, C and H are A_t, B_t, C_t and H: the
    bounds read the full-order half, the contraction test, the initial box
    and the horizon from it.  Both simulation bounds read ``simulated``, one
    walk of this order's augmented orbit.
    """

    A_bar: np.ndarray
    B_bar: np.ndarray
    C_bar: np.ndarray
    lift: np.ndarray
    n: int
    k: int
    full: FullOrderResponse

    @property
    def p(self) -> int:
        return self.C_bar.shape[0]

    @property
    def m(self) -> int:
        return self.B_bar.shape[1]

    def lift_box(self) -> HyperBox:
        """Componentwise-exact interval hull of the lifted initial states
        ``lift @ x0`` over the mode's box ``full.x0``."""
        return box_image(self.lift, self.full.x0)

    @functools.cached_property
    def simulated(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What both simulation bounds read from one walk (:func:`_simulate`)."""
        return _simulate(self)


def augment(full: FullOrderResponse, k: int) -> AugmentedSystem:
    """Augmented error system for the order-k truncation of the mode whose
    response is ``full`` (``FullOrderResponse.of(bal, x0, horizon)``, one per
    mode).

    Takes a bare order with no p < k requirement, so degenerate cases
    (k = n = p) remain constructible for oracle checks.
    """
    A_t, B_t, C_t, H = full.A, full.B, full.C, full.H
    n = A_t.shape[0]
    if not (1 <= k <= n):
        raise ModelError(f"k must be in [1, n], got {k}")
    A_bar = np.zeros((n + k, n + k))
    A_bar[:n, :n] = A_t
    A_bar[n:, n:] = A_t[:k, :k]
    B_bar = np.vstack([B_t, B_t[:k, :]])
    C_bar = np.hstack([C_t, -C_t[:, :k]])
    lift = np.vstack([H, H[:k, :]])
    return AugmentedSystem(A_bar=A_bar, B_bar=B_bar, C_bar=C_bar, lift=lift, n=n, k=k,
                           full=full)


def sup_box_norm(box: HyperBox) -> float:
    """Sound upper bound on sup ||x||_2 over a box: the norm of the worst
    corner per coordinate (exact when the coordinates are independent)."""
    return float(np.linalg.norm(np.maximum(np.abs(box.lb), np.abs(box.ub))))


def _contractive_bound(aug: AugmentedSystem) -> np.ndarray:
    """||C_bar_i||_2 * sup ||x0_bar|| per output, with x0_bar ranging over the
    lift of the mode's initial box: theorem1's bound, and theorem2's on a
    contractive system."""
    return np.linalg.norm(aug.C_bar, axis=1) * sup_box_norm(aug.lift_box())


def e1_theoretical(aug: AugmentedSystem) -> np.ndarray:
    """Zero-input bound ||C_bar_i||_2 * sup ||x0_bar|| per output, with x0_bar
    ranging over the lift of the mode's initial box ``aug.full.x0``.

    Valid for all t >= 0 because the balanced augmented system is monotone
    convergent (||x_bar(t)|| never exceeds ||x_bar(0)||); the square root on
    lambda_max(C_i^T C_i) follows the quadratic chain of that argument.  The
    contraction test is read from the mode's response ``aug.full``.
    """
    if not aug.full.contractive:
        raise BoundError(
            "augmented system is not contractive (lambda_max(sym A_bar) = "
            f"{aug.full.defect:.3e}); the zero-input bound would be unsound")
    return _contractive_bound(aug)


def e1_optimization(aug: AugmentedSystem) -> np.ndarray:
    """Zero-input bound via a feasible (not trace-optimal) quadratic certificate.

    A P > 0 with A_bar^T P + P A_bar <= 0 and C_i^T C_i <= P bounds output i
    by sqrt(lambda_max(P)) times the sup norm of the lifted initial box
    ``aug.full.x0``.  Any such P has lambda_max(P) >= C_i P C_i^T / ||C_i||^2 >=
    ||C_i||^2, so on a contractive A_bar, where ||C_i||^2 I is feasible, that
    scaled identity is best and its value is returned without a solve.
    Otherwise the candidates are alpha P(eps) over a grid of shifts, with
    A_bar^T P(eps) + P(eps) A_bar = -(C_i^T C_i + eps I) and
    alpha = max(1, C_i P(eps)^-1 C_i^T) (the generalized eigenvalue of the
    rank-one pair).  P(eps) = P_C,i + eps P_I comes from p+1 right-hand
    sides of one sign iteration; each combination must meet the Lyapunov
    residual tolerance against its own right-hand side, and BoundError is
    raised when no candidate of some output does.  The contraction test is read from the
    mode's response ``aug.full``.
    """
    if aug.full.contractive:
        return _contractive_bound(aug)
    sup_norm = sup_box_norm(aug.lift_box())
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
                L = np.linalg.cholesky(P)
            except np.linalg.LinAlgError:
                continue
            # C_i P^-1 C_i^T = ||L^-1 C_i||^2 for P = L L^T
            alpha = max(1.0, float(np.sum(np.linalg.solve(L, Ci) ** 2)))
            lam_max = float(np.linalg.eigvalsh(alpha * P).max())
            out[i] = min(out[i], np.sqrt(lam_max) * sup_norm)
    if not np.all(np.isfinite(out)):
        raise failure
    return out


#: Doubles held by one block of simulated states: a block of steps is built
#: by doubling from its first state and then projected as a whole.  A
#: giant-step block keeps the same number of steps, rounded down to whole
#: giant steps (at least one), and forms only one state per giant step.
ORBIT_BLOCK_DOUBLES = 1 << 19


def _norm_data(states: np.ndarray, width: int) -> np.ndarray:
    """The squared column norms (steps, width) of a block of states
    (n, steps*width), step-major as :func:`_propagate` lays them out."""
    return np.einsum("ij,ij->j", states, states).reshape(-1, width)


def _split_maps(images: np.ndarray, maps: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Per-step images (steps, rows, width) of the stacked maps, split per map."""
    return np.split(images, np.cumsum([M.shape[0] for M in maps[:-1]]), axis=1)


def _project(states: np.ndarray, width: int,
             maps: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Each map applied to a block of states (n, steps*width), step-major as
    :func:`_propagate` lays them out, then the states' :func:`_norm_data`.
    The results come per step: (steps, rows, width), then (steps, width).
    The maps share one product."""
    steps = states.shape[1] // width
    images = (np.vstack(maps) @ states).reshape(-1, steps, width).swapaxes(0, 1)
    return _split_maps(images, maps) + [_norm_data(states, width)]


class _Orbit:
    """Projections of the states Phi^j X0, j = 0, 1, ..., with Phi = e^{A h},
    simulated block by block on first request and kept, with upper bounds
    on the states' norm data.

    With n states, ``rows`` map rows in all and m columns, a step costs
    2 n^2 m flops when its state is formed.  The orbit forms only the giant
    states R_b = Phi^{s b} X0, every ``stride`` s = floor(n / rows) steps
    where n >= 4 rows and every step otherwise (baby step / giant step).  A
    block of giant states is built by doubling (:func:`_propagate`) from
    the powers Phi^s, Phi^{2s}, Phi^{4s}, ..., computed once per orbit, and
    step s b + a is read as (M Phi^a) R_b for 1 <= a < s, from the left
    stack [M Phi; ...; M Phi^{s-1}] of the stacked maps M (s - 1
    (rows x n)(n x n) products, once per orbit), and as M R_{b+1} at
    a = s.  A step then costs 2 rows n m + 2 n^2 m / s flops, about
    4 rows n m when s > 1; at s = 1 the left stack is empty and a step
    costs 2 n^2 m, as a step loop spends, but in log2(block) + 1 products
    instead of block small ones.  The giant states' norm data (squared
    column norms) is exact; between them, step s b + a carries
    e^{2 mu a h} times R_b's, an upper bound since ||e^{A t}||_2 <= e^{mu t}
    for mu = max(``defect``, 0) and ``defect`` >= lambda_max(sym A).  Every
    reader of the norm data uses it only as an upper bound.  Of the states
    only the last is kept."""

    def __init__(self, A: np.ndarray, h: float, X0: np.ndarray,
                 maps: tuple[np.ndarray, ...], defect: float):
        n, width = X0.shape
        rows = sum(M.shape[0] for M in maps)
        self.h = h
        self.stride = n // rows if n >= 4 * rows else 1
        block = max(16, min(512, ORBIT_BLOCK_DOUBLES // max(1, X0.size)))
        giants = max(1, block // self.stride)
        self.block = giants * self.stride
        self.head = _project(X0, width, maps)
        self.maps = maps
        self._last, self._last_data = X0, self.head[-1][0]
        self._blocks: list[list[np.ndarray]] = []
        Phi = _transition(A, h)
        left = [np.vstack(maps)]
        for _ in range(self.stride - 1):
            left.append(left[-1] @ Phi)
        self._stacked, self._left = left[0], np.vstack(left)[rows:]
        self._powers = _doubling_powers(np.linalg.matrix_power(Phi, self.stride), giants)
        # e^{2 mu a h} for a = 1 ... s-1
        self._growth = np.exp(2.0 * max(defect, 0.0) * h * np.arange(1, self.stride))

    def __getitem__(self, i: int) -> list[np.ndarray]:
        """Block i: the projections of steps 1 + i*block ... (i+1)*block."""
        while len(self._blocks) <= i:
            self._blocks.append(self._next_block())
        return self._blocks[i]

    def _next_block(self) -> list[np.ndarray]:
        """The projections of the block after the last one built."""
        s, (rows, width) = self.stride, (self._stacked.shape[0], self._last.shape[1])
        giants = self.block // s
        # R_1 ... R_G after R_0, the last state of the block before
        states = _propagate(self._powers, self._last, giants)
        data = _norm_data(states, width)
        starts = np.hstack([self._last, states[:, :-width]])
        # step s g + a of the block at [g, a - 1]: (M Phi^a) R_g for a < s,
        # M R_{g+1} at a = s, with R_g's data grown by e^{2 mu a h} for a < s
        images = np.empty((giants, s, rows, width))
        images[:, :-1] = (self._left @ starts).reshape(s - 1, rows, giants, width) \
            .transpose(2, 0, 1, 3)
        images[:, -1] = (self._stacked @ states).reshape(rows, giants, width).swapaxes(0, 1)
        bounds = np.empty((giants, s, width))
        bounds[:, :-1] = self._growth[:, None] \
            * np.concatenate([self._last_data[None], data[:-1]])[:, None]
        bounds[:, -1] = data
        self._last, self._last_data = states[:, -width:].copy(), data[-1]
        return _split_maps(images.reshape(self.block, rows, width), self.maps) + [
            bounds.reshape(self.block, width)]


def _error_orbit(full: _Orbit, A_r: np.ndarray, X_r: np.ndarray,
                 maps_r: tuple[np.ndarray, ...]):
    """Projected blocks of the augmented orbit: the shared full-order orbit
    plus this order's reduced part from X_r, stepped by the same h and built
    by the same doubling.  Step 0 comes first as a block of its own, then
    blocks of ``full.block`` steps."""
    width = X_r.shape[1]
    yield [f + r for f, r in zip(full.head, _project(X_r, width, maps_r))]
    powers = _doubling_powers(_transition(A_r, full.h), full.block)
    for i in itertools.count():
        states = _propagate(powers, X_r, full.block)
        X_r = states[:, -width:].copy()
        yield [f + r for f, r in zip(full[i], _project(states, width, maps_r))]


def _block_times(t: float, h: float, count: int) -> np.ndarray:
    """The times t + h, (t + h) + h, ... accumulated as a step loop does."""
    return np.cumsum(np.concatenate([[t], np.full(count, h)]))[1:]


def _accumulate(carry: np.ndarray, incs: np.ndarray) -> np.ndarray:
    """Running sums carry + incs[0], (carry + incs[0]) + incs[1], ..."""
    return np.cumsum(np.concatenate([carry[None], incs]), axis=0)[1:]


class FullOrderResponse:
    """The full-order half of the simulation bounds of one mode with its
    initial box ``x0`` and its window [0, ``horizon``] (t_f, or a PSS mode's
    duration), shared by every order k, whose bounds read the box and window here.

    One orbit starts from [B_t | H c | H r_1 e_1 ... H r_f e_f], the input
    columns beside the lifted generators of ``x0`` (center c, free
    half-widths r), and records C_t x, C_t A_t^2 x, C_t A_t^3 x and ||x||^2
    per column: e2 reads the first m columns and e1 the rest, from which
    every vertex's output and a bound on its norm follow.  It is simulated
    lazily, block by block, as far as the orders asking for it need.  Build
    one per mode with ``FullOrderResponse.of(bal, x0, horizon)`` and every
    order's augmented system from it with :func:`augment`.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray, H: np.ndarray,
                 x0: HyperBox, horizon: float):
        if x0.dim != A.shape[0]:
            raise ModelError(f"x0 has dim {x0.dim}, expected n={A.shape[0]}")
        # written so that NaN fails the test
        if not (np.isfinite(horizon) and horizon > 0):
            raise ModelError(f"horizon must be a finite positive real, got {horizon}")
        self.A, self.B, self.C, self.H, self.x0 = A, B, C, H, x0
        self.horizon = float(horizon)

    @functools.cached_property
    def L(self) -> float:
        """||A_bar||_2 of every augmented system of this mode."""
        return float(np.linalg.norm(self.A, 2))

    @functools.cached_property
    def defect(self) -> float:
        """lambda_max(sym A_t), which bounds lambda_max(sym A_bar) of every
        augmented system of this mode: sym A_bar = diag(sym A_t,
        sym A_t[:k, :k]), and by Cauchy interlacing the principal block's
        largest eigenvalue is at most sym A_t's."""
        return float(np.linalg.eigvalsh((self.A + self.A.T) / 2.0).max())

    @property
    def contractive(self) -> bool:
        """The precondition of the zero-input bounds at every order: the
        defect is at most CONTRACTION_TOL_REL * max(1, ||A_bar||_2)."""
        return self.defect <= CONTRACTION_TOL_REL * max(1.0, self.L)

    @classmethod
    def of(cls, bal: BalancedRealization, x0: HyperBox,
           horizon: float) -> "FullOrderResponse":
        return cls(bal.A_t, bal.B_t, bal.C_t, bal.H, x0, horizon)

    @functools.cached_property
    def orbit(self) -> _Orbit:
        """The mode's orbit at step SIM_LH / L, read through (C, CA^2, CA^3)."""
        CA2 = self.C @ self.A @ self.A
        return _Orbit(self.A, SIM_LH / self.L if self.L > 0 else 1.0,
                      np.hstack([self.B, self.H @ _box_generators(self.x0)]),
                      (self.C, CA2, CA2 @ self.A), self.defect)


def _box_generators(box: HyperBox) -> np.ndarray:
    """[c, r_1 e_1, ..., r_f e_f] over the free dims: vertex s is c + sum s_d r_d e_d."""
    return np.hstack([box.center[:, None], Zonotope.from_box(box).generators])


def _walk(aug: AugmentedSystem, X0: np.ndarray):
    """The one block walk of this order's augmented orbit: the mode's orbit,
    whose augmented start columns are X0, with this order's reduced half
    from X0[n:].  It stops at the first state that reaches the horizon (up
    to 1e-12 relative, the rounding of the accumulated times) or, on a
    contractive mode, has decayed: every column's state-norm bound is at
    most DECAY_TOL times its norm at t = 0.  Each bound's tail holds from
    any stop time T, so one rule serves every column.

    Yields per block (Y, ddot, N, window) over its steps up to the stop,
    with the state before the block prepended, so that step j runs from
    state j to state j + 1: the error outputs Y (steps+1, p, width), the
    in-step |y''| bounds ddot (steps, p, width), the state-norm bounds N
    (steps+1, width), and ``window``, horizon - T after a stop on decay
    (the part of the window the tails cover) and None otherwise.
    """
    n, k, full = aug.n, aug.k, aug.full
    orbit = full.orbit
    h, mu, horizon = orbit.h, max(full.defect, 0.0), full.horizon
    A_r, C_r, X_r = aug.A_bar[n:, n:], aug.C_bar[:, n:], X0[n:]
    # derivative observables: |y_i''| = |C_i A^2 x| inherits whatever
    # cancellation the kernel has (exact zero at k = n), unlike ||C_i|| ||x||,
    # and C_i A^3 x bounds its change within a step
    D2_r = C_r @ A_r @ A_r
    D3_r = D2_r @ A_r
    blocks = _error_orbit(orbit, A_r, X_r, (C_r, D2_r, D3_r))
    d3_full = orbit.maps[2]
    d3_norms = np.linalg.norm(np.hstack([d3_full, D3_r]), axis=1)
    # ||e^{A s} - I|| <= e^{L|s|} - 1 for |s| <= h/2, the distance to the
    # nearer endpoint of a step
    half_grow = np.expm1(full.L * h / 2.0)
    # The same change through w = x_f - P x_r, P = [I_k; 0], on which alone
    # the error output C_t w depends: it is C_t A_t^3 (e^{A_t s} - I) w
    # + C_t (A_t^3 F(s) + G (e^{A_r s} - I)) x_r with G = A_t^3 P - P A_r^3
    # and F(s) = e^{A_t s} P - P e^{A_r s}, the integral of
    # e^{A_t (s-u)} E e^{A_r u} over u in [0, s], E = A_t P - P A_r
    # = [0; A_t[k:, :k]], so ||F(s)|| <= |s| e^{L|s|} ||E||.  Its bound is
    # w_coef ||w|| + x_coef ||x||, with ||w(t)|| <= e^{mu t} (||w(0)||
    # + t ||E|| ||x_r(0)||) from the start columns and ||E|| taken in
    # Frobenius norm, at least the spectral one.  Every term is 0 at k = n,
    # where the error output vanishes identically.
    a3 = np.linalg.norm(d3_full, axis=1)
    E = np.linalg.norm(full.A[k:, :k])
    norm_coef, w_coef = half_grow * d3_norms, half_grow * a3
    x_coef = a3 * (h / 2.0) * np.exp(full.L * h / 2.0) * E \
        + np.linalg.norm(d3_full[:, :k] + D3_r, axis=1) * half_grow
    w0 = np.linalg.norm(np.vstack([X0[:k] - X_r, X0[k:n]]), axis=0)
    r0 = np.linalg.norm(X_r, axis=0)
    decay_at = DECAY_TOL * np.linalg.norm(X0, axis=0)
    # that bound is the smaller for row i only where x_coef_i < norm_coef_i
    # and ||w|| < rho_i ||x||, rho_i = (norm_coef_i - x_coef_i) / w_coef_i;
    # a block is checked against the largest rho_i before it is formed
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.max(np.where(x_coef < norm_coef, (norm_coef - x_coef) / w_coef, -np.inf))
    Y, D2, D3, sq = next(blocks)
    prev = (Y[0], np.abs(D2[0]), np.abs(D3[0]), np.sqrt(sq[0]))
    t = 0.0
    for Y, D2, D3, sq in blocks:
        # the states after prev, at the times a step loop would reach them
        times = _block_times(t, h, len(Y))
        D2, D3 = np.abs(D2), np.abs(D3)
        norms = np.sqrt(sq)
        decayed = full.contractive & np.all(norms <= decay_at, axis=1)
        stop = (times >= horizon - 1e-12 * horizon) | decayed
        end = int(np.argmax(stop)) + 1 if stop.any() else None
        window = max(horizon - float(times[end - 1]), 0.0) if end and decayed[end - 1] else None
        Ys, D2s, D3s, Ns = (np.concatenate([a[None], b[:end]])
                            for a, b in zip(prev, (Y, D2, D3, norms)))
        # in-step |y''| bound M: every point of a step lies within h/2 of
        # an endpoint e, where y'' = C A^2 x_e changes by at most
        # (h/2) max|C A^3 x|, and |C_i A^3 x| <= |C_i A^3 x_e| plus the
        # smaller bound on its change from x_e: (e^{Lh/2}-1) ||C_i A^3|| ||x_e||,
        # or the one through w, whose ||w|| bound grows with t and so is
        # taken at the later end
        Nm = np.maximum(Ns[:-1], Ns[1:])
        ts = times[:end, None]
        with np.errstate(over="ignore", invalid="ignore"):
            W = np.exp(mu * ts) * (w0 + ts * E * r0)
            smaller = np.any(W < rho * Nm)
        change = norm_coef[:, None] * Nm[:, None, :]
        if smaller:
            change = np.fmin(change, w_coef[:, None] * W[:, None, :]
                             + x_coef[:, None] * Nm[:, None, :])
        ddot = np.maximum(D2s[:-1], D2s[1:]) + (h / 2.0) * (np.maximum(D3s[:-1], D3s[1:])
                                                            + change)
        yield Ys, ddot, Ns, window
        if end is not None:
            return
        prev = (Y[-1], D2[-1], D3[-1], norms[-1])
        t = times[-1]


def _vertex_peak(Y: np.ndarray) -> np.ndarray:
    """max over vertices of |y_s| = |y_c| + sum_d |y_d|, per row of the
    generator outputs Y (last axis: center, then one column per free dim)."""
    return np.abs(Y[..., 0]) + np.sum(np.abs(Y[..., 1:]), axis=-1)


def _simulate(aug: AugmentedSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e1, I_abs, R_max), tails included, from one :func:`_walk` over the
    augmented start columns [B_bar | lift c, lift r_1 e_1, ..., lift r_f e_f]:
    e1 per output from the box's generators, and from the first m, the
    input columns, per output and channel the |kernel| integral I_abs and
    the bound R_max on the running signed kernel integral that
    :func:`e2_simulation` reads."""
    m, p, h = aug.m, aug.p, aug.full.orbit.h
    X0 = np.hstack([aug.B_bar, aug.lift @ _box_generators(aug.full.x0)])
    bulge = h ** 2 / 8.0
    e1 = np.zeros(p)
    I_abs, R_run, R_max, trap_budget = (np.zeros((p, m)) for _ in range(4))
    for Y, ddot, N, window in _walk(aug, X0):
        V = _vertex_peak(Y[..., m:])
        e1 = np.maximum(e1, np.max(np.maximum(V[:-1], V[1:])
                                   + bulge * np.sum(ddot[..., m:], axis=-1), axis=0))
        Y, ddot = Y[..., :m], ddot[..., :m]
        # int |y| <= int |linear interpolant| + int |y - interpolant|, and
        # |y - interpolant| <= s(h-s)/2 M integrates to h^3/12 M
        rem = (h ** 3 / 12.0) * ddot
        I_abs = _accumulate(I_abs, h * (np.abs(Y[:-1]) + np.abs(Y[1:])) / 2.0 + rem)[-1]
        runs = _accumulate(R_run, h * (Y[:-1] + Y[1:]) / 2.0)
        # the same h^3/12 M bounds each step's trapezoid remainder
        traps = _accumulate(trap_budget, rem)
        # the running integral R at the step's nodes is within the summed
        # remainders of the trapezoid sums, and between them within
        # h^2/8 max|y'| <= h^2/8 (|dy|/h + hM/2) of their linear interpolant
        nodes = np.abs(runs) + traps
        ends = np.maximum(np.concatenate([(np.abs(R_run) + trap_budget)[None], nodes[:-1]]),
                          nodes)
        inner = (h / 8.0) * np.abs(Y[1:] - Y[:-1]) + (h ** 3 / 16.0) * ddot
        R_max = np.maximum(R_max, np.max(ends + inner, axis=0))
        R_run, trap_budget = runs[-1], traps[-1]
    if window is not None:
        c_norms = np.linalg.norm(aug.C_bar, axis=1)
        # ||e^{A_bar t}||_2 <= e^{mu t} with mu = max(defect, 0), so
        # |y_i(t)| <= ||C_i|| e^{mu tau} ||x(T)|| for all t in [T, horizon]
        # and every point of the box
        growth = float(np.exp(max(aug.full.defect, 0.0) * window))
        e1 = np.maximum(e1, c_norms * np.sum(N[-1, m:]) * growth)
        # int_T^horizon |y_i| <= ||C_i|| ||x_j(T)|| tau e^{mu tau}, and R
        # changes by at most as much after T
        tail = np.outer(c_norms, N[-1, :m]) * (window * growth)
        I_abs += tail
        R_max += tail
    return e1, I_abs, R_max


def e1_simulation(aug: AugmentedSystem) -> np.ndarray:
    """Zero-input bound on the mode's window [0, horizon] over its initial
    box, both read from ``aug.full``, by simulating the box's generators.

    The error is linear in the initial state, so with the generator
    responses [c, r_1 e_1, ..., r_f e_f] the vertex max of |ybar_i| at any
    time is V_i = |ybar_i(c)| + sum_d |ybar_i(r_d e_d)|, and every vertex
    state norm is at most the sum of the generators' norms (the triangle
    inequality), so no vertex is enumerated.  The envelope between steps is
    rigorous: on a step of length h each generator's output lies within
    h^2/8 M_g of its linear interpolant, with M_g the in-step |y''| bound
    of :func:`_walk`, and a vertex's sum of interpolants is linear in t, so
    step j bounds every vertex by max(V_j, V_{j+1}) + h^2/8 sum_g M_g.

    The generator responses are columns of this order's one walk
    (:func:`_walk`), which :func:`e2_simulation` reads too.  After a decay
    stop at T the tail ||C_i|| e^{mu tau} times the generators' norm sum at
    T covers the rest of the window, tau = horizon - T: every point of the
    box has ||x(t)|| <= e^{mu (t - T)} ||x(T)|| for t >= T.
    """
    return aug.simulated[0].copy()


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


def e2_simulation(aug: AugmentedSystem, u_box: HyperBox) -> np.ndarray:
    """Zero-state bound on the mode's window [0, horizon] by integrating the
    augmented impulse responses.

    Each input channel's response starts from its column of B_bar with zero
    input: the input columns of this order's one walk (:func:`_walk`), which
    :func:`e1_simulation` reads too.  After a decay stop at T the tail
    ||C_i|| ||x_j(T)|| tau e^{mu tau}, tau = horizon - T, bounds the rest of
    each |kernel| integral.  Each step's envelope is second order and
    rigorous: with M the in-step bound on |y''| of :func:`_walk`, the
    |kernel| integral takes the trapezoid of the endpoint magnitudes plus
    h^3/12 M.  A zero input matrix gives exact zeros.

    The input box is split into center and deviation: only the deviation
    multiplies the |kernel| integral I_abs, and the center multiplies a
    bound on sup_t |R(t)| of the running signed kernel integral R, the
    smaller of I_abs and R_max (the trapezoid sums plus their h^3/12 M
    remainders at the nodes, and between nodes h |dy|/8 + h^3/16 M for the
    distance to their linear interpolant; the tail bounds R's change after
    T).  Both factors bound sup_t |R(t)|, so the bound is sound for
    arbitrary measurable inputs in the box and never exceeds I_abs
    ||u||_inf.
    """
    if u_box.dim != aug.m:
        raise ModelError(f"input box has dim {u_box.dim}, expected m={aug.m}")
    _, I_abs, R_max = aug.simulated
    return np.minimum(R_max, I_abs) @ np.abs(u_box.center) + I_abs @ u_box.halfwidth


@dataclass(frozen=True)
class ErrorBound:
    """Per-output bound delta = e1 + e2 assembled from the best candidate of
    each error source.

    ``e1`` (``e2``) is the componentwise minimum of the zero-input
    (zero-state) candidates, each sound as computed and none bloated, and
    ``e1_method[i]`` (``e2_method[i]``) names the method whose value output
    i took.
    """

    e1: np.ndarray
    e2: np.ndarray
    delta: np.ndarray
    e1_method: tuple[str, ...]
    e2_method: tuple[str, ...]


def _least(candidates: dict[str, np.ndarray], shape: tuple[int, ...]
           ) -> tuple[np.ndarray, tuple[str, ...]]:
    """Componentwise minimum of per-output candidate vectors and the label
    of the winner per output; ties go to the earlier candidate."""
    labels = list(candidates)
    stack = [np.asarray(candidates[label], dtype=float) for label in labels]
    if any(v.shape != shape for v in stack):
        raise ModelError(f"bound components must all have shape {shape}")
    stack = np.stack(stack)
    # written so that NaN fails the test
    if not np.all((stack >= 0) & np.isfinite(stack)):
        raise ModelError("bound components must be finite and nonnegative")
    win = np.argmin(stack, axis=0)
    return stack[win, np.arange(stack.shape[1])], tuple(labels[i] for i in win)


def assemble(e1s: dict[str, np.ndarray], e2s: dict[str, np.ndarray]) -> ErrorBound:
    """delta = min over the e1 candidates + min over the e2 candidates, per
    output.

    Every candidate must be sound for its own error source, as every method
    of this module is with no bloat, so the sum of the two minima bounds the
    output error.  Candidates are tried in the dicts' order, and an
    output whose candidates tie takes the earlier label.  Refuses empty
    candidate sets, mismatched shapes and non-finite or negative components.
    """
    if not e1s or not e2s:
        raise ModelError("delta needs at least one e1 and one e2 candidate")
    shape = np.shape(next(iter(e1s.values())))
    e1, e1_method = _least(e1s, shape)
    e2, e2_method = _least(e2s, shape)
    return ErrorBound(e1=e1, e2=e2, delta=e1 + e2, e1_method=e1_method,
                      e2_method=e2_method)
