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
mode's duration) and read one walk (:func:`_simulate`) of each order's
augmented orbit over reach's grid rule: N = :func:`reach._step_count`
(horizon, SIM_LH / L) even steps of horizon / N, at most SIM_LH / L, that
end at the horizon.

The augmented matrix A_bar = diag(A_t, A_t[:k,:k]) is block diagonal and
||A_bar||_2 = ||A_t||_2, so the simulation step and the full-order half of
every simulated response are the same at every order k.  By Cauchy
interlacing so is lambda_max(sym A_bar) = lambda_max(sym A_t), the
contraction test of the zero-input bounds.  A :class:`FullOrderResponse`
binds the mode's initial box and horizon, computes these once per mode and
simulates that half once, from its start columns X, the input columns and
the box's generators side by side, keeping only its output rows and its
giant states' norms; :func:`augment` builds each order's system from it,
and each order's walk simulates its k-dimensional reduced half from X[:k]
on the full-order half's grid.  Each half is an orbit of
:class:`reach._Orbit`, the routine that reach's age table is read through
too, whose blocks hold one row per step: only every s-th (giant) state is
formed, and each step's outputs are read from the giant state before it
through the stack [M; M Phi; ...; M Phi^{s-1}] of its maps M.  Where the
full-order half has at least four states per output row, s = floor(n /
rows) and a step costs about 4 rows n m flops instead of 2 n^2 m;
elsewhere s = 1.  The reduced half takes the full-order half's s and
blocks, so a step of it costs 2 rows k m + 2 k^2 m / s flops.  Both
halves' state norms are exact at giant steps and bounded between them
from the last giant step's.

Every certificate alpha P >= C_i^T C_i of the quadratic bound has
lambda_max(alpha P) >= ||C_i||^2, so none beats the scaled identity, which
is feasible when the augmented system is contractive; certificates (p+1
Lyapunov solves per order) are built only where it is not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .balancing import BalancedRealization, box_image
from .gramians import LYAP_TOL, SolverError, lyapunov_residual, solve_lyapunov
from .model import HyperBox, ModelError
from .reach import Zonotope, _Orbit, _step_count, _transition

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

#: Step control of the simulation bounds' orbit: ||A_bar|| * h <= this
#: value.  Their per-step envelopes are rigorous at any h; the step sets how
#: close the bounds come to the exact sups and integrals.
SIM_LH = 0.05


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
    if not (isinstance(k, Integral) and 1 <= k <= n):
        raise ModelError(f"k must be an integer in [1, n], got {k!r}")
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


class FullOrderResponse:
    """The full-order half of the simulation bounds of one mode with its
    initial box ``x0`` and its window [0, ``horizon``] (t_f, or a PSS mode's
    duration), shared by every order k, whose bounds read the box and window here.

    One orbit starts from :attr:`start`, [B_t | H c | H r_1 e_1 ... H r_f
    e_f], the input columns beside the lifted generators of ``x0`` (center
    c, free half-widths r), and records C_t x, C_t A_t^2 x and C_t A_t^3 x
    per step and ||x||^2 per giant step and column: e2 reads the first m
    columns and e1 the rest, from which every vertex's output and a bound
    on its norm follow; each order's reduced half starts from their first k
    rows.  The orbit is simulated lazily, block by block, over its
    :attr:`steps` steps of :attr:`h`, which end at the horizon, by the first
    order's walk (:func:`_simulate`), and read by every later one.  Build
    one per mode with ``FullOrderResponse.of(bal, x0, horizon)`` and every
    order's augmented system from it with :func:`augment`.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray, H: np.ndarray,
                 x0: HyperBox, horizon: float):
        if x0.dim != A.shape[0]:
            raise ModelError(f"x0 has dim {x0.dim}, expected n={A.shape[0]}")
        # written so that NaN fails the test
        if not (isinstance(horizon, Real) and np.isfinite(horizon) and horizon > 0):
            raise ModelError(f"horizon must be a finite positive real, got {horizon!r}")
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
    def steps(self) -> int:
        """N = :func:`reach._step_count` (horizon, SIM_LH / L), reach's grid
        rule (steps of at most 1 where L = 0)."""
        return int(_step_count(self.horizon, SIM_LH / self.L if self.L > 0 else 1.0))

    @property
    def h(self) -> float:
        """The step horizon / N: N steps of it end at the horizon."""
        return self.horizon / self.steps

    @functools.cached_property
    def start(self) -> np.ndarray:
        """The start columns X = [B_t | H c | H r_1 e_1 ... H r_f e_f]."""
        return np.hstack([self.B, self.H @ _box_generators(self.x0)])

    @functools.cached_property
    def orbit(self) -> _Orbit:
        """The mode's orbit of X over its N steps, read through (C, CA^2, CA^3)."""
        CA2 = self.C @ self.A @ self.A
        return _Orbit(_transition(self.A, self.h), self.start, (self.C, CA2, CA2 @ self.A),
                      self.steps)


def _box_generators(box: HyperBox) -> np.ndarray:
    """[c, r_1 e_1, ..., r_f e_f] over the free dims: vertex s is c + sum s_d r_d e_d."""
    return np.hstack([box.center[:, None], Zonotope.from_box(box).generators])


def _vertex_peak(Y: np.ndarray) -> np.ndarray:
    """max over vertices of |y_s| = |y_c| + sum_d |y_d|, per row of the
    generator outputs Y (last axis: center, then one column per free dim)."""
    return np.abs(Y[..., 0]) + np.sum(np.abs(Y[..., 1:]), axis=-1)


def _simulate(aug: AugmentedSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e1, I_abs, R_max) from the one walk of this order's augmented
    orbit: e1 per output from the box's generator columns, and from the
    first m, the input columns, per output and channel the |kernel| integral
    I_abs and the bound R_max on the running signed kernel integral that
    :func:`e2_simulation` reads.

    The walk adds each block of this order's reduced orbit, from X[:k] of
    X = ``full.start``, built ``like`` the mode's and written into one reused
    buffer, to the mode's kept block, both read through three maps of p
    rows: the error output y and its derivatives y'' = C A^2 x and C A^3 x.  Step j runs from
    state j to j + 1 over the mode's N steps of h, which end at the horizon.
    The squared norm bounds are exact at giant steps, the two halves' sum,
    and a steps after giant state R_b ``growth[a]`` = e^{2 mu a h} times
    R_b's, an upper bound since ||e^{A t}||_2 <= e^{mu t} for mu =
    max(defect, 0) and defect >= lambda_max(sym A_t), which by Cauchy
    interlacing bounds the reduced half's lambda_max(sym A_t[:k, :k]) too."""
    n, k, full = aug.n, aug.k, aug.full
    orbit, X, m, p = full.orbit, full.start, full.B.shape[1], aug.p
    h, mu, s, w = full.h, max(full.defect, 0.0), orbit.stride, orbit.width
    A_r, C_r = aug.A_bar[n:, n:], aug.C_bar[:, n:]
    # derivative observables: |y_i''| = |C_i A^2 x| inherits whatever
    # cancellation the kernel has (exact zero at k = n), unlike ||C_i|| ||x||,
    # and C_i A^3 x bounds its change within a step
    D2_r = C_r @ A_r @ A_r
    D3_r = D2_r @ A_r
    reduced = _Orbit(_transition(A_r, h), X[:k], (C_r, D2_r, D3_r), orbit.steps, like=orbit)
    growth = np.exp(2.0 * mu * h * np.arange(s))
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
    # + t ||E|| ||x_r(0)||) from the start columns, where w(0) = X[k:], and
    # ||E|| taken in Frobenius norm, at least the spectral one.  Every term
    # is 0 at k = n, where the error output vanishes identically.
    a3 = np.linalg.norm(d3_full, axis=1)
    E = np.linalg.norm(full.A[k:, :k])
    norm_coef, w_coef = half_grow * d3_norms, half_grow * a3
    x_coef = a3 * (h / 2.0) * np.exp(full.L * h / 2.0) * E \
        + np.linalg.norm(d3_full[:, :k] + D3_r, axis=1) * half_grow
    w0, r0 = np.linalg.norm(X[k:], axis=0), np.linalg.norm(X[:k], axis=0)
    # that bound is the smaller for row i only where x_coef_i < norm_coef_i
    # and ||w|| < rho_i ||x||, rho_i = (norm_coef_i - x_coef_i) / w_coef_i;
    # a block is checked against the largest rho_i before it is formed
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.max(np.where(x_coef < norm_coef, (norm_coef - x_coef) / w_coef, -np.inf))
    bulge = h ** 2 / 8.0
    e1 = np.zeros(p)
    I_abs, R_run, R_max, trap_budget = (np.zeros((p, m)) for _ in range(4))
    # the walk's buffers: the error outputs and derivative magnitudes, the
    # norm bounds and in-step |y''| bounds of every column; per step node,
    # the trapezoid sums of R and their summed remainders, each carried from
    # the block before at row 0, and the gap to the next
    out, sq = np.empty((orbit.block + 1, 3 * p, w)), np.empty((orbit.block + 1, w))
    ddots, changes = (np.empty((orbit.block, p, w)) for _ in range(2))
    runs, traps = (np.empty((orbit.block + 1, p, m)) for _ in range(2))
    gaps = np.empty((orbit.block, p, m))
    for i in range(-(-orbit.steps // orbit.block)):
        kept, kept_data = orbit[i]
        block, data = reduced._next_block(out)
        block += kept
        data += kept_data
        size, N = min(orbit.block, orbit.steps - i * orbit.block), sq[:len(block)]
        np.multiply(data[:-1, None], growth[:, None], out=N[:-1].reshape(-1, s, w))
        N[-1] = data[-1]
        N, block = np.sqrt(N[:size + 1], out=N[:size + 1]), block[:size + 1]
        Y, D = block[:, :p], np.abs(block[:, p:], out=block[:, p:])
        D2, D3 = D[:, :p], D[:, p:]
        # the times h j of the block's states after the first
        ts = h * np.arange(i * orbit.block + 1, i * orbit.block + size + 1)[:, None]
        # in-step |y''| bound M: every point of a step lies within h/2 of
        # an endpoint e, where y'' = C A^2 x_e changes by at most
        # (h/2) max|C A^3 x|, and |C_i A^3 x| <= |C_i A^3 x_e| plus the
        # smaller bound on its change from x_e: (e^{Lh/2}-1) ||C_i A^3|| ||x_e||,
        # or the one through w, whose ||w|| bound grows with t and so is
        # taken at the later end
        Nm = np.maximum(N[:-1], N[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            W = np.exp(mu * ts) * (w0 + ts * E * r0)
            smaller = np.any(W < rho * Nm)
        ddot, change = ddots[:size], changes[:size]
        np.multiply(norm_coef[:, None], Nm[:, None], out=change)
        if smaller:
            np.fmin(change, w_coef[:, None] * W[:, None] + x_coef[:, None] * Nm[:, None],
                    out=change)
        change += np.maximum(D3[:-1], D3[1:], out=ddot)
        change *= h / 2.0
        np.maximum(D2[:-1], D2[1:], out=ddot)
        ddot += change
        V = _vertex_peak(Y[..., m:])
        e1 = np.maximum(e1, np.max(np.maximum(V[:-1], V[1:])
                                   + bulge * np.sum(ddot[..., m:], axis=-1), axis=0))
        # the input columns, copied out whole: the passes below run faster
        # over a contiguous block than over its strided view
        Y, ddot = np.ascontiguousarray(Y[..., :m]), np.ascontiguousarray(ddot[..., :m])
        run, trap, gap = runs[:size + 1], traps[:size + 1], gaps[:size]
        run[0], trap[0] = R_run, trap_budget
        # int |y| <= int |linear interpolant| + int |y - interpolant|, and
        # |y - interpolant| <= s(h-s)/2 M integrates to h^3/12 M; the same
        # bounds each step's trapezoid remainder, summed in trap
        np.add(Y[:-1], Y[1:], out=run[1:])
        run[1:] *= h / 2.0
        np.cumsum(run, axis=0, out=run)
        np.multiply(ddot, h ** 3 / 12.0, out=trap[1:])
        np.cumsum(trap, axis=0, out=trap)
        R_run, trap_budget = run[-1].copy(), trap[-1].copy()
        # between nodes R is within h^2/8 max|y'| <= h^2/8 (|dy|/h + hM/2)
        # of their linear interpolant
        np.subtract(Y[1:], Y[:-1], out=gap)
        np.abs(gap, out=gap)
        gap *= h / 8.0
        ddot *= h ** 3 / 16.0
        gap += ddot
        # the trapezoids of |y|; their remainders are added once, from trap
        np.abs(Y, out=Y)
        I_abs += h * (np.sum(Y[1:-1], axis=0) + (Y[0] + Y[-1]) / 2.0)
        # and at the nodes within the summed remainders of the trapezoid sums
        np.abs(run, out=run)
        run += trap
        gap += np.maximum(run[:-1], run[1:])
        R_max = np.maximum(R_max, np.max(gap, axis=0))
    I_abs += trap_budget
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
    of the walk, and a vertex's sum of interpolants is linear in t, so
    step j bounds every vertex by max(V_j, V_{j+1}) + h^2/8 sum_g M_g.

    The generator responses are columns of this order's one walk
    (:func:`_simulate`), which :func:`e2_simulation` reads too.
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
    if not (isinstance(k, Integral) and 1 <= k <= n):
        raise ModelError(f"k must be an integer in [1, n], got {k!r}")
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
    input: the input columns of this order's one walk (:func:`_simulate`),
    which :func:`e1_simulation` reads too.  Each step's envelope is second
    order and rigorous: with M the in-step bound on |y''| of the walk, the
    |kernel| integral takes the trapezoid of the endpoint magnitudes plus
    h^3/12 M.  A zero input matrix gives exact zeros.

    The input box is split into center and deviation: only the deviation
    multiplies the |kernel| integral I_abs, and the center multiplies a
    bound on sup_t |R(t)| of the running signed kernel integral R, the
    smaller of I_abs and R_max (the trapezoid sums plus their h^3/12 M
    remainders at the nodes, and between nodes h |dy|/8 + h^3/16 M for the
    distance to their linear interpolant).  Both factors bound sup_t |R(t)|,
    so the bound is sound for arbitrary measurable inputs in the box and
    never exceeds I_abs ||u||_inf.
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
