"""Zonotope reachability for low-order LTI systems, exact piecewise-constant
simulation, spec checking and unsafe-witness search.

The step recurrence is X_{j+1} = e^{Ah} X_j + V_input where V_input carries
the exact effect of a constant-per-step input plus a rigorous second-order
residual for arbitrary measurable inputs in the box.  Each emitted step set
is the convex-hull enclosure of consecutive endpoint sets inflated by a
curvature envelope, so the union of step sets covers the continuous-time
output reach set over [0, t_f].

By superposition the input generators of X_j are {e^{Aah} G_in : a < j}, so
each of them, its output image and its norm are computed once and a step is
assembled by gathers: for order k and p outputs, O(k^3) for the center and
the initial generators plus O(p g_j) for the g_j live input columns, rather
than O(k^2 g_j) for mapping every generator at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np
import scipy.linalg

from .model import (EllipsoidSpec, HyperBox, LtiSystem, ModelError,
                    PolytopeSpec, POLARITY_SAFE)
from .spectransform import TransformedSpec

SAFE = "Safe"
MAYBE_UNSAFE = "MaybeUnsafe"
INDETERMINATE = "Indeterminate"
UNSAFE = "Unsafe"

#: Generator-count threshold (per state dimension) that triggers a reduction
#: attempt.
ORDER_CAP = 20

#: A reduction only drops generator columns whose norm is below this fraction
#: of the average column norm (i.e. columns that have effectively decayed);
#: dropped mass moves into a rotation-invariant 2-norm ball so pruning can
#: never compound.  Significant columns are kept even past the cap: a hard
#: box-hull cap provably wrecks rotation-dominant systems via wrapping.
DROP_TOL = 1e-3


class Zonotope:
    """Centrally symmetric set {c + G xi : ||xi||_inf <= 1}."""

    __slots__ = ("center", "generators")

    def __init__(self, center: np.ndarray, generators: np.ndarray):
        center = np.asarray(center, dtype=float)
        generators = np.asarray(generators, dtype=float)
        if generators.size == 0:
            generators = np.zeros((center.shape[0], 0))
        if center.ndim != 1 or generators.ndim != 2 or generators.shape[0] != center.shape[0]:
            raise ModelError("zonotope center/generators have inconsistent shapes")
        self.center = center
        self.generators = generators

    @classmethod
    def from_box(cls, box: HyperBox) -> "Zonotope":
        r = box.halfwidth
        idx = np.nonzero(r > 0)[0]
        G = np.zeros((box.dim, idx.size))
        G[idx, np.arange(idx.size)] = r[idx]
        return cls(box.center, G)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def order(self) -> int:
        return self.generators.shape[1]

    def map(self, M: np.ndarray) -> "Zonotope":
        return Zonotope(M @ self.center, M @ self.generators)

    def support(self, v: np.ndarray) -> float:
        """max over the set of <v, x>."""
        return float(v @ self.center + np.sum(np.abs(v @ self.generators)))

    def radius_vector(self) -> np.ndarray:
        return np.sum(np.abs(self.generators), axis=1)

    def interval_hull(self) -> HyperBox:
        r = self.radius_vector()
        return HyperBox(self.center - r, self.center + r)

    def norm_bound(self) -> float:
        """Upper bound on max ||x||_2 over the set."""
        return float(np.linalg.norm(self.center)
                     + np.sum(np.linalg.norm(self.generators, axis=0)))

    def __repr__(self) -> str:
        return f"Zonotope(dim={self.dim}, order={self.order})"


def enclose(z1: Zonotope, z2: Zonotope) -> Zonotope:
    """Zonotope over-approximation of conv(z1 U z2)."""
    g = max(z1.order, z2.order)
    G1 = np.pad(z1.generators, ((0, 0), (0, g - z1.order)))
    G2 = np.pad(z2.generators, ((0, 0), (0, g - z2.order)))
    c = (z1.center + z2.center) / 2.0
    G = np.hstack([((z1.center - z2.center) / 2.0)[:, None], (G1 + G2) / 2.0, (G1 - G2) / 2.0])
    return Zonotope(c, G)


@dataclass(frozen=True)
class ReachStep:
    """Output-space over-approximation over one time interval."""
    t0: float
    t1: float
    outputs: Zonotope


def _transition(A: np.ndarray, h: float, B: np.ndarray | None = None):
    """Phi = e^{Ah} and, when B is given, PsiB = int_0^h e^{As} ds B."""
    n = A.shape[0]
    if B is None:
        Phi = scipy.linalg.expm(A * h)
        if not np.all(np.isfinite(Phi)):
            raise ModelError("matrix exponential is not finite")
        return Phi
    m = B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = scipy.linalg.expm(M * h)
    if not np.all(np.isfinite(E)):
        raise ModelError("matrix exponential is not finite")
    return E[:n, :n], E[:n, n:]


def default_step(t_f: float, A: np.ndarray, target: int = 200, lh: float = 0.1) -> float:
    """Default reach/simulation step: min(t_f/target, lh/||A||_2)."""
    nA = np.linalg.norm(A, 2) if A.size else 0.0
    h = t_f / target if t_f > 0 else 1.0
    if nA > 0:
        h = min(h, lh / nA)
    return h


def reach_lti(sys: LtiSystem, x0: HyperBox, u_box: HyperBox, t_f: float,
              step_h: float | None = None, order_cap: int = ORDER_CAP) -> list[ReachStep]:
    """Over-approximate output reach sets of a stable or unstable LTI system.

    Returns step sets whose intervals tile [0, t_f]; every admissible output
    trajectory (measurable u in the box) stays inside the step set of its
    interval.

    After j steps the state generators are [Phi^j G0, M_{j-1}, ..., M_0] with
    M_a = Phi^a G_in (superposition, Girard, Le Guernic & Maler, HSCC 2006).
    Each M_a, the output images of its hull pairs and its column norms are
    computed once.  For a system of order k with p outputs, step j then costs
    O(k^3) for the center and Phi^j G0 (at most k columns) plus O(p g_j) to
    gather its g_j live input columns, where re-propagating every generator
    would cost O(k^2 g_j).  A partial last step maps the live columns through
    its own transition once.
    """
    if step_h is None:
        step_h = default_step(t_f, sys.A)
    if step_h <= 0:
        raise ModelError(f"step_h must be positive, got {step_h}")
    if x0.dim != sys.n:
        raise ModelError(f"x0 has dim {x0.dim}, expected n={sys.n}")
    if u_box.dim != sys.m:
        raise ModelError(f"input box has dim {u_box.dim}, expected m={sys.m}")
    if t_f <= 0:
        raise ModelError(f"t_f must be positive, got {t_f}")

    A, B, C = sys.A, sys.B, sys.C
    n = sys.n
    L = float(np.linalg.norm(A, 2)) if A.size else 0.0
    uc, ur = u_box.center, u_box.halfwidth
    cap_cols = max(order_cap * n, 4 * n)

    def make_step_data(h: float):
        Phi, PsiB = _transition(A, h, B)
        nPhi = float(np.linalg.norm(Phi, 2))
        Gin = PsiB @ np.diag(ur)
        Gin = Gin[:, np.linalg.norm(Gin, axis=0) > 0]
        vin = PsiB @ uc
        # residual for measurable (non-constant) inputs within one step:
        # || int e^{As} B (w - wbar) ds || with the average wbar split off.
        if L > 0:
            psi_gap = (np.exp(L * h) - 1.0) / L - h
        else:
            psi_gap = 0.0
        res_ball = psi_gap * np.linalg.norm(B, 2) * 2.0 * float(np.linalg.norm(ur)) \
            if ur.size else 0.0
        # curvature envelope for the in-step deviation from the chord between
        # consecutive endpoint states (second order in h, plus the first-order
        # input-variation sweep); any sound envelope is acceptable here.
        ebl = np.exp(L * h) - 1.0 - L * h
        sweep = 2.0 * ((np.exp(L * h) - 1.0) / L if L > 0 else h)
        drift = float(np.linalg.norm(B @ uc)) / L if L > 0 else 0.0
        return Phi, nPhi, vin, Gin, res_ball, ebl, sweep, drift

    Phi, nPhi, vin, Gin, res_ball, ebl, sweep, drift = make_step_data(step_h)
    in_norm = float(np.linalg.norm(B, 2) * np.linalg.norm(ur)) if ur.size else 0.0
    C_rows = np.linalg.norm(C, axis=1)

    grid = []
    t = 0.0
    while t < t_f - 1e-12 * max(1.0, t_f):
        h = min(step_h, t_f - t)
        grid.append((t, h))
        t += h
    # only the last step can be shorter than step_h
    n_full = len(grid) - int(grid[-1][1] < step_h * (1 - 1e-9))

    # age table: column a*m + i holds M_a[:, i]; the step hull pairs a column
    # of age a with its image of age a + 1
    m = Gin.shape[1]
    M = np.empty((n, n_full * m))
    if n_full:
        M[:, :m] = Gin
    for a in range(1, n_full):
        M[:, a * m:(a + 1) * m] = Phi @ M[:, (a - 1) * m:a * m]
    M_norms = np.linalg.norm(M, axis=0)
    older, newer = M[:, :max(n_full - 1, 0) * m], M[:, m:]
    Y_plus, Y_minus = C @ ((older + newer) / 2.0), C @ ((older - newer) / 2.0)
    Y_new = C @ (Gin / 2.0)

    steps: list[ReachStep] = []

    def new_step(t: float, h: float, center: np.ndarray, widths: tuple[int, ...],
                 rho: float, rho_next: float, state_norm: float) -> list[np.ndarray]:
        """Append a step set whose generators are blocks of the given widths
        plus the envelope ball, and return the blocks for the caller to fill.
        The array is allocated before the blocks are computed: allocated
        after them, it leaves a hole in the heap that grows every step."""
        beta = 2.0 * ebl * (state_norm + rho + drift) + sweep * in_norm
        ball = max(rho, rho_next) + beta
        G = np.empty((C.shape[0], sum(widths) + (C.shape[0] if ball > 0 else 0)))
        *blocks, ball_cols = np.split(G, np.cumsum(widths), axis=1)
        if ball > 0:
            # image of a state-space 2-ball: per-output radius ball*||C_i||_2
            ball_cols[:] = np.diag(ball * C_rows)
        steps.append(ReachStep(t, t + h, Zonotope(center, G)))
        return blocks

    # the live state: center c, the images H = Phi^j G0 of the initial
    # generators and the age-table indices idx of the live input columns,
    # oldest first; aging a column adds m to its index
    init = Zonotope.from_box(x0)
    c, H = init.center, init.generators
    idx = np.zeros(0, dtype=np.intp)
    norms = np.linalg.norm(H, axis=0)
    rho = 0.0
    for t, h in grid[:n_full]:
        c_next = Phi @ c + vin
        H_next = Phi @ H
        rho_next = nPhi * rho + res_ball
        g0, g = H.shape[1], idx.size
        d, hp, yp, yn, hm, ym, yn_neg = new_step(
            t, h, C @ ((c + c_next) / 2.0), (1, g0, g, m, g0, g, m),
            rho, rho_next, float(np.linalg.norm(c) + np.sum(norms)))
        d[:, 0] = C @ ((c - c_next) / 2.0)
        hp[:], hm[:] = C @ ((H + H_next) / 2.0), C @ ((H - H_next) / 2.0)
        yp[:], ym[:] = Y_plus[:, idx], Y_minus[:, idx]
        yn[:], yn_neg[:] = Y_new, -Y_new
        idx = np.concatenate([idx + m, np.arange(m)])
        norms = np.concatenate([np.linalg.norm(H_next, axis=0), M_norms[idx]])
        c, H, rho = c_next, H_next, rho_next
        if norms.size > cap_cols:
            # drop effectively-decayed columns (norm at most DROP_TOL times
            # the average) into the 2-norm ball; live columns are never
            # boxed, so the count may stay above the cap
            dead = norms <= DROP_TOL * float(np.sum(norms)) / norms.size
            if np.any(dead):
                rho += float(np.sum(norms[dead]))
                H, idx, norms = H[:, ~dead[:g0]], idx[~dead[g0:]], norms[~dead]
    if n_full < len(grid):
        t, h = grid[-1]
        Phi, nPhi, vin, Gin, res_ball, ebl, sweep, drift = make_step_data(h)
        state = Zonotope(c, np.hstack([H, M[:, idx]]))
        nxt = Zonotope(Phi @ c + vin, np.hstack([Phi @ state.generators, Gin]))
        hull = enclose(state, nxt).map(C)
        G, = new_step(t, h, hull.center, (hull.order,), rho, nPhi * rho + res_ball,
                      float(np.linalg.norm(c) + np.sum(norms)))
        G[:] = hull.generators
    return steps


# --------------------------------------------------------------------------
# Simulation.
# --------------------------------------------------------------------------

InputLike = Union[None, np.ndarray, Callable[[float], np.ndarray]]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    outputs: np.ndarray  # (samples, p), or (samples, p, B) for a batch
    states: np.ndarray   # (samples, n), or (samples, n, B) for a batch


def _step_inputs(u: InputLike, m: int, times: np.ndarray,
                 batch: tuple[int, ...] = ()) -> np.ndarray:
    """Per-step constant input values, one row per step: (steps, m), or
    (steps, m) + batch when simulating a batch of states.  Inputs given as
    None, a vector, a callable or a (steps, m) array are shared by the batch."""
    steps = len(times) - 1
    if u is None:
        return np.zeros((steps, m) + batch)
    if callable(u):
        u = np.stack([np.broadcast_to(np.asarray(u(t), dtype=float), (m,))
                      for t in times[:-1]])
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = np.broadcast_to(u, (steps, m)).copy()
    if batch and u.shape == (steps, m):
        return np.broadcast_to(u[..., None], (steps, m) + batch)
    if u.shape != (steps, m) + batch:
        raise ModelError(f"per-step input array must have shape "
                         f"{(steps, m) + batch}, got {u.shape}")
    return u


def simulate(sys: LtiSystem, x0: np.ndarray, u: InputLike, t_f: float,
             h: float | None = None) -> Trajectory:
    """Exact-per-step propagation via the matrix exponential.

    Inputs are held constant over each step (piecewise-constant signals whose
    switch times align with the grid are propagated exactly).  ``u`` may be
    None, a constant vector, a callable of time, or a (steps, m) array.

    ``x0`` of shape (n, B) simulates a batch of B initial states in one step
    loop; ``u`` may then also be a (steps, m, B) array of per-state inputs,
    and the trajectory's outputs and states have shapes (samples, p, B) and
    (samples, n, B).  A state that becomes non-finite anywhere in the batch
    raises ModelError.
    """
    if h is None:
        h = default_step(t_f, sys.A)
    if h <= 0:
        raise ModelError(f"step h must be positive, got {h}")
    x = np.asarray(x0, dtype=float)
    if x.ndim == 2 and x.shape[0] == sys.n:
        batch = x.shape[1:]
    else:
        x, batch = x.reshape(sys.n), ()
    if t_f <= 0:
        y = sys.C @ x
        return Trajectory(np.zeros(1), y[None], x[None])
    steps = int(np.ceil(t_f / h - 1e-12))
    times = np.minimum(np.arange(steps + 1) * h, t_f)
    uval = _step_inputs(u, sys.m, times, batch)
    Phi, PsiB = _transition(sys.A, h, sys.B)
    states = np.empty((steps + 1,) + x.shape)
    states[0] = x
    last_h = times[-1] - times[-2]
    Phi_last, PsiB_last = (Phi, PsiB) if abs(last_h - h) < 1e-12 * h else \
        _transition(sys.A, last_h, sys.B)
    for j in range(steps):
        P, Q = (Phi, PsiB) if j < steps - 1 else (Phi_last, PsiB_last)
        x = P @ x + Q @ uval[j]
        if not np.all(np.isfinite(x)):
            raise ModelError(f"state became non-finite at t={times[j + 1]:.6g}")
        states[j + 1] = x
    outputs = sys.C @ states if batch else states @ sys.C.T
    return Trajectory(times, outputs, states)


# --------------------------------------------------------------------------
# Spec checking.
# --------------------------------------------------------------------------

def _poly_spread(z: Zonotope, Gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma @ center and the per-row spread sum_j |(Gamma G)_ij| of the
    zonotope: the row values of its points lie in Gc -/+ spread."""
    return Gamma @ z.center, np.sum(np.abs(Gamma @ z.generators), axis=1)


def _poly_rows_max(z: Zonotope, spec: PolytopeSpec,
                   spread: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Per-row max over the zonotope of Gamma y + Psi (exact); ``spread`` is
    a :func:`_poly_spread` of z for this Gamma, when already computed."""
    Gc, s = spread or _poly_spread(z, spec.Gamma)
    return Gc + s + spec.Psi


def _poly_rows_min(z: Zonotope, spec: PolytopeSpec) -> np.ndarray:
    Gc, s = _poly_spread(z, spec.Gamma)
    return Gc - s + spec.Psi


def quad_upper(z: Zonotope, ell: EllipsoidSpec) -> float:
    """Sound upper bound on max over the zonotope of (y-a)^T Q (y-a)."""
    d = z.center - ell.a
    G = z.generators
    QG = ell.Q @ G
    return float(d @ ell.Q @ d
                 + 2.0 * np.sum(np.abs(G.T @ ell.Q @ d))
                 + np.sum(np.abs(G.T @ QG)))


def quad_lower(z: Zonotope, ell: EllipsoidSpec) -> float:
    """Sound lower bound on min over the zonotope of (y-a)^T Q (y-a).

    Uses directional Cauchy-Schwarz bounds (v^T x)^2 <= (v^T Q^-1 v)(x^T Q x)
    over axis directions plus the gradient direction; conservative, so a
    failed disjointness test errs toward Indeterminate.
    """
    d = z.center - ell.a
    Qinv = ell.Q_inv
    best = 0.0
    cands = list(ell.axes)
    grad = ell.Q @ d
    if np.linalg.norm(grad) > 0:
        cands.append(grad / np.linalg.norm(grad))
    for v in cands:
        spread = float(np.sum(np.abs(v @ z.generators)))
        lo = max(0.0, abs(float(v @ d)) - spread)
        denom = float(v @ Qinv @ v)
        if denom > 0:
            best = max(best, lo * lo / denom)
    return best


def _quad_extreme_point(z: Zonotope, ell: EllipsoidSpec, maximize: bool) -> np.ndarray:
    """Greedy vertex of the zonotope nearly extremizing the quadratic form."""
    sign = 1.0 if maximize else -1.0
    xi = np.zeros(z.order)
    y = z.center
    for _ in range(4):
        grad = z.generators.T @ (ell.Q @ (y - ell.a))
        xi_new = sign * np.sign(grad)
        xi_new[xi_new == 0] = 1.0
        if np.array_equal(xi_new, xi):
            break
        xi = xi_new
        y = z.center + z.generators @ xi
    return y


def _check_one(steps: Sequence[ReachStep], ts: TransformedSpec) -> str:
    """Three-way verdict of the step sets against one transformed predicate."""
    all_ok = True
    certified_hit = False
    if ts.source_polarity == POLARITY_SAFE:
        safe = ts.safe_region
        unsafe = ts.unsafe_region
        # transform_polytope shrinks and grows the same rows, so one spread
        # per step serves both regions
        shared = isinstance(safe, PolytopeSpec) and isinstance(unsafe, PolytopeSpec) \
            and np.array_equal(safe.Gamma, unsafe.Gamma)
        for step in steps:
            z = step.outputs
            contained = False
            spread = None
            if safe is not None:
                if isinstance(safe, PolytopeSpec):
                    spread = _poly_spread(z, safe.Gamma)
                    contained = bool(np.all(_poly_rows_max(z, safe, spread) <= 0.0))
                else:
                    contained = quad_upper(z, safe) <= safe.R ** 2
            if not contained:
                all_ok = False
                if isinstance(unsafe, PolytopeSpec):
                    # exact: some point of the step set violates a grown row
                    rows = _poly_rows_max(z, unsafe, spread if shared else None)
                    if np.any(rows > 0.0):
                        certified_hit = True
                else:
                    y = _quad_extreme_point(z, unsafe, maximize=True)
                    if unsafe.quad(y) > unsafe.R ** 2:
                        certified_hit = True
    else:
        unsafe = ts.unsafe_region
        for step in steps:
            z = step.outputs
            if isinstance(unsafe, PolytopeSpec):
                disjoint = bool(np.any(_poly_rows_min(z, unsafe) > 0.0))
                if not disjoint:
                    all_ok = False
                    y = _quad_center_candidate(z, unsafe)
                    if y is not None:
                        certified_hit = True
            else:
                disjoint = quad_lower(z, unsafe) > unsafe.R ** 2
                if not disjoint:
                    all_ok = False
                    y = _quad_extreme_point(z, unsafe, maximize=False)
                    if unsafe.quad(y) <= unsafe.R ** 2:
                        certified_hit = True
    if all_ok:
        return SAFE
    return MAYBE_UNSAFE if certified_hit else INDETERMINATE


def _quad_center_candidate(z: Zonotope, poly: PolytopeSpec) -> np.ndarray | None:
    """A concrete point of the zonotope inside the polytope, if one of a few
    cheap candidates qualifies."""
    cands = [z.center]
    if z.order:
        worst = poly.Gamma @ z.generators
        xi = -np.sign(worst[np.argmax(poly.margins(z.center))])
        cands.append(z.center + z.generators @ xi)
    for y in cands:
        if np.all(poly.margins(y) <= 0.0):
            return y
    return None


def check_spec(steps: Sequence[ReachStep],
               transformed: TransformedSpec | Sequence[TransformedSpec]) -> str:
    """Safe / MaybeUnsafe / Indeterminate verdict of step sets against the
    transformed spec family.

    Safe requires every predicate to pass on every step set (containment in
    the shrunk safe region for safe-polarity sources, certified disjointness
    from the grown region for unsafe-polarity ones).  Over-approximate reach
    sets cannot prove unsafety, so a certified intersection only yields
    MaybeUnsafe.
    """
    if isinstance(transformed, TransformedSpec):
        transformed = [transformed]
    verdicts = [_check_one(steps, ts) for ts in transformed]
    if all(v == SAFE for v in verdicts):
        return SAFE
    if any(v == MAYBE_UNSAFE for v in verdicts):
        return MAYBE_UNSAFE
    return INDETERMINATE


# --------------------------------------------------------------------------
# Witness search.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessTrajectory:
    """A simulated trajectory certifying unsafety of the full-order system."""
    times: np.ndarray
    outputs: np.ndarray
    init_state: np.ndarray
    step_inputs: np.ndarray
    margin: float
    predicate_index: int
    sample_index: int = field(default=0)


#: Candidates per batched :func:`simulate` call of the witness search, so its
#: arrays stay bounded whatever the budget: (steps + 1)(n + p) + steps m
#: floats per candidate, about 29 MB for 64 candidates of 995 steps at order
#: 40 with 4 outputs and 12 inputs.
WITNESS_CHUNK = 64


def find_unsafe_witness(sys: LtiSystem, x0: HyperBox, u_box: HyperBox,
                        transformed_unsafe: TransformedSpec | Sequence[TransformedSpec],
                        t_f: float, budget: int,
                        init_map: np.ndarray | None = None,
                        seed: int = 0, eta: float | None = None,
                        h: float | None = None) -> WitnessTrajectory | None:
    """Search for a trajectory certifying full-order unsafety.

    Simulates up to ``budget`` candidate trajectories (box vertices and random
    initial states, bang-bang and random piecewise-constant inputs).  A sample
    must satisfy the witness predicate with margin > eta and survive a
    re-simulation at a 10x finer step with margin >= eta/2.  ``init_map``
    lifts initial states drawn from ``x0`` into the simulated system's state
    space (identity when omitted); drawing from the original box keeps the
    witness sound for the full-order system.

    The initial states are drawn first, then each chunk of ``WITNESS_CHUNK``
    candidates draws its input plans (steps, m) into one (steps, m, B) array
    and is simulated by one batched :func:`simulate` call from its (n, B)
    initial states.  :meth:`TransformedSpec.witness_margins` scores every
    sample of the chunk at once; candidates are then taken in order, and
    predicates in order within each, for the single-state re-simulation.
    The random draws are made in the order of a candidate-by-candidate
    search, so the same witness is returned.  A state that overflows
    anywhere in a chunk raises ModelError, even when an earlier candidate
    of the chunk is a witness.
    """
    if budget <= 0:
        raise ValueError(f"witness budget must be positive, got {budget}")
    if isinstance(transformed_unsafe, TransformedSpec):
        transformed_unsafe = [transformed_unsafe]
    specs = list(transformed_unsafe)
    rng = np.random.default_rng(seed)
    if h is None:
        h = default_step(t_f, sys.A)
    etas = [1e-9 * ts.witness_scale if eta is None else eta for ts in specs]
    steps = max(1, int(np.ceil(t_f / h - 1e-12)))
    lo, hi = u_box.lb, u_box.ub

    # initial-state candidates: box vertices while they fit the budget, then
    # uniform samples
    inits = x0.vertices()[:, :budget] if x0.vertex_count() <= max(2, budget) \
        else np.zeros((x0.dim, 0))
    inits = np.hstack([inits] + [x0.sample(rng, 1) for _ in range(budget - inits.shape[1])])

    def fill_plan(plan: np.ndarray, kind: int) -> None:
        """Write the (steps, m) input plan of a candidate of this kind."""
        if u_box.dim == 0:
            return
        if kind == 3:
            plan[:] = lo + (hi - lo) * rng.random((steps, u_box.dim))
            return
        plan[:] = lo if kind == 1 else hi
        if kind == 2:  # bang-bang with a couple of switches; a switch past
            # the last step draws no input
            nsw, slots = int(rng.integers(1, 4)), max(steps, 2)
            for j in np.sort(rng.choice(slots, size=min(nsw, slots), replace=False)):
                if j < steps:
                    plan[j:] = lo + (hi - lo) * rng.integers(0, 2, u_box.dim)

    def revalidate(x: np.ndarray, plan: np.ndarray, ts_i: int) -> WitnessTrajectory | None:
        # re-simulate at 10x finer step; each plan row covers its ten
        # sub-steps (the last row may cover a partial tail)
        lifted = x if init_map is None else init_map @ x
        fine_steps = max(1, int(np.ceil(t_f / (h / 10) - 1e-12)))
        fine_plan = plan[np.minimum(np.arange(fine_steps) // 10, steps - 1)]
        fine = simulate(sys, lifted, fine_plan, t_f, h / 10)
        fvals = specs[ts_i].witness_margins(fine.outputs)
        fj = int(np.argmax(fvals))
        if fvals[fj] >= etas[ts_i] / 2:
            return WitnessTrajectory(times=fine.times, outputs=fine.outputs,
                                     init_state=x, step_inputs=plan,
                                     margin=float(fvals[fj]),
                                     predicate_index=ts_i, sample_index=fj)
        return None

    for start in range(0, budget, WITNESS_CHUNK):
        stop = min(start + WITNESS_CHUNK, budget)
        plans = np.empty((steps, u_box.dim, stop - start))
        for b in range(stop - start):
            fill_plan(plans[:, :, b], (start + b) % 4)
        X = inits[:, start:stop]
        outputs = simulate(sys, X if init_map is None else init_map @ X, plans,
                           t_f, h).outputs
        samples = np.swapaxes(outputs, 1, 2)  # (samples, B, p)
        hits = np.stack([ts.witness_margins(samples).max(axis=0) > eta
                         for ts, eta in zip(specs, etas)], axis=1)
        # nonzero walks candidates in order, predicates in order within each
        for b, ts_i in zip(*np.nonzero(hits)):
            witness = revalidate(inits[:, start + b].copy(),
                                 plans[:, :, b].copy(), int(ts_i))
            if witness is not None:
                return witness
    return None
