"""Zonotope reachability for low-order LTI systems, exact piecewise-constant
simulation, spec checking and unsafe-witness search.

The step recurrence is X_{j+1} = e^{Ah} X_j + V_input where V_input carries
the exact effect of a constant-per-step input plus a rigorous second-order
residual for arbitrary measurable inputs in the box.  Each emitted step set
is the convex-hull enclosure of consecutive endpoint sets inflated by a
curvature envelope, so the union of step sets covers the continuous-time
output reach set over [0, t_f].

By superposition the input generators of X_j are {e^{Aah} G_in : a < j}, so
each of them, its output image and its norm are computed once, in an age
table shared by every step set of a call.  The table also holds every
step's center, few dense columns and ball radius, computed for all steps at
once from the states of the exact recursion.  A step's 1 + 2 g0 dense
columns come from the images of the g0 initial generators, and g0 <=
min(f, k) when the initial set is the order-k image of a box with f free
dims (:func:`balancing.image_zonotope`).  A full step is a row of that
table, and :func:`reach_lti` returns the table itself as a
:class:`ReachSets`: ``ReachSets[j]`` assembles step j's generator array
only when something reads it (safe-region ellipsoids, the hit search on a
step that fails its check, ``reach --format json``).  Polytope rows read
their spread from the table, built for every step in one pass per Gamma
from per-age row sums, the support-function view of Le Guernic & Girard
(NAHS 2010).  Unsafe-region ellipsoids read their axis spreads the same way
and the spread of each step's own gradient direction from a cumulative sum
over the table's columns.  For order k, p outputs and r rows a step then
costs O(k^2 (k + m)) arithmetic to build and O(r k) to check, rather than
O(r p g_j) over its g_j input columns, and neither makes a matrix product
per step: the exact recursions are built by doubling, in about log2 N
products for N steps.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Callable, Union

import numpy as np

from .model import (EllipsoidSpec, HyperBox, LtiSystem, ModelError,
                    PolytopeSpec, POLARITY_SAFE)
from .spectransform import TransformedSpec

SAFE = "Safe"
MAYBE_UNSAFE = "MaybeUnsafe"
INDETERMINATE = "Indeterminate"
UNSAFE = "Unsafe"


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
        """The box, with one generator r_d e_d per free dim d."""
        free = box.free_dims()
        G = np.zeros((box.dim, free.size))
        G[free, np.arange(free.size)] = box.halfwidth[free]
        return cls(box.center, G)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def order(self) -> int:
        return self.generators.shape[1]

    def radius_vector(self) -> np.ndarray:
        return np.sum(np.abs(self.generators), axis=1)

    def interval_hull(self) -> HyperBox:
        r = self.radius_vector()
        return HyperBox(self.center - r, self.center + r)

    def row_spread(self, Gamma: np.ndarray) -> np.ndarray:
        """Per-row sum_j |(Gamma G)_ij|: over the set, Gamma y lies within
        this much of Gamma @ center."""
        return np.sum(np.abs(Gamma @ self.generators), axis=1)

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


class _AgeTable:
    """The step data shared by the full step sets of one :func:`reach_lti` call.

    Row j of ``centers`` (steps, p), ``dense`` (steps, p, 1 + 2 g0) and
    ``balls`` (steps,) is step j's center, dense columns and ball radius.
    Column a*m + i of ``Y_plus`` / ``Y_minus`` is C (M_a +/- M_{a+1}) / 2 for
    input column i of age a, ``Y_new`` is C G_in / 2 and ``C_rows`` holds the
    row norms of C.  Step j holds every input column injected before it, the
    ages below j.
    """

    def __init__(self, centers, dense, balls, Y_plus, Y_minus, Y_new, C_rows, m: int):
        # the step sets hand out views of these arrays: read-only, so that
        # an in-place change to one step's set raises instead of changing
        # every later check of the table
        for a in (centers, dense, balls, Y_plus, Y_minus, Y_new, C_rows):
            a.flags.writeable = False
        self.centers, self.dense, self.balls = centers, dense, balls
        self.Y_plus, self.Y_minus, self.Y_new, self.C_rows = Y_plus, Y_minus, Y_new, C_rows
        self.m = m
        self._spreads: dict = {}

    def oldest_first(self, j: int) -> np.ndarray:
        """Age-indexed columns of step j's inputs, oldest first."""
        return np.arange(j * self.m).reshape(j, self.m)[::-1].ravel()

    def generators(self, j: int) -> np.ndarray:
        """Step j's output generator array: d, H+, input+, new, H-, input-,
        -new, ball, with the dense columns [d, H+, H-] and the input columns
        oldest first."""
        # the array is allocated before the blocks are computed: allocated
        # after them, it leaves a hole in the heap that grows every step
        dense, ball = self.dense[j], float(self.balls[j])
        p, split = dense.shape[0], 1 + dense.shape[1] // 2
        G = np.empty((p, dense.shape[1] + 2 * (j + 1) * self.m + (p if ball > 0 else 0)))
        idx = self.oldest_first(j)
        return np.concatenate([dense[:, :split], self.Y_plus[:, idx], self.Y_new,
                               dense[:, split:], self.Y_minus[:, idx], -self.Y_new,
                               self.ball_columns(ball)], axis=1, out=G)

    def ball_columns(self, ball: float) -> np.ndarray:
        """Image of a state-space 2-ball: per-output radius ball*||C_i||_2."""
        return np.diag(ball * self.C_rows) if ball > 0 else np.zeros((self.C_rows.size, 0))

    def row_spreads(self, Gamma: np.ndarray) -> np.ndarray:
        """(steps, rows) spreads of every step for the rows of Gamma, built
        once per distinct Gamma: sum |Gamma dense_j|, plus the per-age sums of
        |Gamma Y_plus| + |Gamma Y_minus| over the ages below j, plus
        2 sum |Gamma Y_new|, plus ball_j |Gamma| C_rows (the spread of its
        ball)."""
        key = (Gamma.shape, Gamma.tobytes())
        if key not in self._spreads:
            steps, r = len(self.balls), Gamma.shape[0]
            T = np.abs(Gamma @ self.Y_plus) + np.abs(Gamma @ self.Y_minus)
            per_age = T.reshape(r, max(steps - 1, 0), self.m).sum(axis=2)
            prefix = np.vstack([np.zeros((1, r)), np.cumsum(per_age.T, axis=0)])
            spreads = np.sum(np.abs(Gamma @ self.dense), axis=2) + prefix[:steps] \
                + 2.0 * np.sum(np.abs(Gamma @ self.Y_new), axis=1) \
                + self.balls[:, None] * (np.abs(Gamma) @ self.C_rows)
            spreads.flags.writeable = False
            self._spreads[key] = spreads
        return self._spreads[key]

    def direction_spreads(self, V: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Spread of step rows[i] in the direction V[i], one direction per
        row: sum |v dense_j|, plus the sum over the ages below j of
        |v Y_plus| + |v Y_minus|, plus 2 sum |v Y_new|, plus ball_j |v| C_rows.
        The age sum is a cumulative sum over the columns of V Y_plus and
        V Y_minus, read at column j m; it is built for ``_DIRECTION_CHUNK``
        rows at a time, over the ages the oldest row of the chunk holds."""
        spreads = np.sum(np.abs(np.matmul(V[:, None, :], self.dense[rows])[:, 0]), axis=1) \
            + 2.0 * np.sum(np.abs(V @ self.Y_new), axis=1) \
            + self.balls[rows] * (np.abs(V) @ self.C_rows)
        for start in range(0, rows.size, _DIRECTION_CHUNK):
            chunk = slice(start, start + _DIRECTION_CHUNK)
            cols = int(rows[chunk].max()) * self.m
            T = np.abs(V[chunk] @ self.Y_plus[:, :cols]) \
                + np.abs(V[chunk] @ self.Y_minus[:, :cols])
            prefix = np.hstack([np.zeros((T.shape[0], 1)), np.cumsum(T, axis=1)])
            spreads[chunk] += prefix[np.arange(T.shape[0]), rows[chunk] * self.m]
        return spreads


#: Step rows per block of :meth:`_AgeTable.direction_spreads`, so that its
#: (rows, ages * m) blocks stay bounded: two of about 1.2 MB each for 64 rows
#: of a 1,200-step table with 2 input columns.
_DIRECTION_CHUNK = 64


@dataclass(frozen=True)
class ReachStep:
    """Output-space over-approximation over one time interval."""
    t0: float
    t1: float
    outputs: Zonotope


class ReachSets(Sequence):
    """The output reach sets of one :func:`reach_lti` call, one per step.

    ``t0`` and ``t1`` hold every step's interval.  The first ``rows`` steps
    are the rows of ``table`` (None for explicit step sets), and ``extra``
    holds the explicit zonotopes of the steps after them.  Indexing
    assembles a :class:`ReachStep` on demand and keeps nothing; a slice
    returns a list.  :func:`check_spec` reads the table's rows without
    assembling them."""

    def __init__(self, t0, t1, table: _AgeTable | None, extra: Sequence[Zonotope]):
        self.t0, self.t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        self.table, self.extra = table, tuple(extra)

    @classmethod
    def of(cls, steps: Sequence[ReachStep]) -> "ReachSets":
        """Explicit step sets as a result with no table; a ReachSets is
        returned as it is."""
        if isinstance(steps, ReachSets):
            return steps
        steps = list(steps)
        return cls([s.t0 for s in steps], [s.t1 for s in steps], None,
                   [s.outputs for s in steps])

    @property
    def rows(self) -> int:
        return 0 if self.table is None else len(self.table.balls)

    def __len__(self) -> int:
        return self.rows + len(self.extra)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self)))]
        j = range(len(self))[j]  # IndexError out of range, negative from the end
        rows = self.rows
        z = Zonotope(self.table.centers[j], self.table.generators(j)) if j < rows \
            else self.extra[j - rows]
        return ReachStep(float(self.t0[j]), float(self.t1[j]), z)


#: Higham, "The scaling and squaring method for the matrix exponential
#: revisited" (SIAM J. Matrix Anal. Appl. 2005): the coefficients b_0 ... b_m
#: of the [m/m] Pade approximants of e^A, and for each degree the largest
#: ||A||_1 at which it meets the unit roundoff.
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152e0


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """The [m/m] Pade approximant of e^A, (V - U)^-1 (V + U) with U the odd
    and V the even part of the numerator."""
    b = _PADE_COEFFS[m]
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
    else:
        U, V, power = b[3] * A2, b[2] * A2, A2
        for j in range(2, m // 2 + 1):
            power = power @ A2
            U += b[2 * j + 1] * power
            V += b[2 * j] * power
    # the identity terms, added on the diagonals
    diag = slice(None, None, A.shape[0] + 1)
    U.flat[diag] += b[1]
    V.flat[diag] += b[0]
    U = A @ U
    return np.linalg.solve(V - U, V + U)


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring (Higham 2005): the lowest Pade degree of
    3, 5, 7, 9 whose bound covers ||A||_1, otherwise degree 13 on A / 2^s
    with s the fewest halvings that bring ||A||_1 under its bound, squared
    s times.  A non-finite result raises ModelError."""
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    if not np.isfinite(norm):
        raise ModelError("matrix exponential is not finite")
    for m, theta in _PADE_THETA:
        if norm <= theta:
            X = _pade(A, m)
            break
    else:
        s = max(0, int(np.ceil(np.log2(norm / _THETA_13))))
        X = _pade(np.ldexp(A, -s), 13)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                X = X @ X
    if not np.all(np.isfinite(X)):
        raise ModelError("matrix exponential is not finite")
    return X


def _transition(A: np.ndarray, h: float, B: np.ndarray | None = None):
    """Phi = e^{Ah} and, when B is given, PsiB = int_0^h e^{As} ds B."""
    n = A.shape[0]
    if B is None:
        return _expm(A * h)
    m = B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = _expm(M * h)
    return E[:n, :n], E[:n, n:]


def _doubling_powers(Phi: np.ndarray, steps: int) -> list[np.ndarray]:
    """Phi, Phi^2, Phi^4, ...: every power Phi^f with f < steps that
    :func:`_propagate` doubles by."""
    powers = [Phi]
    while 2 ** len(powers) < steps:
        powers.append(powers[-1] @ powers[-1])
    return powers


def _propagate(powers: list[np.ndarray], X: np.ndarray, steps: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """The states Phi X, Phi^2 X, ..., Phi^steps X as one (n, steps*m) array
    with step-major columns: columns j*m ... (j+1)*m - 1 hold Phi^(j+1) X.

    The block is built by doubling: after the first state, the states
    f+1 ... 2f are Phi^f times the states 1 ... f, one product per power in
    ``powers`` (from :func:`_doubling_powers`).  It is written into ``out``
    when given, which may be a column slice of a larger buffer.  Both the
    simulation bounds' orbits and :func:`reach_lti`'s exact recursions are
    built here."""
    n, m = X.shape
    if out is None:
        out = np.empty((n, steps * m))
    if steps:
        np.matmul(powers[0], X, out=out[:, :m])
    f = 1
    for P in powers:
        if f >= steps:
            break
        g = min(f, steps - f)
        np.matmul(P, out[:, :g * m], out=out[:, f * m:(f + g) * m])
        f *= 2
    return out


#: Default reach step control: ||A||_2 * h <= this value.
STEP_LH = 0.1


def default_step(t_f: float, A: np.ndarray, lh: float = STEP_LH) -> float:
    """Default reach/simulation step: min(t_f/200, lh/||A||_2), so at least
    200 steps over the horizon."""
    if not lh > 0:
        raise ModelError(f"step_lh must be positive, got {lh}")
    nA = np.linalg.norm(A, 2) if A.size else 0.0
    h = t_f / 200 if t_f > 0 else 1.0
    if nA > 0:
        h = min(h, lh / nA)
    return h


def reach_lti(sys: LtiSystem, x0: HyperBox | Zonotope, u_box: HyperBox, t_f: float,
              step_h: float | None = None) -> ReachSets:
    """Over-approximate output reach sets of a stable or unstable LTI system.

    Returns step sets whose intervals tile [0, t_f], as one
    :class:`ReachSets`; every admissible output trajectory (measurable u in
    the box) from an initial state in ``x0`` stays inside the step set of
    its interval.  A box ``x0`` starts as :meth:`Zonotope.from_box`, with
    one generator per free dim.

    After j steps the state generators are [Phi^j G0, M_{j-1}, ..., M_0] with
    M_a = Phi^a G_in (superposition, Girard, Le Guernic & Maler, HSCC 2006).
    Each M_a, the output images of its hull pairs and its column norms are
    computed once, into an age table whose rows are the full steps.

    Cost model, for order k, m input columns, g0 initial generators (g0 <=
    min(f, k) for the image of a box with f free dims, see
    :func:`balancing.image_zonotope`),
    p outputs and N full steps: the exact recursions c <- Phi c + v,
    H <- Phi H and M_a <- Phi M_{a-1} are built by doubling
    (:func:`_propagate`), about log2 N products each and O(N k^2 (1 + g0 +
    m)) flops in all, straight into step-major buffers of (N + 1)(k + 1),
    (N + 1) k g0 and N k m doubles; the center's is the orbit of [c; 1]
    under [[Phi, v], [0, 1]].  rho <- ||Phi|| rho + res stays a scalar
    recursion.  Every step's center, dense columns [d, (CH + CH')/2,
    (CH - CH')/2] (from the output images CH, p x g0 per step), state norm
    and ball radius are then single array expressions over those buffers,
    and the table's output images come from one product C M.  Step
    j's input columns, every age below j, are described by j, not gathered.
    The result is a :class:`ReachSets` over the table's rows: indexing it
    assembles a full step's generator array (O(p g_j) for g_j input
    columns, :meth:`_AgeTable.generators`), while :func:`check_spec` reads
    polytope-row and unsafe-ellipsoid spreads from the table.  A partial
    last step maps its columns through its own transition in output space,
    so its arrays are p x g_j rather than k x g_j, and is built in full as
    the result's one ``extra`` zonotope.
    """
    # written so that NaN fails the tests
    if not 0 < t_f < np.inf:
        raise ModelError(f"t_f must be positive and finite, got {t_f}")
    if step_h is None:
        step_h = default_step(t_f, sys.A)
    if not 0 < step_h < np.inf:
        raise ModelError(f"step_h must be positive and finite, got {step_h}")
    if x0.dim != sys.n:
        raise ModelError(f"x0 has dim {x0.dim}, expected n={sys.n}")
    init = x0 if isinstance(x0, Zonotope) else Zonotope.from_box(x0)
    if u_box.dim != sys.m:
        raise ModelError(f"input box has dim {u_box.dim}, expected m={sys.m}")

    A, B, C = sys.A, sys.B, sys.C
    n = sys.n
    L = float(np.linalg.norm(A, 2)) if A.size else 0.0
    uc, ur = u_box.center, u_box.halfwidth
    nB = float(np.linalg.norm(B, 2)) if ur.size else 0.0
    ur_norm = float(np.linalg.norm(ur))

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
        res_ball = psi_gap * nB * 2.0 * ur_norm if ur.size else 0.0
        # curvature envelope for the in-step deviation from the chord between
        # consecutive endpoint states (second order in h, plus the first-order
        # input-variation sweep); any sound envelope is acceptable here.
        ebl = np.exp(L * h) - 1.0 - L * h
        sweep = 2.0 * ((np.exp(L * h) - 1.0) / L if L > 0 else h)
        drift = float(np.linalg.norm(B @ uc)) / L if L > 0 else 0.0
        return Phi, nPhi, vin, Gin, res_ball, ebl, sweep, drift

    Phi, nPhi, vin, Gin, res_ball, ebl, sweep, drift = make_step_data(step_h)
    in_norm = nB * ur_norm

    # step start times summed in sequence as `t += step_h` sums them, up to
    # the first that meets the stopping rule; only the last step can be
    # shorter than step_h
    starts = np.cumsum(np.concatenate([[0.0], np.full(int(np.ceil(t_f / step_h)) + 1, step_h)]))
    starts = starts[:np.searchsorted(starts, t_f - 1e-12 * max(1.0, t_f))].tolist()
    h_last = min(step_h, t_f - starts[-1])
    ends = starts[1:] + [starts[-1] + h_last]
    n_full = len(starts) - int(h_last < step_h * (1 - 1e-9))

    # the exact recursions, state j in column block j of a step-major
    # buffer, each built by doubling straight into its buffer: the center
    # c <- Phi c + vin as the orbit of [c; 1] under [[Phi, vin], [0, 1]]
    # (whose powers hold Phi's powers in their top-left blocks), the images
    # H = Phi^j G0 of the initial generators, and the age table's columns
    # M_a = Phi^a G_in; the envelope radius rho <- ||Phi|| rho + res stays a
    # scalar recursion
    m, g0, p = Gin.shape[1], init.order, C.shape[0]
    aug = np.eye(n + 1)
    aug[:n, :n], aug[:n, n] = Phi, vin
    powers = _doubling_powers(aug, n_full)
    Phi_powers = [P[:n, :n] for P in powers]
    cs = np.empty((n + 1, n_full + 1))
    cs[:n, 0], cs[n, 0] = init.center, 1.0
    _propagate(powers, cs[:, :1], n_full, out=cs[:, 1:])
    cs = cs[:n].T
    # dense, which the table keeps, is allocated before the orbit buffers,
    # so that the heap space they free is not left below it
    dense = np.empty((n_full, p, 1 + 2 * g0))
    M = np.empty((n, n_full * m))
    if n_full:
        M[:, :m] = Gin
    _propagate(Phi_powers, Gin, max(n_full - 1, 0), out=M[:, m:])
    H = np.empty((n, (n_full + 1) * g0))
    H[:, :g0] = init.generators
    _propagate(Phi_powers, init.generators, n_full, out=H[:, g0:])
    rhos = np.fromiter(itertools.accumulate(
        range(n_full), lambda rho, _: nPhi * rho + res_ball, initial=0.0), float, n_full + 1)

    def column_norms(X):
        # without the squared copy of X that np.linalg.norm makes
        return np.sqrt(np.einsum("ij,ij->j", X, X))

    # norm_prefix[j] sums the norms of every input column injected before
    # step j, and state_norms[j] bounds the norm of the state step j starts in
    norm_prefix = np.concatenate(
        [[0.0], np.cumsum(column_norms(M).reshape(n_full, m).sum(axis=1))])
    state_norms = np.linalg.norm(cs, axis=1) \
        + column_norms(H).reshape(n_full + 1, g0).sum(axis=1) + norm_prefix
    # H, the largest array of the call, is read only through its output
    # images (state j in row j of CH) and its last state from here on, so
    # it is released before the table is built
    CH = (C @ H).reshape(p, n_full + 1, g0).transpose(1, 0, 2)
    H_last = H[:, n_full * g0:].copy()
    del H

    def ball_of(state_norm, rho, rho_next):
        """Envelope-ball radius of a step (or of an array of steps) from the
        state it starts in, for the step data in scope when called."""
        return np.maximum(rho, rho_next) + (2.0 * ebl * (state_norm + rho + drift)
                                            + sweep * in_norm)

    # every full step's center and dense columns at once; the step hull
    # pairs state j with state j + 1, and a table column of age a with its
    # image of age a + 1
    c, c_next = cs[:-1], cs[1:]
    dense[:, :, 0] = ((c - c_next) / 2.0) @ C.T
    np.add(CH[:-1], CH[1:], out=dense[:, :, 1:1 + g0])
    np.subtract(CH[:-1], CH[1:], out=dense[:, :, 1 + g0:])
    dense[:, :, 1:] /= 2.0
    CM = C @ M
    older, newer = CM[:, :max(n_full - 1, 0) * m], CM[:, m:]
    balls = ball_of(state_norms[:-1], rhos[:-1], rhos[1:])
    table = _AgeTable(((c + c_next) / 2.0) @ C.T, dense, balls,
                      (older + newer) / 2.0, (older - newer) / 2.0, C @ (Gin / 2.0),
                      np.linalg.norm(C, axis=1), m)
    extra = []
    if n_full < len(starts):
        # the partial last step is built in output space: only its p x g
        # generator arrays are ever formed
        Phi, nPhi, vin, Gin, res_ball, ebl, sweep, drift = make_step_data(h_last)
        idx = table.oldest_first(n_full)
        CPhi = C @ Phi
        state = Zonotope(C @ cs[-1], np.hstack([CH[-1], CM[:, idx]]))
        nxt = Zonotope(C @ (Phi @ cs[-1] + vin),
                       np.hstack([CPhi @ H_last, (CPhi @ M)[:, idx], C @ Gin]))
        hull = enclose(state, nxt)
        ball = float(ball_of(state_norms[-1], rhos[-1], nPhi * rhos[-1] + res_ball))
        extra.append(Zonotope(hull.center, np.hstack([hull.generators,
                                                      table.ball_columns(ball)])))
    return ReachSets(starts, ends, table, extra)


# --------------------------------------------------------------------------
# Simulation.
# --------------------------------------------------------------------------

InputLike = Union[None, np.ndarray, Callable[[float], np.ndarray]]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    outputs: np.ndarray  # (samples, p), or (samples, p, B) for a batch


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
    and the trajectory's outputs have shape (samples, p, B).  Only the
    current state is kept.  A state that becomes non-finite anywhere in the
    batch raises ModelError, as do a non-finite ``t_f`` and an ``h`` that is
    not a finite positive real; ``t_f <= 0`` gives the one sample at t = 0.
    """
    if not np.isfinite(t_f):
        raise ModelError(f"t_f must be finite, got {t_f}")
    if h is None:
        h = default_step(t_f, sys.A)
    # written so that NaN fails the test
    if not 0 < h < np.inf:
        raise ModelError(f"step h must be a finite positive real, got {h}")
    x = np.asarray(x0, dtype=float)
    if x.ndim == 2 and x.shape[0] == sys.n:
        batch = x.shape[1:]
    else:
        x, batch = x.reshape(sys.n), ()
    if t_f <= 0:
        return Trajectory(np.zeros(1), (sys.C @ x)[None])
    steps = int(np.ceil(t_f / h - 1e-12))
    times = np.minimum(np.arange(steps + 1) * h, t_f)
    uval = _step_inputs(u, sys.m, times, batch)
    Phi, PsiB = _transition(sys.A, h, sys.B)
    outputs = np.empty((steps + 1, sys.p) + batch)
    outputs[0] = sys.C @ x
    last_h = times[-1] - times[-2]
    Phi_last, PsiB_last = (Phi, PsiB) if abs(last_h - h) < 1e-12 * h else \
        _transition(sys.A, last_h, sys.B)
    for j in range(steps):
        P, Q = (Phi, PsiB) if j < steps - 1 else (Phi_last, PsiB_last)
        x = P @ x + Q @ uval[j]
        if not np.all(np.isfinite(x)):
            raise ModelError(f"state became non-finite at t={times[j + 1]:.6g}")
        outputs[j + 1] = sys.C @ x
    return Trajectory(times, outputs)


# --------------------------------------------------------------------------
# Spec checking.
# --------------------------------------------------------------------------

def _poly_spreads(sets: ReachSets, Gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sets, rows) arrays of Gamma @ center and of the per-row spread
    sum_j |(Gamma G)_ij| of each step set: the row values of its points lie
    in Gc -/+ spread.  The table's rows are read from its per-Gamma spreads
    in one expression."""
    Gc, spread = np.empty((len(sets), Gamma.shape[0])), np.empty((len(sets), Gamma.shape[0]))
    rows = sets.rows
    if rows:
        Gc[:rows] = sets.table.centers @ Gamma.T
        spread[:rows] = sets.table.row_spreads(Gamma)
    for i, z in enumerate(sets.extra, rows):
        Gc[i], spread[i] = Gamma @ z.center, z.row_spread(Gamma)
    return Gc, spread


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
    failed disjointness test errs toward Indeterminate.  This reads the
    generator array; :func:`_quad_lowers` computes the same bound for the
    rows of a reach age table from the table.
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


def _quad_lowers(sets: ReachSets, ell: EllipsoidSpec, decided: float) -> np.ndarray:
    """:func:`quad_lower` of each step set, wherever it is at most
    ``decided``; where it is above, the value returned is above too.

    The table's rows read their spreads from the table: the axis spreads
    from its identity-row spreads, for every row at once, and the gradient
    direction's from :meth:`_AgeTable.direction_spreads`, only for the rows
    whose axis bound is at most ``decided``.  The gradient can only raise
    the bound, so a row the axes put above ``decided`` stays above.  The
    explicit zonotopes call :func:`quad_lower`."""
    lows = np.empty(len(sets))
    rows = sets.rows
    for i, z in enumerate(sets.extra, rows):
        lows[i] = quad_lower(z, ell)
    if rows:
        table, Q, Qinv = sets.table, ell.Q, ell.Q_inv
        D = table.centers - ell.a
        lo = np.maximum(0.0, np.abs(D) - table.row_spreads(np.eye(ell.p)))
        low = np.max(lo * lo / np.diag(Qinv), axis=1, initial=0.0)
        grad = D @ Q.T
        norms = np.linalg.norm(grad, axis=1)
        undecided = np.flatnonzero((low <= decided) & (norms > 0))
        V = grad[undecided] / norms[undecided, None]
        lo = np.maximum(0.0, np.abs(np.sum(V * D[undecided], axis=1))
                        - table.direction_spreads(V, undecided))
        denom = np.sum((V @ Qinv) * V, axis=1)
        low[undecided] = np.maximum(low[undecided],
                                    np.where(denom > 0, lo * lo / denom, 0.0))
        lows[:rows] = low
    return lows


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


def _check_one(sets: ReachSets, ts: TransformedSpec) -> str:
    """Three-way verdict of the step sets against one transformed predicate.

    ``ok`` marks the steps that pass (contained in the shrunk safe region for
    a safe-polarity source, certainly disjoint from the grown region for an
    unsafe-polarity one); the steps that fail are searched for a certified
    hit.  Polytope regions are checked for all steps at once.  A step set's
    generators are assembled only where they are read: safe-region
    ellipsoids and the hit search on failing steps."""
    unsafe = ts.unsafe_region
    if ts.source_polarity == POLARITY_SAFE:
        safe = ts.safe_region
        if safe is None:
            ok = np.zeros(len(sets), bool)
        elif isinstance(safe, PolytopeSpec):
            Gc, s = _poly_spreads(sets, safe.Gamma)
            ok = np.all(Gc + s + safe.Psi <= 0.0, axis=1)
        else:
            ok = np.array([quad_upper(z.outputs, safe) <= safe.R ** 2 for z in sets], bool)
        failed = np.flatnonzero(~ok)
        if isinstance(unsafe, PolytopeSpec):
            # exact: some point of a step set violates a grown row; the
            # grown rows are the shrunk ones, whose spreads the table keeps
            Gc, s = _poly_spreads(sets, unsafe.Gamma)
            hit = bool(np.any(Gc[failed] + s[failed] + unsafe.Psi > 0.0))
        else:
            hit = any(unsafe.quad(_quad_extreme_point(sets[j].outputs, unsafe, maximize=True))
                      > unsafe.R ** 2 for j in failed)
    elif isinstance(unsafe, PolytopeSpec):
        Gc, s = _poly_spreads(sets, unsafe.Gamma)
        ok = np.any(Gc - s + unsafe.Psi > 0.0, axis=1)
        hit = any(_quad_center_candidate(sets[j].outputs, unsafe) is not None
                  for j in np.flatnonzero(~ok))
    else:
        ok = _quad_lowers(sets, unsafe, unsafe.R ** 2) > unsafe.R ** 2
        hit = any(unsafe.quad(_quad_extreme_point(sets[j].outputs, unsafe, maximize=False))
                  <= unsafe.R ** 2 for j in np.flatnonzero(~ok))
    if np.all(ok):
        return SAFE
    return MAYBE_UNSAFE if hit else INDETERMINATE


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
    sets = ReachSets.of(steps)
    verdicts = [_check_one(sets, ts) for ts in transformed]
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
#: arrays stay bounded whatever the budget: per candidate (steps + 1) p
#: output and steps m plan floats, and one state of n.  For 64 candidates of
#: 995 steps at order 40 with 4 outputs and 12 inputs that is 8.2 MB, and
#: with the margin blocks of :data:`WITNESS_MARGIN_BLOCK` the traced peak of
#: such a search is 8.6 MB (12.8 MB when an 8-row box spec's margins were
#: formed for every sample at once).
WITNESS_CHUNK = 64

#: Doubles per block of a chunk's witness margins: samples are scored
#: max(1, this // (B * width)) at a time, for B candidates and a width of
#: the spec's rows (outputs for an ellipsoid), so no (samples, B, rows)
#: array is formed.  For 64 candidates and 8 rows that is 64 samples, a
#: 256 KB block.
WITNESS_MARGIN_BLOCK = 1 << 15


def _peak_margins(ts: TransformedSpec, samples: np.ndarray) -> np.ndarray:
    """Each candidate's largest witness margin over (samples, B, p) output
    samples, taken over blocks of samples; the max is exact, so it equals
    the max over one :meth:`TransformedSpec.witness_margins` call."""
    reg = ts.witness_region
    width = reg.Gamma.shape[0] if isinstance(reg, PolytopeSpec) else samples.shape[2]
    block = max(1, WITNESS_MARGIN_BLOCK // (samples.shape[1] * width))
    peak = ts.witness_margins(samples[:block]).max(axis=0)
    for start in range(block, samples.shape[0], block):
        np.maximum(peak, ts.witness_margins(samples[start:start + block]).max(axis=0),
                   out=peak)
    return peak


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
    initial states.  :meth:`TransformedSpec.witness_margins` scores the
    chunk's samples a block at a time (``WITNESS_MARGIN_BLOCK``), keeping
    each candidate's largest margin; candidates are then taken in order, and
    predicates in order within each, for the single-state re-simulation.
    The random draws are made in the order of a candidate-by-candidate
    search, so the same witness is returned.  A state that overflows
    anywhere in a chunk raises ModelError, even when an earlier candidate
    of the chunk is a witness.
    """
    if not (isinstance(budget, numbers.Integral) and budget >= 1):
        raise ModelError(f"witness budget must be a positive integer, got {budget}")
    # written so that NaN fails the tests
    if not np.isfinite(t_f):
        raise ModelError(f"t_f must be finite, got {t_f}")
    if h is None:
        h = default_step(t_f, sys.A)
    if not 0 < h < np.inf:
        raise ModelError(f"step h must be a finite positive real, got {h}")
    if not (eta is None or np.isfinite(eta)):
        raise ModelError(f"eta must be finite, got {eta}")
    if isinstance(transformed_unsafe, TransformedSpec):
        transformed_unsafe = [transformed_unsafe]
    specs = list(transformed_unsafe)
    rng = np.random.default_rng(seed)
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
        hits = np.stack([_peak_margins(ts, samples) > eta
                         for ts, eta in zip(specs, etas)], axis=1)
        # nonzero walks candidates in order, predicates in order within each
        for b, ts_i in zip(*np.nonzero(hits)):
            witness = revalidate(inits[:, start + b].copy(),
                                 plans[:, :, b].copy(), int(ts_i))
            if witness is not None:
                return witness
    return None
