"""Zonotope reachability for low-order LTI systems, exact piecewise-constant
simulation, spec checking and unsafe-witness search.

Reach, simulation and the witness search step on one grid
(:func:`_time_grid`), so the step sets and the simulated witnesses sample
the same instants, as in simulation-equivalent reachability (Bak &
Duggirala, CAV 2017).

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
once from the states of the exact recursions.  A step's 1 + 2 g0 dense
columns come from the images of the g0 initial generators, and g0 <=
min(f, k) when the initial set is the order-k image of a box with f free
dims (:func:`balancing.image_zonotope`).  Every step is a row of that
table, and every :class:`ReachSets` is one: :func:`reach_lti` returns its
own, and explicit step sets become a table with no input ages
(:meth:`ReachSets.of`).  ``ReachSets[j]`` assembles step j's generator
array only when something reads it (safe-region ellipsoids, the hit
search on a step that fails its check, ``reach --format json``).  Polytope
rows read their spread from the table, built for every step in one pass
per Gamma from per-age row sums, the support-function view of Le Guernic &
Girard (NAHS 2010).  Unsafe-region ellipsoids read their axis spreads the
same way and the spread of each step's own gradient direction from a
cumulative sum over the table's columns.  For order k, p outputs and r
rows a step then costs O(k^2 (k + m)) arithmetic to build and O(r k) to
check, rather than O(r p g_j) over its g_j input columns, and neither
makes a matrix product per step: the exact recursions are built in chunks
of c states, the first by doubling, in about log2 c + N / c products for N
steps, and kept only as their output images and column norms.
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

    def __repr__(self) -> str:
        return f"Zonotope(dim={self.dim}, order={self.order})"


def _abs(X: np.ndarray) -> np.ndarray:
    """|X|, written over X: for a product that nothing else holds, so that
    no second array of its size is formed."""
    return np.abs(X, out=X)


class _AgeTable:
    """The step data shared by the step sets of one :class:`ReachSets`.

    Row j of ``centers`` (steps, p), ``dense`` (steps, p, 1 + 2 g0 from
    :func:`reach_lti`) and ``balls`` (steps,) is step j's center, dense
    columns and ball radius.  Column a*m + i of ``Y_plus`` / ``Y_minus`` is
    C (M_a +/- M_{a+1}) / 2 for input column i of age a, ``Y_new`` is
    C G_in / 2 and ``C_rows`` holds the row norms of C.  Step j holds every
    input column injected before it, the ages below j.
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

    def generators(self, j: int) -> np.ndarray:
        """Step j's output generator array: d, H+, input+, new, H-, input-,
        -new, ball, with the dense columns [d, H+, H-] and the input columns
        oldest first."""
        # the array is allocated before the blocks are computed: allocated
        # after them, it leaves a hole in the heap that grows every step
        dense, ball = self.dense[j], float(self.balls[j])
        p, split = dense.shape[0], 1 + dense.shape[1] // 2
        G = np.empty((p, dense.shape[1] + 2 * (j + 1) * self.m + (p if ball > 0 else 0)))
        # the input columns oldest first, and the image of the state-space
        # 2-ball: per-output radius ball*||C_i||_2
        idx = np.arange(j * self.m).reshape(j, self.m)[::-1].ravel()
        balls = np.diag(ball * self.C_rows) if ball > 0 else np.zeros((p, 0))
        return np.concatenate([dense[:, :split], self.Y_plus[:, idx], self.Y_new,
                               dense[:, split:], self.Y_minus[:, idx], -self.Y_new,
                               balls], axis=1, out=G)

    def row_spreads(self, Gamma: np.ndarray) -> np.ndarray:
        """(steps, rows) spreads of every step for the rows of Gamma, built
        once per distinct Gamma: sum |Gamma dense_j|, plus the per-age sums of
        |Gamma Y_plus| + |Gamma Y_minus| over the ages below j, plus
        2 sum |Gamma Y_new|, plus ball_j |Gamma| C_rows (the spread of its
        ball)."""
        key = (Gamma.shape, Gamma.tobytes())
        if key not in self._spreads:
            steps, r = len(self.balls), Gamma.shape[0]
            T = _abs(Gamma @ self.Y_plus)
            T += _abs(Gamma @ self.Y_minus)
            per_age = T.reshape(r, steps - 1, self.m).sum(axis=2)
            prefix = np.vstack([np.zeros((1, r)), np.cumsum(per_age.T, axis=0)])
            spreads = np.sum(_abs(Gamma @ self.dense), axis=2) + prefix[:steps] \
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
    """Output reach sets, one per step: ``t0`` and ``t1`` hold every step's
    interval, and the steps are the rows of ``table``.  Indexing assembles a
    :class:`ReachStep` on demand and keeps nothing; a slice returns a list.
    :func:`check_spec` reads the table's rows without assembling them."""

    def __init__(self, t0, t1, table: _AgeTable):
        self.t0, self.t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        self.table = table

    @classmethod
    def of(cls, steps: Sequence[ReachStep]) -> "ReachSets":
        """Explicit step sets as an age table with no input ages (m = 0 and
        zero balls), each zonotope's generators its row's dense columns,
        zero-padded to the widest; a ReachSets is returned as it is.  No
        step sets at all is a ModelError: no verdict holds over them."""
        if isinstance(steps, ReachSets):
            return steps
        steps = list(steps)
        zs = [s.outputs for s in steps]
        if not zs:
            raise ModelError("no step sets to check")
        dense = np.zeros((len(zs), zs[0].dim, max(z.order for z in zs)))
        for row, z in zip(dense, zs):
            row[:, :z.order] = z.generators
        none = np.zeros((zs[0].dim, 0))
        table = _AgeTable(np.array([z.center for z in zs]), dense, np.zeros(len(zs)),
                          none, none, none, np.zeros(zs[0].dim), 0)
        return cls([s.t0 for s in steps], [s.t1 for s in steps], table)

    def __len__(self) -> int:
        return self.t0.size

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self)))]
        j = range(len(self))[j]  # IndexError out of range, negative from the end
        return ReachStep(float(self.t0[j]), float(self.t1[j]),
                         Zonotope(self.table.centers[j], self.table.generators(j)))


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


#: Doubles per chunk of a :func:`reach_lti` orbit: a chunk holds
#: this // (rows x columns) states of the orbit, so no array of every step's
#: states is formed.  At order 40 with 12 input columns that is 136 of the
#: sweep's 995 input ages, 512 KB; the motor's orbits (order 5, 2 input
#: columns) fit in one chunk.
REACH_CHUNK_DOUBLES = 1 << 16


def _orbit_images(powers: list[np.ndarray], X: np.ndarray, count: int,
                  R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``R`` times the orbit X, Phi X, ..., Phi^(count-1) X of Phi =
    ``powers[0]``, as one (rows of R, count*w) array with step-major
    columns, and the 2-norms of the orbit's count*w columns over their
    first ``R.shape[1]`` rows.

    The orbit is built a chunk of :data:`REACH_CHUNK_DOUBLES` at a time and
    only its images and norms are kept: the first chunk by doubling from X
    (:func:`_propagate`, ``powers`` from :func:`_doubling_powers` for at
    least ``count - 1`` steps), each later one as Phi^c times the one
    before, for chunks of c states."""
    rows, w = R.shape[1], X.shape[1]
    chunk = max(1, REACH_CHUNK_DOUBLES // max(1, X.size))
    images, norms = np.empty((R.shape[0], count * w)), np.empty(count * w)
    jump = np.linalg.matrix_power(powers[0], chunk) if count > chunk else None
    for start in range(0, count, chunk):
        size = min(chunk, count - start)
        if start == 0:
            block = np.empty((X.shape[0], size * w))
            block[:, :w] = X
            _propagate(powers, X, size - 1, out=block[:, w:])
        else:
            block = jump @ block[:, :size * w]
        states, cols = block[:rows], slice(start * w, (start + size) * w)
        np.matmul(R, states, out=images[:, cols])
        # without the squared copy of the states that np.linalg.norm makes
        norms[cols] = np.sqrt(np.einsum("ij,ij->j", states, states))
    return images, norms


#: Default reach step control: ||A||_2 * h <= this value.
STEP_LH = 0.1


def default_step(t_f: float, A: np.ndarray, lh: float = STEP_LH) -> float:
    """Default reach/simulation step: min(t_f/200, lh/||A||_2).  ``lh`` can
    make the step finer than t_f/200 but not coarser: at least 200 steps
    cover the horizon."""
    if not lh > 0:
        raise ModelError(f"step_lh must be positive, got {lh}")
    nA = np.linalg.norm(A, 2) if A.size else 0.0
    h = t_f / 200 if t_f > 0 else 1.0
    if nA > 0:
        h = min(h, lh / nA)
    return h


def _time_grid(t_f: float, h: float | None, A: np.ndarray, name: str) -> np.ndarray:
    """The time grid of every layer that takes steps: linspace(0, t_f, N + 1)
    for N = max(1, ceil(t_f / h - 1e-12)) even steps of t_f / N, at most h
    up to a 1e-12 of a step.  ``h`` defaults to :func:`default_step`; one
    that is not positive and finite is refused by its ``name``."""
    if h is None:
        h = default_step(t_f, A)
    # written so that NaN fails the test
    if not 0 < h < np.inf:
        raise ModelError(f"{name} must be positive and finite, got {h}")
    return np.linspace(0.0, t_f, max(1, int(np.ceil(t_f / h - 1e-12))) + 1)


def reach_lti(sys: LtiSystem, x0: HyperBox | Zonotope, u_box: HyperBox, t_f: float,
              step_h: float | None = None) -> ReachSets:
    """Over-approximate output reach sets of a stable or unstable LTI system.

    Returns one step set per step of :func:`_time_grid`'s grid for
    ``step_h``, N even steps of h = t_f / N whose intervals tile [0, t_f],
    as one :class:`ReachSets`; every admissible output trajectory
    (measurable u in the box) from an initial state in ``x0`` stays inside
    the step set of its interval.  A box ``x0`` starts as
    :meth:`Zonotope.from_box`, with one generator per free dim.

    After j steps the state generators are [Phi^j G0, M_{j-1}, ..., M_0] with
    M_a = Phi^a G_in (superposition, Girard, Le Guernic & Maler, HSCC 2006).
    Each M_a, the output images of its hull pairs and its column norms are
    computed once, into an age table with one row per step.

    Cost model, for order k, m input columns, g0 initial generators (g0 <=
    min(f, k) for the image of a box with f free dims, see
    :func:`balancing.image_zonotope`),
    p outputs and N steps: the exact recursions c <- Phi c + v,
    H <- Phi H and M_a <- Phi M_{a-1} are built a chunk of
    :data:`REACH_CHUNK_DOUBLES` at a time (:func:`_orbit_images`), the first
    chunk of c states by doubling (:func:`_propagate`) and each later one as
    Phi^c times the one before, about log2 c + N / c products each and
    O(N k^2 (1 + g0 + m)) flops in all; the center's is the orbit of [c; 1]
    under [[Phi, v], [0, 1]].  Of each chunk only its output images (p x
    (1 + g0 + m) per step) and its column norms are kept, so no k x N array
    is formed: at k = 40, N = 995, m = 12 the input orbit alone would be
    3.8 MB.  rho <- ||Phi|| rho + res stays a scalar recursion.  Every
    step's center, dense columns [d, (CH + CH')/2, (CH - CH')/2] (from the
    output images CH, p x g0 per step), state norm and ball radius are then
    single array expressions over those images, and so are the table's
    columns.  Step j's input columns, every age below j, are described by
    j, not gathered.  Indexing the result assembles a step's generator array
    (O(p g_j) for g_j input columns, :meth:`_AgeTable.generators`), while
    :func:`check_spec` reads polytope-row and unsafe-ellipsoid spreads from
    the table.
    """
    # written so that NaN fails the tests
    if not 0 < t_f < np.inf:
        raise ModelError(f"t_f must be positive and finite, got {t_f}")
    times = _time_grid(t_f, step_h, sys.A, "step_h")
    if x0.dim != sys.n:
        raise ModelError(f"x0 has dim {x0.dim}, expected n={sys.n}")
    init = x0 if isinstance(x0, Zonotope) else Zonotope.from_box(x0)
    if u_box.dim != sys.m:
        raise ModelError(f"input box has dim {u_box.dim}, expected m={sys.m}")

    A, B, C = sys.A, sys.B, sys.C
    n = sys.n
    steps = times.size - 1
    h = t_f / steps
    L = float(np.linalg.norm(A, 2)) if A.size else 0.0
    uc, ur = u_box.center, u_box.halfwidth
    nB = float(np.linalg.norm(B, 2)) if ur.size else 0.0
    ur_norm = float(np.linalg.norm(ur))
    Phi, PsiB = _transition(A, h, B)
    nPhi = float(np.linalg.norm(Phi, 2))
    Gin = PsiB @ np.diag(ur)
    Gin = Gin[:, np.linalg.norm(Gin, axis=0) > 0]
    vin = PsiB @ uc
    # residual for measurable (non-constant) inputs within one step:
    # || int e^{As} B (w - wbar) ds || with the average wbar split off.
    psi_gap = (np.exp(L * h) - 1.0) / L - h if L > 0 else 0.0
    res_ball = psi_gap * nB * 2.0 * ur_norm if ur.size else 0.0
    # curvature envelope for the in-step deviation from the chord between
    # consecutive endpoint states (second order in h, plus the first-order
    # input-variation sweep); any sound envelope is acceptable here.
    ebl = np.exp(L * h) - 1.0 - L * h
    sweep = 2.0 * ((np.exp(L * h) - 1.0) / L if L > 0 else h)
    drift = float(np.linalg.norm(B @ uc)) / L if L > 0 else 0.0

    # the exact recursions, state j in column block j of a step-major
    # orbit, each built a chunk at a time and kept only as its output
    # images and column norms (:func:`_orbit_images`): the center
    # c <- Phi c + vin as the orbit of [c; 1] under [[Phi, vin], [0, 1]]
    # (whose powers hold Phi's powers in their top-left blocks), the images
    # H = Phi^j G0 of the initial generators, and the age table's columns
    # M_a = Phi^a G_in; the envelope radius rho <- ||Phi|| rho + res stays a
    # scalar recursion.
    m, g0, p = Gin.shape[1], init.order, C.shape[0]
    aug = np.eye(n + 1)
    aug[:n, :n], aug[:n, n] = Phi, vin
    powers = _doubling_powers(aug, steps)
    Phi_powers = [P[:n, :n] for P in powers]
    # dense, which the table keeps, is allocated before the orbit chunks,
    # so that the heap space they free is not left below it
    dense = np.empty((steps, p, 1 + 2 * g0))
    Cc, c_norms = _orbit_images(powers, np.append(init.center, 1.0)[:, None], steps + 1, C)
    CH, h_norms = _orbit_images(Phi_powers, init.generators, steps + 1, C)
    CM, m_norms = _orbit_images(Phi_powers, Gin, steps, C)
    rhos = np.fromiter(itertools.accumulate(
        range(steps), lambda rho, _: nPhi * rho + res_ball, initial=0.0), float, steps + 1)

    # norm_prefix[j] sums the norms of every input column injected before
    # step j, and state_norms[j] bounds the norm of the state step j starts in
    norm_prefix = np.concatenate([[0.0], np.cumsum(m_norms.reshape(steps, m).sum(axis=1))])
    state_norms = c_norms + h_norms.reshape(steps + 1, g0).sum(axis=1) + norm_prefix
    Cc, CH = Cc.T, CH.reshape(p, steps + 1, g0).transpose(1, 0, 2)

    # every step's center, dense columns and ball radius at once; the step
    # hull pairs state j with state j + 1, and a table column of age a with
    # its image of age a + 1
    c, c_next = Cc[:-1], Cc[1:]
    dense[:, :, 0] = (c - c_next) / 2.0
    np.add(CH[:-1], CH[1:], out=dense[:, :, 1:1 + g0])
    np.subtract(CH[:-1], CH[1:], out=dense[:, :, 1 + g0:])
    dense[:, :, 1:] /= 2.0
    older, newer = CM[:, :(steps - 1) * m], CM[:, m:]
    balls = np.maximum(rhos[:-1], rhos[1:]) \
        + (2.0 * ebl * (state_norms[:-1] + rhos[:-1] + drift) + sweep * (nB * ur_norm))
    table = _AgeTable((c + c_next) / 2.0, dense, balls,
                      (older + newer) / 2.0, (older - newer) / 2.0, C @ (Gin / 2.0),
                      np.linalg.norm(C, axis=1), m)
    return ReachSets(times[:-1], times[1:], table)


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


#: Largest number of steps :func:`simulate` advances with one product.
SIM_BLOCK_MAX = 16


def _block_kernel(Phi: np.ndarray, PsiB: np.ndarray, C: np.ndarray, b: int) -> np.ndarray:
    """K_b with [y_{j+1}; ...; y_{j+b}; x_{j+b}] = K_b [x_j; u_j; ...; u_{j+b-1}]
    for x_{i+1} = Phi x_i + PsiB u_i and y_i = C x_i:
    K_b = [[O_b, T_b], [Phi^b, G_b]] with O_b the stacked C Phi^i
    (i = 1 ... b), T_b the lower block-Toeplitz matrix whose block (i, l) is
    C Phi^(i-1-l) PsiB for l < i, and G_b = [Phi^(b-1) PsiB ... PsiB]."""
    n, m, p = Phi.shape[0], PsiB.shape[1], C.shape[0]
    K = np.zeros((b * p + n, n + b * m))
    P, gains = np.eye(n), []  # Phi^i, and Phi^d PsiB for d < b
    for i in range(1, b + 1):
        gains.append(P @ PsiB)
        P = Phi @ P
        K[(i - 1) * p:i * p, :n] = C @ P
    K[b * p:, :n] = P
    out_gains = [C @ G for G in gains]
    for l in range(b):
        K[b * p:, n + l * m:n + (l + 1) * m] = gains[b - 1 - l]
        for i in range(l + 1, b + 1):
            K[(i - 1) * p:i * p, n + l * m:n + (l + 1) * m] = out_gains[i - 1 - l]
    return K


def simulate(sys: LtiSystem, x0: np.ndarray, u: InputLike, t_f: float,
             h: float | None = None) -> Trajectory:
    """Exact-per-step propagation via the matrix exponential.

    The samples are the grid of :func:`_time_grid` for ``h``, the one
    :func:`reach_lti` tiles at the same step: N even steps of t_f / N, all
    taken with one transition.  Inputs are held constant over each step
    (piecewise-constant signals whose switch times align with the grid are
    propagated exactly).  ``u`` may be None, a constant vector, a callable
    of time, or a (steps, m) array.

    ``x0`` of shape (n, B) simulates a batch of B initial states at once;
    ``u`` may then also be a (steps, m, B) array of per-state inputs, and the
    trajectory's outputs have shape (samples, p, B).

    The steps are taken b at a time, b about n / sqrt(p m) and at most
    :data:`SIM_BLOCK_MAX`: one product of the block kernel K_b
    (:func:`_block_kernel`, (b p + n) x (n + b m), built once per call) with
    [x_j; u_j; ...; u_{j+b-1}] gives the block's b output samples and its
    last state, about (p + n/b)(n + b m) flops per step and state instead
    of n (n + m + p), and only the current state is kept.  The steps left
    after the last whole block take one step at a time.  A block with a
    non-finite entry is taken again one step at a time, so a state that
    becomes non-finite anywhere in the batch raises ModelError naming the
    time of its step.  A non-finite ``t_f``, an ``h`` that is not positive
    and finite, an ``x0`` of the wrong size and a non-finite ``x0`` or ``u``
    also raise ModelError; ``t_f <= 0`` gives the one sample at t = 0.
    """
    if not np.isfinite(t_f):
        raise ModelError(f"t_f must be finite, got {t_f}")
    times = _time_grid(t_f, h, sys.A, "step h")
    n, m, p, C = sys.n, sys.m, sys.p, sys.C
    x = np.asarray(x0, dtype=float)
    if x.ndim == 2 and x.shape[0] == n:
        batch = x.shape[1:]
    elif x.size == n:
        x, batch = x.reshape(n), ()
    else:
        raise ModelError(f"x0 must have shape ({n},) or ({n}, B), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ModelError("x0 must be finite")
    if t_f <= 0:
        return Trajectory(np.zeros(1), (C @ x)[None])
    steps = times.size - 1
    uval = _step_inputs(u, m, times, batch)
    if not np.all(np.isfinite(uval)):
        raise ModelError("u must be finite")
    Phi, PsiB = _transition(sys.A, t_f / steps, sys.B)
    outputs = np.empty((steps + 1, p) + batch)
    outputs[0] = C @ x

    def advance(j: int, x: np.ndarray) -> np.ndarray:
        x = Phi @ x + PsiB @ uval[j]
        if not np.all(np.isfinite(x)):
            raise ModelError(f"state became non-finite at t={times[j + 1]:.6g}")
        outputs[j + 1] = C @ x
        return x

    b = int(min(SIM_BLOCK_MAX, max(1, round(n / np.sqrt(max(p * m, 1))))))
    whole = steps // b * b
    K = _block_kernel(Phi, PsiB, C, b) if whole else None
    for j in range(0, whole, b):
        Z = K @ np.concatenate([x, uval[j:j + b].reshape((b * m,) + batch)])
        if np.all(np.isfinite(Z)):
            outputs[j + 1:j + 1 + b] = Z[:b * p].reshape((b, p) + batch)
            x = Z[b * p:]
        else:
            for i in range(j, j + b):
                x = advance(i, x)
    for j in range(whole, steps):
        x = advance(j, x)
    return Trajectory(times, outputs)


# --------------------------------------------------------------------------
# Spec checking.
# --------------------------------------------------------------------------

def _poly_spreads(sets: ReachSets, Gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sets, rows) arrays of Gamma @ center and of the per-row spread
    sum_j |(Gamma G)_ij| of each step set: the row values of its points lie
    in Gc -/+ spread.  Both are read from the table in one expression."""
    return sets.table.centers @ Gamma.T, sets.table.row_spreads(Gamma)


def quad_upper(z: Zonotope, ell: EllipsoidSpec) -> float:
    """Sound upper bound on max over the zonotope of (y-a)^T Q (y-a)."""
    d = z.center - ell.a
    G = z.generators
    QG = ell.Q @ G
    return float(d @ ell.Q @ d
                 + 2.0 * np.sum(np.abs(G.T @ ell.Q @ d))
                 + np.sum(np.abs(G.T @ QG)))


def _quad_lowers(sets: ReachSets, ell: EllipsoidSpec, decided: float) -> np.ndarray:
    """Sound lower bound on the min over each step set of (y-a)^T Q (y-a),
    wherever it is at most ``decided``; where it is above, the value
    returned is above too.

    The best Cauchy-Schwarz bound (v^T x)^2 <= (v^T Q^-1 v)(x^T Q x) over
    the output axes and the gradient direction, so a failed disjointness
    test errs toward Indeterminate.  The axis spreads are the table's
    identity-row spreads, and the gradient direction's come from
    :meth:`_AgeTable.direction_spreads`, only for the rows whose axis bound
    is at most ``decided``: the gradient can only raise the bound."""
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
    low[undecided] = np.maximum(low[undecided], np.where(denom > 0, lo * lo / denom, 0.0))
    return low


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
    transformed spec family; explicit step sets are read as an age table
    (:meth:`ReachSets.of`), and no step sets is a ModelError.

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


#: Doubles per chunk of the witness search's candidates, which share one
#: batched :func:`simulate` call: a chunk holds as many candidates as fit
#: their (steps, m) input plans and (steps + 1, p) output samples in this
#: many doubles, and at least one, so its arrays stay bounded whatever the
#: budget.  At order 40 with 995 steps, 12 inputs and 4 outputs that is 16
#: candidates in 2.0 MB.
WITNESS_CHUNK_DOUBLES = 1 << 18


def _witness_chunk(steps: int, m: int, p: int) -> int:
    """Candidates per chunk of the witness search (:data:`WITNESS_CHUNK_DOUBLES`)."""
    return max(1, WITNESS_CHUNK_DOUBLES // (steps * m + (steps + 1) * p))


#: Doubles per block of a chunk's witness margins: samples are scored
#: max(1, this // (B * width)) at a time, for B candidates and a width of
#: the spec's rows (outputs for an ellipsoid), so no (samples, B, rows)
#: array is formed.  For 16 candidates and 8 rows that is 256 samples, a
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
    initial states, bang-bang and random piecewise-constant inputs) on the
    grid that :func:`reach_lti` tiles at the step ``h``, whose N even steps
    each hold one input row.  A sample must satisfy the witness predicate
    with margin > eta and survive a re-simulation at a tenth of the even
    step t_f / N with margin >= eta/2.  ``init_map``
    lifts initial states drawn from ``x0`` into the simulated system's state
    space (identity when omitted); drawing from the original box keeps the
    witness sound for the full-order system.

    The initial states are drawn first, then each chunk of candidates, as
    many as fit :data:`WITNESS_CHUNK_DOUBLES` (16 at order 40 over 995 steps
    with 12 inputs and 4 outputs, whatever the budget), draws its input
    plans (steps, m) into one (steps, m, B) array and is simulated by one
    batched :func:`simulate` call from its (n, B) initial states.
    :meth:`TransformedSpec.witness_margins` scores the chunk's samples a
    block at a time (``WITNESS_MARGIN_BLOCK``), keeping
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
    steps = _time_grid(t_f, h, sys.A, "step h").size - 1
    if not (eta is None or np.isfinite(eta)):
        raise ModelError(f"eta must be finite, got {eta}")
    if isinstance(transformed_unsafe, TransformedSpec):
        transformed_unsafe = [transformed_unsafe]
    specs = list(transformed_unsafe)
    rng = np.random.default_rng(seed)
    etas = [1e-9 * ts.witness_scale if eta is None else eta for ts in specs]
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
        # re-simulate at a tenth of the even step; each plan row covers its
        # ten sub-steps, and the last row any sub-step that rounding adds
        lifted = x if init_map is None else init_map @ x
        fine_h = t_f / steps / 10
        fine_steps = _time_grid(t_f, fine_h, sys.A, "step h").size - 1
        fine_plan = plan[np.minimum(np.arange(fine_steps) // 10, steps - 1)]
        fine = simulate(sys, lifted, fine_plan, t_f, fine_h)
        fvals = specs[ts_i].witness_margins(fine.outputs)
        fj = int(np.argmax(fvals))
        if fvals[fj] >= etas[ts_i] / 2:
            return WitnessTrajectory(times=fine.times, outputs=fine.outputs,
                                     init_state=x, step_inputs=plan,
                                     margin=float(fvals[fj]),
                                     predicate_index=ts_i, sample_index=fj)
        return None

    def scan(start: int, stop: int) -> WitnessTrajectory | None:
        """Simulate candidates start ... stop - 1 as one batch and revalidate
        their hits in order; the chunk's arrays are freed on return, before
        the next chunk allocates its own."""
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

    chunk = _witness_chunk(steps, u_box.dim, sys.p)
    for start in range(0, budget, chunk):
        witness = scan(start, min(start + chunk, budget))
        if witness is not None:
            return witness
    return None
