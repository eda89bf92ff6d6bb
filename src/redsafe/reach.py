"""Zonotope reachability for low-order LTI systems, exact piecewise-constant
simulation, spec checking and unsafe-witness search.

Reach and simulation step on one grid (:func:`_time_grid`), and the
witness search reads its horizon and step from reach's step sets, so the
step sets and the simulated witnesses sample the same instants, as in
simulation-equivalent reachability (Bak & Duggirala, CAV 2017).

Reach samples the exact sets X_{j+1} = e^{Ah} X_j + V_input of a
constant-per-step input at the grid points.  Each step set is the convex
hull of its two end samples, inflated by a ball that holds a rigorous
second-order residual for measurable inputs in the box and a curvature
envelope, so the union of step sets covers the continuous-time output reach
set over [0, t_f].

By superposition sample j holds the input columns {e^{Aah} G_in : a < j}
(Girard, Le Guernic & Maler, HSCC 2006), so one orbit gives every sample's
output center, initial-generator images and input images of one age.  These
are the rows of the one :class:`ReachSets` that :func:`reach_lti` returns,
the only step sets there are, and every reader takes them in one form: the
samples' supports along some rows, read from per-age row sums, and each
step's range, the least and the largest of its two samples' widened by its
ball, the support-function view of Le Guernic & Girard (NAHS 2010).
Polytope rows, ellipsoids of either polarity (along the rows of Q's
eigenvector factor), every format of ``reach`` and ``ReachSets[j]``, the
range box of the p outputs, read step ranges; the witness search reads the
samples' supports.
For order k, p outputs, g0 initial generators and r rows a step then costs
O((p k + k^2 / s)(1 + g0 + m)) arithmetic to build (:func:`reach_lti`,
whose orbit forms every s-th state) and O(r p (g0 + m)) to check, rather
than O(r p g_j) over its g_j input columns, with no matrix product per
step.

The witness search (:func:`find_unsafe_witness`) reads the same samples and
is the one place that looks for a crossing point.  Reach starts from a
box's exact image (:func:`balancing.image_zonotope`), so a box vertex and
a bang-bang grid plan, the optimal input of simulation-equivalent
reachability, attain the support of any output direction at any sample,
and the sample's images give both.  Each predicate gets one such candidate
(:func:`_candidates`) and nothing is drawn at random.  :func:`check_spec`
calls for it only when its own test leaves some step set uncertified clear
of a witness region.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Callable, Union

import numpy as np

from .model import HyperBox, LtiSystem, ModelError, PolytopeSpec, POLARITY_SAFE
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


@dataclass(frozen=True)
class ReachStep:
    """Output-space over-approximation over one time interval."""
    t0: float
    t1: float
    outputs: Zonotope


class ReachSets(Sequence):
    """The output reach sets of :func:`reach_lti`, one per step of its grid
    ``times``: step j covers t0[j] ... t1[j] and is the hull of grid samples
    j and j + 1, plus a ball, so N steps join N + 1 samples.  Indexing
    hands out step j's range box, its row j of :meth:`step_bounds` over the
    p outputs, as a :class:`ReachStep` with a fresh zonotope; a slice returns
    a list.

    Row i of ``Y`` (samples, p, 1 + g0 + m) is sample i: its output center
    C c_i, the images C H_i of the g0 initial generators and the images
    C M_i of the m input columns of age i; sample i holds the ages below i.
    ``norms`` (samples, 1 + g0 + m) bounds the state norms of those columns.
    ``balls`` holds each step's ball radius and ``C_rows`` the row norms of
    C.  ``channels`` holds the input channel of each of the m columns of an
    age.

    Every reader of the rows of a Gamma reads one table, built once per
    distinct Gamma from each sample's center row c = Gamma C c_i and its
    spread s = sum |Gamma C H_i| + sum over the ages a < i of
    sum |Gamma C M_a|: the samples' supports (:meth:`sample_supports`) and
    each step's range, taken from its two samples' (the support of a hull is
    the larger of its sets' supports, Le Guernic & Girard, NAHS 2010) and
    its ball (:meth:`step_bounds`).
    """

    def __init__(self, times, Y, norms, balls, C_rows, channels: np.ndarray):
        self.g0 = Y.shape[2] - 1 - channels.size
        # every read of the step sets shares these arrays: read-only, so
        # that an in-place change raises instead of changing every later
        # check of the step sets
        for a in (times, Y, norms, balls, C_rows):
            a.flags.writeable = False
        self.t0, self.t1 = times[:-1], times[1:]
        self.Y, self.balls, self.C_rows = Y, balls, C_rows
        self.norms, self.channels = norms, channels
        self._tables: dict = {}

    def __len__(self) -> int:
        return self.t0.size

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self)))]
        j = range(len(self))[j]  # IndexError out of range, negative from the end
        lo, hi = self.step_bounds(np.eye(self.Y.shape[1]))
        return ReachStep(float(self.t0[j]), float(self.t1[j]),
                         Zonotope.from_box(HyperBox(lo[j], hi[j])))

    def _table(self, Gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sample supports and the step bounds of the rows of Gamma,
        read-only, built once per distinct Gamma from one matrix product with
        every column of every sample."""
        key = (Gamma.shape, Gamma.tobytes())
        if key not in self._tables:
            samples, p, w = self.Y.shape
            P = (Gamma @ self.Y.transpose(1, 2, 0).reshape(p, -1)).reshape(-1, w, samples)
            A, g0 = _abs(P[:, 1:]), self.g0
            # sample i holds the ages below i: a prefix sum over the ages
            ages = np.cumsum(A[:, g0:, :-1].sum(axis=1), axis=1)
            c, spread = P[:, 0], A[:, :g0].sum(axis=1) + np.hstack([np.zeros((len(A), 1)), ages])
            lo, hi = c - spread, c + spread
            ball = (np.abs(Gamma) @ self.C_rows)[:, None] * self.balls
            # formed rows first, so that the readers' arithmetic runs along
            # the samples, and handed out as (samples, rows) views
            table = (hi.T, (np.minimum(lo[:, :-1], lo[:, 1:]) - ball).T,
                     (np.maximum(hi[:, :-1], hi[:, 1:]) + ball).T)
            for a in table:
                a.flags.writeable = False
            self._tables[key] = table
        return self._tables[key]

    def sample_supports(self, Gamma: np.ndarray) -> np.ndarray:
        """(samples, rows) upper supports of the rows of Gamma at every
        grid sample, with no hull and no ball: c + s.  A box vertex and a
        grid plan attain each when the initial set is a box's exact image."""
        return self._table(Gamma)[0]

    def step_bounds(self, Gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(steps, rows) lower and upper bounds of the rows of Gamma over
        every step set: the least and the largest of its two samples'
        c -/+ s, widened on each side by ball_j |Gamma| C_rows (the spread of
        its ball)."""
        return self._table(Gamma)[1:]


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
    when given, which may be a column slice of a larger buffer.  Every
    :class:`_Orbit`, the simulation bounds' and :func:`reach_lti`'s, builds
    its blocks of giant states here."""
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


#: Doubles held by one block of an :class:`_Orbit`, counted as its giant
#: states (n x width each) and two sets of output rows (rows x width per
#: step): for the simulation bounds the full-order half's, which its mode
#: keeps for every order, and the reduced half's buffer, into which each
#: order adds them; :func:`reach_lti` copies each block's rows into its samples.
ORBIT_BLOCK_DOUBLES = 1 << 18


class _Orbit:
    """Images of the states Phi^j X0, j = 0 ... ``steps``, of the step map
    Phi under stacked maps M, and the exact squared column norms of its
    giant states over their first ``norm_rows`` rows (all when None),
    simulated block by block on first request.

    With n states, ``rows`` map rows in all and w columns, a step costs
    2 n^2 w flops when its state is formed.  The orbit forms only the giant
    states R_b = Phi^{s b} X0, every ``stride`` s = floor(n / rows) steps
    where n >= 4 rows and every step otherwise (baby step / giant step,
    Paterson & Stockmeyer 1973).  An orbit built ``like`` another takes that
    one's stride and block, so that the two line up block for block and
    step for step.  A block of G giant states is built by doubling
    (:func:`_propagate`) from the powers Phi^s, Phi^{2s}, Phi^{4s}, ...,
    computed once per orbit, and its steps s b + a, 0 <= a < s, b < G, are
    read as (M Phi^a) R_b in one batched product of the stack
    [M; M Phi; ...; M Phi^{s-1}] (s - 1 (rows x n)(n x n) products, once per
    orbit) with R_0 ... R_{G-1}, R_0 the last state of the block before,
    which lands in step order; its last giant state R_G, the next block's
    R_0, is read through M alone.  A step then costs 2 rows n w + 2 n^2 w / s
    flops, about 4 rows n w when s > 1; at s = 1 the stack is M alone and a
    step costs 2 n^2 w, as a step loop spends, but in log2(G) + 3 products
    instead of G small ones.

    A block holds G = ORBIT_BLOCK_DOUBLES // (w (n + 2 s rows)) giant
    states, at most 512 steps' worth and at least one, and the last block
    ends at step ``steps``.  Of the states only the last is kept."""

    def __init__(self, Phi: np.ndarray, X0: np.ndarray, maps: tuple[np.ndarray, ...],
                 steps: int, like: "_Orbit | None" = None, norm_rows: int | None = None):
        n, width = X0.shape
        rows = sum(M.shape[0] for M in maps)
        self.steps, self.maps, self.rows, self.width = steps, maps, rows, width
        self.norm_rows = norm_rows
        if like is None:
            self.stride = n // rows if n >= 4 * rows else 1
            giants = max(1, min(512 // self.stride,
                                ORBIT_BLOCK_DOUBLES // (width * (n + 2 * self.stride * rows))))
            self.block = min(giants, -(-steps // self.stride)) * self.stride
        else:
            self.stride, self.block = like.stride, like.block
        stack = [np.vstack(maps)]
        for _ in range(self.stride - 1):
            stack.append(stack[-1] @ Phi)
        self._stack = np.vstack(stack)
        self._powers = _doubling_powers(np.linalg.matrix_power(Phi, self.stride),
                                        self.block // self.stride)
        self._last, self._built = X0, 0
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Block i, from step i*block, as (Y, data) over its G + 1 giant
        states R_b, G = ceil(size / s) for size = min(block, steps -
        i*block): row j of Y (G s + 1, rows, w) is step i*block + j, read
        from R_{j // s}, and its last row M R_G; data (G + 1, w) holds R_b's
        squared column norms.  Rows past ``size`` are steps past ``steps``.
        IndexError past the last block.  Blocks read this way are kept."""
        while len(self._blocks) <= i:
            self._blocks.append(self._next_block())
        return self._blocks[i]

    def _next_block(self, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The block after the last one built, as :meth:`__getitem__` gives
        it, but not kept; Y is written into the leading G s + 1 rows of
        ``out``, a C-contiguous (rows, w) row buffer, when given."""
        size = min(self.block, self.steps - self._built * self.block)
        if size <= 0:
            raise IndexError(f"the orbit ends at step {self.steps}")
        self._built += 1
        (n, width), giants = self._last.shape, -(-size // self.stride)
        states = np.empty((n, (giants + 1) * width))
        states[:, :width] = self._last
        _propagate(self._powers, self._last, giants, out=states[:, width:])
        self._last = states[:, -width:].copy()
        Y = np.empty((giants * self.stride + 1, self.rows, width)) if out is None \
            else out[:giants * self.stride + 1]
        np.matmul(self._stack, states[:, :-width].reshape(n, giants, width).transpose(1, 0, 2),
                  out=Y[:-1].reshape(giants, -1, width))
        np.matmul(self._stack[:self.rows], self._last, out=Y[-1])
        head = states[:self.norm_rows]
        return Y, np.einsum("ij,ij->j", head, head).reshape(giants + 1, width)


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


def _step_count(t_f, h):
    """N = max(1, ceil(r - 1e-12 r)) for r = t_f / h, elementwise.  A count
    that int64 cannot hold raises ModelError naming the step."""
    r = t_f / h
    N = np.maximum(np.ceil(r - 1e-12 * r), 1)
    if not np.all(N < 2.0 ** 63):  # written so that NaN fails the test
        raise ModelError(f"a step of {h} over t_f = {t_f} takes {N} steps, more than int64 holds")
    return N.astype(int)


def _time_grid(t_f: float, h: float | None, A: np.ndarray, name: str) -> np.ndarray:
    """The time grid of every layer that takes steps: linspace(0, t_f, N + 1)
    for N = :func:`_step_count` (t_f, h) even steps of t_f / N, at most h up
    to a relative 1e-12.  The allowance is relative so that h = t_f / N gives
    back exactly N steps for any N, and h = t_f / (10 N) exactly 10 N.
    ``h`` defaults to :func:`default_step`; one that is not positive and
    finite is refused by its ``name``."""
    if h is None:
        h = default_step(t_f, A)
    # written so that NaN fails the test
    if not 0 < h < np.inf:
        raise ModelError(f"{name} must be positive and finite, got {h}")
    return np.linspace(0.0, t_f, _step_count(t_f, h) + 1)


def reach_lti(sys: LtiSystem, x0: HyperBox | Zonotope, u_box: HyperBox, t_f: float,
              step_h: float | None = None) -> ReachSets:
    """Over-approximate output reach sets of a stable or unstable LTI system.

    Returns one step set per step of :func:`_time_grid`'s grid for
    ``step_h``, N even steps of h = t_f / N whose intervals tile [0, t_f],
    as one :class:`ReachSets`; every admissible output trajectory
    (measurable u in the box) from an initial state in ``x0`` stays inside
    the step set of its interval.  A box ``x0`` starts as
    :meth:`Zonotope.from_box`, with one generator per free dim.

    Sample j of the exact reach is c_j + [Phi^j G0, M_{j-1}, ..., M_0] with
    M_a = Phi^a G_in (superposition, Girard, Le Guernic & Maler, HSCC 2006),
    and step j is the hull of samples j and j + 1 plus a ball.  The rows of
    ``ReachSets.Y``, each sample's output center C c_j, initial images
    C Phi^j G0 and input images C M_j, come from one :class:`_Orbit` of
    [c, G0, G_in; 1, 0, 0] under the step map [[Phi, v], [0, 1]],
    v = PsiB u_c, read through [C, 0].  Its column norms over the n state
    rows (``ReachSets.norms``) bound each sample's state norm, which the
    balls read: they are exact at the orbit's giant samples, and a samples
    after one at most ||Phi||^a times its norms, the center's plus
    sum_{i<a} ||Phi||^i ||v|| for its drift.  Since ||Phi||_2 <= e^{mu h}
    for mu = max(lambda_max(sym A), 0), that is within the simulation
    bounds' rule, e^{mu a h} times the norm and a e^{mu a h} ||v||.

    Cost model, for order k, m input columns, g0 initial generators (g0 = f
    for the image of a box with f free dims, see
    :func:`balancing.image_zonotope`), p outputs and N steps: the orbit's
    state has k + 1 rows, so it forms every s-th state, s = floor((k + 1) / p)
    where k + 1 >= 4p and s = 1 otherwise, and a sample costs about
    2 p (k + 1) w + 2 (k + 1)^2 w / s flops for w = 1 + g0 + m, in blocks of
    :data:`ORBIT_BLOCK_DOUBLES` (:class:`_Orbit`).  Of each block only its
    output images (p x w per sample, a block row each, copied into the
    samples-last table) and its giant states' column norms are kept, so no
    k x N array is formed: at k = 40, N = 995, m = 12 the input orbit alone
    would be 3.8 MB.  rho <- ||Phi|| rho + res stays a scalar recursion, and
    the balls are one array expression over the norms.  Every reader of the
    result takes step bounds from the samples (:meth:`ReachSets.step_bounds`):
    rows r cost one O(r p w N) product per distinct set of rows, and an
    indexed step is the range box of the p outputs.
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
    channels = np.flatnonzero(np.linalg.norm(Gin, axis=0) > 0)
    Gin = Gin[:, channels]
    vin = PsiB @ uc
    # curvature envelope for the in-step deviation from the chord between
    # consecutive endpoint states (second order in h, plus the first-order
    # input-variation sweep); any sound envelope is acceptable here.  e^{Lh}
    # - 1 is taken by expm1, so that the second-order terms keep their sign
    # and size at small L h instead of cancelling to rounding
    ebl = np.expm1(L * h) - L * h
    sweep = 2.0 * (np.expm1(L * h) / L if L > 0 else h)
    # residual for measurable (non-constant) inputs within one step:
    # || int e^{As} B (w - wbar) ds || with the average wbar split off.
    psi_gap = ebl / L if L > 0 else 0.0
    res_ball = psi_gap * nB * 2.0 * ur_norm if ur.size else 0.0
    drift = float(np.linalg.norm(B @ uc)) / L if L > 0 else 0.0

    # the exact recursions c <- Phi c + vin, H <- Phi H and M_a = Phi^a G_in
    # as the columns of one orbit, sample j in column block j
    m, g0, p = Gin.shape[1], init.order, C.shape[0]
    aug = np.eye(n + 1)
    aug[:n, :n], aug[:n, n] = Phi, vin
    X = np.block([[init.center[:, None], init.generators, Gin],
                  [np.ones((1, 1)), np.zeros((1, g0 + m))]])
    orbit = _Orbit(aug, X, (np.hstack([C, np.zeros((p, 1))]),), steps, norm_rows=n)
    s, w = orbit.stride, X.shape[1]
    # a samples after a giant sample a column's state norm is at most
    # ||Phi||^a times the giant's, and the center's adds its drift
    # sum_{i<a} ||Phi^i vin|| <= sum_{i<a} ||Phi||^i ||vin||
    growth = nPhi ** np.arange(s)
    carried = np.concatenate([[0.0], np.cumsum(growth[:-1])]) * float(np.linalg.norm(vin))
    # Y is laid out samples last, so that the readers' products and pairs
    # run along them; a block's last sample is the next block's first, and
    # the last block's rows may run past sample N
    Yt, norms = np.empty((p, w, steps + 1)), np.empty((steps + 1, w))
    for start in range(0, steps, orbit.block):
        rows, data = orbit._next_block()
        size, root = min(len(rows), steps + 1 - start), np.sqrt(data)
        bounds = root[:-1, None] * growth[:, None]
        bounds[:, :, 0] += carried
        Yt[:, :, start:start + size] = rows[:size].transpose(1, 2, 0)
        norms[start:start + size] = np.concatenate([bounds.reshape(-1, w), root[-1:]])[:size]
    Y = Yt.transpose(2, 0, 1)
    rhos = np.fromiter(itertools.accumulate(
        range(steps), lambda rho, _: nPhi * rho + res_ball, initial=0.0), float, steps + 1)

    # state_norms[j] bounds the norm of the state of sample j: its center,
    # its initial generators and every input column injected before it
    ages = norms[:, 1 + g0:].sum(axis=1)
    state_norms = norms[:, 0] + norms[:, 1:1 + g0].sum(axis=1) \
        + np.concatenate([[0.0], np.cumsum(ages[:-1])])
    balls = np.maximum(rhos[:-1], rhos[1:]) \
        + (2.0 * ebl * (state_norms[:-1] + rhos[:-1] + drift) + sweep * (nB * ur_norm))
    return ReachSets(times, Y, norms, balls, np.linalg.norm(C, axis=1), channels)


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
    None, a vector, a callable or a (steps, m) array are shared by the batch;
    a vector or a callable's value of another shape than (m,) raises
    ModelError."""
    steps = len(times) - 1
    if u is None:
        return np.zeros((steps, m) + batch)

    def vector(v, what: str) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (m,):
            raise ModelError(f"u must {what} shape ({m},), got {v.shape}")
        return v

    if callable(u):
        u = np.stack([vector(u(t), "give values of") for t in times[:-1]])
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = np.broadcast_to(vector(u, "be a vector of"), (steps, m)).copy()
    if batch and u.shape == (steps, m):
        return np.broadcast_to(u[..., None], (steps, m) + batch)
    if u.shape != (steps, m) + batch:
        raise ModelError(f"per-step input array must have shape "
                         f"{(steps, m) + batch}, got {u.shape}")
    return u


#: Number of steps :func:`simulate` advances with one product.
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

    The steps are taken b = :data:`SIM_BLOCK_MAX` at a time, at every
    order: one product of the block kernel K_b (:func:`_block_kernel`,
    (b p + n) x (n + b m), built once per call) with
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

    b = SIM_BLOCK_MAX
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

def _certified(sets: ReachSets, reg, inside: bool) -> np.ndarray:
    """Steps certified inside ``reg``, or outside it, from each step's
    range [lo, hi] along the region's rows (:meth:`ReachSets.step_bounds`):
    every polytope row at most 0 over the step set, or some row above 0 over
    all of it.  An ellipsoid with Q = E^T diag(lambda) E (its
    :attr:`~redsafe.model.EllipsoidSpec.axes`) reads the rows of E, shifted
    by E a, along which |E_i (y - a)| lies between max(lo, -hi, 0) and
    max(-lo, hi) over the step set: inside when max(-lo, hi)^2 @ lambda is
    at most R^2, outside when max(lo, -hi, 0)^2 @ lambda is above R^2.  No
    region holds no step and clears every one."""
    if reg is None:
        return np.full(len(sets), not inside)
    if isinstance(reg, PolytopeSpec):
        lo, hi = sets.step_bounds(reg.Gamma)
        return (np.all(hi + reg.Psi <= 0.0, axis=1) if inside
                else np.any(lo + reg.Psi > 0.0, axis=1))
    lam, E = reg.axes
    lo, hi = (bound - E @ reg.a for bound in sets.step_bounds(E))
    if inside:
        return np.maximum(-lo, hi) ** 2 @ lam <= reg.R ** 2
    return np.maximum(np.maximum(lo, -hi), 0.0) ** 2 @ lam > reg.R ** 2


def _check_one(sets: ReachSets, ts: TransformedSpec) -> str:
    """Three-way verdict of the step sets against one transformed predicate.

    ``ok`` marks the steps that pass: contained in the shrunk safe region
    for a safe-polarity source, certainly disjoint from the grown region for
    an unsafe-polarity one.  The same test on the witness region (the grown
    safe set, met by leaving it, or the shrunk forbidden region) marks the
    steps that keep every point out of it.  The step sets hold every grid
    sample, so when each failing step does, no trajectory the witness search
    simulates can meet it and the verdict is Indeterminate; otherwise it is
    MaybeUnsafe.  Every test reads step bounds (:func:`_certified`), so no
    step set is assembled."""
    inside = ts.source_polarity == POLARITY_SAFE
    ok = _certified(sets, ts.safe_region if inside else ts.unsafe_region, inside)
    if np.all(ok):
        return SAFE
    clear = _certified(sets, ts.witness_region, inside)
    return INDETERMINATE if np.all(ok | clear) else MAYBE_UNSAFE


def _check_outputs(specs: Sequence[TransformedSpec], p: int, what: str) -> None:
    """ModelError unless every predicate reads the p outputs of ``what``."""
    for ts in specs:
        if ts.source.p != p:
            raise ModelError(f"spec has {ts.source.p} outputs, {what} {p}")


def check_spec(sets: ReachSets,
               transformed: TransformedSpec | Sequence[TransformedSpec]) -> str:
    """Safe / MaybeUnsafe / Indeterminate verdict of the step sets of
    :func:`reach_lti` against the transformed spec family.  Anything but a
    :class:`ReachSets`, no predicates, and a predicate over another number
    of outputs than the step sets' raise ModelError.

    Safe requires every predicate to pass on every step set (containment in
    the shrunk safe region for safe-polarity sources, certified disjointness
    from the grown region for unsafe-polarity ones).  Over-approximate reach
    sets cannot prove unsafety: a predicate that fails is MaybeUnsafe unless
    the same test certifies every failing step clear of its witness region,
    and Indeterminate then, since no witness search can succeed.  Only a
    simulated witness (:func:`find_unsafe_witness`) decides Unsafe.
    """
    if not isinstance(sets, ReachSets):
        raise ModelError(f"check_spec reads reach_lti's ReachSets, got {type(sets).__name__}")
    if isinstance(transformed, TransformedSpec):
        transformed = [transformed]
    _check_outputs(transformed, sets.Y.shape[1], "the step sets")
    verdicts = [_check_one(sets, ts) for ts in transformed]
    if not verdicts:
        raise ModelError("no predicates to check")
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


def _candidates(x0: HyperBox, u_box: HyperBox, specs: list[TransformedSpec],
                sets: ReachSets):
    """One candidate per predicate with a witness region: for an output
    direction l and a sample j, the box vertex c + r sign(l C H_j) over the
    free dims of x0, C H_j the images of their generators at sample j, in
    X[:, b], and the plan u_c + u_r sign(l C M_(j-1-i)) in rows i < j of
    plans[:, :, b], u_c elsewhere and in the channels reach dropped, which
    attain the support of l at j from the box's image.

    A safe-polarity polytope takes the row l and sample j of the largest
    margin S + Psi over its witness region's rows and the grid samples (S
    from :meth:`ReachSets.sample_supports`); its check is (j, l, S, 1e-9 of
    the largest of S, |Psi| and the spec's witness scale).  Every other
    predicate takes the sample j whose center has the largest witness
    margin, with l = Q(c_j - a) for an ellipsoid (negated for an
    unsafe-polarity one) and -Gamma_l for the row l that c_j violates most
    for an unsafe-polarity polytope; its check is None.  Returns X, the
    plans, each candidate's predicate index and the checks.  Step sets with
    another number of initial generators than x0's free dims raise
    ModelError."""
    free, steps = x0.free_dims(), len(sets)
    if sets.g0 != free.size:
        raise ModelError(f"the step sets hold {sets.g0} initial generators, but x0 has "
                         f"{free.size} free dims; reach from image_zonotope(init_map, x0)")
    centers = sets.Y[:, :, 0]
    picks, checks = [], []
    for i, ts in enumerate(specs):
        reg = ts.witness_region
        if reg is None:
            continue
        if ts.source_polarity == POLARITY_SAFE and isinstance(reg, PolytopeSpec):
            S = sets.sample_supports(reg.Gamma)
            margins = S + reg.Psi
            j, l = np.unravel_index(int(np.argmax(margins)), margins.shape)
            tol = 1e-9 * max(abs(S[j, l]), abs(reg.Psi[l]), ts.witness_scale)
            picks.append((i, reg.Gamma[l], j))
            checks.append((j, l, S[j, l], tol))
            continue
        j = int(np.argmax(ts.witness_margins(centers)))
        if isinstance(reg, PolytopeSpec):
            ell = -reg.Gamma[int(np.argmax(reg.margins(centers[j])))]
        else:
            sign = 1.0 if ts.source_polarity == POLARITY_SAFE else -1.0
            ell = sign * (reg.Q @ (centers[j] - reg.a))
        picks.append((i, ell, j))
        checks.append(None)
    X = np.repeat(x0.center[:, None], len(picks), axis=1)
    plans = np.tile(u_box.center[:, None], (steps, 1, len(picks)))
    for b, (_, ell, j) in enumerate(picks):
        X[free, b] += x0.halfwidth[free] * np.sign(ell @ sets.Y[j, :, 1:1 + sets.g0])
        ages = (ell @ sets.Y[:j, :, 1 + sets.g0:])[::-1]
        plans[:j, sets.channels, b] += u_box.halfwidth[sets.channels] * np.sign(ages)
    return X, plans, [i for i, _, _ in picks], checks


def find_unsafe_witness(sys: LtiSystem, x0: HyperBox, u_box: HyperBox,
                        transformed_unsafe: TransformedSpec | Sequence[TransformedSpec],
                        sets: ReachSets,
                        init_map: np.ndarray | None = None) -> WitnessTrajectory | None:
    """Search for a trajectory certifying full-order unsafety, with no
    random draw: the optimal-input candidates of HyLAA (Bak & Duggirala,
    CAV 2017), one per predicate (:func:`_candidates`).

    ``sets`` are the step sets :func:`reach_lti` returned for the same
    system and input box from the exact image of ``x0``,
    :func:`balancing.image_zonotope` (``init_map``, x0), or x0 itself when
    ``init_map`` is omitted; the search reads its horizon t_f, its N even
    steps and each candidate's box vertex from them.  The candidates share
    one :func:`simulate` call on that grid from their initial states, the
    vertices lifted by ``init_map`` (identity when omitted), so the witness
    is sound for the full-order system.  A safe-polarity polytope's
    candidate above the support it attains by more than its allowance
    raises ModelError.  Candidates are taken in order, and every predicate
    in order within each: a sample must meet the witness predicate with
    margin > eta = 1e-9 of its witness scale, and the first candidate that
    keeps margin >= eta/2 when re-simulated at a tenth of the even step
    t_f / N, plan row i driving sub-steps 10 i ... 10 i + 9, is returned.
    A predicate over another number of outputs than the system's raises
    ModelError.
    """
    if isinstance(transformed_unsafe, TransformedSpec):
        transformed_unsafe = [transformed_unsafe]
    specs = list(transformed_unsafe)
    _check_outputs(specs, sys.p, "the system")
    X, plans, owners, checks = _candidates(x0, u_box, specs, sets)
    if not owners:
        return None
    t_f, steps = float(sets.t1[-1]), len(sets)
    outputs = simulate(sys, X if init_map is None else init_map @ X, plans, t_f,
                       t_f / steps).outputs
    for b, check in enumerate(checks):
        if check is not None:
            j, l, top, tol = check
            value = float(specs[owners[b]].witness_region.Gamma[l] @ outputs[j, :, b])
            if value > top + tol:
                raise ModelError(f"optimal witness candidate reaches {value!r} on row {l} "
                                 f"at sample {j}, above its certified support {top!r}")
    etas = [1e-9 * ts.witness_scale for ts in specs]
    samples = np.swapaxes(outputs, 1, 2)  # (samples, B, p)
    hits = np.stack([ts.witness_margins(samples).max(axis=0) > eta
                     for ts, eta in zip(specs, etas)], axis=1)
    # nonzero walks candidates in order, predicates in order within each;
    # each plan row drives its ten sub-steps of the tenth-step grid
    for b, i in zip(*np.nonzero(hits)):
        x, plan = X[:, b].copy(), plans[:, :, b].copy()
        fine = simulate(sys, x if init_map is None else init_map @ x,
                        np.repeat(plan, 10, axis=0), t_f, t_f / (10 * steps))
        fvals = specs[i].witness_margins(fine.outputs)
        fj = int(np.argmax(fvals))
        if fvals[fj] >= etas[i] / 2:
            return WitnessTrajectory(times=fine.times, outputs=fine.outputs, init_state=x,
                                     step_inputs=plan, margin=float(fvals[fj]),
                                     predicate_index=int(i), sample_index=fj)
    return None
