"""Domain types for systems, sets and safety predicates, plus manifest I/O.

All types are immutable after construction (arrays are frozen) and validate
their invariants eagerly: a bad dimension or an inverted box is rejected with
a specific error, never clamped.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

FORMAT_VERSION = 1

POLARITY_SAFE = "safe-region"
POLARITY_UNSAFE = "unsafe-region"
_POLARITIES = (POLARITY_SAFE, POLARITY_UNSAFE)

#: Default relative stability margin: a system counts as Hurwitz only if its
#: spectral abscissa is below -margin, margin = STABILITY_MARGIN_REL * ||A||_F.
#: Numerically marginal systems make the infinite-horizon gramians ill-posed.
#: The Frobenius norm needs no factorization, and since ||A||_F >= ||A||_2 it
#: refuses every system that the spectral norm would.
STABILITY_MARGIN_REL = 1e-9


class ModelError(ValueError):
    """A domain-type invariant was violated."""


class ManifestError(ModelError):
    """A manifest file is missing, malformed or inconsistent."""


class StabilityError(ModelError):
    """An operation required a Hurwitz matrix and did not get one."""


def _as_matrix(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ModelError(f"{name} must be a 2-d real matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} contains non-finite entries")
    return arr


def _as_vector(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ModelError(f"{name} must be a 1-d real vector, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} contains non-finite entries")
    return arr


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def _fields_equal(self, other) -> bool:
    """Equality of two instances of one dataclass, field by field, arrays by
    value.  A class body that sets ``__eq__`` to it stays unhashable."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in ((getattr(self, f.name), getattr(other, f.name))
                            for f in dataclasses.fields(self)))


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """State-space model dx/dt = A x + B u, y = C x."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _as_matrix("A", self.A)
        B = _as_matrix("B", self.B)
        C = _as_matrix("C", self.C)
        n = A.shape[0]
        if A.shape[1] != n or n < 1:
            raise ModelError(f"A must be square and nonempty, got {A.shape}")
        if B.shape[0] != n:
            raise ModelError(f"B has {B.shape[0]} rows, expected n={n}")
        if C.shape[1] != n:
            raise ModelError(f"C has {C.shape[1]} columns, expected n={n}")
        if B.shape[1] < 1 or C.shape[0] < 1:
            raise ModelError("input and output dimensions must be positive")
        _freeze(A, B, C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    __eq__ = _fields_equal

    def __repr__(self) -> str:
        return f"LtiSystem(n={self.n}, m={self.m}, p={self.p})"


@dataclass(frozen=True, eq=False)
class HyperBox:
    """Axis-aligned box {x : lb <= x <= ub} (componentwise)."""

    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        lb = _as_vector("lb", self.lb)
        ub = _as_vector("ub", self.ub)
        if lb.shape != ub.shape:
            raise ModelError(f"lb and ub have different shapes: {lb.shape} vs {ub.shape}")
        bad = np.nonzero(lb > ub)[0]
        if bad.size:
            raise ModelError(f"lb > ub at coordinate {bad[0]}: {lb[bad[0]]} > {ub[bad[0]]}")
        _freeze(lb, ub)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def dim(self) -> int:
        return self.lb.shape[0]

    @property
    def center(self) -> np.ndarray:
        return (self.lb + self.ub) / 2.0

    @property
    def halfwidth(self) -> np.ndarray:
        return (self.ub - self.lb) / 2.0

    def free_dims(self) -> np.ndarray:
        """Indices of coordinates with nonzero width."""
        return np.nonzero(self.ub > self.lb)[0]

    def vertex_count(self) -> int:
        """Number of distinct vertices: 2**(free dims)."""
        return 1 << len(self.free_dims())

    def vertices(self) -> np.ndarray:
        """All distinct vertices as columns of a (dim, count) array.

        Degenerate coordinates contribute no branching; the count is
        :meth:`vertex_count`, which a caller checks first.
        """
        free = self.free_dims()
        count = 1 << len(free)
        out = np.tile(self.center[:, None], (1, count))
        for bit, d in enumerate(free):
            mask = (np.arange(count) >> bit) & 1
            out[d, :] = np.where(mask, self.ub[d], self.lb[d])
        return out

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform samples as columns of a (dim, count) array."""
        return self.lb[:, None] + (self.ub - self.lb)[:, None] * rng.random((self.dim, count))

    __eq__ = _fields_equal

    def __repr__(self) -> str:
        return f"HyperBox(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class PolytopeSpec:
    """Predicate Gamma @ y + Psi <= 0 over outputs, tagged safe or unsafe.

    A safe-region spec asserts the system is safe while every row holds; an
    unsafe-region spec marks the polytope itself as the forbidden region.
    """

    Gamma: np.ndarray
    Psi: np.ndarray
    polarity: str

    def __post_init__(self):
        Gamma = _as_matrix("Gamma", self.Gamma)
        Psi = _as_vector("Psi", self.Psi)
        if Gamma.shape[0] != Psi.shape[0]:
            raise ModelError(
                f"Gamma has {Gamma.shape[0]} rows but Psi has {Psi.shape[0]} entries")
        if self.polarity not in _POLARITIES:
            raise ModelError(f"polarity must be one of {_POLARITIES}, got {self.polarity!r}")
        _freeze(Gamma, Psi)
        object.__setattr__(self, "Gamma", Gamma)
        object.__setattr__(self, "Psi", Psi)

    @property
    def p(self) -> int:
        return self.Gamma.shape[1]

    def margins(self, y: np.ndarray) -> np.ndarray:
        """Row values Gamma @ y + Psi; membership semantics are the caller's."""
        return self.Gamma @ np.asarray(y, dtype=float) + self.Psi

    __eq__ = _fields_equal


#: Relative symmetry tolerance for ellipsoid shape matrices.
SYM_TOL_REL = 1e-10


@dataclass(frozen=True, eq=False)
class EllipsoidSpec:
    """Predicate (y - a)^T Q (y - a) <= R^2, tagged safe or unsafe."""

    Q: np.ndarray
    a: np.ndarray
    R: float
    polarity: str

    def __post_init__(self):
        Q = _as_matrix("Q", self.Q)
        a = _as_vector("a", self.a)
        if Q.shape[0] != Q.shape[1]:
            raise ModelError(f"Q must be square, got {Q.shape}")
        if Q.shape[0] != a.shape[0]:
            raise ModelError(f"Q is {Q.shape[0]}x{Q.shape[0]} but center has dim {a.shape[0]}")
        asym = np.max(np.abs(Q - Q.T))
        if asym > SYM_TOL_REL * max(1.0, np.linalg.norm(Q, "fro")):
            raise ModelError(f"Q is not symmetric (max asymmetry {asym:.3e})")
        if np.linalg.eigvalsh((Q + Q.T) / 2).min() <= 0:
            raise ModelError("Q must be positive definite")
        if not (np.isfinite(self.R) and self.R > 0):
            raise ModelError(f"radius R must be a positive real, got {self.R}")
        if self.polarity not in _POLARITIES:
            raise ModelError(f"polarity must be one of {_POLARITIES}, got {self.polarity!r}")
        _freeze(Q, a)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "R", float(self.R))

    @property
    def p(self) -> int:
        return self.Q.shape[0]

    def quad(self, y: np.ndarray) -> float:
        d = np.asarray(y, dtype=float) - self.a
        return float(d @ self.Q @ d)

    @functools.cached_property
    def Q_inv(self) -> np.ndarray:
        """Q^-1, computed on first use and kept (the spec is immutable)."""
        Q_inv = np.linalg.inv(self.Q)
        _freeze(Q_inv)
        return Q_inv

    __eq__ = _fields_equal


SafetyPredicate = Union[PolytopeSpec, EllipsoidSpec]


@dataclass(frozen=True, eq=False)
class PssSystem:
    """Periodically switched system: modes visited in order, each for its
    duration, with the state reset into the mode's initial box at each switch.
    """

    modes: tuple[LtiSystem, ...]
    durations: tuple[float, ...]
    mode_initial_sets: tuple[HyperBox, ...]

    def __post_init__(self):
        modes = tuple(self.modes)
        durations = tuple(float(d) for d in self.durations)
        sets = tuple(self.mode_initial_sets)
        if not (len(modes) == len(durations) == len(sets)) or len(modes) < 1:
            raise ModelError(
                f"modes/durations/initial sets must have equal length >= 1, got "
                f"{len(modes)}/{len(durations)}/{len(sets)}")
        n, m, p = modes[0].n, modes[0].m, modes[0].p
        for i, mode in enumerate(modes):
            if (mode.n, mode.m, mode.p) != (n, m, p):
                raise ModelError(f"mode {i} has dimensions {(mode.n, mode.m, mode.p)}, "
                                 f"expected {(n, m, p)}")
        for i, d in enumerate(durations):
            if not (np.isfinite(d) and d > 0):
                raise ModelError(f"duration of mode {i} must be positive, got {d}")
        for i, box in enumerate(sets):
            if box.dim != n:
                raise ModelError(f"initial set of mode {i} has dim {box.dim}, expected {n}")
        for i, mode in enumerate(modes):
            rep = check_stability(mode)
            if not rep.stable:
                raise StabilityError(
                    f"mode {i} is not Hurwitz (spectral abscissa {rep.abscissa:.3e})")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "mode_initial_sets", sets)

    @property
    def n(self) -> int:
        return self.modes[0].n

    @property
    def m(self) -> int:
        return self.modes[0].m

    @property
    def p(self) -> int:
        return self.modes[0].p

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class VerificationProblem:
    """A system, its initial and input sets, a safety spec and a time horizon.

    ``spec`` is a tuple of predicates sharing one polarity: a safe-region
    family must all hold, an unsafe-region family is a union of forbidden
    regions.
    """

    system: Union[LtiSystem, PssSystem]
    x0: HyperBox | None
    inputs: HyperBox
    spec: tuple[SafetyPredicate, ...]
    t_f: float
    name: str = ""

    def __post_init__(self):
        spec = tuple(self.spec) if isinstance(self.spec, (tuple, list)) else (self.spec,)
        if not spec:
            raise ModelError("problem needs at least one safety predicate")
        polarities = {s.polarity for s in spec}
        if len(polarities) > 1:
            raise ModelError("all safety predicates must share one polarity")
        sys_ = self.system
        if isinstance(sys_, PssSystem):
            if self.x0 is not None:
                raise ModelError("PSS problems carry initial sets per mode; x0 must be None")
        else:
            if self.x0 is None:
                raise ModelError("LTI problems require an initial box x0")
            if self.x0.dim != sys_.n:
                raise ModelError(f"x0 has dim {self.x0.dim}, expected n={sys_.n}")
        if self.inputs.dim != sys_.m:
            raise ModelError(f"input box has dim {self.inputs.dim}, expected m={sys_.m}")
        for s in spec:
            if s.p != sys_.p:
                raise ModelError(f"spec output dim {s.p} does not match p={sys_.p}")
        if not (np.isfinite(self.t_f) and self.t_f > 0):
            raise ModelError(f"t_f must be a finite positive real, got {self.t_f}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "t_f", float(self.t_f))

    @property
    def polarity(self) -> str:
        return self.spec[0].polarity

    __eq__ = _fields_equal


class StabilityReport(NamedTuple):
    stable: bool
    abscissa: float
    margin: float


def check_stability(sys: LtiSystem | np.ndarray, margin: float | None = None) -> StabilityReport:
    """Decide whether A is Hurwitz with margin; returns the spectral abscissa.

    ``margin`` defaults to STABILITY_MARGIN_REL * ||A||_F (Frobenius).
    """
    # written so that NaN fails the test
    if margin is not None and not 0 < margin < np.inf:
        raise ModelError(f"stability margin must be a finite positive real, got {margin}")
    return _spectrum_report(sys, margin)[1]


def _spectrum_report(sys: LtiSystem | np.ndarray,
                     margin: float | None) -> tuple[np.ndarray, StabilityReport]:
    """The eigenvalues of A and the stability report read off them."""
    A = sys.A if isinstance(sys, LtiSystem) else np.asarray(sys, dtype=float)
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"eigenvalue computation failed: {exc}") from exc
    abscissa = float(np.max(eigs.real)) if A.size else float("-inf")
    if margin is None:
        margin = _default_margin(A)
    return eigs, StabilityReport(abscissa < -margin, abscissa, margin)


def _default_margin(A: np.ndarray) -> float:
    return STABILITY_MARGIN_REL * max(1e-300, np.linalg.norm(A))


def require_hurwitz(sys: LtiSystem | np.ndarray, what: str = "system") -> np.ndarray:
    """Raise StabilityError unless Hurwitz; returns the eigenvalues."""
    eigs, rep = _spectrum_report(sys, None)
    if not rep.stable:
        raise StabilityError(
            f"{what} is not asymptotically stable "
            f"(spectral abscissa {rep.abscissa:.6e}, margin {rep.margin:.1e})")
    return eigs


# --------------------------------------------------------------------------
# Manifest I/O.
#
# Manifest: JSON with {format_version, name, type: "lti"|"pss",
#   matrices: {A,B,C: relative paths}, x0: {lb,ub}, input: {lb,ub},
#   spec: one predicate object or a list, t_f}.
# PSS manifests replace matrices/x0 with a "modes" list of
#   {matrices, duration, x0}.  Matrices are MatrixMarket files (coordinate or
# array format), so SLICOT benchmark files load unchanged.
# --------------------------------------------------------------------------

#: The MatrixMarket headers that load_matrix reads: the bundled files and
#: SLICOT's use no others.
_MM_FORMATS = ("array", "coordinate")
_MM_FIELDS = ("real", "integer")
_MM_SYMMETRIES = ("general", "symmetric")


def _read_matrix_market(text: str) -> np.ndarray:
    """Parse a MatrixMarket matrix; ValueError says what is wrong."""
    header, _, body = text.partition("\n")
    banner = header.lower().split()
    if len(banner) != 5 or banner[:2] != ["%%matrixmarket", "matrix"]:
        raise ValueError(f"not a MatrixMarket matrix header: {header.strip()!r}")
    fmt, field, symmetry = banner[2:]
    for value, allowed in ((fmt, _MM_FORMATS), (field, _MM_FIELDS),
                           (symmetry, _MM_SYMMETRIES)):
        if value not in allowed:
            raise ValueError(f"unsupported MatrixMarket type {value!r} "
                             f"(expected one of {', '.join(allowed)})")
    lines = [line for line in body.splitlines() if line.strip() and not line.startswith("%")]
    if not lines:
        raise ValueError("missing size line")
    size = [int(tok) for tok in lines[0].split()]
    tokens = " ".join(lines[1:]).split()
    if len(size) != (2 if fmt == "array" else 3) or min(size) < 0:
        raise ValueError(f"bad size line {lines[0]!r}")
    rows, cols = size[:2]
    if symmetry == "symmetric" and rows != cols:
        raise ValueError(f"symmetric matrix of shape {rows}x{cols}")
    if fmt == "array":
        count = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
        if len(tokens) != count:
            raise ValueError(f"expected {count} values, found {len(tokens)}")
        values = np.array(tokens, dtype=float)
        if symmetry == "general":
            return values.reshape(cols, rows).T.copy()
        # the lower triangle, column by column
        mat = np.zeros((rows, cols))
        upper, lower = np.triu_indices(rows)
        mat[lower, upper] = values
        mat[upper, lower] = values
        return mat
    if len(tokens) != 3 * size[2]:
        raise ValueError(f"expected {size[2]} entries, found {len(tokens) / 3:g}")
    entries = np.array(tokens, dtype=float).reshape(-1, 3)
    i, j = entries[:, 0].astype(int) - 1, entries[:, 1].astype(int) - 1
    if np.any(i < 0) or np.any(i >= rows) or np.any(j < 0) or np.any(j >= cols):
        raise ValueError("entry index out of range")
    mat = np.zeros((rows, cols))
    np.add.at(mat, (i, j), entries[:, 2])
    if symmetry == "symmetric":
        off = i != j
        np.add.at(mat, (j[off], i[off]), entries[off, 2])
    return mat


def load_matrix(path: Path) -> np.ndarray:
    """Read a dense 2-d array from a MatrixMarket file: ``array`` or
    ``coordinate`` format, ``real`` or ``integer`` field, ``general`` or
    ``symmetric`` symmetry (duplicate coordinate entries add up)."""
    if not Path(path).is_file():
        raise ManifestError(f"matrix file not found: {path}")
    try:
        return _read_matrix_market(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read MatrixMarket file {path}: {exc}") from exc


def save_matrix(path: Path, mat: np.ndarray) -> None:
    """Write a dense MatrixMarket ``array real general`` file, column-major
    with 17 significant digits, so that every double reads back exactly."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    head = f"%%MatrixMarket matrix array real general\n%\n{mat.shape[0]} {mat.shape[1]}\n"
    Path(path).write_text(head + "".join(f"{v:.16e}\n" for v in mat.T.ravel().tolist()))


def numbers(value, field: str) -> np.ndarray:
    """``value`` as a float array; a ManifestError naming ``field`` when it
    holds anything but numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"{field} must be numeric ({exc})") from exc


def _number(value, field: str) -> float:
    """``value`` as one float; a ManifestError naming ``field`` otherwise."""
    arr = numbers(value, field)
    if arr.ndim:
        raise ManifestError(f"{field} must be a number, got shape {arr.shape}")
    return float(arr)


def _parse_box(obj, what: str) -> HyperBox:
    if not isinstance(obj, dict) or "lb" not in obj or "ub" not in obj:
        raise ManifestError(f"{what} must have 'lb' and 'ub' fields")
    return HyperBox(numbers(obj["lb"], f"{what}.lb"), numbers(obj["ub"], f"{what}.ub"))


def _parse_predicate(obj) -> SafetyPredicate:
    if not isinstance(obj, dict):
        raise ManifestError(f"spec entries must be JSON objects, got {obj!r}")
    kind = obj.get("kind")
    polarity = obj.get("polarity")
    if kind == "polytope":
        return PolytopeSpec(numbers(obj["Gamma"], "spec Gamma"),
                            numbers(obj["Psi"], "spec Psi"), polarity)
    if kind == "ellipsoid":
        return EllipsoidSpec(numbers(obj["Q"], "spec Q"), numbers(obj["a"], "spec a"),
                             _number(obj["R"], "spec R"), polarity)
    raise ManifestError(f"spec kind must be 'polytope' or 'ellipsoid', got {kind!r}")


def parse_spec_json(obj) -> tuple[SafetyPredicate, ...]:
    items = obj if isinstance(obj, list) else [obj]
    try:
        return tuple(_parse_predicate(it) for it in items)
    except KeyError as exc:
        raise ManifestError(f"spec is missing required field {exc}") from exc


def _load_lti(matrices, base: Path) -> LtiSystem:
    loaded = {}
    for key in ("A", "B", "C"):
        if key not in matrices:
            raise ManifestError(f"manifest is missing matrix path for {key!r}")
        loaded[key] = load_matrix(base / matrices[key])
    A, B, C = loaded["A"], loaded["B"], loaded["C"]
    n = A.shape[0]
    if A.shape[1] != n:
        raise ManifestError(f"matrix A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise ManifestError(f"matrix B has {B.shape[0]} rows, expected n={n}")
    if C.shape[1] != n:
        raise ManifestError(f"matrix C has {C.shape[1]} columns, expected n={n}")
    return LtiSystem(A, B, C)


def parse_problem(manifest_path: str | Path) -> VerificationProblem:
    """Load and fully validate a verification problem from a JSON manifest."""
    path = Path(manifest_path)
    if not path.is_file():
        raise ManifestError(f"manifest file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ManifestError(f"unsupported format_version {version}")
    base = path.parent
    kind = doc.get("type")
    try:
        spec = parse_spec_json(doc["spec"])
        inputs = _parse_box(doc["input"], "input")
        t_f = _number(doc["t_f"], "t_f")
    except KeyError as exc:
        raise ManifestError(f"manifest is missing required field {exc}") from exc

    if kind == "lti":
        system = _load_lti(doc.get("matrices", {}), base)
        x0 = _parse_box(doc.get("x0", {}), "x0")
        if x0.dim != system.n:
            raise ManifestError(f"x0 has dim {x0.dim}, expected n={system.n}")
        return VerificationProblem(system=system, x0=x0, inputs=inputs, spec=spec,
                                   t_f=t_f, name=doc.get("name", path.stem))
    if kind == "pss":
        modes, durations, sets = [], [], []
        for i, mode_doc in enumerate(doc.get("modes", [])):
            if "duration" not in mode_doc:
                raise ManifestError(f"mode {i} is missing required field 'duration'")
            modes.append(_load_lti(mode_doc.get("matrices", {}), base))
            durations.append(_number(mode_doc["duration"], f"mode {i} duration"))
            sets.append(_parse_box(mode_doc.get("x0", {}), f"mode {i} x0"))
        system = PssSystem(tuple(modes), tuple(durations), tuple(sets))
        return VerificationProblem(system=system, x0=None, inputs=inputs, spec=spec,
                                   t_f=t_f, name=doc.get("name", path.stem))
    raise ManifestError(f"manifest type must be 'lti' or 'pss', got {kind!r}")


def _spec_to_json(pred: SafetyPredicate) -> dict:
    if isinstance(pred, PolytopeSpec):
        return {"kind": "polytope", "polarity": pred.polarity,
                "Gamma": pred.Gamma.tolist(), "Psi": pred.Psi.tolist()}
    return {"kind": "ellipsoid", "polarity": pred.polarity,
            "Q": pred.Q.tolist(), "a": pred.a.tolist(), "R": pred.R}


def spec_to_json(spec: Sequence[SafetyPredicate]) -> list | dict:
    docs = [_spec_to_json(s) for s in spec]
    return docs[0] if len(docs) == 1 else docs


def serialize_problem(problem: VerificationProblem, manifest_path: str | Path) -> Path:
    """Write a problem back to disk (manifest JSON plus MatrixMarket files).

    Matrix entries survive a parse/serialize round trip bit exactly.
    """
    path = Path(manifest_path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def box(b: HyperBox) -> dict:
        return {"lb": b.lb.tolist(), "ub": b.ub.tolist()}

    def matrices(sys_: LtiSystem, prefix: str) -> dict:
        """Write the system's A, B and C as prefix_A.mtx, ...; their names."""
        names = {key: f"{prefix}_{key}.mtx" for key in "ABC"}
        for key, fname in names.items():
            save_matrix(path.parent / fname, getattr(sys_, key))
        return names

    doc: dict = {"format_version": FORMAT_VERSION, "name": problem.name,
                 "input": box(problem.inputs), "spec": spec_to_json(problem.spec),
                 "t_f": problem.t_f}
    sys_ = problem.system
    if isinstance(sys_, PssSystem):
        doc["type"] = "pss"
        doc["modes"] = [{"matrices": matrices(mode, f"{path.stem}_mode{i}"),
                         "duration": dur, "x0": box(x0)}
                        for i, (mode, dur, x0) in enumerate(zip(
                            sys_.modes, sys_.durations, sys_.mode_initial_sets))]
    else:
        doc.update(type="lti", matrices=matrices(sys_, path.stem), x0=box(problem.x0))
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
