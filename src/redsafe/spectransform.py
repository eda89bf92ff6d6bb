"""Transformation of full-order safety specs into abstraction-level specs.

Polytopes shrink/grow by Delta_i = sum_j |Gamma_ij| delta_j per row; ellipsoid
radii shrink/grow by Delta_R = sqrt(sum_i lambda_i (sum_j |E_ij| delta_j)^2)
where the rows of E are the orthonormal eigenvectors of Q.  The shrunk safe
region certifies safety of the full-order system, the grown unsafe region is
what reach sets must avoid, and the shrunk unsafe region certifies
full-order unsafety from a reduced-system witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (EllipsoidSpec, ModelError, PolytopeSpec, SafetyPredicate,
                    POLARITY_SAFE, POLARITY_UNSAFE)


@dataclass(frozen=True)
class TransformedSpec:
    """Abstraction-level spec derived from a full-order predicate.

    safe_region     reduced outputs provably transfer safety (None = empty
                    or not applicable).
    unsafe_region   region reach sets must stay clear of; for safe-polarity
                    sources its membership semantics are "outside the grown
                    safe set" (any polytope row > 0 / outside the grown
                    ellipse), for unsafe-polarity sources it is the grown
                    forbidden region itself.
    witness_region  membership certifies full-order unsafety (None = empty).
    """

    source: SafetyPredicate
    safe_region: SafetyPredicate | None
    unsafe_region: SafetyPredicate
    witness_region: SafetyPredicate | None
    delta_used: np.ndarray
    Delta: np.ndarray | float
    basis: np.ndarray | None = None

    @property
    def source_polarity(self) -> str:
        return self.source.polarity

    def witness_margins(self, Y: np.ndarray) -> np.ndarray:
        """How strictly each output sample certifies full-order unsafety
        (positive = certified), for samples along the last axis of Y, which
        has shape (..., p); the result has shape Y.shape[:-1].

        For polytope regions this is in the units of the row inequalities,
        for ellipsoids in units of the quadratic form.
        """
        Y = np.asarray(Y, dtype=float)
        if self.source_polarity == POLARITY_SAFE:
            reg, sign = self.unsafe_region, 1.0
        else:
            reg, sign = self.witness_region, -1.0
            if reg is None:
                return np.full(Y.shape[:-1], -np.inf)
        if isinstance(reg, PolytopeSpec):
            return sign * np.max(Y @ reg.Gamma.T + reg.Psi, axis=-1)
        d = Y - reg.a
        return sign * (np.sum((d @ reg.Q) * d, axis=-1) - reg.R ** 2)

    @property
    def witness_scale(self) -> float:
        """Magnitude scale of the witness margin, for guard bands."""
        src = self.source
        if isinstance(src, PolytopeSpec):
            return float(max(1.0, np.max(np.abs(src.Psi)) if src.Psi.size else 1.0))
        return float(src.R ** 2)


def _delta_vector(delta, p: int) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (p,):
        raise ModelError(f"delta must have shape ({p},), got {delta.shape}")
    if np.any(delta < 0) or not np.all(np.isfinite(delta)):
        raise ModelError("delta entries must be finite and nonnegative")
    return delta


def polytope_margin_widths(spec: PolytopeSpec, delta: np.ndarray) -> np.ndarray:
    """Delta_i = sum_j |Gamma_ij| delta_j, one entry per row."""
    return np.abs(spec.Gamma) @ delta


def ellipsoid_margin(spec: EllipsoidSpec, delta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Radius margin Delta_R plus the eigenvalues and eigenvector basis used.

    The basis rows are eigenvectors with a deterministic sign convention
    (largest-magnitude entry positive) for reproducible serialized output.
    Delta_R enters through absolute values, so sign choices do not affect
    soundness; with repeated eigenvalues the value is basis dependent and the
    basis used is returned alongside.
    """
    lam, V = np.linalg.eigh((spec.Q + spec.Q.T) / 2.0)
    for j in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    E = V.T
    dbar = np.abs(E) @ delta
    return float(np.sqrt(np.sum(lam * dbar ** 2))), lam, E


def transform_polytope(spec: PolytopeSpec, delta) -> TransformedSpec:
    """Safe-region polytope: shrink by Delta for safety, grow for unsafety."""
    if spec.polarity != POLARITY_SAFE:
        raise ModelError("transform_polytope expects a safe-region spec")
    delta = _delta_vector(delta, spec.p)
    Delta = polytope_margin_widths(spec, delta)
    safe = PolytopeSpec(spec.Gamma, spec.Psi + Delta, POLARITY_SAFE)
    unsafe = PolytopeSpec(spec.Gamma, spec.Psi - Delta, POLARITY_UNSAFE)
    return TransformedSpec(source=spec, safe_region=safe, unsafe_region=unsafe,
                           witness_region=unsafe, delta_used=delta, Delta=Delta)


def transform_ellipsoid(spec: EllipsoidSpec, delta) -> TransformedSpec:
    """Safe-region ellipsoid: radius R-Delta_R inside, R+Delta_R outside.

    When R - Delta_R <= 0 the safe region is empty (safe_region=None) and a
    verifier can only ever report MaybeUnsafe or Indeterminate, never a
    vacuous Safe.
    """
    if spec.polarity != POLARITY_SAFE:
        raise ModelError("transform_ellipsoid expects a safe-region spec")
    delta = _delta_vector(delta, spec.p)
    dR, lam, E = ellipsoid_margin(spec, delta)
    safe = None
    if spec.R - dR > 0:
        safe = EllipsoidSpec(spec.Q, spec.a, spec.R - dR, POLARITY_SAFE)
    unsafe = EllipsoidSpec(spec.Q, spec.a, spec.R + dR, POLARITY_UNSAFE)
    return TransformedSpec(source=spec, safe_region=safe, unsafe_region=unsafe,
                           witness_region=unsafe, delta_used=delta, Delta=dR, basis=E)


def transform_unsafe_polytope(spec: PolytopeSpec, delta) -> TransformedSpec:
    """Unsafe-region polytope: grow by Delta; safety = reach disjoint from it.

    No safe region is emitted.  The shrunk polytope (Psi + Delta), when
    nonempty, certifies full-order unsafety and is exposed as the witness
    region.
    """
    if spec.polarity != POLARITY_UNSAFE:
        raise ModelError("transform_unsafe_polytope expects an unsafe-region spec")
    delta = _delta_vector(delta, spec.p)
    Delta = polytope_margin_widths(spec, delta)
    unsafe = PolytopeSpec(spec.Gamma, spec.Psi - Delta, POLARITY_UNSAFE)
    witness = PolytopeSpec(spec.Gamma, spec.Psi + Delta, POLARITY_UNSAFE)
    return TransformedSpec(source=spec, safe_region=None, unsafe_region=unsafe,
                           witness_region=witness, delta_used=delta, Delta=Delta)


def transform_unsafe_ellipsoid(spec: EllipsoidSpec, delta) -> TransformedSpec:
    """Unsafe-region ellipsoid: radius grows to R+Delta_R; the shrunk radius
    R-Delta_R (when positive) is the witness region."""
    if spec.polarity != POLARITY_UNSAFE:
        raise ModelError("transform_unsafe_ellipsoid expects an unsafe-region spec")
    delta = _delta_vector(delta, spec.p)
    dR, lam, E = ellipsoid_margin(spec, delta)
    unsafe = EllipsoidSpec(spec.Q, spec.a, spec.R + dR, POLARITY_UNSAFE)
    witness = None
    if spec.R - dR > 0:
        witness = EllipsoidSpec(spec.Q, spec.a, spec.R - dR, POLARITY_UNSAFE)
    return TransformedSpec(source=spec, safe_region=None, unsafe_region=unsafe,
                           witness_region=witness, delta_used=delta, Delta=dR, basis=E)


def transform_spec(spec: SafetyPredicate, delta) -> TransformedSpec:
    """Dispatch on predicate shape and polarity."""
    if isinstance(spec, PolytopeSpec):
        if spec.polarity == POLARITY_SAFE:
            return transform_polytope(spec, delta)
        return transform_unsafe_polytope(spec, delta)
    if isinstance(spec, EllipsoidSpec):
        if spec.polarity == POLARITY_SAFE:
            return transform_ellipsoid(spec, delta)
        return transform_unsafe_ellipsoid(spec, delta)
    raise ModelError(f"unsupported spec type {type(spec).__name__}")


def transform_pss(specs: Sequence[SafetyPredicate] | SafetyPredicate,
                  deltas: Sequence[np.ndarray]) -> list[list[TransformedSpec]]:
    """Per-mode transformation: mode rho gets every predicate transformed
    with its own delta_rho.  Returns one list of TransformedSpec per mode."""
    if isinstance(specs, (PolytopeSpec, EllipsoidSpec)):
        specs = (specs,)
    return [[transform_spec(s, d) for s in specs] for d in deltas]
