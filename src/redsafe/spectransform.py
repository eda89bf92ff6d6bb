"""Transformation of full-order safety specs into abstraction-level specs.

:func:`transform_spec` moves a predicate's boundary by the output error
bound delta, once inward (the shrunk region) and once outward (the grown
one).  Polytope rows move by Delta_i = sum_j |Gamma_ij| delta_j; ellipsoid
radii by Delta_R = sqrt(sum_i lambda_i (sum_j |E_ij| delta_j)^2), where the
rows of E are the orthonormal eigenvectors of Q.  The source's polarity then
assigns the two regions their roles (see :class:`TransformedSpec`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .model import (EllipsoidSpec, ModelError, PolytopeSpec, SafetyPredicate,
                    POLARITY_SAFE, POLARITY_UNSAFE)


@dataclass(frozen=True)
class TransformedSpec:
    """Abstraction-level spec derived from a full-order predicate.

    safe_region     reduced outputs inside it are safe for the full-order
                    system: the shrunk safe set of a safe-polarity source,
                    None for an unsafe-polarity source or when the shrunk
                    ellipsoid is empty.
    unsafe_region   the grown region reach sets must stay clear of.  For a
                    safe-polarity source it is the grown safe set, and its
                    membership means being outside it (any polytope row
                    > 0, outside the ellipse); for an unsafe-polarity source
                    it is the grown forbidden region itself.
    witness_region  reduced outputs that meet it certify full-order
                    unsafety: being outside the grown safe set (the
                    unsafe_region object itself) for a safe-polarity source,
                    inside the shrunk forbidden region for an unsafe-polarity
                    one (None when that ellipsoid is empty).
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
        reg = self.witness_region
        if reg is None:
            return np.full(Y.shape[:-1], -np.inf)
        sign = 1.0 if self.source_polarity == POLARITY_SAFE else -1.0
        if isinstance(reg, PolytopeSpec):
            rows = Y @ reg.Gamma.T
            rows += reg.Psi
            return sign * np.max(rows, axis=-1)
        d = Y - reg.a
        quad = d @ reg.Q
        quad *= d
        return sign * (np.sum(quad, axis=-1) - reg.R ** 2)

    @property
    def witness_scale(self) -> float:
        """Magnitude scale of the witness margin, for guard bands."""
        src = self.source
        if isinstance(src, PolytopeSpec):
            return float(max(1.0, np.max(np.abs(src.Psi)) if src.Psi.size else 1.0))
        return float(src.R ** 2)


def ellipsoid_margin(spec: EllipsoidSpec, delta: np.ndarray) -> tuple[float, np.ndarray]:
    """Radius margin Delta_R plus the eigenvector basis used, the rows E of
    the spec's :attr:`~redsafe.model.EllipsoidSpec.axes`, whose sign
    convention keeps serialized output reproducible.

    Delta_R enters through absolute values, so sign choices do not affect
    soundness; with repeated eigenvalues the value is basis dependent and the
    basis used is returned alongside.
    """
    lam, E = spec.axes
    dbar = np.abs(E) @ delta
    return float(np.sqrt(np.sum(lam * dbar ** 2))), E


def _moved_in(spec: SafetyPredicate, Delta, polarity: str) -> SafetyPredicate | None:
    """The predicate's region with its boundary moved inward by Delta
    (outward for a negative Delta), tagged ``polarity``; None when an
    ellipsoid's radius does not stay positive.  A moved ellipsoid is a copy
    of the source that keeps its validated Q and cached axes."""
    if isinstance(spec, PolytopeSpec):
        return PolytopeSpec(spec.Gamma, spec.Psi + Delta, polarity)
    R = spec.R - Delta
    if not R > 0:
        return None
    if not np.isfinite(R):
        raise ModelError(f"radius R must be a positive real, got {R}")
    moved = copy.copy(spec)
    object.__setattr__(moved, "R", float(R))
    object.__setattr__(moved, "polarity", polarity)
    return moved


def transform_spec(spec: SafetyPredicate, delta) -> TransformedSpec:
    """Shrink and grow ``spec`` by the output error bound ``delta`` (one
    nonnegative entry per output) and assign the regions their roles.

    An empty shrunk ellipsoid leaves its role None: a safe-polarity source
    then has no safe region, so a verifier can only ever report MaybeUnsafe
    or Indeterminate, never a vacuous Safe.
    """
    if not isinstance(spec, (PolytopeSpec, EllipsoidSpec)):
        raise ModelError(f"unsupported spec type {type(spec).__name__}")
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (spec.p,):
        raise ModelError(f"delta must have shape ({spec.p},), got {delta.shape}")
    if np.any(delta < 0) or not np.all(np.isfinite(delta)):
        raise ModelError("delta entries must be finite and nonnegative")
    if isinstance(spec, PolytopeSpec):
        Delta, basis = np.abs(spec.Gamma) @ delta, None
    else:
        Delta, basis = ellipsoid_margin(spec, delta)
    shrunk = _moved_in(spec, Delta, spec.polarity)
    grown = _moved_in(spec, -Delta, POLARITY_UNSAFE)
    safe, unsafe, witness = ((shrunk, grown, grown) if spec.polarity == POLARITY_SAFE
                             else (None, grown, shrunk))
    return TransformedSpec(source=spec, safe_region=safe, unsafe_region=unsafe,
                           witness_region=witness, delta_used=delta, Delta=Delta,
                           basis=basis)
