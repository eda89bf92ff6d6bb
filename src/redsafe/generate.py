"""Random stable test instances, Hurwitz by construction.

A = skew - diag(positive) has a negative-definite symmetric part, so every
generated system is asymptotically stable regardless of the draw.
"""

from __future__ import annotations

import numpy as np

from .model import (HyperBox, LtiSystem, ModelError, PolytopeSpec,
                    VerificationProblem, POLARITY_SAFE)


def random_stable_system(rng: np.random.Generator, n: int, m: int, p: int,
                         decay: tuple[float, float] = (0.5, 2.0),
                         coupling: float = 1.0) -> LtiSystem:
    """A Hurwitz system with eigenvalue real parts roughly in -decay."""
    if n < 1 or m < 1 or p < 1:
        raise ModelError(f"need n >= 1, m >= 1, p >= 1, got n={n}, m={m}, p={p}")
    R = rng.standard_normal((n, n)) * coupling
    A = (R - R.T) - np.diag(rng.uniform(*decay, size=n))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    return LtiSystem(A, B, C)


def random_problem(seed: int, n: int, m: int, p: int,
                   free_dims: int | None = None,
                   spec_scale: float = 3.0) -> VerificationProblem:
    """A full random verification instance with a safe-region box spec.

    The safe box is sized from a crude output-range estimate times
    ``spec_scale``, so small scales produce tight (possibly unsafe) specs and
    large scales produce clearly safe ones.  ``free_dims`` limits how many
    initial-box coordinates get nonzero width (the rest are pinned), which
    limits the box vertices the witness search tries as initial states.
    """
    if p >= n:
        raise ModelError(f"need p < n for a reducible instance, got p={p}, n={n}")
    if free_dims is not None and free_dims < 0:
        raise ModelError(f"free_dims must be nonnegative, got {free_dims}")
    # written so that NaN fails the test
    if not (np.isfinite(spec_scale) and spec_scale > 0):
        raise ModelError(f"spec_scale must be positive and finite, got {spec_scale}")
    rng = np.random.default_rng(seed)
    sys = random_stable_system(rng, n, m, p)
    nf = n if free_dims is None else min(free_dims, n)
    lb = np.zeros(n)
    ub = np.zeros(n)
    which = rng.choice(n, size=nf, replace=False)
    c = rng.uniform(-0.5, 0.5, size=nf)
    w = rng.uniform(0.05, 0.3, size=nf)
    lb[which] = c - w
    ub[which] = c + w
    x0 = HyperBox(lb, ub)
    u_lo = rng.uniform(-1.0, 0.0, size=m)
    u_hi = u_lo + rng.uniform(0.1, 1.0, size=m)
    inputs = HyperBox(u_lo, u_hi)
    # crude range estimate: amplification of the worst initial corner plus the
    # steady input response
    x_scale = float(np.linalg.norm(np.maximum(np.abs(lb), np.abs(ub))))
    u_scale = float(np.max(np.abs(np.stack([u_lo, u_hi])))) if m else 0.0
    gain = u_scale * float(np.linalg.norm(np.linalg.solve(sys.A, sys.B), 2)) if m else 0.0
    amp = float(np.linalg.norm(sys.C, 2)) * (x_scale + gain)
    bound = spec_scale * max(amp, 0.1)
    Gamma = np.vstack([np.eye(p), -np.eye(p)])
    Psi = -bound * np.ones(2 * p)
    spec = PolytopeSpec(Gamma, Psi, POLARITY_SAFE)
    t_f = float(rng.uniform(2.0, 5.0))
    return VerificationProblem(system=sys, x0=x0, inputs=inputs, spec=(spec,),
                               t_f=t_f, name=f"random-n{n}-seed{seed}")
