"""Full-order soundness cross-check of a verdict.

An ``Unsafe`` verdict is re-simulated on the full-order system from the
witness's initial state and inputs at a finer step, and must violate the
original spec.  A ``Safe`` verdict is tested against a seeded batch of
full-order trajectories (box vertices under constant, switched and random
bang-bang inputs), each PSS mode from its own reset box over its own
duration; every sample must satisfy the original spec.  ``Indeterminate``
claims nothing and passes.

The batch propagation discretizes with ``scipy.linalg.expm`` directly rather
than through redsafe, so a fault in redsafe's own transition code cannot
hide itself here.
"""

from __future__ import annotations

import re

import numpy as np
import scipy.linalg

import redsafe as rs

#: Trajectories sampled per LTI problem or per PSS mode for a Safe verdict.
SAFE_SAMPLES = 32

#: Grid steps per horizon of the Safe check.  The discretization is exact
#: for inputs held over each step, so the grid only sets where outputs are
#: sampled.
SAFE_STEPS = 1000

#: The witness is re-simulated at this many sub-steps per plan step.
WITNESS_REFINE = 20

#: Relative slack below which a spec violation is taken as rounding noise.
TOL_REL = 1e-9


def violation(spec: tuple, Y: np.ndarray) -> np.ndarray:
    """Per-sample amount by which outputs ``Y`` (p, N) break the spec.

    Positive entries are violations: for a safe-region family the largest
    excess over any predicate, for an unsafe-region family the depth inside
    the deepest forbidden region.
    """
    depths = []
    for pred in spec:
        if isinstance(pred, rs.PolytopeSpec):
            # largest row of Gamma y + Psi: > 0 outside, <= 0 inside
            outside = np.max(pred.Gamma @ Y + pred.Psi[:, None], axis=0)
            scale = TOL_REL * (1.0 + np.max(np.abs(pred.Psi)))
        else:
            D = Y - pred.a[:, None]
            outside = np.einsum("ij,ik,kj->j", D, pred.Q, D) - pred.R ** 2
            scale = TOL_REL * (1.0 + pred.R ** 2)
        inside = -outside
        depths.append((outside if pred.polarity == rs.POLARITY_SAFE else inside) - scale)
    return np.max(np.stack(depths), axis=0)


def _input_plans(rng: np.random.Generator, u_box: rs.HyperBox, steps: int,
                 count: int) -> np.ndarray:
    """(steps, m, count) input plans cycling through four kinds: constant
    upper corner, constant lower corner, a vertex switched 1-3 times, and a
    random vertex per step."""
    lo, hi = u_box.lb, u_box.ub
    m = u_box.dim
    plans = np.empty((steps, m, count))
    for j in range(count):
        kind = j % 4
        if kind == 0:
            plans[:, :, j] = hi
        elif kind == 1:
            plans[:, :, j] = lo
        elif kind == 2:
            cuts = np.sort(rng.choice(steps, size=min(steps, int(rng.integers(1, 4))),
                                      replace=False))
            corners = lo + (hi - lo) * rng.integers(0, 2, (len(cuts) + 1, m))
            plans[:, :, j] = corners[np.searchsorted(cuts, np.arange(steps), side="right")]
        else:
            plans[:, :, j] = lo + (hi - lo) * rng.integers(0, 2, (steps, m))
    return plans


def _initial_states(rng: np.random.Generator, box: rs.HyperBox, count: int) -> np.ndarray:
    """(n, count) box vertices: all of them (shuffled, repeated) when they fit,
    otherwise random ones."""
    if box.vertex_count() <= count:
        verts = box.vertices()
        return verts[:, rng.permutation(np.resize(np.arange(verts.shape[1]), count))]
    pick = rng.integers(0, 2, (box.dim, count))
    return np.where(pick, box.ub[:, None], box.lb[:, None])


def sampled_worst(sys: rs.LtiSystem, x0: rs.HyperBox, u_box: rs.HyperBox,
                  spec: tuple, t_f: float, rng: np.random.Generator,
                  count: int = SAFE_SAMPLES) -> tuple[float, float]:
    """Largest spec violation over a seeded batch of full-order trajectories,
    with the time at which it occurs."""
    steps = SAFE_STEPS
    h = t_f / steps
    n, m = sys.n, sys.m
    M = np.zeros((n + m, n + m))
    M[:n, :n] = sys.A
    M[:n, n:] = sys.B
    E = scipy.linalg.expm(M * h)
    Phi, PsiB = E[:n, :n], E[:n, n:]
    X = _initial_states(rng, x0, count)
    plans = _input_plans(rng, u_box, steps, count)
    worst, worst_t = float(np.max(violation(spec, sys.C @ X))), 0.0
    for j in range(steps):
        X = Phi @ X + PsiB @ plans[j]
        v = float(np.max(violation(spec, sys.C @ X)))
        if v > worst:
            worst, worst_t = v, (j + 1) * h
    return worst, worst_t


def _witness_mode(verdict: rs.Verdict) -> int:
    for note in verdict.per_k_log[-1].notes:
        found = re.fullmatch(r"witness in mode (\d+)", note)
        if found:
            return int(found.group(1))
    raise ValueError("PSS Unsafe verdict names no witness mode")


def check_verdict(problem: rs.VerificationProblem, verdict: rs.Verdict,
                  seed: int) -> list[str]:
    """Reasons the verdict is unsound for the full-order system (empty if none
    was found)."""
    system = problem.system
    if isinstance(system, rs.PssSystem):
        modes = list(zip(system.modes, system.mode_initial_sets, system.durations))
    else:
        modes = [(system, problem.x0, problem.t_f)]
    if verdict.outcome == rs.UNSAFE:
        w = verdict.witness
        if w is None:
            return ["Unsafe verdict carries no witness"]
        sys, _, t_f = modes[_witness_mode(verdict) if len(modes) > 1 else 0]
        h_plan = 10.0 * float(w.times[1] - w.times[0])
        h = h_plan / WITNESS_REFINE
        fine_steps = int(np.ceil(t_f / h - 1e-12))
        plan = w.step_inputs[np.minimum(np.arange(fine_steps) // WITNESS_REFINE,
                                        w.step_inputs.shape[0] - 1)]
        traj = rs.simulate(sys, w.init_state, plan, t_f, h)
        worst = float(np.max(violation(problem.spec, traj.outputs.T)))
        if worst <= 0.0:
            return [f"Unsafe witness does not violate the spec on the full-order "
                    f"system (closest approach {worst:.3e})"]
        return []
    if verdict.outcome == rs.SAFE:
        rng = np.random.default_rng(seed)
        reasons = []
        for rho, (sys, x0, t_f) in enumerate(modes):
            worst, t = sampled_worst(sys, x0, problem.inputs, problem.spec, t_f, rng)
            if worst > 0.0:
                reasons.append(f"Safe verdict contradicted: mode {rho} trajectory "
                               f"violates the spec by {worst:.3e} at t={t:.4g}")
        return reasons
    return []
