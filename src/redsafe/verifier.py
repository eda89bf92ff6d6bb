"""The k-incrementing verification semi-algorithm for LTI and PSS problems.

Each iteration builds an order-k abstraction, computes the error bound by
every enabled method (the componentwise minimum of sound bounds is sound),
transforms the spec, runs reachability on the reduced system and checks it.
Safe and witness-confirmed Unsafe stop the loop; otherwise the order grows
by one until k_max.  A PSS resets its state at every switch, so each mode is
an independent LTI check over its own duration; an LTI problem is the
one-mode case of the same loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from .balancing import BalancedRealization, balance, truncate
from .bounds import (E1_THEOREM1, E1_THEOREM2, E2_THEOREM3, SIMULATION,
                     ErrorBound, combine)
from .model import (HyperBox, LtiSystem, ModelError, PssSystem,
                    VerificationProblem)
from .reach import (INDETERMINATE, MAYBE_UNSAFE, ORDER_CAP, SAFE, UNSAFE,
                    WitnessTrajectory, check_spec, default_step,
                    find_unsafe_witness, reach_lti)
from .spectransform import transform_spec


@dataclass(frozen=True)
class VerifyOptions:
    """Knobs of the semi-algorithm; defaults follow the package-wide choices."""

    k0: int | None = None
    k_max: int | None = None
    e1_methods: tuple[str, ...] = (E1_THEOREM1, E1_THEOREM2, SIMULATION)
    e2_methods: tuple[str, ...] = (E2_THEOREM3, SIMULATION)
    e2_input_split: bool = True
    gamma: float = bnd.GAMMA_DEFAULT
    step_h: float | None = None
    step_lh: float = 0.1
    order_cap: int = ORDER_CAP
    vertex_cap: int = bnd.VERTEX_CAP
    witness_budget: int = 64
    seed: int = 0
    time_budget: float | None = None
    geometric_schedule: bool = False

    def __post_init__(self):
        bad = set(self.e1_methods) - {E1_THEOREM1, E1_THEOREM2, SIMULATION}
        if bad or not self.e1_methods:
            raise ModelError(f"invalid e1 method set {self.e1_methods}")
        bad = set(self.e2_methods) - {E2_THEOREM3, SIMULATION}
        if bad or not self.e2_methods:
            raise ModelError(f"invalid e2 method set {self.e2_methods}")


@dataclass(frozen=True)
class PerKEntry:
    k: int
    bounds: dict[str, list[float]]
    outcome: str
    seconds: float
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Verdict:
    outcome: str
    k_used: int | None
    delta: ErrorBound | None
    delta_used: np.ndarray | None
    witness: WitnessTrajectory | None
    per_k_log: list[PerKEntry]
    mode_deltas: tuple[np.ndarray, ...] | None = None

    @property
    def exit_code(self) -> int:
        return {SAFE: 0, UNSAFE: 1}.get(self.outcome, 2)


def _candidate_e1(aug, x0: HyperBox, horizon: float, opts: VerifyOptions,
                  notes: list[str], full: bnd.FullOrderResponse) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for method in opts.e1_methods:
        try:
            if method == E1_THEOREM1:
                out[method] = bnd.e1_theoretical(aug, x0)
            elif method == E1_THEOREM2:
                out[method] = bnd.e1_optimization(aug, x0)
            else:
                out[method] = bnd.e1_simulation(aug, x0, horizon,
                                                vertex_cap=opts.vertex_cap, full=full)
        except (ModelError, bnd.BoundError) as exc:
            notes.append(f"e1 {method} skipped: {exc}")
    return out


def _candidate_e2(bal: BalancedRealization, aug, u_box: HyperBox, horizon: float,
                  opts: VerifyOptions, notes: list[str],
                  full: bnd.FullOrderResponse) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for method in opts.e2_methods:
        if method == E2_THEOREM3:
            out[method] = bnd.e2_theoretical(bal.sigma, aug.k, u_box, aug.p)
            continue
        plain, split, truncated = bnd.e2_simulation(aug, u_box, horizon=horizon,
                                                    full=full)
        if truncated:
            notes.append("e2 simulation truncated before decay; bound dropped")
            if opts.e2_input_split:
                notes.append("split e2 simulation truncated before decay; bound dropped")
            continue
        out[method] = plain
        if opts.e2_input_split:
            out[method + "(split)"] = split
    return out


def bound_candidates(bal: BalancedRealization, k: int, x0: HyperBox,
                     u_box: HyperBox, horizon: float,
                     opts: VerifyOptions = VerifyOptions(),
                     full: bnd.FullOrderResponse | None = None):
    """Every enabled bound pairing for one abstraction order.

    ``full`` is the mode's ``FullOrderResponse.of(bal)``; pass the same one
    at every order of a mode (a fresh one is built when it is not given).
    Returns (pairs, delta_min, best, notes): labeled ErrorBounds, the
    componentwise minimum over them (sound), the pairing with the smallest
    rho, and notes about skipped methods.
    """
    notes: list[str] = []
    aug = bnd.augment(bal, k)
    if full is None:
        full = bnd.FullOrderResponse.of(bal)
    e1s = _candidate_e1(aug, x0, horizon, opts, notes, full)
    e2s = _candidate_e2(bal, aug, u_box, horizon, opts, notes, full)
    pairs = [(f"{l1}+{l2}", combine(e1, e2, opts.gamma, l1,
                                    SIMULATION if l2.startswith(SIMULATION) else l2))
             for l1, e1 in e1s.items() for l2, e2 in e2s.items()]
    if not pairs:
        return [], None, None, notes
    delta_min = np.min(np.stack([b.delta for _, b in pairs]), axis=0)
    best = min(pairs, key=lambda item: item[1].rho)[1]
    return pairs, delta_min, best, notes


def problem_modes(problem: VerificationProblem
                  ) -> list[tuple[str, LtiSystem, HyperBox, float]]:
    """(label, system, initial box, horizon) per independent check: one
    unlabeled mode for an LTI problem, ``mode<rho>`` per mode of a PSS."""
    sys = problem.system
    if isinstance(sys, PssSystem):
        return [(f"mode{rho}", mode, x0, duration) for rho, (mode, x0, duration)
                in enumerate(zip(sys.modes, sys.mode_initial_sets, sys.durations))]
    return [("", sys, problem.x0, problem.t_f)]


def _k_schedule(k0: int, k_max: int, geometric: bool):
    k = k0
    while k <= k_max:
        yield k
        k = max(k + 1, 2 * k) if geometric else k + 1


def _resolve_orders(n: int, p: int, opts: VerifyOptions) -> tuple[int, int]:
    k0 = opts.k0 if opts.k0 is not None else p + 1
    k_max = opts.k_max if opts.k_max is not None else n
    if not (p < k0 <= k_max <= n):
        raise ModelError(f"order range must satisfy p < k0 <= k_max <= n, got "
                         f"k0={k0}, k_max={k_max}, p={p}, n={n}")
    return k0, k_max


def _verify_modes(problem: VerificationProblem, opts: VerifyOptions) -> Verdict:
    """The k-loop over the modes of :func:`problem_modes`.

    Safe requires every mode to check out at the same k; any validated
    witness makes the whole problem Unsafe.  PSS bound labels and notes
    carry their mode; an LTI problem's carry none and report no mode deltas.
    """
    modes = problem_modes(problem)
    labeled = bool(modes[0][0])
    k0, k_max = _resolve_orders(problem.system.n, problem.system.p, opts)
    bals = [balance(system) for _, system, _, _ in modes]
    responses = [bnd.FullOrderResponse.of(bal) for bal in bals]
    log: list[PerKEntry] = []
    started = time.perf_counter()

    for k in _k_schedule(k0, k_max, opts.geometric_schedule):
        t0 = time.perf_counter()
        if opts.time_budget is not None and t0 - started > opts.time_budget:
            log.append(PerKEntry(k=k, bounds={}, outcome=INDETERMINATE,
                                 seconds=0.0, notes=("time budget exhausted",)))
            break
        notes: list[str] = []
        bounds_log: dict[str, list[float]] = {}
        mode_outcomes: list[str] = []
        mode_deltas: list[np.ndarray] = []
        worst: ErrorBound | None = None
        for rho, ((label, _, x0, horizon), bal, full) in enumerate(
                zip(modes, bals, responses)):
            key, say = (f"{label}:", f"mode {rho}: ") if labeled else ("", "")
            abstraction = truncate(bal, k, x0)
            pairs, delta_min, best, mode_notes = bound_candidates(
                bal, k, x0, problem.inputs, horizon, opts, full)
            notes.extend(say + note for note in mode_notes)
            if delta_min is None:
                notes.append(say + "no bound method produced a value")
                mode_outcomes.append(INDETERMINATE)
                continue
            abstraction = abstraction.with_delta(delta_min)
            for plabel, b in pairs:
                bounds_log[key + plabel] = b.delta.tolist()
            mode_deltas.append(delta_min)
            if worst is None or best.rho > worst.rho:
                worst = best
            transformed = [transform_spec(s, delta_min) for s in problem.spec]
            if all(ts.safe_region is None for ts in transformed) \
                    and problem.polarity == "safe-region":
                notes.append(say + "transformed safe region empty at this k")
            step_h = opts.step_h or default_step(horizon, abstraction.reduced.A,
                                                 lh=opts.step_lh)
            steps = reach_lti(abstraction.reduced, abstraction.x0_reduced,
                              problem.inputs, horizon, step_h, opts.order_cap)
            outcome = check_spec(steps, transformed)
            if outcome == MAYBE_UNSAFE:
                witness = find_unsafe_witness(
                    abstraction.reduced, x0, problem.inputs, transformed,
                    horizon, opts.witness_budget,
                    init_map=bal.H[:k, :], seed=opts.seed)
                if witness is not None:
                    if labeled:
                        notes.append(f"witness in mode {rho}")
                    log.append(PerKEntry(k=k, bounds=bounds_log, outcome=UNSAFE,
                                         seconds=time.perf_counter() - t0,
                                         notes=tuple(notes)))
                    return Verdict(outcome=UNSAFE, k_used=k, delta=worst,
                                   delta_used=delta_min, witness=witness, per_k_log=log,
                                   mode_deltas=tuple(mode_deltas) if labeled else None)
                notes.append(say + "step sets touch the unsafe region but no witness found")
            mode_outcomes.append(outcome)
        all_safe = all(v == SAFE for v in mode_outcomes)
        log.append(PerKEntry(k=k, bounds=bounds_log,
                             outcome=SAFE if all_safe else INDETERMINATE,
                             seconds=time.perf_counter() - t0, notes=tuple(notes)))
        if all_safe:
            return Verdict(outcome=SAFE, k_used=k, delta=worst,
                           delta_used=np.max(np.stack(mode_deltas), axis=0),
                           witness=None, per_k_log=log,
                           mode_deltas=tuple(mode_deltas) if labeled else None)
    return Verdict(outcome=INDETERMINATE, k_used=None, delta=None, delta_used=None,
                   witness=None, per_k_log=log)


def verify(problem: VerificationProblem, opts: VerifyOptions = VerifyOptions()) -> Verdict:
    """Time-bounded safety verification of a full-order LTI problem.

    Returns Safe only when the reduced reach sets pass the transformed spec
    (which transfers to the full-order system), Unsafe only with a validated
    witness trajectory, and Indeterminate after k_max otherwise.
    """
    if not isinstance(problem.system, LtiSystem):
        raise ModelError("verify expects an LTI problem; use verify_pss for PSS")
    return _verify_modes(problem, opts)


def verify_pss(problem: VerificationProblem, opts: VerifyOptions = VerifyOptions()) -> Verdict:
    """Per-mode verification of a periodically switched system.

    Every switch resets the state into the mode's initial set, so the modes
    decouple: mode rho is analyzed over [0, duration_rho] from its own reset
    image, with its own balancing, bound and transformed spec.  Safe requires
    every mode to check out; any validated witness makes the whole system
    Unsafe.
    """
    if not isinstance(problem.system, PssSystem):
        raise ModelError("verify_pss expects a PSS problem")
    return _verify_modes(problem, opts)
