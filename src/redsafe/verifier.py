"""The k-incrementing verification semi-algorithm for LTI and PSS problems.

Each iteration builds an order-k abstraction, bounds each error source by
every enabled method and takes delta = min e1 + min e2 per output (each
candidate is sound for its source), transforms the spec, runs reachability
on the reduced system and checks it.
Safe and witness-confirmed Unsafe stop the loop; otherwise the order grows
by one until k_max.  A PSS resets its state at every switch, so each mode is
an independent LTI check over its own duration; an LTI problem is the
one-mode case of the same loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import bounds as bnd
from .balancing import BalancedRealization, balance, truncate
from .bounds import E1_THEOREM1, E1_THEOREM2, E2_THEOREM3, SIMULATION, ErrorBound
from .model import (HyperBox, LtiSystem, ModelError, PssSystem,
                    VerificationProblem, POLARITY_SAFE)
from .reach import (INDETERMINATE, MAYBE_UNSAFE, SAFE, UNSAFE,
                    STEP_LH, WitnessTrajectory, check_spec, default_step,
                    find_unsafe_witness, reach_lti)
from .spectransform import transform_spec


@dataclass(frozen=True)
class VerifyOptions:
    """Knobs of the semi-algorithm; defaults follow the package-wide choices.

    ``seed`` is validated but read by nothing: the witness search draws no
    random candidate.  It stays for callers that still pass it."""

    k0: int | None = None
    k_max: int | None = None
    e1_methods: tuple[str, ...] = bnd.E1_METHODS
    e2_methods: tuple[str, ...] = bnd.E2_METHODS
    step_lh: float = STEP_LH
    seed: int = 0
    time_budget: float | None = None
    geometric_schedule: bool = False

    def __post_init__(self):
        for source, methods, known in (("e1", self.e1_methods, bnd.E1_METHODS),
                                       ("e2", self.e2_methods, bnd.E2_METHODS)):
            if set(methods) - set(known) or not methods:
                raise ModelError(f"invalid {source} method set {methods}")
        # written so that NaN fails every test
        for name, ok, need in (
                ("k0", self.k0 is None or isinstance(self.k0, Integral), "an integer"),
                ("k_max", self.k_max is None or isinstance(self.k_max, Integral), "an integer"),
                ("step_lh", self.step_lh > 0, "positive"),
                ("seed", isinstance(self.seed, Integral) and self.seed >= 0,
                 "a nonnegative integer"),
                ("time_budget", self.time_budget is None or self.time_budget >= 0,
                 "nonnegative")):
            if not ok:
                raise ModelError(f"{name} must be {need}, got {getattr(self, name)}")


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
    #: The assembled bound of each mode bounded at ``k_used``, in
    #: :func:`problem_modes` order; an Unsafe verdict stops at the mode of
    #: its witness.
    delta: tuple[ErrorBound, ...] | None
    delta_used: np.ndarray | None
    witness: WitnessTrajectory | None
    per_k_log: list[PerKEntry]

    @property
    def exit_code(self) -> int:
        return {SAFE: 0, UNSAFE: 1}.get(self.outcome, 2)


def bound_candidates(bal: BalancedRealization, full: bnd.FullOrderResponse, k: int,
                     u_box: HyperBox, opts: VerifyOptions = VerifyOptions()):
    """Every enabled bound method's vector for one abstraction order over
    the mode's initial box and horizon, and the bound assembled from them.

    ``full`` is the mode's ``FullOrderResponse.of(bal, x0, horizon)``, which
    binds both; pass the same one at every order of the mode.  Both
    simulation bounds read one walk of the order's augmented orbit.
    Returns (e1s, e2s, bound, notes): the e1 and e2 vectors by method in
    ``opts`` order, each sound as computed, with no bloat; the ErrorBound
    that :func:`bounds.assemble` builds from them, or None when either
    source has no candidate; and notes about skipped methods.
    """
    notes: list[str] = []
    aug = bnd.augment(full, k)
    compute = {
        ("e1", E1_THEOREM1): lambda: bnd.e1_theoretical(aug),
        ("e1", E1_THEOREM2): lambda: bnd.e1_optimization(aug),
        ("e1", SIMULATION): lambda: bnd.e1_simulation(aug),
        ("e2", E2_THEOREM3): lambda: bnd.e2_theoretical(bal.sigma, k, u_box, aug.p),
        ("e2", SIMULATION): lambda: bnd.e2_simulation(aug, u_box),
    }
    e1s: dict[str, np.ndarray] = {}
    e2s: dict[str, np.ndarray] = {}
    for source, methods, out in (("e1", opts.e1_methods, e1s), ("e2", opts.e2_methods, e2s)):
        for method in methods:
            try:
                out[method] = compute[source, method]()
            except (ModelError, bnd.BoundError) as exc:
                notes.append(f"{source} {method} skipped: {exc}")
    bound = bnd.assemble(e1s, e2s) if e1s and e2s else None
    return e1s, e2s, bound, notes


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
    carry their mode; an LTI problem's carry none.
    """
    modes = problem_modes(problem)
    labeled = bool(modes[0][0])
    k0, k_max = _resolve_orders(problem.system.n, problem.system.p, opts)
    bals = [balance(system) for _, system, _, _ in modes]
    responses = [bnd.FullOrderResponse.of(bal, x0, horizon)
                 for bal, (_, _, x0, horizon) in zip(bals, modes)]
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
        mode_bounds: list[ErrorBound] = []
        for rho, ((label, _, x0, horizon), bal, full) in enumerate(
                zip(modes, bals, responses)):
            key, say = (f"{label}:", f"mode {rho}: ") if labeled else ("", "")
            abstraction = truncate(bal, k, x0)
            _, _, bound, mode_notes = bound_candidates(bal, full, k, problem.inputs, opts)
            notes.extend(say + note for note in mode_notes)
            if bound is None:
                notes.append(say + "no bound method produced a value")
                mode_outcomes.append(INDETERMINATE)
                continue
            bounds_log[key + "delta"] = bound.delta.tolist()
            mode_bounds.append(bound)
            transformed = [transform_spec(s, bound.delta) for s in problem.spec]
            if all(ts.safe_region is None for ts in transformed) \
                    and problem.polarity == POLARITY_SAFE:
                notes.append(say + "transformed safe region empty at this k")
            # the witness search reads its grid from the step sets, and
            # their age table's grid samples pick each predicate's one
            # candidate
            step_h = default_step(horizon, abstraction.reduced.A, lh=opts.step_lh)
            sets = reach_lti(abstraction.reduced, abstraction.x0_zonotope,
                             problem.inputs, horizon, step_h)
            outcome = check_spec(sets, transformed)
            if outcome == MAYBE_UNSAFE:
                witness = find_unsafe_witness(abstraction.reduced, x0, problem.inputs,
                                              transformed, sets, init_map=bal.H[:k, :])
                if witness is not None:
                    if labeled:
                        notes.append(f"witness in mode {rho}")
                    log.append(PerKEntry(k=k, bounds=bounds_log, outcome=UNSAFE,
                                         seconds=time.perf_counter() - t0,
                                         notes=tuple(notes)))
                    return Verdict(outcome=UNSAFE, k_used=k, delta=tuple(mode_bounds),
                                   delta_used=bound.delta, witness=witness,
                                   per_k_log=log)
                notes.append(say + "step sets touch the unsafe region but no witness found")
            mode_outcomes.append(outcome)
        all_safe = all(v == SAFE for v in mode_outcomes)
        log.append(PerKEntry(k=k, bounds=bounds_log,
                             outcome=SAFE if all_safe else INDETERMINATE,
                             seconds=time.perf_counter() - t0, notes=tuple(notes)))
        if all_safe:
            return Verdict(outcome=SAFE, k_used=k, delta=tuple(mode_bounds),
                           delta_used=np.max(np.stack([b.delta for b in mode_bounds]),
                                             axis=0),
                           witness=None, per_k_log=log)
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
