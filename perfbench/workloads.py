"""The benchmark's workloads: how each builds its problem and options, which
verify entry point it calls, its reference verdict and the layers it must
exercise.  ``BENCHMARK.json`` runs the motor and the sweep; ``lti_n500_k5``
is run by name only (see README.md).

The problem instance of each random workload is fixed by ``problem_seed``
(default 7).  The run's ``--seed`` only reaches ``VerifyOptions.seed`` (the
witness search) and the full-order cross-check: the cost of the n=150 sweep
follows the drawn horizon t_f (a warm call takes about 23 s at problem seed 7
and 16 s at seed 8), which would swamp any change being measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import redsafe as rs

#: Layer spans that record at least one call on every workload.
_COMMON_LAYERS = ("balancing.balance", "gramians.gramians", "gramians.solve_lyapunov",
                  "balancing.truncate", "bounds.e2_simulation",
                  "spectransform.transform_spec", "reach.reach_lti", "reach.check_spec")


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], rs.VerificationProblem]
    options: Callable[[int], rs.VerifyOptions]
    verify: Callable[[rs.VerificationProblem, rs.VerifyOptions], rs.Verdict]
    #: Reference verdict at problem seed 7: (outcome, k_final).
    reference: tuple[str, int]
    #: Spans the traced run must see called at least once per verify call.
    layers: tuple[str, ...]


def _motor_options(seed: int) -> rs.VerifyOptions:
    # the README reproduction of the paper's case study
    return rs.VerifyOptions(k0=5, k_max=5, e1_methods=(rs.E1_THEOREM2, rs.SIMULATION),
                            e2_methods=(rs.SIMULATION,), step_lh=0.05, seed=seed)


def _sweep_options(seed: int) -> rs.VerifyOptions:
    # every bound method, input split on; the loop visits k = 5, 10, 20, 40
    return rs.VerifyOptions(k0=5, k_max=40, geometric_schedule=True, seed=seed)


def _n500_options(seed: int) -> rs.VerifyOptions:
    # the pair a user picks at n=500: theorem2 solves five Lyapunov equations
    # of order 505 per output, and theorem3's Hankel tail (9.6e4 at seed 7)
    # dwarfs the spec's box half-width (420)
    return rs.VerifyOptions(k0=5, k_max=5, e1_methods=(rs.E1_THEOREM1,),
                            e2_methods=(rs.SIMULATION,), e2_input_split=False,
                            seed=seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("motor_pss", lambda _seed: rs.motor_benchmark(), _motor_options,
                 rs.verify_pss, (rs.SAFE, 5),
                 _COMMON_LAYERS + ("bounds.e1_optimization", "bounds.e1_simulation")),
        Workload("lti_n150_ksweep",
                 lambda seed: rs.random_problem(seed, 150, 12, 4, free_dims=6,
                                                spec_scale=0.9),
                 _sweep_options, rs.verify, (rs.INDETERMINATE, 40),
                 _COMMON_LAYERS + ("bounds.e1_theoretical", "bounds.e1_optimization",
                                   "bounds.e1_simulation", "bounds.e2_theoretical",
                                   "reach.find_unsafe_witness", "reach.simulate")),
        Workload("lti_n500_k5",
                 lambda seed: rs.random_problem(seed, 500, 12, 4, free_dims=6),
                 _n500_options, rs.verify, (rs.SAFE, 5),
                 _COMMON_LAYERS + ("bounds.e1_theoretical",)),
    )
}
