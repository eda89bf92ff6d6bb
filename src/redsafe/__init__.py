"""redsafe: safety verification of high-dimensional linear (and periodically
switched linear) systems through balanced-truncation output abstractions with
computed error bounds."""

from .balancing import (Abstraction, BalancedRealization, RankDeficiencyError,
                        balance, hankel_singular_values, truncate)
from .benchmarks import motor_benchmark
from .bounds import (AugmentedSystem, ErrorBound, FullOrderResponse, assemble, augment,
                     e1_optimization, e1_simulation, e1_theoretical,
                     e2_simulation, e2_theoretical, sup_box_norm,
                     E1_THEOREM1, E1_THEOREM2, E2_THEOREM3, SIMULATION)
from .generate import random_problem, random_stable_system
from .gramians import GramianPair, SolverError, gramians, solve_lyapunov
from .model import (EllipsoidSpec, HyperBox, LtiSystem, ManifestError,
                    ModelError, PolytopeSpec, PssSystem, StabilityError,
                    VerificationProblem, POLARITY_SAFE, POLARITY_UNSAFE,
                    check_stability, parse_problem, serialize_problem)
from .reach import (ReachSets, ReachStep, Trajectory, WitnessTrajectory,
                    Zonotope, check_spec, find_unsafe_witness, reach_lti,
                    simulate, SAFE, UNSAFE, MAYBE_UNSAFE, INDETERMINATE)
from .spectransform import TransformedSpec, transform_spec
from .verifier import PerKEntry, Verdict, VerifyOptions, verify, verify_pss

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
