import numpy as np
import pytest
from hypothesis import settings

import redsafe as rs
from redsafe.reach import _transition

# property tests replay the same examples on every run and have no deadline,
# so a slow runner cannot turn them into flakes
settings.register_profile("redsafe", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("redsafe")


def rand_box(rng, n, nfree=None, width=(0.05, 0.3), center=(-0.5, 0.5)):
    """Random box with at most nfree non-degenerate coordinates."""
    nfree = n if nfree is None else min(nfree, n)
    lb = np.zeros(n)
    ub = np.zeros(n)
    which = rng.choice(n, size=nfree, replace=False)
    c = rng.uniform(*center, size=nfree)
    w = rng.uniform(*width, size=nfree)
    lb[which] = c - w
    ub[which] = c + w
    return rs.HyperBox(lb, ub)


def rand_ubox(rng, m):
    lo = rng.uniform(-1.0, 0.0, size=m)
    return rs.HyperBox(lo, lo + rng.uniform(0.1, 1.0, size=m))


def batch_trajectories(A, B, C, X0, u_plan, t_f, h):
    """Propagate a batch of initial states (columns) under per-step inputs.

    ``u_plan(step) -> (m, batch)`` or None for zero input.  Returns the
    stacked outputs (steps+1, p, batch).
    """
    steps = int(np.ceil(t_f / h))
    if B is None or B.size == 0:
        Phi = _transition(A, h)
        PsiB = None
    else:
        Phi, PsiB = _transition(A, h, B)
    X = np.array(X0, dtype=float)
    out = np.empty((steps + 1, C.shape[0], X.shape[1]))
    out[0] = C @ X
    for s in range(steps):
        X = Phi @ X
        if PsiB is not None and u_plan is not None:
            X = X + PsiB @ u_plan(s)
        out[s + 1] = C @ X
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance" in rep.nodeid and rep.when in ("call", None) \
                    or ("test_acceptance" in rep.nodeid and status == "skipped"):
                name = rep.nodeid.split("::")[-1]
                label = {"passed": "PASS", "failed": "FAIL",
                         "error": "FAIL", "skipped": "SKIP"}[status]
                rows.append((name, label))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, label in sorted(set(rows)):
            terminalreporter.write_line(f"{label}  {name}")
