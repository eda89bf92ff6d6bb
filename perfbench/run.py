"""Closed-loop benchmark of whole ``verify`` / ``verify_pss`` calls.

One client in one process issues each call as soon as the previous one
returns.  The first call of the process is a cold call; fresh set-up probe
interpreters add cold calls of their own while those fit in ``--seconds``,
and ``cold_verify_s`` is the median.  The warm calls then run for
``--seconds`` (at least one) and ``verify_s`` is their median.  Untraced
times are stated at the reference pace of ``pace.py``, which takes the
host's speed drift out of them; the raw wall times are on the info line.  With
``--trace 1`` the warm calls run under the layer spans of ``tracing.py`` and
the per-layer metrics are reported instead.  Every verdict is checked for
agreement across the run's calls and against the full-order system
(``crosscheck.py``).

    python3 perfbench/run.py --workload motor_pss --seed 7 --seconds 20 --trace 0

The last line of standard output is the result object; the line before it
holds the verdict, sample counts, fail ratio and the numeric environment.
BLAS runs on one thread: it is the steadier setting and the plain
single-threaded baseline that a parallel change is measured against.
"""

import os
import sys

# must precede the first numpy import; the set-up probes inherit it
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fresh interpreters that time import + problem build; set-up time is the
#: median over them and the benchmark's own process.
SETUP_PROBES = 4

#: Kernel runs right after set-up that give its pace: about 0.5 s, as long
#: as a set-up.
SETUP_PACE_RUNS = 100

#: Defined in workloads.py and runnable by name, but not in BENCHMARK.json:
#: with it, the runs that judge a change would not fit their time limit.
EXTRA_WORKLOADS = ("lti_n500_k5",)

#: Relative tolerance within which two calls' delta_final agree.
AGREE_REL = 1e-9

COLD, WARM = "cold", "warm"


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workload names and the metrics with their units."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark_spec()["workloads"]]
                    + list(EXTRA_WORKLOADS))
    ap.add_argument("--seed", type=int, default=7,
                    help="witness-search and cross-check seed")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure warm calls for this long (at least one call)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--problem-seed", type=int, default=7,
                    help="random_problem seed of the lti_* instances")
    ap.add_argument("--probe", choices=("setup", COLD), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def set_up(args):
    """Import redsafe from this checkout and build the workload's problem.
    Returns (workload, problem, seconds, seconds at the reference pace)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import redsafe
    if not Path(redsafe.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"redsafe imported from {redsafe.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    problem = workload.build(args.problem_seed)
    seconds = time.perf_counter() - t0
    import pace
    return workload, problem, seconds, pace.scaled(seconds, pace.burst(SETUP_PACE_RUNS))


def delta_final(verdict) -> float:
    """Norm of the componentwise-min bound over the pairings logged at the
    last order; for a PSS the componentwise max over modes is taken first."""
    import numpy as np
    by_mode: dict[str, list] = {}
    for label, delta in verdict.per_k_log[-1].bounds.items():
        mode = label.split(":", 1)[0] if ":" in label else ""
        by_mode.setdefault(mode, []).append(delta)
    if not by_mode:
        return float("nan")
    mins = [np.min(np.array(ds), axis=0) for ds in by_mode.values()]
    return float(np.linalg.norm(np.max(np.stack(mins), axis=0)))


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return dep.get("openblas configuration") or f"{dep['name']} {dep['version']}"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            **{k: os.environ.get(k) for k in BLAS_ENV}, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


class Calls:
    """Every verify call of a run: its kind (cold or warm), wall seconds, the
    pace kernel's samples during it (none for a traced call, which is not
    paced) and verdict signature (outcome, k_final, delta_final), which is
    None when the call raised.  In-process verdicts are kept for the
    cross-check."""

    def __init__(self):
        self.kinds: list[str] = []
        self.seconds: list[float] = []
        self.paces: list[list[float]] = []
        self.sigs: list[tuple | None] = []
        self.verdicts: list = []
        self.failures: list[str] = []

    def run(self, kind: str, verify, problem, opts, paced: bool = True):
        import pace

        def call():
            try:
                return verify(problem, opts)
            except Exception:
                self.failures.append(traceback.format_exc(limit=3))
                return None
        if paced:
            timed = pace.timed(call)
            verdict, seconds, samples = timed.result, timed.net, timed.samples
        else:
            t0 = time.perf_counter()
            verdict, samples = call(), []
            seconds = time.perf_counter() - t0
        sig = verdict and (verdict.outcome, verdict.per_k_log[-1].k, delta_final(verdict))
        self.add(kind, seconds, samples, sig, verdict)
        return verdict

    def add(self, kind: str, seconds: float, samples: list[float], sig, verdict=None) -> None:
        self.kinds.append(kind)
        self.seconds.append(seconds)
        self.paces.append(samples)
        self.sigs.append(tuple(sig) if sig else None)
        self.verdicts.append(verdict)

    def of(self, kind: str) -> list[float]:
        return [s for k, s in zip(self.kinds, self.seconds) if k == kind]

    def at_reference(self, kind: str) -> float:
        """Median seconds of the ``kind`` calls at the reference pace.  Warm
        calls share one process, so their median is scaled by the median pace
        over all of them; each cold call ran in a process of its own and is
        scaled by its own pace first."""
        import pace
        picked = [(s, p) for k, s, p in zip(self.kinds, self.seconds, self.paces) if k == kind]
        if kind == COLD:
            return statistics.median(pace.scaled(s, p) for s, p in picked)
        return pace.scaled(statistics.median(s for s, _ in picked),
                           [x for _, p in picked for x in p])


def probe(args, cold: bool, calls: Calls) -> tuple[float, float]:
    """Set up (and with ``cold``, make one call) in a fresh interpreter.
    Returns the set-up seconds, raw and at the reference pace; the cold call
    goes into ``calls``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--problem-seed", str(args.problem_seed),
           "--probe", COLD if cold else "setup"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    out = json.loads(done.stdout.splitlines()[-1])
    if cold:
        calls.add(COLD, out["seconds"], out["pace"], out["sig"])
        calls.failures.extend(out["failures"])
    return out["setup_s"], out["setup_ref_s"]


def run_probe(args, workload, problem, setup_s: float, setup_ref_s: float) -> None:
    out = {"setup_s": setup_s, "setup_ref_s": setup_ref_s}
    if args.probe == COLD:
        calls = Calls()
        calls.run(COLD, workload.verify, problem, workload.options(args.seed))
        out.update(seconds=calls.seconds[0], pace=calls.paces[0], sig=calls.sigs[0],
                   failures=calls.failures)
    print(json.dumps(out))


def measure(args, workload, problem, calls: Calls) -> tuple[list, list]:
    """The in-process cold call; untraced, the set-up probes (the first ones
    also make a cold call, as many as fit in ``args.seconds`` at the cold
    call's pace); then warm calls for ``args.seconds``, at least one, traced
    when ``args.trace``.  Returns (probe set-up seconds as (raw, at the
    reference pace) pairs, per-layer samples)."""
    from tracing import Tracer
    opts = workload.options(args.seed)
    calls.run(COLD, workload.verify, problem, opts)
    if not args.trace:
        cold = min(SETUP_PROBES, int(args.seconds // calls.seconds[0]))
        setups = [probe(args, i < cold, calls) for i in range(SETUP_PROBES)]
        started = time.perf_counter()
        while not calls.of(WARM) or time.perf_counter() - started < args.seconds:
            calls.run(WARM, workload.verify, problem, opts)
        return setups, []
    layer_samples = []
    started = time.perf_counter()
    with Tracer() as tracer:
        while not layer_samples or time.perf_counter() - started < args.seconds:
            verdict = calls.run(WARM, lambda *a: tracer.call(workload.verify, *a),
                                problem, opts, paced=False)
            if verdict is None:
                break
            missing = tracer.missing(workload.layers)
            if missing:
                sys.exit(f"error: traced layers recorded no call on {workload.name}: "
                         f"{', '.join(missing)}")
            layer_samples.append(tracer.metrics(verdict))
    return [], layer_samples


def judge(calls: Calls, problem, workload, seed):
    """Which calls pass.  The most common signature is the run's verdict;
    calls that raised or disagree with it fail, and all fail if that verdict
    fails the full-order cross-check.  Returns (verdict signature or None,
    per-call pass flags)."""
    from crosscheck import check_verdict
    sigs = list(calls.sigs)
    for i, sig in enumerate(sigs):
        if sig is not None and not math.isfinite(sig[2]):
            calls.failures.append(f"no bound logged at k_final={sig[1]}")
            sigs[i] = None
    valid = [sig for sig in sigs if sig is not None]
    if not valid:
        return None, [False] * len(sigs)
    ref = max(valid, key=lambda sig: sum(_agree(sig, other) for other in valid))
    ok = [sig is not None and _agree(sig, ref) for sig in sigs]
    calls.failures.extend(f"call disagrees with the run: {sig} vs {ref}"
                          for sig in valid if not _agree(sig, ref))
    verdict = next((v for v, good in zip(calls.verdicts, ok) if good and v is not None), None)
    reasons = ["no in-process call reached the run's verdict"] if verdict is None \
        else check_verdict(problem, verdict, seed)
    if reasons:
        calls.failures.extend(reasons)
        ok = [False] * len(sigs)
    if ref[:2] != workload.reference:
        print(f"note: verdict {ref[0]} at k={ref[1]} differs from the reference "
              f"{workload.reference} of problem seed 7", file=sys.stderr)
    return ref, ok


def _agree(a, b) -> bool:
    return a[:2] == b[:2] and math.isclose(a[2], b[2], rel_tol=AGREE_REL)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "redsafe" / "__init__.py").is_file():
        print(f"error: no redsafe sources under {SRC}", file=sys.stderr)
        return 2
    workload, problem, setup_s, setup_ref_s = set_up(args)
    if args.probe:
        run_probe(args, workload, problem, setup_s, setup_ref_s)
        return 0
    calls = Calls()
    probe_setups, layer_samples = measure(args, workload, problem, calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref, ok = judge(calls, problem, workload, args.seed)
    for text in calls.failures:
        print(text, file=sys.stderr)

    from tracing import median_metrics
    attempted = len(ok)
    failed = attempted - sum(ok)
    setups = [setup_s] + [raw for raw, _ in probe_setups]
    setups_ref = [setup_ref_s] + [ref for _, ref in probe_setups]
    cold, warm = calls.of(COLD), calls.of(WARM)
    info = {"workload": workload.name, "seed": args.seed, "problem_seed": args.problem_seed,
            "trace": args.trace, "verdict": ref and ref[0], "k_final": ref and ref[1],
            "delta_final": ref and ref[2], "fail_ratio": failed / attempted,
            "cold_s": cold, "warm_s": warm, "setup_s": setups,
            "warm_pace_s": statistics.median(x for k, p in zip(calls.kinds, calls.paces)
                                             if k == WARM for x in p) if not args.trace else None,
            "samples": {"verify_s": len(warm), "cold_verify_s": len(cold),
                        "setup_s": len(setups), "traced_calls": len(layer_samples)},
            "env": environment()}
    if args.trace:
        values = median_metrics(layer_samples) if layer_samples else {}
    else:
        values = {"verify_s": calls.at_reference(WARM),
                  "cold_verify_s": calls.at_reference(COLD),
                  "setup_s": statistics.median(setups_ref), "peak_rss_mb": peak_rss_mb,
                  "k_final": ref[1] if ref else 0, "delta_final": ref[2] if ref else 0.0,
                  "pass_ratio": 1.0 - failed / attempted}
    units = {m["name"]: m["unit"]
             for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
    if values and set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are not both measured "
              "and listed in BENCHMARK.json", file=sys.stderr)
        return 3
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items() if name in values}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
