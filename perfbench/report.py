"""Print every benchmark metric with its unit and sample count.

    python3 perfbench/report.py [--seed 7] [--seconds 20] [--workload NAME ...]

Runs ``run.py`` on each workload twice, untraced (end-to-end metrics) and
traced (per-layer metrics), each in a fresh interpreter.  Both runs include
the full-order cross-check.  Prints the tracing overhead (traced minus
untraced median wall time of the warm calls) and, for the sweep and the
motor, the per-order layer times next to the baseline table of ROADMAP.md.
Exits 1 if any run fails its correctness check.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]

#: ROADMAP.md "Baseline" (default BLAS threading, 2-vCPU VM): seconds per
#: order k = 5/10/20/40 on the n=150 problem, and the motor split per call.
ROADMAP_SWEEP = {
    "e1 theorem2": ("bounds.e1_optimization", (1.7, 1.6, 2.0, 3.0)),
    "e1 simulation": ("bounds.e1_simulation", (0.8, 0.8, 0.8, 0.8)),
    "e2 plain+split": ("bounds.e2_simulation", (1.3, 1.4, 1.5, 2.0)),
    "reach": ("reach.reach_lti", (0.4, 0.6, 2.8, 7.1)),
}
ROADMAP_MOTOR = {"verify_pss total": ("verifier.traced_verify_s", 3.4),
                 "e2_simulation": ("bounds.e2_simulation.s", 1.65),
                 "reach_lti": ("reach.reach_lti.s", 0.89),
                 "check_spec": ("reach.check_spec.s", 0.47)}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workload", action="append",
                    help="default: the workloads of BENCHMARK.json; run.py lists the others")
    args = ap.parse_args(argv)
    all_ok = True
    env_shown = False
    for name in args.workload or WORKLOADS:
        info, plain = run(name, args.seed, args.seconds, 0)
        tinfo, traced = run(name, args.seed, args.seconds, 1)
        if not env_shown:
            print("environment:", json.dumps(info["env"]))
            env_shown = True
        ok = plain["correct"] and traced["correct"]
        all_ok &= ok
        print(f"\n== {name} (seed {args.seed}): {info['verdict']} k_final={info['k_final']} "
              f"delta_final={info['delta_final']:.6g}  correct={ok}  "
              f"fail_ratio={plain['failed']}/{plain['attempted']} untraced, "
              f"{traced['failed']}/{traced['attempted']} traced")
        samples = info["samples"]
        for metric, m in plain["metrics"].items():
            count = samples.get(metric, 1)
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']:<6} n={count}")
        print(f"  per layer, median of {tinfo['samples']['traced_calls']} traced call(s):")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
        # traced calls are not paced, so both sides are raw wall medians
        overhead = traced["metrics"]["verifier.traced_verify_s"]["value"] \
            - statistics.median(info["warm_s"])
        print(f"  {'tracing overhead':<34} {overhead:>14.6g} s      "
              "(traced minus untraced wall median)")
        layers = traced["metrics"]
        if name == "lti_n150_ksweep":
            print("  ROADMAP baseline vs this run, seconds at k = 5 / 10 / 20 / 40:")
            for label, (span, base) in ROADMAP_SWEEP.items():
                now = [layers[f"{span}.k{k}_s"]["value"] for k in (5, 10, 20, 40)]
                print(f"    {label:<16} ROADMAP {' / '.join(f'{v:.2f}' for v in base)}"
                      f"   here {' / '.join(f'{v:.2f}' for v in now)}")
        elif name == "motor_pss":
            print("  ROADMAP baseline vs this run, seconds per call:")
            for label, (metric, base) in ROADMAP_MOTOR.items():
                print(f"    {label:<16} ROADMAP {base:.2f}   here {layers[metric]['value']:.2f}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
