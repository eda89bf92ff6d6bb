"""Command-line frontend.

Subcommands: reduce | bounds | transform-spec | reach | verify | verify-pss |
bench | gen.  Exit codes: 0 = Safe (or plain success), 1 = Unsafe,
2 = Indeterminate, 3 = usage or input error, 4 = internal numeric failure.
Outputs are pure functions of (manifest bytes, flags, seed); wall times are
zeroed unless --timing is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .balancing import balance, hankel_singular_values, truncate
from .benchmarks import MOTOR_MANIFEST
from .generate import random_problem
from .model import (LtiSystem, ManifestError, ModelError, PssSystem,
                    VerificationProblem, numbers, parse_problem, serialize_problem,
                    spec_to_json, parse_spec_json)
from .reach import STEP_LH, default_step, reach_lti
from .spectransform import TransformedSpec, transform_spec
from .verifier import (VerifyOptions, bound_candidates, problem_modes, verify,
                       verify_pss)

EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags, which collides with Indeterminate
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(doc, args, text_renderer=None, csv_renderer=None) -> None:
    fmt = args.format
    if fmt == "json":
        payload = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        if csv_renderer is None:
            raise ModelError("--format csv is not supported for this subcommand")
        payload = csv_renderer(doc)
    else:
        payload = text_renderer(doc) if text_renderer else json.dumps(doc, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)


def _options_from(args) -> VerifyOptions:
    kwargs = {}
    for name in ("k0", "k_max", "step_lh",
                 "witness_budget", "seed", "time_budget"):
        val = getattr(args, name, None)
        if val is not None:
            kwargs[name] = val
    if getattr(args, "e1", None):
        kwargs["e1_methods"] = tuple(dict.fromkeys(args.e1))
    if getattr(args, "e2", None):
        kwargs["e2_methods"] = tuple(dict.fromkeys(args.e2))
    if getattr(args, "geometric", False):
        kwargs["geometric_schedule"] = True
    return VerifyOptions(**kwargs)


def _ts(ts: TransformedSpec) -> dict:
    doc = {"delta_used": ts.delta_used.tolist(),
           "Delta": ts.Delta.tolist() if isinstance(ts.Delta, np.ndarray) else ts.Delta,
           "safe_region": spec_to_json((ts.safe_region,)) if ts.safe_region else None,
           "unsafe_region": spec_to_json((ts.unsafe_region,)),
           "witness_region": spec_to_json((ts.witness_region,)) if ts.witness_region else None}
    if ts.basis is not None:
        doc["eigenbasis_rows"] = ts.basis.tolist()
    return doc


# --------------------------------------------------------------------------
# Subcommands.
# --------------------------------------------------------------------------

def cmd_reduce(args) -> int:
    problem = parse_problem(args.manifest)
    doc = {"format_version": 1, "name": problem.name}
    pss = isinstance(problem.system, PssSystem)
    systems = problem.system.modes if pss else (problem.system,)
    if args.k is None:
        hsv = [hankel_singular_values(s).tolist() for s in systems]
    else:
        # balance() yields the very Hankel values of hankel_singular_values,
        # so each system's Lyapunov equations are solved once
        bals = [balance(s) for s in systems]
        hsv = [bal.sigma.tolist() for bal in bals]
    doc["hsv"] = hsv if pss else hsv[0]
    if args.k is not None:
        if pss:
            abstractions = [truncate(bal, args.k, box) for bal, box
                            in zip(bals, problem.system.mode_initial_sets)]
            reduced = VerificationProblem(
                system=PssSystem(tuple(a.reduced for a in abstractions),
                                 tuple(problem.system.durations),
                                 tuple(a.x0_reduced for a in abstractions)),
                x0=None, inputs=problem.inputs, spec=problem.spec,
                t_f=problem.t_f, name=problem.name + f"-k{args.k}")
        else:
            abstraction = truncate(bals[0], args.k, problem.x0)
            reduced = VerificationProblem(
                system=abstraction.reduced, x0=abstraction.x0_reduced,
                inputs=problem.inputs, spec=problem.spec, t_f=problem.t_f,
                name=problem.name + f"-k{args.k}")
        doc["reduced_manifest"] = str(serialize_problem(
            reduced, args.reduced or _default_reduced_path(args)))

    def text(d):
        lines = [f"name: {d['name']}"]
        hsv = d["hsv"]
        rows = hsv if hsv and isinstance(hsv[0], list) else [hsv]
        for i, sig in enumerate(rows):
            label = f"mode {i} " if len(rows) > 1 else ""
            lines.append(label + "hsv: " + "  ".join(f"{s:.6e}" for s in sig))
        if "reduced_manifest" in d:
            lines.append(f"reduced manifest: {d['reduced_manifest']}")
        return "\n".join(lines) + "\n"

    _emit(doc, args, text)
    return 0


def _default_reduced_path(args) -> Path:
    src = Path(args.manifest)
    return src.with_name(f"{src.stem}_k{args.k}.json")


def _bound_tables(problem: VerificationProblem, ks, method_sets):
    """(system name, k, label, seconds, :func:`bound_candidates` result) for
    each mode of the problem, each order in ``ks`` and each (label,
    VerifyOptions) pair of ``method_sets``; each mode is balanced once."""
    for mode, sys_, x0, horizon in problem_modes(problem):
        name = problem.name + (f"[{mode}]" if mode else "")
        bal = balance(sys_)
        full = bnd.FullOrderResponse.of(bal, x0, horizon)
        for k in ks:
            for label, opts in method_sets:
                t0 = time.perf_counter()
                result = bound_candidates(bal, full, k, problem.inputs, opts)
                yield name, k, label, time.perf_counter() - t0, result


def cmd_bounds(args) -> int:
    problem = parse_problem(args.manifest)
    ks = [args.k] if args.k is not None else \
        list(range(problem.system.p + 1, problem.system.n + 1))
    rows = []
    for name, k, _, dt, (e1s, e2s, bound, notes) in _bound_tables(
            problem, ks, [(None, _options_from(args))]):
        dt = dt if args.timing else 0.0
        rows += [_bound_row(name, k, method, dt, e1=e1) for method, e1 in e1s.items()]
        rows += [_bound_row(name, k, method, dt, e2=e2) for method, e2 in e2s.items()]
        if bound is not None:
            rows.append(_bound_row(name, k, "min", dt, bound.e1, bound.e2, bound.delta))
        for note in notes:
            print(f"note: k={k} {note}", file=sys.stderr)
    doc = {"format_version": 1, "rows": rows}
    _emit(doc, args, _bounds_text, _bounds_csv)
    return 0


def _bound_row(system: str, k: int, method: str, dt: float,
               e1=None, e2=None, delta=None) -> dict:
    """One row of a bound table; a column the row does not fill is null."""
    row = {"system": system, "k": k, "method": method}
    row.update((name, None if v is None else v.tolist())
               for name, v in (("e1", e1), ("e2", e2), ("delta", delta)))
    row["time_s"] = round(dt, 6)
    return row


def _fmt_vec(v) -> str:
    if v is None:
        return "-"
    return "[" + " ".join(f"{x:.4e}" for x in v) + "]"


def _bounds_text(doc) -> str:
    header = f"{'system':<28} {'k':>3} {'method':<12} {'e1':<26} {'e2':<26} {'delta':<26} {'t(s)':>8}"
    lines = [header, "-" * len(header)]
    for r in doc["rows"]:
        lines.append(f"{r['system']:<28} {r['k']:>3} {r['method']:<12} "
                     f"{_fmt_vec(r['e1']):<26} {_fmt_vec(r['e2']):<26} "
                     f"{_fmt_vec(r['delta']):<26} {r['time_s']:>8.3f}")
    return "\n".join(lines) + "\n"


def _bounds_csv(doc) -> str:
    lines = ["system,k,method,output,e1,e2,delta,time_s"]
    for r in doc["rows"]:
        cols = [r["e1"], r["e2"], r["delta"]]
        outputs = len(next(c for c in cols if c is not None))
        for i in range(outputs):
            vals = ",".join("" if c is None else str(c[i]) for c in cols)
            lines.append(f"{r['system']},{r['k']},{r['method']},{i},{vals},{r['time_s']}")
    return "\n".join(lines) + "\n"


def cmd_transform_spec(args) -> int:
    path = Path(args.spec_json)
    if not path.is_file():
        raise ManifestError(f"transform-spec input not found: {path}")
    try:
        doc_in = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"transform-spec input is not valid JSON: {exc}") from exc
    if not isinstance(doc_in, dict) or "spec" not in doc_in or "delta" not in doc_in:
        raise ManifestError("transform-spec input needs 'spec' and 'delta' fields")
    specs = parse_spec_json(doc_in["spec"])
    delta = doc_in["delta"]
    per_mode = isinstance(delta, list) and bool(delta) and isinstance(delta[0], list)
    transformed = [[_ts(transform_spec(s, numbers(d, "delta"))) for s in specs]
                   for d in (delta if per_mode else [delta])]
    doc = ({"format_version": 1, "per_mode": transformed} if per_mode
           else {"format_version": 1, "transformed": transformed[0]})
    _emit(doc, args, None)
    return 0


def cmd_reach(args) -> int:
    problem = parse_problem(args.manifest)
    if not isinstance(problem.system, LtiSystem):
        raise ManifestError("reach expects an LTI manifest (reduce a PSS per mode first)")
    sys_ = problem.system
    step_h = args.step_h if args.step_h is not None else default_step(
        problem.t_f, sys_.A, lh=args.step_lh)
    steps = list(reach_lti(sys_, problem.x0, problem.inputs, problem.t_f, step_h))
    # the even step that tiles the horizon, at most the step asked for
    doc = {"format_version": 1, "name": problem.name, "step_h": problem.t_f / len(steps),
           "steps": [{"t0": s.t0, "t1": s.t1,
                      "center": s.outputs.center.tolist(),
                      "generators": s.outputs.generators.tolist()} for s in steps]}

    def csv(d):
        p = len(d["steps"][0]["center"]) if d["steps"] else 0
        cols = ",".join(f"y{i}_lo,y{i}_hi" for i in range(p))
        lines = [f"t0,t1,{cols}"]
        for s in steps:
            hull = s.outputs.interval_hull()
            vals = ",".join(f"{lo},{hi}" for lo, hi in zip(hull.lb, hull.ub))
            lines.append(f"{s.t0},{s.t1},{vals}")
        return "\n".join(lines) + "\n"

    def text(d):
        lines = [f"name: {d['name']}  steps: {len(d['steps'])}  step_h: {d['step_h']:.3e}"]
        for s in steps:
            hull = s.outputs.interval_hull()
            rng = "  ".join(f"[{lo:.4e}, {hi:.4e}]" for lo, hi in zip(hull.lb, hull.ub))
            lines.append(f"t in [{s.t0:.4f}, {s.t1:.4f}]  y in {rng}")
        return "\n".join(lines) + "\n"

    _emit(doc, args, text, csv)
    return 0


def _verdict_doc(verdict) -> dict:
    doc = {"format_version": 1, "outcome": verdict.outcome, "k_used": verdict.k_used,
           "delta_used": verdict.delta_used.tolist() if verdict.delta_used is not None else None,
           "per_k_log": [{"k": e.k, "bounds": e.bounds, "outcome": e.outcome,
                          "seconds": e.seconds, "notes": list(e.notes)}
                         for e in verdict.per_k_log]}
    if verdict.delta is not None:
        doc["delta"] = [{"e1": b.e1.tolist(), "e2": b.e2.tolist(), "delta": b.delta.tolist(),
                         "e1_method": list(b.e1_method), "e2_method": list(b.e2_method)}
                        for b in verdict.delta]
    if verdict.witness is not None:
        w = verdict.witness
        doc["witness"] = {"init_state": w.init_state.tolist(), "margin": w.margin,
                          "predicate_index": w.predicate_index,
                          "time": float(w.times[w.sample_index]),
                          "output": w.outputs[w.sample_index].tolist()}
    return doc


def _verdict_text(doc) -> str:
    lines = [f"outcome: {doc['outcome']}"]
    if doc.get("k_used") is not None:
        lines.append(f"k used: {doc['k_used']}")
    if doc.get("delta_used") is not None:
        lines.append(f"delta used: {_fmt_vec(doc['delta_used'])}")
    if "witness" in doc:
        w = doc["witness"]
        lines.append(f"witness at t={w['time']:.6g} with margin {w['margin']:.3e}")
    for e in doc["per_k_log"]:
        note = ("  " + "; ".join(e["notes"])) if e["notes"] else ""
        lines.append(f"  k={e['k']}: {e['outcome']}{note}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    """``verify`` and ``verify-pss``; the subparser sets the entry point."""
    problem = parse_problem(args.manifest)
    verdict = args.entry(problem, _options_from(args))
    doc = _verdict_doc(verdict)
    if not args.timing:
        for e in doc["per_k_log"]:
            e["seconds"] = 0.0
    _emit(doc, args, _verdict_text)
    return verdict.exit_code


def cmd_bench(args) -> int:
    method_sets = {
        "theoretical": VerifyOptions(e1_methods=(bnd.E1_THEOREM1,),
                                     e2_methods=(bnd.E2_THEOREM3,)),
        "mixed": VerifyOptions(e1_methods=(bnd.E1_THEOREM2,),
                               e2_methods=(bnd.SIMULATION,)),
    }
    manifests = [MOTOR_MANIFEST] + [Path(x) for x in (args.extra or [])]
    rows = []
    for mpath in manifests:
        if not Path(mpath).is_file():
            print(f"notice: benchmark manifest {mpath} not found, skipped", file=sys.stderr)
            continue
        problem = parse_problem(mpath)
        ks = [k for k in args.ks or [4, 5] if problem.system.p < k <= problem.system.n]
        for name, k, label, dt, (_, _, bound, _) in _bound_tables(problem, ks,
                                                                  method_sets.items()):
            if bound is not None:
                rows.append(_bound_row(name, k, label, dt if args.timing else 0.0,
                                       bound.e1, bound.e2, bound.delta))
    doc = {"format_version": 1, "rows": rows}
    _emit(doc, args, _bounds_text, _bounds_csv)
    return 0


def cmd_gen(args) -> int:
    problem = random_problem(args.seed, args.n, args.m, args.p,
                             free_dims=args.free_dims, spec_scale=args.spec_scale)
    out = Path(args.output or f"random_n{args.n}_seed{args.seed}.json")
    serialize_problem(problem, out)
    doc = {"format_version": 1, "manifest": str(out), "n": args.n, "m": args.m,
           "p": args.p, "seed": args.seed}
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


# --------------------------------------------------------------------------
# Parser assembly.
# --------------------------------------------------------------------------

#: How --step-lh sets the default step (:func:`reach.default_step`).
_STEP_LH_RULE = ("the step is min(t_f/200, step_lh/||A||), so this can make it finer "
                 "but never coarser than t_f/200")


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only nonnegative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


def _add_common(sp, manifest=True):
    if manifest:
        sp.add_argument("manifest", help="path to a problem manifest (JSON)")
    sp.add_argument("--seed", type=_seed, default=0,
                    help="seed for randomized steps (a nonnegative integer)")
    sp.add_argument("--output", help="write the result to this file instead of stdout")
    sp.add_argument("--format", choices=("json", "text", "csv"), default="text",
                    help="output rendering (default text; csv only for "
                         "bounds, reach and bench)")
    sp.add_argument("--timing", action="store_true",
                    help="include measured wall times (breaks byte-for-byte determinism)")


def _add_bound_opts(sp):
    """Flags that choose the error-bound methods."""
    sp.add_argument("--e1", action="append", choices=bnd.E1_METHODS,
                    help="enable a zero-input bound method (repeatable)")
    sp.add_argument("--e2", action="append", choices=bnd.E2_METHODS,
                    help="enable a zero-state bound method (repeatable)")


def _add_verify_opts(sp):
    """Bound flags plus the flags of the k-loop, its reach and witness search."""
    _add_bound_opts(sp)
    sp.add_argument("--k0", type=int, help="initial abstraction order (default p+1)")
    sp.add_argument("--k-max", dest="k_max", type=int, help="largest order to try (default n)")
    sp.add_argument("--step-lh", dest="step_lh", type=float,
                    help=f"reach and witness step control ||A||*h (default {STEP_LH}); "
                         + _STEP_LH_RULE)
    sp.add_argument("--witness-budget", dest="witness_budget", type=int,
                    help="max candidate trajectories in the witness search")
    sp.add_argument("--time-budget", dest="time_budget", type=float,
                    help="wall-clock budget in seconds; overrun yields Indeterminate")
    sp.add_argument("--geometric", action="store_true",
                    help="grow k geometrically instead of by 1")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="redsafe",
                     description="Safety verification of high-dimensional linear systems "
                                 "via balanced-truncation output abstractions")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("reduce", parents=[], help="balance, report Hankel values, "
                        "and optionally write a reduced-order manifest")
    _add_common(sp)
    sp.add_argument("-k", type=int, help="truncation order (omit for Hankel values only)")
    sp.add_argument("--reduced", help="path of the reduced manifest")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("bounds", help="error bounds per method at one or all orders")
    _add_common(sp)
    _add_bound_opts(sp)
    sp.add_argument("-k", type=int, help="abstraction order (default: all valid orders)")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("transform-spec", help="transform a spec with a given delta")
    sp.add_argument("spec_json", help="JSON file with 'spec' and 'delta' fields "
                    "(delta may be a per-mode list of vectors)")
    _add_common(sp, manifest=False)
    sp.set_defaults(func=cmd_transform_spec)

    sp = sub.add_parser("reach", help="output reach step sets of an LTI manifest")
    _add_common(sp)
    sp.add_argument("--step-h", dest="step_h", type=float,
                    help="largest step; the horizon is tiled by equal steps of at most this")
    sp.add_argument("--step-lh", dest="step_lh", type=float, default=STEP_LH,
                    help=f"step control ||A||*h (default {STEP_LH}) when --step-h is "
                         "not given; " + _STEP_LH_RULE)
    sp.set_defaults(func=cmd_reach)

    sp = sub.add_parser("verify", help="run the verification semi-algorithm (LTI)")
    _add_common(sp)
    _add_verify_opts(sp)
    sp.set_defaults(func=cmd_verify, entry=verify)

    sp = sub.add_parser("verify-pss", help="run the verification semi-algorithm (PSS)")
    _add_common(sp)
    _add_verify_opts(sp)
    sp.set_defaults(func=cmd_verify, entry=verify_pss)

    sp = sub.add_parser("bench", help="bound tables for the bundled motor benchmark "
                        "plus any user-supplied manifests")
    _add_common(sp, manifest=False)
    sp.add_argument("--extra", nargs="*", help="additional benchmark manifests "
                    "(e.g. SLICOT models wrapped in a manifest); missing files are skipped")
    sp.add_argument("--ks", type=int, nargs="*", help="orders to tabulate (default 4 5)")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("gen", help="generate a random stable test instance")
    _add_common(sp, manifest=False)
    sp.add_argument("-n", type=int, required=True, help="state dimension")
    sp.add_argument("-m", type=int, default=1, help="input count")
    sp.add_argument("-p", type=int, default=1, help="output count")
    sp.add_argument("--free-dims", dest="free_dims", type=int,
                    help="number of non-degenerate initial-box coordinates")
    sp.add_argument("--spec-scale", dest="spec_scale", type=float, default=3.0,
                    help="safe-box size relative to the estimated output range")
    sp.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, ModelError) as exc:
        print(f"redsafe: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # numeric failures, solver breakdowns
        print(f"redsafe: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
