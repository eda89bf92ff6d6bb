"""Rebuild the golden JSON files of ``test_json_matches_golden`` and report
how far each moved.

    PYTHONPATH=src python tests/regenerate_golden.py [--dry-run] [NAME ...]

Each NAME (every case by default) is a key of ``test_cli.GOLDEN_CASES``,
the table the test reads; its command runs in this process and its JSON
replaces ``tests/golden/NAME.json``.  Per file one line reports how many
floats moved, how many by more than the test's 1e-12 relative tolerance,
the largest relative move, and any change that is not a float's value
(a key, a length, a string, an integer).  ``--dry-run`` reports without
writing.
"""

import argparse
import json
import math
import sys
import tempfile

from test_cli import GOLDEN, GOLDEN_CASES, golden_output


def moves(old, new, where="$"):
    """The relative moves of the floats that ``old`` and ``new`` share at
    one place, and the places where they differ in anything else."""
    if isinstance(old, float) and isinstance(new, float):
        if old == new:
            return [0.0], []
        return [abs(new - old) / abs(old) if old else math.inf], []
    if isinstance(old, dict) and isinstance(new, dict) and list(old) == list(new):
        items = [(old[key], new[key], f"{where}.{key}") for key in old]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        items = [(a, b, f"{where}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    else:
        return [], [] if type(old) is type(new) and old == new else [where]
    floats, other = [], []
    for a, b, at in items:
        f, o = moves(a, b, at)
        floats += f
        other += o
    return floats, other


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"golden cases to rebuild (default: all of {sorted(GOLDEN_CASES)})")
    parser.add_argument("--dry-run", action="store_true", help="report without writing")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(GOLDEN_CASES))
    if unknown:
        parser.error(f"no golden case {', '.join(unknown)}")
    for name in args.names or sorted(GOLDEN_CASES):
        path = GOLDEN / f"{name}.json"
        with tempfile.TemporaryDirectory() as workdir:
            new = golden_output(name, workdir)
        floats, other = moves(json.loads(path.read_text()), new)
        moved = [r for r in floats if r > 0.0]
        print(f"{name}: {len(moved)} of {len(floats)} floats moved, "
              f"{sum(r > 1e-12 for r in moved)} by more than 1e-12, largest relative move "
              f"{max(moved, default=0.0):.3g}; other changes: {', '.join(other) or 'none'}")
        if not args.dry_run:
            path.write_text(json.dumps(new, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
