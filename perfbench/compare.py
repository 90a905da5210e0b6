"""Compare two benchmark result files metric by metric.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Result files are the records run.py writes to .bench_work/results/. The
comparison is refused (exit code 1) when the two were measured with a
different solver backend or BLAS thread count, or on different workloads,
because either changes the solver's speed by an order of magnitude.
"""

import json
import sys

MUST_MATCH = ("backend", "blas_threads")


def compare(base, new):
    """Lines comparing `new` against `base`; raises ValueError when the two
    results are not comparable."""
    if base["workload"] != new["workload"]:
        raise ValueError(f"workloads differ: {base['workload']} vs {new['workload']}")
    for key in MUST_MATCH:
        if base["env"][key] != new["env"][key]:
            raise ValueError(f"{key} differs: {base['env'][key]} vs {new['env'][key]}")
    lines = []
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            lines.append(f"{name}: missing in the new result")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        lines.append(f"{name}: {b['value']:.6g} -> {n['value']:.6g} {b['unit']} (x{ratio:.3f})")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    try:
        lines = compare(base, new)
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
