"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files holding the standard output of one or more runs
of run.py (a stamp line, then a result line, per run). For each workload
and metric it prints both medians and the change as a share of the base
median, flagging a change worse than the bound in BENCHMARK.json. It
refuses, with exit code 2, results whose kernel backends differ: pure and
compiled kernels are 10-74x apart, which is no change's gain.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[set[str], dict]:
    """(backends, {workload: {metric: [values]}}) from one results file."""
    backends: set[str] = set()
    values: dict = defaultdict(lambda: defaultdict(list))
    stamp = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "stamp" in obj:
            stamp = obj["stamp"]
            backends.add(stamp["backend"])
        elif "metrics" in obj and stamp is not None:
            for name, m in obj["metrics"].items():
                values[stamp["workload"]][name].append(m["value"])
            stamp = None
    return backends, values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    (base_be, base), (change_be, change) = load(argv[0]), load(argv[1])
    if len(base_be | change_be) != 1:
        print(f"error: refusing to compare backends {sorted(base_be)} with {sorted(change_be)}",
              file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    spec = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    for workload in sorted(base):
        for name, before in sorted(base[workload].items()):
            after = change.get(workload, {}).get(name)
            if not after or name not in spec:
                continue
            b, c = statistics.median(before), statistics.median(after)
            share = (c - b) / b if b else 0.0
            worse = share if spec[name]["better"] == "lower" else -share
            bound = spec[name].get("bound")
            flag = "WORSE" if bound is not None and worse > bound else ""
            print(f"{workload:<12} {name:<48} {b:>12.6g} {c:>12.6g} {share:>+8.1%} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
