"""Timed part of one benchmark run, in a process of its own so that its peak
memory is the workload's alone. run.py prepares the inputs, starts this with
PYTHONPATH pointing at the checkout's src/, and checks what it writes.

    runner.py --workload W --seconds S --trace 0|1 --work DIR --out FILE

With --trace 0 it repeats the workload's operation for S seconds, with the
host's reference time beside each (hostspeed.py); all but corpus-8 run on
one CPU. With
--trace 1 it does that for S/2 seconds, then repeats the operation with the
tracer installed for S/2 more; per-layer figures come from the traced part
and the difference between the two parts' host-normalized median operation
times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S, reference_s, sampled_reference
from tracing import Tracer, layer_metrics, load_spans

HERE = Path(__file__).resolve().parent
GEN7_ARGS = ["verify", "--gen", "7", "--format", "records", "--jobs", "1"]
CORPUS8_JOBS = 2


def _gen7_op(work: Path, traced: bool) -> dict:
    if traced:
        cmd = [sys.executable, str(HERE / "trace_cli.py"), str(work / "spans"), *GEN7_ARGS]
    else:
        cmd = [sys.executable, "-m", "locdim.cli", *GEN7_ARGS]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "code": proc.returncode,
        "lines": proc.stdout.count(b"\n"),
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "stderr": proc.stderr.decode(errors="replace")[-2000:],
    }


def _corpus8_op(work: Path, traced: bool) -> dict:
    # looked up per call, so the tracer's replacements are the ones called
    from locdim import enumeration, verify

    start = time.perf_counter()
    corpus = enumeration.read_corpus(work / "corpus8.g6", strict=True)
    report = verify.run_suite(corpus.graphs, jobs=CORPUS8_JOBS, source="corpus-8")
    records = report.to_records()
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "ok": report.ok,
        "graphs": report.graph_count,
        "ids": len({rep.graph_id for rep in report.reports}),
        "sha256": hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest(),
    }


def _dense_op(graphs: list, mode: str) -> dict:
    """One pass over the batch; each solve is bracketed by reference times,
    the one after it shared with the next solve."""
    from locdim import dimension

    solve = dimension.local_metric_dimension if mode == "local" else dimension.metric_dimension
    cpus = os.sched_getaffinity(0)
    solves = []
    start = time.perf_counter()
    before = reference_s(cpus)
    for g in graphs:
        t0 = time.perf_counter()
        try:
            r = solve(g)
        except Exception as exc:  # a raised solve is a failed operation, reported to run.py
            solves.append({"error": repr(exc)})
            continue
        elapsed = time.perf_counter() - t0
        after = reference_s(cpus)
        solves.append({
            "s": elapsed,
            "ref": (before + after) / 2,
            "value": r.value,
            "witness": list(r.witness),
            "best": r.bounds.best,
        })
        before = after
    refs = [s["ref"] for s in solves if "ref" in s]
    return {"wall": time.perf_counter() - start, "solves": solves,
            "ref": statistics.median(refs) if refs else before}


def _operation(workload: str, work: Path):
    if workload == "gen-7":
        return lambda traced: _gen7_op(work, traced)
    if workload == "corpus-8":
        return lambda traced: _corpus8_op(work, traced)
    from locdim import build

    batch = json.loads((work / "dense.json").read_text())
    graphs = [build(inst["n"], [tuple(e) for e in inst["edges"]]) for inst in batch]
    mode = workload.split("-", 1)[1]
    return lambda traced: _dense_op(graphs, mode)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def _repeat(op, seconds: float, traced: bool, sampled: bool) -> list[dict]:
    """Operations for `seconds`, each with "ref", the host's reference time
    while it ran. With `sampled` (operations that run in other processes),
    a sampler process beside them provides it; otherwise the operation
    brackets its own steps."""
    sampler = None
    if sampled:
        sampler = subprocess.Popen([sys.executable, str(HERE / "hostspeed.py")],
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ops = []
    try:
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            try:
                result = op(traced)
            except Exception as exc:  # reported to run.py as a failed operation
                result = {"error": repr(exc)}
            result["span"] = (t0, time.perf_counter())
            if not ops:
                result["peak_rss_mb"] = _peak_rss_mb()
            ops.append(result)
    finally:
        out = sampler.communicate("")[0] if sampler else ""
    samples = [(float(t), int(cpu), float(used)) for t, cpu, used in map(str.split, out.splitlines())]
    for result in ops:
        span = result.pop("span")
        if sampler:
            result["ref"] = sampled_reference(samples, *span)
    return ops


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    from locdim import kernels

    if args.workload != "corpus-8":
        # one process at a time: keep it, and its children, on one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    op = _operation(args.workload, args.work)
    out: dict = {"backend": kernels.BACKEND}
    sampled = args.workload in ("gen-7", "corpus-8")
    if not args.trace:
        out["ops"] = _repeat(op, args.seconds, False, sampled)
        # through the first operation: later ones add allocator drift, and
        # how many fit in the time depends on the host
        out["peak_rss_mb"] = out["ops"][0]["peak_rss_mb"]
    else:
        plain = _repeat(op, args.seconds / 2, False, sampled)
        tracer = Tracer(args.work / "spans")
        if args.workload != "gen-7":  # gen-7 traces inside each CLI process
            tracer.install()
        try:
            traced = _repeat(op, args.seconds / 2, True, sampled)
        finally:
            tracer.uninstall()
        tracer.dump()
        cli_walls = [o["wall"] for o in traced if "wall" in o] if args.workload == "gen-7" else None
        layers = layer_metrics(load_spans(args.work / "spans"), len(traced), cli_walls)
        walls = [o["wall"] * REFERENCE_S / o["ref"] for o in traced if "wall" in o]
        plain_walls = [o["wall"] * REFERENCE_S / o["ref"] for o in plain if "wall" in o]
        layers["trace.overhead_s"] = (
            statistics.median(walls) - statistics.median(plain_walls) if walls and plain_walls else 0.0
        )
        out["ops"] = plain + traced
        out["layers"] = layers
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
