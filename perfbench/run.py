"""locdim benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads:
  gen-7        `locdim verify --gen 7 --format records --jobs 1`, each in a
               fresh process, one client in a closed loop; the seed is unused.
  corpus-8     read_corpus -> run_suite(jobs=2) -> to_records over all 11117
               connected classes of order 8, relabeled and shuffled by the seed.
  dense-local  local_metric_dimension over the dense batch of inputs.py.
  dense-full   metric_dimension over the same batch.

Every timed output is checked; a wrong or raised output is a failed
operation. Times are host-normalized (hostspeed.py). The last stdout line
is the result JSON and the line before it the stamp: backend, Python,
nproc, seed, commit, sample counts and host speed factors. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. The package is imported from src/ of the
working directory; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from hostspeed import REFERENCE_S, reference_s  # noqa: E402
from stats import summarize  # noqa: E402

WORKLOADS = ("gen-7", "corpus-8", "dense-local", "dense-full")
SETUP_REPEATS = 7
RUNNER_TIMEOUT_S = 150

GEN7_GRAPHS = 853
GEN7_RECORDS = 9383
# sha256 of the whole stdout of `locdim verify --gen 7 --format records`
GEN7_SHA256 = "01d79503ff8a0f4747602e7b9c5c08835e82f02f9b96de87babb5a7e61d3d10b"
CORPUS8_GRAPHS = 11117
# sha256 of the sorted records joined by newlines; canonical ids make it seed-free
CORPUS8_SHA256 = "e8f4c58d960005708c540d6352c39994d898b9db2da8512a047d7c2ca3262580"

P3_EDGES = [(0, 1), (1, 2)]
SETUP_SNIPPETS = {
    "corpus-8": "import sys; from locdim import read_corpus, run_suite; "
                "run_suite(read_corpus(sys.argv[1], strict=True).graphs, jobs=2).to_records()",
    "dense-local": "from locdim import build, local_metric_dimension; "
                   f"local_metric_dimension(build(3, {P3_EDGES}))",
    "dense-full": "from locdim import build, metric_dimension; "
                  f"metric_dimension(build(3, {P3_EDGES}))",
}


class BenchError(Exception):
    """The run cannot measure: no result is printed and the exit code is 1."""


def _run(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:3]} did not finish within {timeout:.0f} s") from None
    finally:
        if proc.returncode is None:  # timed out or interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _setup_walls(workload: str, work: Path, env: dict) -> list[float]:
    """Normalized wall times of fresh interpreters each importing locdim and
    making one call of the workload's entry point on a 3-vertex path."""
    p3 = work / "p3.g6"
    if workload == "gen-7":
        cmd = [sys.executable, "-m", "locdim.cli", "verify", "--corpus", str(p3),
               "--format", "records", "--jobs", "1"]
    else:
        cmd = [sys.executable, "-c", SETUP_SNIPPETS[workload], str(p3)]
    saved = os.sched_getaffinity(0)
    cpu = {min(saved)}
    walls = []
    os.sched_setaffinity(0, cpu)  # the probes inherit it
    try:
        for _ in range(SETUP_REPEATS):
            before = reference_s(cpu)
            start = time.perf_counter()
            proc = _run(cmd, env, 60)
            wall = time.perf_counter() - start
            walls.append(wall * 2 * REFERENCE_S / (before + reference_s(cpu)))
            if proc.returncode != 0:
                raise BenchError(f"set-up call failed: {proc.stderr.decode(errors='replace')[-500:]}")
    finally:
        os.sched_setaffinity(0, saved)
    return walls


def _check_suite_ops(workload: str, ops: list[dict]) -> tuple[int, int, list[str]]:
    failed = 0
    reasons = []
    for o in ops:
        if "error" in o:
            bad = o["error"]
        elif workload == "gen-7":
            bad = (o["code"] != 0 and f"exit {o['code']}: {o['stderr']}"
                   or o["lines"] != GEN7_RECORDS and f"{o['lines']} records"
                   or o["sha256"] != GEN7_SHA256 and f"records digest {o['sha256']}")
        else:
            bad = (not o["ok"] and "suite reports violations"
                   or o["graphs"] != CORPUS8_GRAPHS and f"{o['graphs']} graphs"
                   or o["ids"] != CORPUS8_GRAPHS and f"{o['ids']} distinct graph ids"
                   or o["sha256"] != CORPUS8_SHA256 and f"records digest {o['sha256']}")
        if bad:
            failed += 1
            reasons.append(bad)
    return len(ops), failed, reasons


def _check_dense(mode: str, batch: list[dict], ops: list[dict]) -> tuple[int, int, list[str]]:
    """Every solve against the ILP optimum, computed once per instance."""
    from locdim import build

    attempted = failed = 0
    reasons = []
    for i, inst in enumerate(batch):
        g = build(inst["n"], [tuple(e) for e in inst["edges"]])
        expected = oracle.ilp_value(inst["n"], inst["edges"], mode)
        verdicts: dict[tuple, str | None] = {}
        for o in ops:
            solves = o.get("solves")
            attempted += 1
            if solves is None or "error" in solves[i]:
                bad = o.get("error") or solves[i]["error"]
            else:
                s = solves[i]
                key = (s["value"], tuple(s["witness"]), s["best"])
                if key not in verdicts:
                    verdicts[key] = oracle.check_solve(g, mode, *key, expected)
                bad = verdicts[key]
            if bad:
                failed += 1
                reasons.append(f"instance {i} (n={inst['n']}, p={inst['p']}): {bad}")
    return attempted, failed, reasons


def _e2e(workload: str, ops: list[dict], n_dense: int) -> tuple[dict, list[float]]:
    """(graphs_per_s, latency_s_p50) and the latency samples behind them, in
    host-normalized seconds."""
    if workload.startswith("dense"):
        # each instance's latency is the median of its repeated solves
        samples = []
        for i in range(n_dense):
            times = [o["solves"][i]["s"] * REFERENCE_S / o["solves"][i]["ref"]
                     for o in ops if "solves" in o and "s" in o["solves"][i]]
            if times:
                samples.append(statistics.median(times))
        if not samples:
            raise BenchError("no operation completed")
        per_s = len(samples) / sum(samples)
    else:
        samples = [o["wall"] * REFERENCE_S / o["ref"] for o in ops if "wall" in o]
        if not samples:
            raise BenchError("no operation completed")
        per_s = (GEN7_GRAPHS if workload == "gen-7" else CORPUS8_GRAPHS) / statistics.median(samples)
    return {"graphs_per_s": per_s, "latency_s_p50": statistics.median(samples)}, samples


def _measure(args, root: Path, work: Path, declared: dict) -> tuple[dict, dict]:
    sys.path.insert(0, str(root / "src"))
    import locdim
    from locdim import build, to_graph6

    if Path(locdim.__file__).resolve().parent != (root / "src" / "locdim").resolve():
        raise BenchError(f"locdim imported from {locdim.__file__}, not from {root / 'src'}")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    (work / "p3.g6").write_text(to_graph6(build(3, P3_EDGES)) + "\n")
    batch: list[dict] = []
    if args.workload == "corpus-8":
        (work / "corpus8.g6").write_text("".join(s + "\n" for s in inputs.corpus8_lines(args.seed)))
    elif args.workload.startswith("dense"):
        batch = inputs.dense_instances(args.seed)
        (work / "dense.json").write_text(json.dumps(batch))

    # set-up is sampled before and after the timed part, so that one slow
    # stretch of the host does not set the whole figure
    setup = [] if args.trace else _setup_walls(args.workload, work, env)
    out_file = work / "runner.json"
    cmd = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--out", str(out_file)]
    proc = _run(cmd, env, RUNNER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"runner failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    res = json.loads(out_file.read_text())
    ops = res["ops"]
    if not args.trace:
        setup += _setup_walls(args.workload, work, env)

    if batch:
        attempted, failed, reasons = _check_dense(args.workload.split("-")[1], batch, ops)
    else:
        attempted, failed, reasons = _check_suite_ops(args.workload, ops)
    for reason in reasons[:20]:
        print(f"failed: {reason}", file=sys.stderr)

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": res["backend"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": _commit(root), "seconds": args.seconds,
    }
    if args.trace:
        metrics = res["layers"]
    else:
        metrics, samples = _e2e(args.workload, ops, len(batch))
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        stamp["latency_s"] = summarize(samples)
        stamp["host_factor"] = summarize([REFERENCE_S / o["ref"] for o in ops])

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return stamp, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its children (see _run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    try:
        if not (root / "src" / "locdim" / "__init__.py").is_file():
            raise BenchError(f"no src/locdim under {root}: run from the root of a locdim checkout")
        declared = json.loads((root / "BENCHMARK.json").read_text())
        work = root / ".perfbench_work" / f"run-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            stamp, result = _measure(args, root, work, declared)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:  # another run is using it
                pass
    except (BenchError, OSError, ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
