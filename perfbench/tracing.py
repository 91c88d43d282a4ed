"""Spans around calls into locdim's public functions, recorded from outside.

Tracer.install() replaces each traced function in every locdim namespace
that holds it, so a call is timed wherever the caller looks the name up:
`kernels.min_hitting_set` inside dimension, `max_clique` imported straight
into verify, and so on. A span is (id, parent, name, start, end, pid, attr);
spans stay in memory until dump(). Forked pool workers inherit the patched
modules; each clears the spans it inherited and writes its own from a
multiprocessing finalizer, because workers leave through os._exit and never
run atexit handlers.

Layer names are the module a caller finds the function in, as `module.name`;
the four kernels are `kernels.<name>` whichever backend provides them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import multiprocessing.util
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) pairs; an attribute with a dot is a method.
TRACED = (
    ("kernels", "max_clique"),
    ("kernels", "min_hitting_set"),
    ("kernels", "canonical_bits"),
    ("kernels", "induced_embedding"),
    ("graphs", "bfs_distances"),
    ("graphs", "from_graph6"),
    ("graphs", "to_graph6"),
    ("enumeration", "canonical_key"),
    ("enumeration", "canonical_graph6"),
    ("enumeration", "connected_graphs"),
    ("enumeration", "read_corpus"),
    ("invariants", "max_clique"),
    ("invariants", "clique_number"),
    ("invariants", "twin_partition"),
    ("dimension", "lower_bounds"),
    ("dimension", "distinguisher_sets"),
    ("dimension", "local_metric_dimension"),
    ("dimension", "metric_dimension"),
    ("pattern", "find_induced"),
    ("pattern", "is_gamma_free"),
    ("verify", "check_graph"),
    ("verify", "run_suite"),
    ("verify", "SuiteReport.to_records"),
)

SOLVES = ("dimension.local_metric_dimension", "dimension.metric_dimension")


def _attr(name: str, args: tuple, kwargs: dict, result, worker: bool):
    """The count a span carries, taken at the layer boundary."""
    if name == "kernels.min_hitting_set":
        return len(args[1])
    if name in SOLVES:
        return result.value - result.bounds.best
    if name == "verify.run_suite":
        return kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    if name == "verify.check_graph" and worker:
        # what the pool pickles: the graph sent and the report returned
        return len(pickle.dumps(args[0])) + len(pickle.dumps(result))
    return None


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.origin = os.getpid()
        self.pid = self.origin
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.ids = itertools.count(1)
        self.patched: list[tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # keep the stack, so a worker's top spans name the parent's open span
        self.pid = os.getpid()
        self.spans = []
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def _wrap(self, name: str, fn):
        tracer = self

        def begin():
            sid = f"{tracer.pid}.{next(tracer.ids)}"
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            return sid, parent, time.perf_counter()

        def end(sid, parent, start):
            stop = time.perf_counter()
            tracer.stack.pop()
            tracer.spans.append((sid, parent, name, start, stop, tracer.pid, None))

        if inspect.isgeneratorfunction(fn):
            # one span per step, so consumer time between steps is excluded
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid, parent, start = begin()
                    try:
                        item = next(it)
                    except StopIteration:
                        end(sid, parent, start)
                        return
                    except BaseException:
                        end(sid, parent, start)
                        raise
                    end(sid, parent, start)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end(sid, parent, start)
                raise
            stop = time.perf_counter()
            tracer.stack.pop()
            attr = _attr(name, args, kwargs, result, tracer.pid != tracer.origin)
            tracer.spans.append((sid, parent, name, start, stop, tracer.pid, attr))
            return result

        return wrapper

    def install(self) -> None:
        import locdim.cli  # noqa: F401  (with the package, loads every submodule)

        modules = [m for k, m in sys.modules.items() if k == "locdim" or k.startswith("locdim.")]
        for mod_name, attr in TRACED:
            mod = sys.modules[f"locdim.{mod_name}"]
            name = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self.patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self.patched.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self.patched):
            setattr(owner, key, orig)
        self.patched.clear()

    def dump(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}-{next(self.ids)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)
        self.spans = []


def load_spans(out_dir: Path) -> list[tuple]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        spans.extend(tuple(s) for s in json.loads(path.read_text()))
    return spans


def layer_metrics(spans: list[tuple], ops: int, cli_walls: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics per operation of the workload, from the spans of
    `ops` identical operations. Calls and busy time are per operation;
    `calls_per_graph` divides by graphs checked (or solved, when nothing
    was checked). Layers the workload never reaches read 0."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[str, float] = defaultdict(float)
    pid_of = {s[0]: s[5] for s in spans}
    for s in spans:
        by_name[s[2]].append(s)
        if s[1] is not None and pid_of.get(s[1]) == s[5]:
            children[s[1]] += s[4] - s[3]

    def calls(name: str) -> int:
        return len(by_name[name])

    def busy(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name[name])

    solves = [s for n in SOLVES for s in by_name[n]]
    graphs = calls("verify.check_graph") or len(solves)
    hits = by_name["kernels.min_hitting_set"]
    suite = by_name["verify.run_suite"]
    suite_wall = busy("verify.run_suite")
    workers = [s for s in by_name["verify.check_graph"] if s[6] is not None]
    jobs_wall = sum(s[6] * (s[4] - s[3]) for s in suite)
    gaps = [s[6] for s in solves]

    out: dict[str, float] = {}
    for name in ("kernels.canonical_bits", "enumeration.canonical_key", "kernels.min_hitting_set",
                 "kernels.induced_embedding", "graphs.bfs_distances", "kernels.max_clique",
                 "verify.check_graph"):
        out[f"{name}.calls"] = calls(name) / ops
    for name in ("kernels.canonical_bits", "enumeration.canonical_key", "enumeration.connected_graphs",
                 "graphs.bfs_distances", "kernels.max_clique", "dimension.lower_bounds",
                 "kernels.min_hitting_set", "dimension.distinguisher_sets", "kernels.induced_embedding",
                 "graphs.from_graph6", "verify.to_records"):
        out[f"{name}.busy_s"] = busy(name) / ops
    for name in ("graphs.bfs_distances", "kernels.max_clique", "invariants.twin_partition"):
        out[f"{name}.calls_per_graph"] = calls(name) / graphs if graphs else 0.0
    out["pattern.find_induced.calls"] = calls("pattern.find_induced") / ops
    out["kernels.min_hitting_set.constraints_per_call"] = (
        sum(s[6] for s in hits) / len(hits) if hits else 0.0
    )
    out["dimension.floor_gap_mean"] = sum(gaps) / len(gaps) if gaps else 0.0
    out["dimension.floor_tight_ratio"] = sum(g == 0 for g in gaps) / len(gaps) if gaps else 0.0
    out["verify.check_graph.self_s"] = (
        sum(s[4] - s[3] - children[s[0]] for s in by_name["verify.check_graph"]) / ops
    )
    out["verify.run_suite.wall_s"] = suite_wall / ops
    checked = busy("verify.check_graph")
    out["verify.pool.efficiency"] = checked / jobs_wall if jobs_wall else 0.0
    out["verify.pool.bytes_per_graph"] = sum(s[6] for s in workers) / len(workers) if workers else 0.0
    if cli_walls:
        inside = suite_wall + busy("enumeration.connected_graphs")
        out["cli.overhead_s"] = (sum(cli_walls) - inside) / ops
    else:
        out["cli.overhead_s"] = 0.0
    return out
