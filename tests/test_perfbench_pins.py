"""The names in locdim that the perfbench harness reads.

perfbench/tracing.py wraps each (module, attribute) pair of its TRACED
table after `import locdim.cli`, looking the module up in sys.modules, and
the runner and the dense oracle read a few result fields and helpers. A
change to src/ that drops or moves one of them breaks traced benchmark
runs, so these tests pin them. TRACED is read with ast.literal_eval: no
benchmark code runs here.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import locdim
from locdim.dimension import DimResult, LowerBounds
from locdim.verify import SuiteReport, TheoremReport

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(locdim.__file__).resolve().parent.parent)


def _traced() -> tuple[tuple[str, str], ...]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no TRACED table")


def test_every_traced_name_resolves_after_importing_the_cli():
    """In a fresh interpreter, so the cli import alone must load each
    traced module; a method is read off its class's own __dict__."""
    traced = _traced()
    assert traced
    probe = (
        "import json, sys\n"
        "import locdim.cli\n"
        "missing = []\n"
        f"for mod_name, attr in {traced!r}:\n"
        "    mod = sys.modules.get('locdim.' + mod_name)\n"
        "    if mod is None:\n"
        "        missing.append(mod_name)\n"
        "    elif '.' in attr:\n"
        "        cls_name, meth = attr.split('.')\n"
        "        if meth not in getattr(mod, cls_name, object).__dict__:\n"
        "            missing.append(mod_name + '.' + attr)\n"
        "    elif not hasattr(mod, attr):\n"
        "        missing.append(mod_name + '.' + attr)\n"
        "print(json.dumps(missing))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == []


def test_result_fields_the_runner_and_oracle_read():
    # the dense oracle and the solve spans read DimResult.bounds.best, and
    # corpus-8 counts SuiteReport.reports[*].graph_id
    assert "bounds" in DimResult._fields
    assert isinstance(LowerBounds.best, property)
    assert "reports" in SuiteReport._fields
    assert "graph_id" in TheoremReport._fields
    # the dense oracle's witness check, and the workloads' setup snippets
    for name in (
        "is_local_resolving",
        "is_resolving",
        "read_corpus",
        "run_suite",
        "build",
        "local_metric_dimension",
        "metric_dimension",
    ):
        assert callable(getattr(locdim, name)), name
