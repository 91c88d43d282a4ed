"""The package namespace: what importing it costs, and what it exports.

`import locdim` loads no submodule; a public name loads its home module on
first use and is looked up there on every access. The cold-start checks
run in fresh interpreters and compare with a bare one's sys.modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locdim
from locdim import graphs

SRC = str(Path(locdim.__file__).resolve().parent.parent)


def _modules_added(statement: str) -> set[str]:
    """Modules a fresh interpreter holds after `statement` that a bare one
    does not hold at start-up."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import json, sys; {}; print(json.dumps(sorted(sys.modules)))"

    def loaded(stmt: str) -> set[str]:
        proc = subprocess.run([sys.executable, "-c", probe.format(stmt)], env=env,
                              capture_output=True, text=True, check=True)
        return set(json.loads(proc.stdout))

    return loaded(statement) - loaded("pass")


class TestColdStart:
    def test_cli_import_needs_no_dataclass_machinery(self):
        added = _modules_added("import locdim.cli")
        assert "locdim.verify" in added  # the probe did import the package
        assert not added & {"dataclasses", "inspect"}

    def test_solver_names_load_only_their_own_modules(self):
        added = _modules_added("from locdim import build, local_metric_dimension")
        assert {"locdim.graphs", "locdim.dimension"} <= added
        assert not added & {"locdim.verify", "locdim.enumeration", "locdim.families",
                            "locdim.pattern"}

    def test_bare_package_import_loads_no_submodule(self):
        added = _modules_added("import locdim")
        assert not {m for m in added if m.startswith("locdim.")}


class TestPublicNames:
    def test_every_name_resolves_to_its_home_module_object(self):
        for name in locdim.__all__:
            if name == "__version__":
                continue
            obj = getattr(locdim, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_names_are_listed_once_and_not_cached(self):
        assert len(set(locdim.__all__)) == len(locdim.__all__)
        for name in locdim.__all__:
            getattr(locdim, name)
        assert not (set(locdim.__all__) - {"__version__"}) & set(vars(locdim))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from locdim import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(locdim.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            getattr(locdim, "no_such_name")
        with pytest.raises(ImportError):
            exec("from locdim import no_such_name", {})

    def test_version(self):
        assert locdim.__version__ == "0.1.0"

    def test_patched_module_attribute_is_what_the_package_hands_out(self, monkeypatch):
        # a tracer that wraps graphs.build must see calls made through locdim.build
        def wrapped(*args):
            return original(*args)

        original = graphs.build
        monkeypatch.setattr(graphs, "build", wrapped)
        assert locdim.build is wrapped
        monkeypatch.undo()
        assert locdim.build is original

    def test_dir_lists_the_public_names(self):
        assert set(locdim.__all__) <= set(dir(locdim))
