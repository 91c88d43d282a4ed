"""The locdim command line with the tracer installed; spans go to DIR.

    PYTHONPATH=src python3 perfbench/trace_cli.py DIR verb [args...]
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    tracer = Tracer(Path(sys.argv[1]))
    tracer.install()
    from locdim import cli

    try:
        return cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
