"""Write perfbench/data/order8.g6: every connected graph class of order 8.

Each class of order 7 is extended by one new vertex in every nonempty
neighborhood; the results are deduplicated by canonical graph6. Every
connected graph on 8 vertices keeps a connected remainder after deleting a
leaf of a spanning tree, so this reaches every class. Uses only the
package's public API. Takes about 30 s on the pure-Python kernels.

    PYTHONPATH=src python3 perfbench/make_corpus.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from locdim import Graph, canonical_graph6, connected_graphs, from_graph6, is_connected

ORDER = 8
CLASS_COUNT = 11117  # OEIS A001349, connected graphs on 8 unlabeled vertices

OUT = Path(__file__).resolve().parent / "data" / f"order{ORDER}.g6"


def order8_classes() -> list[str]:
    seen: set[str] = set()
    for g in connected_graphs(ORDER - 1):
        for nbhd in range(1, 1 << g.n):
            rows = [row | (1 << g.n) if (nbhd >> v) & 1 else row for v, row in enumerate(g.adj)]
            rows.append(nbhd)
            seen.add(canonical_graph6(Graph(ORDER, tuple(rows))))
    return sorted(seen)


def main() -> int:
    classes = order8_classes()
    if len(classes) != CLASS_COUNT:
        print(f"expected {CLASS_COUNT} classes, got {len(classes)}", file=sys.stderr)
        return 1
    if not all(is_connected(from_graph6(s)) for s in classes):
        print("a generated class is disconnected", file=sys.stderr)
        return 1
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text("".join(s + "\n" for s in classes))
    print(f"wrote {len(classes)} classes to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
