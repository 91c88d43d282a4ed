"""Golden CLI outputs over the order-7 stream.

The digests pin the exact stdout of `verify` in both formats (the human
table with its `elapsed:` figure masked), `dim` in both modes and `scan`,
so refactors of the solver, the checks or the input parsing must keep
every byte (ids, floors, witnesses, verdicts) the same. Two more digests
pin the sets the hitting-set kernels return, not only their sizes. The
module's tests run on the pure kernels; TestCompiledKernels runs each of
them again on the compiled build. Both patch the six kernels of
locdim.kernels and start from an empty class memo, so generation runs on
the backend under test too.
"""

from __future__ import annotations

import hashlib
import random
import re

import pytest
from conftest import random_connected

from locdim import _pure, enumeration, kernels
from locdim.cli import main
from locdim.dimension import MODES, _distinguisher_masks
from locdim.enumeration import connected_graphs
from locdim.graphs import GRAPH6_HEADER, to_graph6

KERNELS = (
    "max_clique",
    "min_hitting_set",
    "lex_min_hitting_set",
    "canonical_bits",
    "is_canonical",
    "induced_embedding",
)


def use_kernels(monkeypatch, backend) -> None:
    """Point locdim.kernels at backend's six kernels and empty the memo of
    generated class bits."""
    for name in KERNELS:
        monkeypatch.setattr(kernels, name, getattr(backend, name))
    monkeypatch.setattr(enumeration, "_CLASS_BITS", {})


@pytest.fixture(autouse=True)
def pure_kernels(monkeypatch):
    use_kernels(monkeypatch, _pure)


def stdout_sha256(capsys, *argv: str, mask: tuple[str, str] | None = None) -> str:
    capsys.readouterr()
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    if mask is not None:
        out = re.sub(*mask, out)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.fixture(scope="module")
def order_seven_file(tmp_path_factory):
    """Every order-7 class, one per line; every fifth line carries the
    graph6 header prefix, which must not show up in the printed ids."""
    lines = []
    for i, g in enumerate(connected_graphs(7)):
        text = to_graph6(g)
        lines.append(GRAPH6_HEADER + text if i % 5 == 4 else text)
    path = tmp_path_factory.mktemp("golden") / "order7.g6"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_verify_records_gen_seven(capsys):
    assert stdout_sha256(capsys, "verify", "--gen", "7", "--format", "records") == (
        "01d79503ff8a0f4747602e7b9c5c08835e82f02f9b96de87babb5a7e61d3d10b"
    )


def test_verify_text_gen_seven(capsys):
    # wall time is the one figure that may differ between runs
    mask = (r"elapsed: [0-9.]+s", "elapsed: ?s")
    assert stdout_sha256(capsys, "verify", "--gen", "7", mask=mask) == (
        "5075b3e3f3594daa34f71b281b50dff0651288c3b7a6e16a62f355af3988be7d"
    )


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("local", "225edbd45b5e13475c6e17a5c5bc384e1cd0fe1a0cf9f6dd98d7b3fd66c3593c"),
        ("full", "f04399788a3f6311fe1b84d786d7a6ba73c306663dde2600772d862dfc450584"),
    ],
)
def test_dim_witness_order_seven(capsys, order_seven_file, mode, digest):
    argv = ("dim", "--input", order_seven_file, "--witness", "--mode", mode)
    assert stdout_sha256(capsys, *argv) == digest


def test_scan_gen_seven(capsys):
    assert stdout_sha256(capsys, "scan", "--gen", "7") == (
        "0e8c4b94fde725945a0b1264fc98ba346683d6124328692340210ae3ed5b3839"
    )


def _hitting_set_systems() -> list[tuple[int, list[int]]]:
    """Both systems of nine fixed G(n, p) graphs, n 20, 24 and 28 and p
    0.3, 0.6 and 0.9, and 2000 seeded random systems, some of them on the
    word's top bits."""
    systems = []
    for n in (20, 24, 28):
        for p in (0.3, 0.6, 0.9):
            g = random_connected(random.Random(0), n, p)
            systems += [(n, _distinguisher_masks(g, mode)) for mode in MODES]
    rng = random.Random(0x6A5)
    for _ in range(2000):
        universe = rng.randint(1, 24)
        offset = rng.choice((0, 62 - universe))
        masks = []
        for _ in range(rng.randint(1, 30)):
            c = rng.getrandbits(universe) & rng.getrandbits(universe)
            masks.append((c or 1 << rng.randrange(universe)) << offset)
        systems.append((offset + universe, masks))
    return systems


def test_min_hitting_set_masks():
    """The set min_hitting_set returns, not only its size, at every floor
    from 0 to the value, on the systems above. A search change that keeps
    every value may still return another optimum, which the witness
    rebuild then pays for in probes."""
    digest = hashlib.sha256()
    for universe, masks in _hitting_set_systems():
        value = kernels.min_hitting_set(universe, masks).bit_count()
        for floor in range(value + 1):
            digest.update(b"%x\n" % kernels.min_hitting_set(universe, masks, floor))
    assert digest.hexdigest() == (
        "69e644e77c4f601750beef60e4bf1df63e40bd44360f3fe5a8a450dc57d60a91"
    )


def test_lex_min_hitting_set_witnesses():
    """The witness lex_min_hitting_set rebuilds from the value search's
    set, on the same systems. The digest was taken from the witness rebuild
    that ran its probes as min_hitting_set calls, before it moved into the
    kernels."""
    digest = hashlib.sha256()
    for universe, masks in _hitting_set_systems():
        found = kernels.min_hitting_set(universe, masks)
        digest.update(b"%x\n" % kernels.lex_min_hitting_set(universe, masks, found))
    assert digest.hexdigest() == (
        "bcad38df19d8da9df2fd1016ffebba690f757b2be5a3e976c3b9f34bbbbb857c"
    )


class TestCompiledKernels:
    """Every digest above, on the compiled build."""

    @pytest.fixture(autouse=True)
    def compiled_kernels(self, pure_kernels, compiled, monkeypatch):
        use_kernels(monkeypatch, compiled)

    test_verify_records_gen_seven = staticmethod(test_verify_records_gen_seven)
    test_verify_text_gen_seven = staticmethod(test_verify_text_gen_seven)
    test_dim_witness_order_seven = staticmethod(test_dim_witness_order_seven)
    test_scan_gen_seven = staticmethod(test_scan_gen_seven)
    test_min_hitting_set_masks = staticmethod(test_min_hitting_set_masks)
    test_lex_min_hitting_set_witnesses = staticmethod(test_lex_min_hitting_set_witnesses)
