"""End-to-end CLI behavior through main(), including the exit-code contract:
0 ok, 1 usage, 2 bad input, 3 findings."""

from __future__ import annotations

import io
import itertools
import re
import sys

import pytest

from locdim import cli
from locdim import verify as verify_mod
from locdim.cli import _build_parser, _gen_order, main
from locdim.enumeration import CANONICAL_MAX_VERTICES, connected_graphs
from locdim.graphs import to_graph6


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_family_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--family", "c5", "--witness")
        assert code == 0
        assert out.splitlines() == [
            "id=c5 n=5 m=5 omega=2 twin_classes=5 lb_twin=0 lb_log=1 lb_gap=0"
            " mode=local value=2 witness=0,1"
        ]

    def test_complete_graph(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--family", "k6")
        assert code == 0
        assert "value=5" in out and "omega=6" in out and "witness" not in out

    def test_full_mode(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--family", "p5", "--mode", "full")
        assert code == 0
        assert "mode=full value=1" in out

    def test_input_file(self, capsys, tmp_path):
        target = tmp_path / "two.g6"
        target.write_text("Dhc\nD~{\n")
        code, out, _ = run_cli(capsys, "dim", "--input", str(target))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("id=Dhc ")
        assert lines[1].startswith("id=D~{ ")
        assert "value=4" in lines[1]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Dhc\n"))
        code, out, _ = run_cli(capsys, "dim", "--input", "-")
        assert code == 0
        assert "value=2" in out

    def test_trivial_witness_placeholder(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--family", "p1", "--witness")
        assert code == 0
        assert "value=0 witness=-" in out

    @pytest.mark.parametrize("witness", [[], ["--witness"]], ids=["value", "witness"])
    @pytest.mark.parametrize("mode", ["local", "full"])
    def test_disconnected_input(self, capsys, tmp_path, mode, witness):
        # every solve path refuses it from the same walk, with the same words
        target = tmp_path / "disc.g6"
        target.write_text("A?\n")  # two isolated vertices
        code, out, err = run_cli(capsys, "dim", "--input", str(target), "--mode", mode, *witness)
        assert code == 2
        assert out == ""
        assert err == "error: distances undefined: graph is disconnected\n"

    def test_malformed_input_names_the_line(self, capsys, tmp_path):
        target = tmp_path / "bad.g6"
        target.write_text("Dhc\nD~\n")
        code, _, err = run_cli(capsys, "dim", "--input", str(target))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "dim", "--input", "/does/not/exist.g6")
        assert code == 2
        assert "error:" in err

    def test_bad_family_spec(self, capsys):
        code, _, err = run_cli(capsys, "dim", "--family", "zeta(3)")
        assert code == 2
        assert "error:" in err


class TestFamily:
    def test_graph6_output(self, capsys):
        code, out, _ = run_cli(capsys, "family", "k5")
        assert (code, out.strip()) == (0, "D~{")

    def test_edge_output(self, capsys):
        code, out, _ = run_cli(capsys, "family", "c4", "--edges")
        assert code == 0
        assert out.strip() == "n=4 m=4 edges=0-1,0-3,1-2,2-3"

    def test_parameter_error(self, capsys):
        code, _, err = run_cli(capsys, "family", "knm(5,4,4)")
        assert code == 2
        assert "error:" in err


class TestPattern:
    def test_default_reports_both_patterns(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "--host", "gamma2")
        assert code == 0
        assert "gamma1: no induced copy" in out
        assert "gamma2: 0->" in out
        assert "gamma-free: no" in out

    def test_gamma_free_host(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "--host", "knm(9,4,2)")
        assert code == 0
        assert "gamma-free: yes" in out

    def test_explicit_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "--host", "c5", "--pattern", "p3")
        assert code == 0
        assert "induced copy:" in out

    def test_absent_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "--host", "p3", "--pattern", "k3")
        assert code == 0
        assert "no induced copy" in out

    def test_graph6_host(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "--host", "D~{", "--pattern", "k3")
        assert code == 0
        assert "induced copy:" in out

    def test_unparseable_host(self, capsys):
        code, _, err = run_cli(capsys, "pattern", "--host", "notagraph(")
        assert code == 2
        assert "neither a family spec" in err


class TestVerify:
    def test_gen_stream_clean(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--gen", "4")
        assert code == 0
        assert "violations: none" in out

    def test_records_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--gen", "4", "--format", "records")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6 * 11
        assert all(len(line.split("\t")) == 4 for line in lines)

    def test_records_of_an_empty_corpus_print_nothing(self, capsys, tmp_path):
        target = tmp_path / "empty.g6"
        target.write_text("")
        code, out, _ = run_cli(capsys, "verify", "--corpus", str(target), "--format", "records")
        assert code == 0
        assert out == ""

    def test_records_independent_of_jobs(self, capsys):
        _, serial, _ = run_cli(capsys, "verify", "--gen", "4", "--format", "records")
        _, fanned, _ = run_cli(
            capsys, "verify", "--gen", "4", "--format", "records", "--jobs", "2"
        )
        assert serial == fanned

    def test_serial_gen_run_checks_each_graph_as_drawn(self, capsys, monkeypatch):
        """Each chunk of the stream is checked before the next is drawn, so
        a serial sweep is never more than one chunk ahead of its checks."""
        total = 3 * verify_mod.CHUNK + 1
        drawn = []

        def stream(n):
            for g in itertools.islice(itertools.cycle(connected_graphs(n)), total):
                drawn.append(g)
                yield g

        check = verify_mod._check_chunk
        checked = []

        def check_as_drawn(graphs, ids):
            # exactly the graphs drawn since the last check, at most a chunk
            assert len(graphs) <= verify_mod.CHUNK
            assert graphs == drawn[len(checked):]
            checked.extend(graphs)
            return check(graphs, ids)

        monkeypatch.setattr(cli, "connected_graphs", stream)
        monkeypatch.setattr(verify_mod, "_check_chunk", check_as_drawn)
        code, out, _ = run_cli(capsys, "verify", "--gen", "4", "--format", "records")
        assert code == 0
        assert len(drawn) == total
        assert checked == drawn
        assert len(out.splitlines()) == total * 11

    def test_violation_reported_end_to_end(self, capsys, monkeypatch):
        """A check that fails on some graphs surfaces with its own text,
        the same at one job and two (forked workers inherit the patch)."""
        c3 = verify_mod.CHECKS["C3"]

        def broken_c3(facts):
            applicable, holds, text = c3(facts)
            return applicable, holds and facts.dim_local != 2, text

        expected = sorted(
            (facts.graph_id, c3(facts)[2])
            for facts in map(verify_mod.GraphFacts, connected_graphs(5))
            if facts.dim_local == 2
        )
        assert expected
        monkeypatch.setitem(verify_mod.CHECKS, "C3", broken_c3)
        outputs = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(capsys, "verify", "--gen", "5", "--jobs", jobs)
            assert code == 3
            lines = out.splitlines()
            at = lines.index(f"violations: {len(expected)}")
            assert lines[at + 1:] == [f"  {gid}  C3  {text}" for gid, text in expected]
            outputs.append(re.sub(r"elapsed: \S+", "elapsed: -", out))
        assert outputs[0] == outputs[1]

    def test_jobs_defaults_to_one(self):
        assert _build_parser().parse_args(["verify", "--gen", "3"]).jobs == 1

    def test_check_subset(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--gen", "3", "--checks", "C1,C3", "--format", "records"
        )
        assert code == 0
        assert len(out.splitlines()) == 2 * 2

    def test_corpus_with_warnings(self, capsys, tmp_path):
        target = tmp_path / "mixed.g6"
        target.write_text("Dhc\nnope~\nD~{\n")
        code, out, err = run_cli(capsys, "verify", "--corpus", str(target))
        assert code == 0
        assert "warning:" in err and "line 2" in err
        assert "graphs: 2" in out

    def test_corpus_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Dhc\nnope~\nD~{\n"))
        code, out, err = run_cli(capsys, "verify", "--corpus", "-")
        assert code == 0
        assert err.startswith("warning: -: line 2: ") and err.count("\n") == 1
        assert "graphs: 2" in out

    @pytest.mark.parametrize("argv", [["dim", "--input"], ["verify", "--corpus"], ["scan", "--corpus"]])
    def test_empty_path_is_a_missing_file(self, capsys, argv):
        # not the current directory, which Path("") would name
        code, out, err = run_cli(capsys, *argv, "")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    def test_strict_corpus(self, capsys, tmp_path):
        target = tmp_path / "mixed.g6"
        target.write_text("Dhc\nnope~\n")
        code, _, err = run_cli(capsys, "verify", "--corpus", str(target), "--strict")
        assert code == 2
        assert "line 2" in err


class TestScanAndRefute:
    def test_scan_gen(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--gen", "5")
        assert code == 0
        assert "violations: 0" in out

    def test_scan_corpus_with_omega_filter(self, capsys, tmp_path):
        target = tmp_path / "one.g6"
        target.write_text(to_graph6(next(iter(connected_graphs(5)))) + "\n")
        code, out, _ = run_cli(
            capsys, "scan", "--corpus", str(target), "--omega", "4", "--omega", "5"
        )
        assert code == 0
        assert "scanned: 1" in out

    def test_scan_corpus_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Dhc\nD~{\n"))
        code, out, _ = run_cli(capsys, "scan", "--corpus", "-")
        assert code == 0
        assert "scanned: 2" in out

    @pytest.mark.parametrize("omega", ["-3", "0", "2"])
    def test_scan_rejects_omega_below_three(self, capsys, omega):
        code, out, err = run_cli(capsys, "scan", "--gen", "5", "--omega", "4", "--omega", omega)
        assert code == 2
        assert out == ""
        assert err == f"error: need omega >= 3, got {omega}\n"

    def test_refutation_found(self, capsys):
        code, out, _ = run_cli(capsys, "refute-problem1")
        assert code == 0
        assert "first violation at 4 triangles" in out

    def test_refutation_not_reached(self, capsys):
        code, out, _ = run_cli(capsys, "refute-problem1", "--max-triangles", "2")
        assert code == 3
        assert "no violation found" in out

    def test_refutation_past_62_vertices_fails_before_any_solve(self, capsys, monkeypatch):
        def unsolved(g, mode):
            raise AssertionError("a member was solved")

        monkeypatch.setattr(verify_mod, "_value", unsolved)
        code, out, err = run_cli(capsys, "refute-problem1", "--max-triangles", "21")
        assert (code, out) == (2, "")
        assert err == "error: need max_triangles <= 20, got 21\n"

    def test_refutation_bad_domain(self, capsys):
        code, _, err = run_cli(capsys, "refute-problem1", "--max-triangles", "1")
        assert code == 2
        assert "error:" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["dim"],
            ["dim", "--family", "c5", "--input", "-"],
            ["verify"],
            ["verify", "--gen", "10"],
            ["verify", "--gen", "5", "--jobs", "0"],
            ["verify", "--gen", "5", "--checks", "C1,C99"],
            ["dim", "--family", "c5", "--mode", "sideways"],
            ["verify", "--gen", "x"],
            ["verify", "--gen", "5", "--jobs", "x"],
            ["scan", "--gen", "5", "--omega", "x"],
            ["refute-problem1", "--max-triangles", "x"],
            ["verify", "--gen", "4", "--checks", ","],
            ["verify", "--gen", "4", "--checks", ""],
        ],
    )
    def test_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        # argparse words a bare ValueError with the type function's name
        assert "_gen_order" not in err and "_jobs" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--gen", "x"],
            ["verify", "--gen", "5", "--jobs", "x"],
            ["scan", "--gen", "5", "--omega", "x"],
            ["refute-problem1", "--max-triangles", "x"],
        ],
    )
    def test_non_integer_says_an_integer_is_expected(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert "expected an integer, got 'x'" in capsys.readouterr().err

    def test_gen_cap_message_is_explanatory(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--gen", "10"])
        err = capsys.readouterr().err
        assert "3..9 allowed" in err

    def test_gen_help_names_the_order_cap(self, capsys, monkeypatch):
        # the help reads the cap, so lifting it changes one constant
        for top in (CANONICAL_MAX_VERTICES, CANONICAL_MAX_VERTICES + 1):
            monkeypatch.setattr(cli, "CANONICAL_MAX_VERTICES", top)
            for verb in ("verify", "scan"):
                with pytest.raises(SystemExit) as exc:
                    main([verb, "--help"])
                assert exc.value.code == 0
                help_text = " ".join(capsys.readouterr().out.split())
                assert f"order N (3..{top})" in help_text

    @pytest.mark.parametrize("verb", ["verify", "scan"])
    def test_corpus_help_names_stdin(self, capsys, verb):
        # all three graph6 verbs read - as stdin, and say so
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "graph6 file, one graph per line, or - for stdin" in help_text

    def test_gen_reaches_order_eight(self):
        assert _gen_order("8") == 8

