"""End-to-end tests of the command-line interface, run in-process."""

import io
import json
import sys

import pytest

from arrcomp.arrangement import braid_arrangement
from arrcomp.fileformat import serialize_arrangement
from cli_harness import (
    GOLDEN,
    GOLDEN_CASES,
    corpus_text,
    run_cli,
    run_golden_case,
)


class TestExitCodes:
    def test_no_arguments_is_a_usage_error(self):
        code, out, err = run_cli([])
        assert code == 1
        assert out == ""
        assert "usage error" in err

    def test_unknown_subcommand_is_a_usage_error(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 1
        assert "usage error" in err

    def test_missing_count_is_a_usage_error(self):
        code, _, _ = run_cli(["braid"])
        assert code == 1

    def test_non_integer_count_is_a_usage_error(self):
        code, _, _ = run_cli(["braid", "x"])
        assert code == 1

    def test_help_exits_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0
        assert "COMMAND" in out

    def test_missing_file_is_an_input_error(self):
        code, _, err = run_cli(["lattice", "/no/such/file.arr"])
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_file_is_an_input_error(self, tmp_path):
        path = tmp_path / "binary.arr"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(["betti", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert "Traceback" not in err

    def test_non_utf8_stdin_is_an_input_error(self, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, _, err = run_cli(["betti", "-"])
        assert code == 2
        assert err.startswith("error: cannot read -: ")

    def test_malformed_stdin_is_an_input_error(self):
        code, _, err = run_cli(["lattice", "-"], stdin_text="arrangement 2\n1\n")
        assert code == 2
        assert "error:" in err

    def test_overlong_integer_is_an_input_error(self):
        text = f"arrangement 1\n{'1' * 5000} ; 0\n"
        code, out, err = run_cli(["betti", "-"], stdin_text=text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2, column 1: ")
        assert "Traceback" not in err

    def test_surgery_pb_rejects_zero(self):
        code, _, err = run_cli(["surgery-pb", "0"])
        assert code == 2
        assert "error:" in err

    def test_spf_pb_rejects_zero(self):
        code, _, _ = run_cli(["spf-pb", "0"])
        assert code == 2

    def test_not_fiber_type_is_a_negative_result(self):
        code, out, _ = run_cli(
            ["fibertype", "-"], stdin_text=corpus_text("generic4")
        )
        assert code == 3
        assert out.strip() == "not fiber-type"


class TestHumanOutput:
    def test_pure_braid_table_is_exact(self):
        code, out, err = run_cli(["surgery-pb", "2"])
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "surgery groups of the pure braid group, n = 2 (N = 3 hyperplanes)",
            "L_i, i = 0 mod 4: Z",
            "L_i, i = 1 mod 4: Z^3",
            "L_i, i = 2 mod 4: Z_2",
            "L_i, i = 3 mod 4: Z_2^3",
        ]

    def test_charpoly_pretty_printing(self):
        code, out, _ = run_cli(["charpoly", "-"], stdin_text=corpus_text("braid3"))
        assert code == 0
        assert out.strip() == "t^4 - 6t^3 + 11t^2 - 6t"

    def test_betti_line(self):
        code, out, _ = run_cli(["betti", "-"], stdin_text=corpus_text("braid2"))
        assert code == 0
        assert out.strip() == "betti: 1 3 2 0"

    def test_fibertype_reports_chain_and_ranks(self):
        code, out, err = run_cli(["fibertype", "-"], stdin_text=corpus_text("braid3"))
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "fiber-type: yes"
        assert lines[1].startswith("chain flats: ")
        assert lines[2] == "fiber ranks: 1 2 3"

    def test_fibertype_affine_warning_goes_to_stderr(self):
        code, out, err = run_cli(
            ["fibertype", "-"], stdin_text=corpus_text("shifted-center")
        )
        assert code == 0
        assert "fiber ranks: 1 2" in out
        assert "not central" in err

    def test_suspension_summary(self):
        code, out, err = run_cli(["suspension", "-"], stdin_text=corpus_text("braid2"))
        assert code == 0
        assert err == ""
        assert out.strip() == "suspension: wedge of 3 spheres: 3 S^2"

    def test_full_poset_model_and_divergence_warning(self):
        code, out, err = run_cli(
            ["suspension", "--full-poset", "-"], stdin_text=corpus_text("braid2")
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "suspension: wedge of 3 spheres: 3 S^2"
        assert lines[1] == "full-poset model: 3 S^2 + 2 S^3"
        assert "diverges" in err

    def test_braid_emits_a_loadable_file(self):
        code, out, err = run_cli(["braid", "2"])
        assert code == 0
        assert err == ""
        assert out == serialize_arrangement(braid_arrangement(2))

    def test_lattice_lists_layers(self):
        code, out, _ = run_cli(["lattice", "-"], stdin_text=corpus_text("coords2"))
        lines = out.splitlines()
        assert lines[0] == "arrangement in C^2 with 2 hyperplanes"
        assert lines[1] == "intersection poset: 4 flats, rank 2"
        assert "codim 0:" in lines
        assert any("mu 1" in line for line in lines)

    def test_spf_certificate_report(self):
        code, out, _ = run_cli(["spf-pb", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("n = 3")
        assert lines[1] == "quotient ranks: 1 2 3"
        assert lines[2] == "filtration length: 3"


class TestLgroups:
    def test_refuses_without_witness(self):
        code, out, err = run_cli(["lgroups", "-"], stdin_text=corpus_text("generic4"))
        assert code == 3
        assert out == ""
        assert "rerun with --force-N" in err

    def test_fiber_type_input_reports_table(self):
        code, out, err = run_cli(["lgroups", "-"], stdin_text=corpus_text("braid3"))
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "surgery groups for N = 6 hyperplanes"
        assert "L_i, i = 1 mod 4: Z^6" in lines

    def test_force_flag_computes_with_warning(self):
        code, out, err = run_cli(
            ["lgroups", "--force-N", "4", "-"], stdin_text=corpus_text("generic4")
        )
        assert code == 0
        assert "surgery groups for N = 4 hyperplanes" in out
        assert "L_i, i = 3 mod 4: Z_2^4" in out
        assert "fiber-type not verified" in err


class TestPipeline:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_braid_output_pipes_into_fibertype(self, n):
        code, out, _ = run_cli(["braid", str(n)])
        assert code == 0
        code2, out2, _ = run_cli(["fibertype", "-"], stdin_text=out)
        assert code2 == 0
        lines = out2.splitlines()
        assert lines[0] == "fiber-type: yes"
        expected = " ".join(str(k) for k in range(1, n + 1))
        assert lines[2] == f"fiber ranks: {expected}"


class TestJsonMode:
    def test_envelope_shape(self):
        code, out, err = run_cli(
            ["--json", "betti", "-"], stdin_text=corpus_text("braid2")
        )
        assert code == 0
        assert err == ""
        envelope = json.loads(out)
        assert set(envelope) == {"schema", "command", "input", "result", "warnings"}
        assert envelope["schema"] == 1
        assert envelope["command"] == "betti"
        assert envelope["input"] == "-"
        assert envelope["result"] == {"betti": [1, 3, 2, 0]}
        assert envelope["warnings"] == []

    def test_flag_position_does_not_matter(self):
        code_a, out_a, _ = run_cli(["--json", "surgery-pb", "2"])
        code_b, out_b, _ = run_cli(["surgery-pb", "2", "--json"])
        assert code_a == code_b == 0
        assert json.loads(out_a) == json.loads(out_b)

    def test_warnings_move_into_the_envelope(self):
        code, out, err = run_cli(
            ["--json", "suspension", "--full-poset", "-"],
            stdin_text=corpus_text("braid2"),
        )
        assert code == 0
        assert err == ""
        envelope = json.loads(out)
        assert any("diverges" in warning for warning in envelope["warnings"])

    def test_negative_result_still_emits_an_envelope(self):
        code, out, _ = run_cli(
            ["--json", "fibertype", "-"], stdin_text=corpus_text("parallel-mixed")
        )
        assert code == 3
        assert json.loads(out)["result"] == {"fiber_type": False}

    def test_numeric_input_recorded(self):
        _, out, _ = run_cli(["--json", "braid", "2"])
        envelope = json.loads(out)
        assert envelope["input"] == 2
        assert envelope["result"]["hyperplane_count"] == 3


class TestQuiet:
    def test_quiet_suppresses_the_report(self):
        code, out, err = run_cli(["--quiet", "surgery-pb", "2"])
        assert code == 0
        assert out == ""
        assert err == ""

    def test_quiet_keeps_warnings_on_stderr(self):
        code, out, err = run_cli(
            ["--quiet", "fibertype", "-"], stdin_text=corpus_text("shifted-center")
        )
        assert code == 0
        assert out == ""
        assert "not central" in err

    def test_exit_code_is_the_whole_signal(self):
        code, out, _ = run_cli(
            ["--quiet", "fibertype", "-"], stdin_text=corpus_text("two-points")
        )
        assert code == 3
        assert out == ""


def test_manifest_covers_every_subcommand():
    commands = {argv[1] for argv, _ in GOLDEN_CASES.values()}
    assert commands == {
        "lattice",
        "charpoly",
        "betti",
        "fibertype",
        "suspension",
        "lgroups",
        "braid",
        "surgery-pb",
        "spf-pb",
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_transcript(name):
    path = GOLDEN / f"{name}.json"
    assert path.exists(), f"missing golden file {path.name}; run tests/make_goldens.py"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["argv"] == GOLDEN_CASES[name][0]
    code, envelope = run_golden_case(name)
    assert code == record["exit"]
    assert envelope == record["envelope"]
