"""End-to-end tests for the command-line interface.

Each test drives main() in process and checks the exit code plus the emitted
document; subprocess tests cover the entry point and a cold import.
"""

import contextlib
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hesscomb.cli as cli
import hesscomb.poincare as poincare
from hesscomb.goldens import GoldenResult, lookup
from hesscomb.hessenberg import new_hessenberg
from hesscomb.poincare import PoincareReport
from hesscomb.qpoly import QPolynomial

POINCARE_233 = '{"h": [2, 3, 3], "methods_agree": true, "poincare": [[0, 1], [1, 4], [2, 1]]}\n'


@pytest.fixture(autouse=True)
def empty_answer_cache():
    # An answer kept by an earlier test would shadow a monkeypatched library.
    cli._answers.clear()


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_poincare_byte_exact(capsys):
    code, out = run(capsys, ["poincare", "--h", "2,3,3"])
    assert code == 0
    assert out == POINCARE_233


def test_poincare_latex(capsys):
    code, out = run(capsys, ["poincare", "--h", "2,3,3", "--format", "latex"])
    assert code == 0
    assert "q" in out and "4" in out


def test_csf_report(capsys):
    code, data = run_json(capsys, ["csf", "--h", "2,3,3"])
    assert code == 0
    assert data["h"] == [2, 3, 3]
    assert data["schur_positive"] is True
    assert data["e_positive_at_q1"] is True
    assert data["omega_h_positive"] is True
    assert isinstance(data["monomial"], list)
    assert isinstance(data["schur"], list)
    assert isinstance(data["elementary_at_q1"], list)


def test_csf_latex_is_schur_expansion(capsys):
    code, out = run(capsys, ["csf", "--h", "2,3,3", "--format", "latex"])
    assert code == 0
    assert "s(" in out


def test_tableaux_listing(capsys):
    code, data = run_json(capsys, ["tableaux", "--h", "2,3,3", "--shape", "1,1,1"])
    assert code == 0
    assert data["count"] == 4
    assert data["count"] == len(data["tableaux"])
    for item in data["tableaux"]:
        assert set(item) == {"rows", "inversions"}


def test_tableaux_requires_matching_shape(capsys):
    code, data = run_json(capsys, ["tableaux", "--h", "2,3,3", "--shape", "2,1,1"])
    assert code == 2
    assert data["error"]["type"] == "HesscombError"
    code, data = run_json(capsys, ["tableaux", "--h", "2,3,3"])
    assert code == 2


def test_gkm_graph_json(capsys):
    code, data = run_json(capsys, ["gkm", "--h", "2,3,3"])
    assert code == 0
    assert data["n"] == 3
    edge = data["edges"][0]
    assert set(edge) >= {"u", "v", "label"}


def test_gkm_graph_dot(capsys):
    code, out = run(capsys, ["gkm", "--h", "2,3,3", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph gkm {")


def test_gkm_dump_class(capsys):
    code, data = run_json(capsys, ["gkm", "--h", "2,3,3", "--dump-class", "y2"])
    assert code == 0
    assert data["values"] == lookup("fig2b")["values"]
    assert data["gkm_condition"] is True
    code, data = run_json(capsys, ["gkm", "--h", "2,3,3", "--dump-class", "t1"])
    assert code == 0
    assert set(data["values"].values()) == {"t1"}


def test_gkm_dump_class_variant(capsys):
    code, auto = run_json(capsys, ["gkm", "--h", "2,3,3", "--dump-class", "y2"])
    code2, one_row = run_json(
        capsys, ["gkm", "--h", "2,3,3", "--dump-class", "y2", "--variant", "one-row"]
    )
    assert code == code2 == 0
    assert auto["values"] == one_row["values"]
    code3, transposed = run_json(
        capsys, ["gkm", "--h", "2,3,3", "--dump-class", "y2", "--variant", "transpose"]
    )
    assert code3 == 0
    assert transposed["values"] == lookup("fig3b")["values"]


def test_gkm_relations(capsys):
    code, data = run_json(capsys, ["gkm", "--h", "2,3,3", "--relations"])
    assert code == 0
    assert data["all_hold"] is True
    assert all(data["relations"].values())
    code, data = run_json(capsys, ["gkm", "--h", "2,3,4,4", "--relations"])
    assert code == 2
    assert data["error"]["type"] == "FormMismatch"


def test_basis_listing(capsys):
    code, data = run_json(capsys, ["basis", "--h", "2,3,3"])
    assert code == 0
    assert data["label"] == "B1"
    assert data["count"] == 4
    code, data = run_json(capsys, ["basis", "--h", "2,3,3", "--which", "Nh"])
    assert data["count"] == 4
    code, data = run_json(capsys, ["basis", "--h", "2,3,3", "--which", "transpose"])
    assert [b["label"] for b in data["bases"]] == [
        "TransposeB1",
        "TransposeB2",
        "TransposeB3",
    ]


def test_basis_blocks_csv(capsys):
    code, out = run(capsys, ["basis", "--h", "2,3,3", "--blocks", "--format", "csv"])
    assert code == 0
    assert out == (
        "degree,0\n1\n"
        "\ndegree,2\n1,0,0,1\n0,1,0,-1\n0,0,1,-1\n0,0,-1,-2\n"
        "\ndegree,4\n1\n"
    )


def test_basis_blocks_json(capsys):
    code, data = run_json(capsys, ["basis", "--h", "2,3,3", "--blocks"])
    assert code == 0
    mid = data["blocks"][1]
    assert mid["degree"] == 2
    assert mid["determinant"] == -3
    assert mid["unimodular"] is False
    assert data["blocks"][0]["unimodular"] is True


def test_bijection_forward_nilpotent(capsys):
    code, data = run_json(
        capsys,
        ["bijection", "--h", "2,3,5,5,5", "--map", "nilpotent", "--monomial", "1,0,1,1,0"],
    )
    assert code == 0
    assert data["output"]["rows"] == [[2], [1], [5], [3], [4]]


def test_bijection_trace_matches_golden(capsys):
    code, data = run_json(
        capsys,
        [
            "bijection",
            "--h",
            "2,3,5,5,5",
            "--map",
            "nilpotent",
            "--monomial",
            "1,0,1,1,0",
            "--trace",
        ],
    )
    assert code == 0
    assert data == lookup("ex-nilpotent-insertion")


def test_bijection_forward_b3(capsys):
    code, data = run_json(
        capsys,
        ["bijection", "--h", "3,5,5,5,5", "--map", "b3", "--monomial", "0,0,1,0,2", "--k", "2"],
    )
    assert code == 0
    assert data["output"]["s"]["rows"] == [[1, 2], [3], [4], [5]]
    assert data["output"]["t"]["rows"] == [[1, 4], [2], [5], [3]]
    code, data = run_json(
        capsys, ["bijection", "--h", "3,5,5,5,5", "--map", "b3", "--monomial", "0,0,1,0,2"]
    )
    assert code == 2


def test_bijection_inverse_b1(capsys):
    code, data = run_json(
        capsys, ["bijection", "--h", "2,3,3", "--map", "b1", "--tableau", "[[3],[2],[1]]"]
    )
    assert code == 0
    assert data["output"] == {"x": [2, 0, 0]}


def test_non_integer_tableau_entries_are_malformed(capsys):
    # entries must be JSON integers: no float, bool or digit string is coerced
    for tableau in ("[[1.9],[2],[3]]", "[[true],[2],[3]]", '[["1"],[2],[3]]'):
        code, data = run_json(
            capsys, ["bijection", "--h", "2,3,3", "--map", "nilpotent", "--tableau", tableau]
        )
        assert code == 2, tableau
        assert data["error"]["type"] == "MalformedInput", tableau


def test_non_ascii_digit_class_index_is_a_validation_error(capsys):
    # str.isdigit accepts a superscript two, int() does not
    code, data = run_json(capsys, ["gkm", "--h", "2,3,3", "--dump-class", "x\u00b2"])
    assert code == 2
    assert data["error"]["type"] == "HesscombError"
    assert "unknown class name" in data["error"]["message"]


def test_bijection_round_trips(capsys):
    for map_name in ("nilpotent", "b1", "b3"):
        code, data = run_json(
            capsys, ["bijection", "--h", "2,3,3", "--map", map_name, "--round-trip"]
        )
        assert code == 0
        assert data["all_ok"] is True
        assert data["count"] > 0


def test_bijection_needs_an_action(capsys):
    code, data = run_json(capsys, ["bijection", "--h", "2,3,3", "--map", "b1"])
    assert code == 2
    assert data["error"]["type"] == "HesscombError"


def test_guardrail(capsys):
    staircase = "1,2,3,4,5,6,7,8"
    code, data = run_json(capsys, ["basis", "--h", staircase, "--which", "Nh"])
    assert code == 2
    assert data["error"]["type"] == "GuardrailExceeded"
    code, data = run_json(
        capsys, ["basis", "--h", staircase, "--which", "Nh", "--max-n", "8"]
    )
    assert code == 0
    assert data["count"] == 1


def test_csf_guardrail_defaults_to_degree_bound(capsys):
    from hesscomb.symfunc import csf_schur_by_ptableaux

    code, data = run_json(capsys, ["csf", "--h", "3,3,4,5,6,7,8,8"])
    assert code == 0
    expected = csf_schur_by_ptableaux(new_hessenberg([3, 3, 4, 5, 6, 7, 8, 8]))
    assert data["schur"] == json.loads(expected.to_json())["terms"]
    code, data = run_json(capsys, ["csf", "--h", "9,9,9,9,9,9,9,9,9"])
    assert code == 2
    assert data["error"]["type"] == "GuardrailExceeded"
    assert "guardrail of 8" in data["error"]["message"]


def test_validation_errors(capsys):
    code, data = run_json(capsys, ["poincare", "--h", "2,x,3"])
    assert code == 2
    assert data["error"]["type"] == "HesscombError"
    code, data = run_json(capsys, ["poincare", "--h", "2,1,3"])
    assert code == 2
    assert data["error"]["type"] == "NotWeaklyIncreasing"
    code, data = run_json(capsys, ["poincare", "--h", "3,3"])
    assert code == 2
    assert data["error"]["type"] == "OutOfRange"


def test_empty_list_arguments_are_validation_errors(capsys):
    for argv in (
        ["poincare", "--h", ""],
        ["tableaux", "--h", "2,3,3", "--shape", ""],
    ):
        code, data = run_json(capsys, argv)
        assert code == 2
        assert data["error"]["type"] == "HesscombError"
        assert "could not parse" in data["error"]["message"]


def test_list_arguments_take_ascii_digits_only(capsys):
    # int() alone would read Arabic-Indic digits as (2,3,3) and 1_2 as 12
    for argv in (
        ["poincare", "--h", "٢,٣,٣"],
        ["tableaux", "--h", "2,3,3", "--shape", "1_2"],
        ["poincare", "--h", "2, 3,3"],
    ):
        code, data = run_json(capsys, argv)
        assert code == 2, argv
        assert data["error"]["type"] == "HesscombError"
        assert "could not parse" in data["error"]["message"]


def test_command_line_errors_are_json(capsys):
    for argv in (
        ["poincare"],
        ["basis", "--h", "2,3,3", "--which", "B9"],
        ["no-such-command", "--h", "2,3,3"],
        [],
        ["poincare", "--h", "2,3,3", "--seed", "1"],
        ["poincare", "--h", "2,3,3", "--long-tests"],
        # option names are taken only in full: no prefix of --help, --format,
        # --relations or --round-trip, at the top level or after a subcommand
        ["poincare", "--h", "2,3,3", "--he"],
        ["verify-goldens", "--he"],
        ["--h", "2,3,3"],
        ["poincare", "--h", "2,3,3", "--form", "latex"],
        ["gkm", "--h", "2,3,3", "--rel"],
        ["bijection", "--h", "2,3,3", "--map", "b1", "--round"],
        # each subcommand takes only the options it reads
        ["csf", "--h", "2,3,3", "--shape", "2,1"],
        ["poincare", "--h", "2,3,3", "--shape", "9,9"],
        ["gkm", "--h", "2,3,3", "--shape", "2,1"],
        ["basis", "--h", "2,3,3", "--shape", "2,1"],
        ["bijection", "--h", "2,3,3", "--map", "b1", "--round-trip", "--shape", "2,1"],
        ["verify-goldens", "--shape", "2,1"],
        ["verify-goldens", "--h", "2,1"],
        ["verify-goldens", "--h", "1"],
        ["verify-paper", "--max-n", "3"],
        # bijection rejects options it would ignore: --k outside map b3, any
        # other option with --round-trip, --trace without --monomial, and
        # --monomial with --tableau
        ["bijection", "--h", "2,3,3", "--map", "b1", "--monomial", "0,0,0", "--k", "2"],
        ["bijection", "--h", "2,3,3", "--map", "nilpotent", "--tableau", "[[1],[2],[3]]", "--k", "2"],
        ["bijection", "--h", "2,3,3", "--map", "b1", "--round-trip", "--monomial", "0,0,0"],
        ["bijection", "--h", "2,3,3", "--map", "b1", "--round-trip", "--tableau", "[[1],[2],[3]]"],
        ["bijection", "--h", "2,3,3", "--map", "b1", "--round-trip", "--trace"],
        ["bijection", "--h", "2,3,3", "--map", "b3", "--round-trip", "--k", "2"],
        ["bijection", "--h", "2,3,3", "--map", "b1", "--tableau", "[[1],[2],[3]]", "--trace"],
        ["bijection", "--h", "2,3,3", "--map", "b1", "--monomial", "0,0,0", "--tableau", "[[1],[2],[3]]"],
        # gkm and basis take one mode per call: --dump-class or --relations,
        # --variant only with --dump-class, --which or --blocks
        ["gkm", "--h", "2,3,3", "--relations", "--dump-class", "x2"],
        ["gkm", "--h", "2,3,3", "--dump-class", "x2", "--relations"],
        ["gkm", "--h", "2,3,3", "--variant", "transpose"],
        ["gkm", "--h", "2,3,3", "--variant", "auto"],
        ["gkm", "--h", "2,3,3", "--relations", "--variant", "one-row"],
        # an empty class name is a class name, not the graph mode
        ["gkm", "--h", "2,3,3", "--dump-class", ""],
        ["gkm", "--h", "2,3,3", "--dump-class", "", "--variant", "one-row"],
        ["basis", "--h", "2,3,3", "--blocks", "--which", "B2"],
        ["basis", "--h", "2,3,3", "--which", "B1", "--blocks"],
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert json.loads(captured.out)["error"]["type"] == "HesscombError"
        assert captured.err == ""


def test_an_empty_class_name_is_not_the_graph(capsys):
    code, data = run_json(capsys, ["gkm", "--h", "2,3,3", "--dump-class", "", "--format", "dot"])
    assert code == 2
    assert data["error"]["type"] == "UnsupportedFormat"


def test_b3_monomial_names_the_empty_basis(capsys):
    code, data = run_json(
        capsys, ["bijection", "--h", "3,3,3", "--map", "b3", "--monomial", "0,0,0", "--k", "2"]
    )
    assert code == 2
    assert data["error"] == {"type": "NotInBasis", "message": "B3 is empty when h(1) = n = 3"}


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["poincare", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_unsupported_formats(capsys):
    for argv in (
        ["poincare", "--h", "2,3,3", "--format", "dot"],
        ["basis", "--h", "2,3,3", "--format", "latex"],
        ["csf", "--h", "2,3,3", "--format", "csv"],
        ["tableaux", "--h", "2,3,3", "--shape", "1,1,1", "--format", "csv"],
    ):
        code, data = run_json(capsys, argv)
        assert code == 2
        assert data["error"]["type"] == "UnsupportedFormat"


def test_verify_goldens(capsys):
    code, data = run_json(capsys, ["verify-goldens"])
    assert code == 0
    assert data["all_ok"] is True
    assert len(data["results"]) == 9
    assert all(item["ok"] for item in data["results"])


def test_verify_paper_alias(capsys):
    _, direct = run(capsys, ["verify-goldens"])
    code, aliased = run(capsys, ["verify-paper"])
    assert code == 0
    assert aliased == direct


def test_verify_goldens_failure_exit(capsys, monkeypatch):
    def fake_verify():
        return [GoldenResult("fig2a", False, "expected 1, got 2")]

    monkeypatch.setattr(cli.goldens, "verify_all", fake_verify)
    code, data = run_json(capsys, ["verify-goldens"])
    assert code == 3
    assert data["all_ok"] is False
    assert data["results"][0]["detail"] == "expected 1, got 2"


def test_poincare_disagreement_exit(capsys, monkeypatch):
    h = new_hessenberg([2, 3, 3])
    poly = QPolynomial({0: 1, 1: 4, 2: 1})
    report = PoincareReport(h, poly, poly, poly, None, False)
    monkeypatch.setattr(cli, "reconcile", lambda _h: report)
    code, data = run_json(capsys, ["poincare", "--h", "2,3,3"])
    assert code == 3
    assert data["methods_agree"] is False


def test_poincare_checks_a_transpose_only_h_by_gkm(capsys, monkeypatch):
    code, data = run_json(capsys, ["poincare", "--h", "3,3,4,4"])
    assert (code, data["methods_agree"]) == (0, True)
    cli._answers.clear()
    monkeypatch.setattr(poincare, "betti_numbers", lambda _h: (1, 1))
    code, data = run_json(capsys, ["poincare", "--h", "3,3,4,4"])
    assert (code, data["methods_agree"]) == (3, False)


def test_poincare_checks_a_transpose_only_h_past_the_gkm_guard(capsys, monkeypatch):
    # n = 5 is past GKM_MAX_N; the closed form of the one-row transpose is
    # a second route, so a wrong one makes the request exit 3.
    code, data = run_json(capsys, ["poincare", "--h", "4,4,4,4,5"])
    assert (code, data["methods_agree"]) == (0, True)
    cli._answers.clear()
    real = poincare.closed_form
    monkeypatch.setattr(poincare, "closed_form", lambda g: real(g) + QPolynomial.one())
    code, data = run_json(capsys, ["poincare", "--h", "4,4,4,4,5"])
    assert (code, data["methods_agree"]) == (3, False)


def test_round_trip_failure_exit(capsys, monkeypatch):
    from hesscomb import bijections

    monkeypatch.setattr(bijections, "_read_b1", lambda hv, col: (9, 9, 9))
    code, data = run_json(
        capsys, ["bijection", "--h", "2,3,3", "--map", "b1", "--round-trip"]
    )
    assert code == 3
    assert data["all_ok"] is False


def test_round_trip_fails_on_an_image_that_is_not_a_p_tableau(capsys, monkeypatch):
    from hesscomb import bijections

    # For h = (2,3,3), x_2 goes to the column [1, 3, 2] (bottom to top).  The
    # column [3, 1, 2] reads back to x_2 as well, since its incomparable pairs
    # (1,2) and (2,3) lie the same way up, but 1 sits on 3 although h(1) < 3:
    # only the P-tableau check can reject it.
    insert = bijections._insert_nilpotent
    assert insert((2, 3, 3), (0, 1, 0)) == [1, 3, 2]
    assert bijections._read_nilpotent((2, 3, 3), ((1, 2), (2, 3)), [1, 3, 2]) == (0, 1, 0)
    monkeypatch.setattr(
        bijections,
        "_insert_nilpotent",
        lambda hv, exps, steps=None: [3, 1, 2] if exps == (0, 1, 0) else insert(hv, exps, steps),
    )
    code, data = run_json(
        capsys, ["bijection", "--h", "2,3,3", "--map", "nilpotent", "--round-trip"]
    )
    assert code == 3
    assert data["all_ok"] is False


def test_output_is_byte_stable(capsys):
    # the second call of each pair is answered from the cache; the third is
    # recomputed after the cache is emptied
    _, first = run(capsys, ["csf", "--h", "2,3,4,4"])
    _, second = run(capsys, ["csf", "--h", "2,3,4,4"])
    cli._answers.clear()
    _, third = run(capsys, ["csf", "--h", "2,3,4,4"])
    assert first == second == third
    _, g1 = run(capsys, ["gkm", "--h", "2,3,3"])
    _, g2 = run(capsys, ["gkm", "--h", "2,3,3"])
    cli._answers.clear()
    _, g3 = run(capsys, ["gkm", "--h", "2,3,3"])
    assert g1 == g2 == g3


# --- answer cache --------------------------------------------------------------


def counting(monkeypatch, name):
    """Replace cli.<name> by a wrapper that counts its calls."""
    calls = []
    fn = getattr(cli, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_repeated_request_calls_the_library_once(capsys, monkeypatch):
    reconciles = counting(monkeypatch, "reconcile")
    colorings = counting(monkeypatch, "csf_by_coloring")
    for _ in range(3):
        assert run(capsys, ["poincare", "--h", "2,3,3"]) == (0, POINCARE_233)
        code, data = run_json(capsys, ["csf", "--h", "2,3,3"])
        assert code == 0 and data["schur_positive"] is True
    assert len(reconciles) == 1
    assert len(colorings) == 1
    run(capsys, ["csf", "--h", "2,3,3", "--format", "latex"])
    assert len(colorings) == 2


ONE_ARGV_PER_ANSWER = (
    ["csf", "--h", "2,3,4,4"],
    ["csf", "--h", "2,3,4,4", "--format", "latex"],
    ["poincare", "--h", "2,3,3"],
    ["poincare", "--h", "2,3,3", "--format", "latex"],
    ["tableaux", "--h", "2,3,3", "--shape", "2,1"],
    ["gkm", "--h", "2,3,3"],
    ["gkm", "--h", "2,3,3", "--format", "dot"],
    ["gkm", "--h", "2,3,3", "--dump-class", "y2", "--variant", "transpose"],
    ["gkm", "--h", "2,3,3", "--relations"],
    ["basis", "--h", "2,3,3", "--which", "B3"],
    ["basis", "--h", "2,3,3", "--blocks"],
    ["basis", "--h", "2,3,3", "--blocks", "--format", "csv"],
    ["bijection", "--h", "2,3,5,5,5", "--map", "nilpotent", "--monomial", "1,0,1,1,0", "--trace"],
    ["bijection", "--h", "3,5,5,5,5", "--map", "b3", "--monomial", "0,0,1,0,2", "--k", "2"],
    ["bijection", "--h", "2,3,3", "--map", "b1", "--tableau", "[[3],[2],[1]]"],
    ["bijection", "--h", "2,3,3", "--map", "b3", "--round-trip"],
    ["verify-goldens"],
)


@pytest.mark.parametrize("argv", ONE_ARGV_PER_ANSWER, ids=" ".join)
def test_a_hit_prints_what_the_miss_printed(capsys, argv):
    miss = run(capsys, argv)
    assert len(cli._answers) == 1
    hit = run(capsys, argv)
    assert hit == miss
    assert miss[0] == 0


def test_every_option_keys_the_answer():
    # an option added to a subcommand later keys its answers by itself; only
    # the alias, the raw --h text and the --max-n guard are left out
    assert cli._UNKEYED == {"command", "h_values", "max_n"}
    minimal = {
        "csf": ["--h", "2,3,3"],
        "poincare": ["--h", "2,3,3"],
        "tableaux": ["--h", "2,3,3", "--shape", "2,1"],
        "gkm": ["--h", "2,3,3"],
        "basis": ["--h", "2,3,3"],
        "bijection": ["--h", "2,3,3", "--map", "b1", "--round-trip"],
        "verify-goldens": [],
        "verify-paper": [],
    }
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(minimal)
    for name, parser in sub.choices.items():
        options = {a.dest for a in parser._actions if a.option_strings} - {"help"}
        keyed = {option for option, _ in cli._answer_key(cli._parse_args([name, *minimal[name]]))}
        assert options - {"h_values", "max_n"} <= keyed, name
        assert "run" in keyed, name


def test_a_failed_verification_is_kept(capsys, monkeypatch):
    monkeypatch.setattr(cli.goldens, "verify_all", lambda: [GoldenResult("fig2a", False, "x")])
    failed = run(capsys, ["verify-goldens"])
    assert failed[0] == 3
    monkeypatch.undo()
    assert run(capsys, ["verify-goldens"]) == failed


def test_errors_are_not_kept(capsys, monkeypatch):
    for argv in (
        ["tableaux", "--h", "2,3,3", "--shape", "2,1,1"],
        ["gkm", "--h", "2,3,4,4", "--relations"],
        ["bijection", "--h", "3,5,5,5,5", "--map", "b3", "--monomial", "0,0,1,0,2"],
        ["poincare", "--h", "2,3,3", "--max-n", "2"],
    ):
        code, data = run_json(capsys, argv)
        assert code == 2 and "error" in data, argv
    assert len(cli._answers) == 0 and cli._answers.nbytes == 0

    def refuse(_h):
        raise cli.HesscombError("refused")

    monkeypatch.setattr(cli, "reconcile", refuse)
    code, data = run_json(capsys, ["poincare", "--h", "2,3,3"])
    assert code == 2 and data["error"]["message"] == "refused"
    assert len(cli._answers) == 0
    monkeypatch.undo()
    assert run(capsys, ["poincare", "--h", "2,3,3"]) == (0, POINCARE_233)


def test_spellings_of_one_request_share_an_entry(capsys, monkeypatch):
    reconciles = counting(monkeypatch, "reconcile")
    plain = run(capsys, ["poincare", "--h", "2,5,5,5,5"])
    assert run(capsys, ["poincare", "--h", "2,05,5,5,5"]) == plain
    assert run(capsys, ["poincare", "--h", "2,5,5,5,5", "--max-n", "7"]) == plain
    assert run(capsys, ["poincare", "--max-n", "5", "--h", "2,5,5,5,5"]) == plain
    assert len(reconciles) == 1
    assert len(cli._answers) == 1
    verifications = []
    verify_all = cli.goldens.verify_all
    monkeypatch.setattr(cli.goldens, "verify_all", lambda: verifications.append(1) or verify_all())
    direct = run(capsys, ["verify-goldens"])
    assert run(capsys, ["verify-paper"]) == direct
    assert len(verifications) == 1
    assert len(cli._answers) == 2


def test_answer_cache_stays_within_its_byte_budget(capsys, monkeypatch):
    reconciles = counting(monkeypatch, "reconcile")
    a, b, c = (["poincare", "--h", h] for h in ("2,3,3", "2,3,4,4", "3,4,5,5,5"))
    sizes = {}
    for argv in (a, b, c):
        cli._answers.clear()
        run(capsys, argv)
        sizes[argv[2]] = cli._answers.nbytes
    sa, sb, sc = sizes.values()
    budget = max(sa + sb, sa + sc)
    assert budget < sa + sb + sc
    monkeypatch.setattr(cli, "_ANSWER_CACHE_BYTES", budget)
    cli._answers.clear()
    del reconciles[:]
    for argv in (a, b, a, c):
        run(capsys, argv)
        assert cli._answers.nbytes <= budget
    # a was used after b, so c evicted b, the least recently used
    assert len(reconciles) == 3 and len(cli._answers) == 2
    run(capsys, a)
    run(capsys, c)
    assert len(reconciles) == 3
    run(capsys, b)
    assert len(reconciles) == 4
    assert cli._answers.nbytes <= budget

    monkeypatch.setattr(cli, "_ANSWER_CACHE_BYTES", sa - 1)
    cli._answers.clear()
    assert run(capsys, a) == (0, POINCARE_233)
    assert len(cli._answers) == 0 and cli._answers.nbytes == 0
    assert run(capsys, a) == (0, POINCARE_233)
    assert len(reconciles) == 6


def test_csf_refuses_a_degree_above_the_bound_before_the_coloring_sum(capsys, monkeypatch):
    def no_coloring_sum(_graph):
        pytest.fail("csf ran the coloring sum for a degree it must refuse")

    monkeypatch.setattr(cli, "csf_by_coloring", no_coloring_sum)
    code, data = run_json(capsys, ["csf", "--h", "2,3,4,5,6,7,8,9,9", "--max-n", "9"])
    assert code == 2
    assert data["error"] == {"type": "DegreeTooLarge", "message": "degree 9 exceeds bound 8"}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hesscomb.cli", "poincare", "--h", "2,3,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == POINCARE_233


def test_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hesscomb; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_consecutive_calls_share_no_arguments(capsys):
    assert cli.build_parser() is cli.build_parser()
    _, data = run_json(capsys, ["basis", "--h", "2,3,3", "--which", "B2"])
    assert data["label"] == "B2"
    _, data = run_json(capsys, ["basis", "--h", "2,3,3"])
    assert data["label"] == "B1"
    forward = ["bijection", "--h", "2,3,5,5,5", "--map", "nilpotent", "--monomial", "1,0,1,1,0"]
    _, traced = run_json(capsys, forward + ["--trace"])
    assert traced == lookup("ex-nilpotent-insertion")
    _, data = run_json(capsys, forward)
    assert data["output"]["rows"] == [[2], [1], [5], [3], [4]]
    assert data != traced
    code, out = run(capsys, ["basis", "--h", "2,3,3", "--blocks", "--format", "csv"])
    assert code == 0 and out.startswith("degree,0")
    code, data = run_json(capsys, ["basis", "--h", "2,3,3", "--blocks"])
    assert code == 0 and data["blocks"][0]["degree"] == 0


# --- argv fuzzing -------------------------------------------------------------

# Valid --h values stay at n <= 3; at n = 4 poincare may take seconds.  The
# n = 9 value always exceeds --max-n, whose drawn values are at most 7.
H_VALUES = ("1", "1,2", "2,2", "1,3,3", "2,2,3", "2,3,3", "3,3,3", "1,2,3",
            "", "2,1,3", "3,3", "0", "2,x,3", "-1", "9,9,9,9,9,9,9,9,9")
OPTION_VALUES = {
    "--h": H_VALUES,
    "--shape": ("2,1", "1,1,1", "3", "2,2", "", "x", "0"),
    "--format": ("json", "csv", "latex", "dot", "xml"),
    "--max-n": ("3", "7", "0", "-1", "x"),
    "--dump-class": ("x1", "y2", "t1", "y9", "z", "x"),
    "--variant": ("auto", "one-row", "transpose", "both"),
    "--which": ("B1", "B2", "B3", "Nh", "transpose", "B9"),
    "--map": ("nilpotent", "b1", "b3", "zz"),
    "--monomial": ("1,0,0", "0,1,0", "2,0,0", "0,0", "a"),
    "--k": ("1", "2", "5", "-1", "x"),
    "--tableau": ("[[3],[2],[1]]", "[[1,2],[3]]", "[[", "[]", "[[0]]"),
}
FLAGS = tuple(OPTION_VALUES) + ("--relations", "--blocks", "--trace", "--round-trip", "--nope")
COMMON_FLAGS = ("--h", "--format", "--max-n")
OWN_FLAGS = {
    "tableaux": ("--shape",),
    "gkm": ("--dump-class", "--variant", "--relations"),
    "basis": ("--which", "--blocks"),
    "bijection": ("--map", "--monomial", "--k", "--tableau", "--trace", "--round-trip"),
}
SUBCOMMANDS = ("csf", "poincare", "tableaux", "gkm", "basis", "bijection",
               "verify-goldens", "verify-paper", "nope")


@st.composite
def argvs(draw):
    """A subcommand, usually a valid --h, then flags that mostly belong to the
    subcommand, sometimes abbreviated, each usually with a value, and sometimes
    one stray token."""
    sub = draw(st.sampled_from(SUBCOMMANDS))
    argv = [sub]
    if draw(st.sampled_from((True, True, True, False))):
        argv += ["--h", draw(st.sampled_from(H_VALUES[:8]))]
    for _ in range(draw(st.integers(0, 4))):
        own = COMMON_FLAGS + OWN_FLAGS.get(sub, ())
        flag = draw(st.sampled_from(own if draw(st.sampled_from((True,) * 3 + (False,))) else FLAGS))
        if draw(st.sampled_from((True,) * 5 + (False,))):
            argv.append(flag)
        else:
            argv.append(flag[:draw(st.integers(3, len(flag) - 1))] if len(flag) > 3 else "--he")
        if flag in OPTION_VALUES and draw(st.sampled_from((True,) * 7 + (False,))):
            argv.append(draw(st.sampled_from(OPTION_VALUES[flag])))
    if not draw(st.sampled_from((True,) * 7 + (False,))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.text("abc019,[]", max_size=4)))
    return argv


def requested_format(argv):
    fmt = "json"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--format":
            fmt = value
    return fmt


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_any_argv_keeps_the_output_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    assert code in (0, 2, 3), argv
    assert err.getvalue() == "", argv
    assert text.endswith("\n"), argv
    if code == 2:
        assert list(json.loads(text)) == ["error"], argv
        return
    fmt = requested_format(argv)
    if fmt == "json":
        json.loads(text)
    elif fmt == "dot":
        assert text.startswith("graph gkm {") and text.endswith("}\n")
    elif fmt == "csv":
        assert all(re.fullmatch(r"-?\w+(,-?\w+)*", line) for line in text.splitlines() if line)
    else:
        assert fmt == "latex" and text.strip() and "\n" not in text.rstrip("\n")
