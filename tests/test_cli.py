"""The command-line surface: routing, formats, and exit codes."""

import csv
import importlib
import io
import json
import time

import pytest

from quasilie import cli, lie
from quasilie.abelian import AbelianHom, NotDivisible
from quasilie.eta import PullbackMismatch, eta, eta_infinity
from quasilie.lie import (LIE, QUASI, ImageEscapesKernel, LiftMismatch,
                          WellDefinednessError, lie_group)
from quasilie.treegroups import t_group, t_infinity


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGroup:
    def test_t1(self, capsys):
        code, out, _ = run(capsys, "group", "T", "--order", "1",
                           "--labels", "2")
        assert code == 0
        data = json.loads(out)
        assert data == {"group": "T", "order": 1, "labels": 2,
                        "free_rank": 0, "torsion": [2, 2, 2, 2]}

    def test_tinf0(self, capsys):
        code, out, _ = run(capsys, "group", "Tinf", "--order", "0",
                           "--labels", "2")
        assert json.loads(out)["free_rank"] == 3

    def test_witt_l5(self, capsys):
        code, out, _ = run(capsys, "group", "L", "--order", "5",
                           "--labels", "2")
        data = json.loads(out)
        assert (data["free_rank"], data["torsion"]) == (6, [])

    def test_generators_flag(self, capsys):
        code, out, _ = run(capsys, "group", "T", "--order", "0",
                           "--labels", "2", "--generators")
        assert json.loads(out)["generators"] == ["<1,1>", "<1,2>", "<2,2>"]

    def test_invalid_name_exit3(self, capsys):
        code, _, err = run(capsys, "group", "Nope", "--order", "1",
                           "--labels", "2")
        assert code == 3

    def test_budget_exit2_and_override(self, capsys):
        code, _, _ = run(capsys, "group", "T", "--order", "5", "--labels", "2")
        assert code == 2
        code, out, _ = run(capsys, "--max-order", "5", "group", "L",
                           "--order", "6", "--labels", "2")
        assert code == 0
        assert json.loads(out)["free_rank"] == 9

    def test_three_labels_small_order_allowed(self, capsys):
        code, out, _ = run(capsys, "group", "T", "--order", "1",
                           "--labels", "3")
        assert code == 0

    def test_three_labels_refused_under_lowered_label_cap(self, capsys):
        code, out, _ = run(capsys, "--max-labels", "1", "group", "L",
                           "--order", "2", "--labels", "3")
        assert code == 2 and out == ""

    def test_routing_matches_library(self, capsys):
        for name, order, builder in (
                ("L", 3, lambda: lie_group(3, 2, LIE)),
                ("T", 2, lambda: t_group(2, 2)),
                ("Tinf", 2, lambda: t_infinity(2, 2).group)):
            code, out, _ = run(capsys, "group", name, "--order", str(order),
                               "--labels", "2")
            data = json.loads(out)
            g = builder()
            assert (data["free_rank"], data["torsion"]) \
                == (g.free_rank, g.torsion)


class TestMap:
    def test_eta_prime_element(self, capsys):
        code, out, _ = run(capsys, "map", "etaP", "--order", "0",
                           "--labels", "2", "--element", "<1,2>")
        assert code == 0
        assert out.strip() == "X1⊗X2 + X2⊗X1"

    def test_delta_element(self, capsys):
        code, out, _ = run(capsys, "map", "delta", "--order", "1",
                           "--labels", "2", "--element", "<1,2>")
        assert code == 0
        assert out.strip() == "<1,(1,2)> + <1,(2,2)>"

    def test_eta_infinity_element(self, capsys):
        code, out, _ = run(capsys, "map", "eta", "--order", "0",
                           "--labels", "1", "--element", "inf:1")
        assert out.strip() == "X1⊗X1"

    def test_matrix_mode(self, capsys):
        code, out, _ = run(capsys, "map", "sq", "--order", "1",
                           "--labels", "2")
        data = json.loads(out)
        assert data["injective"] and not data["isomorphism"]
        assert data["matrix"]

    def test_parse_error_exit4(self, capsys):
        code, _, _ = run(capsys, "map", "etaP", "--order", "0",
                         "--labels", "2", "--element", "<1,")
        assert code == 4
        code, _, _ = run(capsys, "map", "etaP", "--order", "1",
                         "--labels", "2", "--element", "<1,9>")
        assert code == 4
        # labels that int() would read, but the grammar does not
        for name, element in (
                ("etaP", "<1_0,(1,2)>"), ("etaP", "<+1,(1,2)>"),
                ("etaP", "< 1,(1,2)>"), ("etaP", "<\u0663,(1,2)>"),
                ("etaP", "<1,(1,+2)>"), ("sq", "(\u0663,1)"),
                ("bracket", "1_0:(1,2)"), ("bracket", "+1:(1,2)"),
                ("bracket", "1 :(1,2)"), ("bracket", "\u0663:(1,2)")):
            code, out, err = run(capsys, "map", name, "--order", "1",
                                 "--labels", "2", "--element", element)
            assert code == 4 and out == ""
            assert "a label is a decimal integer >= 1 in ASCII" in err

    @pytest.mark.parametrize("index", [
        "+1", " 1", "1 2", "-1", "1_0", "", "\u0661", "1.0", "0x1"])
    def test_kernel_index_is_ascii_digits(self, capsys, index):
        # int() reads most of these; the grammar reads none, and the error
        # quotes the token as given
        element = f"ker:{index}"
        code, out, err = run(capsys, "--max-order", "4", "map", "sl",
                             "--order", "2", "--labels", "2",
                             "--element", element)
        assert code == 4 and out == ""
        assert err == (f"error: cannot parse element {element!r} in the "
                       f"domain of this map: a kernel generator index is a "
                       f"decimal integer >= 0 in ASCII digits, not "
                       f"{index!r}\n")

    @pytest.mark.parametrize("name,order,element", [
        ("etaP", 1, "<1, (1,2)>"), ("etaP", 1, "<1,(1,2) >"),
        ("etaP", 1, "<1,(1, 2)>"), ("bracket", 1, "1: (1,2)"),
        ("bracket", 1, "1:(1 ,2)"),
        ("eta", 2, "inf: (1,2)"), ("eta", 2, "inf:(1,2 )")])
    def test_whitespace_inside_a_token_exit4(self, capsys, name, order,
                                             element):
        code, out, err = run(capsys, "map", name, "--order", str(order),
                             "--labels", "2", "--element", element)
        assert code == 4 and out == ""
        assert err.startswith(f"error: cannot parse element "
                              f"{element.strip()!r}")

    def test_whitespace_around_a_token_is_trimmed(self, capsys):
        for name, order, element in (("etaP", 1, "<1,(1,2)>"),
                                     ("bracket", 1, "1:(1,2)"),
                                     ("eta", 2, "inf:(1,2)"),
                                     ("sl", 2, "ker:1")):
            argv = ("--max-order", "4", "map", name, "--order", str(order),
                    "--labels", "2", "--element")
            want = run(capsys, *argv, element)
            assert want[0] == 0
            assert run(capsys, *argv, f" {element}\t") == want

    @pytest.mark.parametrize("name,order,element,reason", [
        ("etaP", 2, "<1,(1,(1,3))>", "label 3 is outside 1..2"),
        ("etaP", 2, "inf:(1,2)", "the domain has no infinity trees inf:T, "
                                 "only unrooted trees <i,T>"),
        ("etaP", 2, "<1,(1,2)>", "the tree has order 1, but the domain's "
                                 "unrooted trees <i,T> have order 2"),
        ("eta", 2, "inf:(1,(1,2))", "the tree has order 2, but the "
                                    "domain's infinity trees inf:T have "
                                    "order 1"),
        ("bracket", 1, "3:(1,2)", "label 3 is outside 1..2"),
        ("bracket", 1, "1:1", "the tree has order 0"),
        ("sl", 2, "ker:9", "there is no generator ker:9; the domain has "
                           "ker:0 to ker:8"),
    ])
    def test_element_outside_the_domain_names_the_reason(
            self, capsys, name, order, element, reason):
        # a well-formed generator that the domain lacks is not reported by
        # its bare lookup key
        code, out, err = run(capsys, "--max-order", "4", "map", name,
                             "--order", str(order), "--labels", "2",
                             "--element", element)
        assert code == 4 and out == ""
        assert err.startswith(f"error: cannot parse element {element!r} in "
                              f"the domain of this map: ")
        assert reason in err

    def test_deeply_nested_element_exit4(self, capsys):
        depth = 1200  # deeper than the interpreter's default recursion limit
        tree = "(" * depth + "1" + ",1)" * depth
        for argv in (("sq", "--order", "1", "--labels", "1",
                      "--element", tree),
                     ("etaP", "--order", "0", "--labels", "2",
                      "--element", f"<1,{tree}>")):
            code, out, err = run(capsys, "map", *argv)
            assert code == 4
            assert out == "" and err.startswith("error:")
            assert err.count("error:") == 1 and len(err.splitlines()) == 1
            assert "Traceback" not in err

    def test_bad_map_exit3(self, capsys):
        code, _, _ = run(capsys, "map", "nosuch", "--order", "0",
                         "--labels", "2")
        assert code == 3


class TestVerify:
    def test_single_claim(self, capsys):
        code, out, _ = run(capsys, "verify", "thm31_i", "--max-order", "2",
                           "--labels", "2")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["status"] == "verified"

    def test_all_small(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "all", "--max-order", "1",
                           "--labels", "2", "--report", str(path))
        assert code == 0
        reports = json.loads(out)
        assert len(reports) >= 10
        assert path.read_text() == out

    def test_unwritable_report_exit6(self, capsys, monkeypatch, tmp_path):
        # the report is opened before any claim runs, so nothing is printed
        ran = []
        monkeypatch.setattr(cli, "verify_all", lambda *a: ran.append(a))
        for path in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run(capsys, "verify", "all", "--max-order", "1",
                                 "--labels", "1", "--report", str(path))
            assert code == 6 and out == "" and ran == []
            assert err.startswith(f"error: cannot write --report {path}: ")
            assert err.count("\n") == 1

    def test_order_option_removed(self, capsys):
        # --max-order is the one order option of verify
        with pytest.raises(SystemExit) as e:
            cli.main(["verify", "tau_odd", "--order", "1", "--labels", "2"])
        assert e.value.code == 6
        assert "unrecognized arguments: --order" in capsys.readouterr().err
        code, out, _ = run(capsys, "verify", "tau_odd", "--max-order", "1",
                           "--labels", "2")
        assert code == 0
        assert json.loads(out)[0]["status"] == "verified"

    def test_budget_exit2_and_override(self, capsys):
        # verify's own --max-order picks the orders; the global caps bound it
        for argv in (("--max-order", "5", "--labels", "1"),
                     ("--max-order", "3", "--labels", "3")):
            code, out, err = run(capsys, "verify", "thm31_i", *argv)
            assert code == 2 and out == "" and err.startswith("error:")
        code, out, _ = run(capsys, "--max-order", "5", "verify", "thm31_i",
                           "--max-order", "5", "--labels", "1")
        assert code == 0
        assert json.loads(out)[0]["params"]["max_order"] == 5

    def test_unknown_claim_exit3(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == 3

    def test_determinism_bytes(self, capsys):
        a = run(capsys, "verify", "all", "--max-order", "1", "--labels", "1")
        b = run(capsys, "verify", "all", "--max-order", "1", "--labels", "1")
        assert a == b


class TestQuadratic:
    def test_commutative_arf(self, capsys, tmp_path):
        path = tmp_path / "z2form.json"
        path.write_text(json.dumps(
            {"A": {"generators": ["a"], "relations": [[2]]},
             "M": {"generators": ["s"], "relations": [[2]]},
             "lambda": [[[1]]]}))
        code, out, _ = run(capsys, "quadratic", "commutative",
                           "--input", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["M_c_e"] == {"free_rank": 0, "torsion": [4]}
        assert data["axioms"]["status"] == "verified"

    def test_symmetric_zero_form(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(
            {"A": {"generators": ["a", "b"]},
             "M": {"generators": ["z"]},
             "lambda": [[[0], [0]], [[0], [0]]]}))
        code, out, _ = run(capsys, "quadratic", "symmetric",
                           "--input", str(path))
        data = json.loads(out)
        assert data["M_c_e"] == {"free_rank": 1, "torsion": [2, 2]}
        assert data["p_injective"]

    def test_universal_extension_output(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(
            {"A": {"generators": ["a", "b"]},
             "M": {"generators": ["x", "y"]},
             "involution": [[0, 1], [1, 0]],
             "lambda": [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]}))
        code, out, _ = run(capsys, "quadratic", "universal",
                           "--input", str(path))
        data = json.loads(out)
        assert code == 0
        assert not data["commutative_on_generators"]
        assert data["axioms"]["status"] == "verified"

    def test_bridge(self, capsys):
        code, out, _ = run(capsys, "quadratic", "bridge", "--order", "0",
                           "--labels", "2")
        assert code == 0
        assert json.loads(out)["isomorphic"] is True

    @pytest.mark.parametrize("bad", [
        {"A": {"generators": ["a"], "relations": [["x"]]}},
        {"lambda": [[["x"]]]},
        {"A": {"generators": ["a"], "relations": 5}},
        {"A": {"generators": [["a"]]}},
        {"A": {"generators": [2]}},
        # integer names would be read as generator positions
        {"A": {"generators": [1, 0]}, "lambda": [[[1], [0]], [[0], [0]]]},
    ], ids=["relation_entry", "lambda_entry", "relations_not_list",
            "unhashable_generator", "integer_generator", "integer_names"])
    def test_malformed_form_exit5(self, capsys, tmp_path, bad):
        data = {"A": {"generators": ["a"], "relations": [[2]]},
                "M": {"generators": ["m"], "relations": [[2]]},
                "lambda": [[[1]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**data, **bad}))
        code, out, err = run(capsys, "quadratic", "commutative",
                             "--input", str(path))
        assert code == 5 and out == "" and err.startswith("error:")

    def test_huge_relator_coefficient_is_fast(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"A": {"generators": ["a"], "relations": [[10 ** 9]]},
             "M": {"generators": ["m"], "relations": [[2]]},
             "lambda": [[[1]]]}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "quadratic", "commutative",
                           "--input", str(path))
        assert time.perf_counter() - start < 5
        assert code == 0
        # 2 mu(a) = m has order 2, and the relator word 10^9 mu(a) +
        # C(10^9, 2) m vanishes, as 4 divides 10^9 and C(10^9, 2) is even
        assert json.loads(out)["M_c_e"] == {"free_rank": 0, "torsion": [4]}

    def test_schema_error_exit5(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": 5}')
        code, _, _ = run(capsys, "quadratic", "commutative",
                         "--input", str(path))
        assert code == 5
        code, _, _ = run(capsys, "quadratic", "commutative")
        assert code == 5


class TestFormats:
    """--format text and csv of group and map; json is the default that the
    other tests read."""

    def test_group_text(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "group", "L",
                           "--order", "1", "--labels", "1")
        assert code == 0
        assert out == ("group: L\norder: 1\nlabels: 1\nfree_rank: 1\n"
                       "torsion: []\n")

    def test_group_text_lists(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "group", "T",
                           "--order", "1", "--labels", "2", "--generators")
        assert code == 0
        assert out == ("group: T\norder: 1\nlabels: 2\nfree_rank: 0\n"
                       "torsion:\n" + "  - 2\n" * 4 + "generators:\n"
                       "  - <1,(1,1)>\n  - <1,(1,2)>\n  - <1,(2,2)>\n"
                       "  - <2,(2,2)>\n")
        assert not any(line.endswith(" ") for line in out.split("\n"))

    def test_map_text(self, capsys):
        # an empty list prints as [], not as an empty line
        code, out, _ = run(capsys, "--format", "text", "map", "sq",
                           "--order", "1", "--labels", "1")
        assert code == 0
        assert out == (
            "map: sq\norder: 1\nlabels: 1\nmatrix:\n  -\n    - 1\n"
            "source:\n  free_rank: 0\n  torsion:\n    - 2\n"
            "target:\n  free_rank: 0\n  torsion:\n    - 2\n"
            "kernel:\n  free_rank: 0\n  torsion: []\n"
            "cokernel:\n  free_rank: 0\n  torsion: []\n"
            "injective: True\nsurjective: True\nisomorphism: True\n")
        assert "" not in out[:-1].split("\n")
        assert not any(line.endswith(" ") for line in out.split("\n"))

    def test_group_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "group", "T",
                           "--order", "1", "--labels", "2")
        assert code == 0
        assert out == ("group,order,labels,free_rank,torsion\r\n"
                       'T,1,2,0,"[2, 2, 2, 2]"\r\n')

    def test_map_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "map", "sq",
                           "--order", "1", "--labels", "1")
        assert code == 0
        head, row = csv.reader(io.StringIO(out))
        assert head == ["map", "order", "labels", "matrix", "source",
                        "target", "kernel", "cokernel", "injective",
                        "surjective", "isomorphism"]
        assert row[:3] == ["sq", "1", "1"] and row[8:] == ["true"] * 3
        # nested values are JSON, and agree with the json format
        _, js, _ = run(capsys, "map", "sq", "--order", "1", "--labels", "1")
        want = json.loads(js)
        assert [json.loads(v) for v in row[3:8]] == [
            want[k] for k in head[3:8]]


class TestTable:
    def test_csv_grid(self, capsys):
        code, out, _ = run(capsys, "table", "--names", "L,T",
                           "--max-order", "2", "--labels", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,n,m,free_rank,torsion"
        assert "T,1,2,0,2;2;2;2" in lines

    def test_budget_cut_is_noted_on_stderr(self, capsys):
        code, out, err = run(capsys, "table", "--names", "T,Dinf",
                             "--max-order", "6", "--labels", "2")
        assert code == 0
        _, capped, none = run(capsys, "table", "--names", "T,Dinf",
                              "--max-order", "4", "--labels", "2")
        assert out == capped and none == ""
        assert err.count("\n") == 1
        assert "skipped orders 5,6 " in err


class TestDomain:
    """Name, then order/labels domain (exit 3), then budget (exit 2)."""

    def test_out_of_domain_exit3(self, capsys):
        for argv in (("group", "L", "--order", "0", "--labels", "2"),
                     ("group", "T", "--order", "-1", "--labels", "2"),
                     ("group", "T", "--order", "2", "--labels", "0"),
                     ("map", "sq", "--order", "0", "--labels", "2"),
                     ("map", "p", "--order", "0", "--labels", "2"),
                     ("map", "delta", "--order", "20", "--labels", "2"),
                     ("group", "Dinf", "--order", "8", "--labels", "2"),
                     ("map", "etaTilde", "--order", "20", "--labels", "2")):
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "", argv
            assert err.startswith("error:") and "budget" not in err, argv

    def test_name_is_checked_before_the_domain(self, capsys):
        code, _, err = run(capsys, "group", "Nope", "--order", "-1",
                           "--labels", "0")
        assert code == 3 and "unknown group name" in err
        code, _, err = run(capsys, "map", "nosuch", "--order", "20",
                           "--labels", "2")
        assert code == 3 and "unknown map name" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "thm31_i", "--labels", "0"),
        ("verify", "all", "--max-order", "-1"),
        ("verify", "nosuch", "--max-order", "9"),
        ("quadratic", "bridge", "--order", "-2", "--labels", "2"),
        ("quadratic", "bridge", "--order", "2", "--labels", "0"),
    ], ids=" ".join)
    def test_verify_and_bridge_out_of_domain_exit3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "budget" not in err

    @pytest.mark.parametrize("argv", [
        ("table", "--labels", "0"),
        ("table", "--labels", "-2"),
        ("table", "--names", "T", "--max-order", "-1"),
    ], ids=" ".join)
    def test_table_grid_out_of_domain_exit3(self, capsys, argv):
        # an empty grid is refused, not printed as a bare CSV header
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: table needs") and err.count("\n") == 1

    def test_table_checks_names_before_the_grid(self, capsys):
        code, out, err = run(capsys, "table", "--names", "T,Nope",
                             "--labels", "0")
        assert (code, out, err) == (3, "", "error: unknown group name: Nope\n")

    def test_usage_error_exit6(self, capsys):
        # a global flag after the subcommand is a usage error, not a refusal
        with pytest.raises(SystemExit) as e:
            cli.main(["group", "T", "--order", "1", "--labels", "2",
                      "--max-order", "5"])
        err = capsys.readouterr().err
        assert e.value.code == 6
        assert err.startswith("usage:") and "error: unrecognized" in err
        with pytest.raises(SystemExit) as e:
            cli.main(["group", "T", "--order", "x", "--labels", "2"])
        assert e.value.code == 6
        with pytest.raises(SystemExit) as e:
            cli.main(["--help"])
        assert e.value.code == 0

    def test_jobs_flag_is_gone(self, capsys):
        # --jobs was accepted and ignored; it is now an unknown option
        with pytest.raises(SystemExit) as e:
            cli.main(["--jobs", "2", "group", "T", "--order", "1",
                      "--labels", "2"])
        assert e.value.code == 6
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        # the message names the option, not the value argparse took for
        # the command
        assert err.endswith("quasilie: error: unrecognized arguments: "
                            "--jobs\n")
        assert "invalid choice" not in err
        # a bad command with no stray option before it is still named
        with pytest.raises(SystemExit) as e:
            cli.main(["--seed", "1", "nosuch"])
        assert e.value.code == 6
        assert "invalid choice: 'nosuch'" in capsys.readouterr().err
        # and a stray option before a real command keeps the subcommand's
        # own error
        with pytest.raises(SystemExit) as e:
            cli.main(["--jobs", "group", "T"])
        assert e.value.code == 6
        assert capsys.readouterr().err.endswith(
            "quasilie group: error: the following arguments are required: "
            "--order, --labels\n")

    @pytest.mark.parametrize("claim,max_order,builder,error", [
        ("framing_factorization", 1, "delta", WellDefinednessError),
        ("master_diagram_1", 4, "sl", LiftMismatch),
        ("thm31_vi", 2, "eta_infinity", PullbackMismatch),
        ("thm31_i", 0, "eta_prime", ImageEscapesKernel),
    ])
    def test_consistency_error_exit7(self, capsys, monkeypatch, claim,
                                     max_order, builder, error):
        # a builder that a claim calls fails its own check: one error line
        # and exit 7, not a traceback and the exit 1 of a failed claim
        def broken(n, m):
            raise error(f"{builder}({n},{m}) forced to fail")
        monkeypatch.setattr(importlib.import_module("quasilie.eta"),
                            builder, broken)
        code, out, err = run(capsys, "verify", claim, "--max-order",
                             str(max_order), "--labels", "1")
        assert code == 7 and out == ""
        assert err.startswith("error: " + builder) and err.count("\n") == 1
        assert "Traceback" not in err

    def test_odd_double_in_eta_exit7(self, capsys, monkeypatch):
        # a doubling map with no preimages makes the J^inf columns of eta
        # odd doubles; a fresh eta, since the cached one is already built
        real = AbelianHom.scale
        monkeypatch.setattr(AbelianHom, "scale", lambda h, k: real(h, 0))
        monkeypatch.setattr(cli, "eta_map", eta.__wrapped__)
        code, out, err = run(capsys, "map", "eta", "--order", "2",
                             "--labels", "2")
        assert code == 7 and out == ""
        assert err == ("error: eta(2,2) image of ('inf', (1,2)) is not "
                       "divisible by 2\n")

    def test_sq_inf_escape_exit7(self, capsys, monkeypatch):
        # D^inf is built afresh, and its sq_inf pairs (0, sq(1 (x) J))
        # fall outside the pullback
        real = lie.DInfinity.pair_coordinates

        def pair_coordinates(di, d, lq):
            if not d:
                raise NotDivisible("forced")
            return real(di, d, lq)
        monkeypatch.setattr(lie.DInfinity, "pair_coordinates",
                            pair_coordinates)
        monkeypatch.setattr(lie, "d_infinity", lie.d_infinity.__wrapped__)
        code, out, err = run(capsys, "group", "Dinf", "--order", "2",
                             "--labels", "1")
        assert code == 7 and out == ""
        assert err == "error: sq_inf: a pair (0, sq(1 (x) J)) escapes D^inf\n"

    def test_master_block_pair_escape_exit7(self, capsys, monkeypatch):
        # D^inf and eta_inf are built first; then the pairs (D' column, 0)
        # of the twisted block fall outside the pullback
        eta_infinity(2, 1)
        real = lie.DInfinity.pair_coordinates

        def pair_coordinates(di, d, lq):
            if not lq:
                raise NotDivisible("forced")
            return real(di, d, lq)
        monkeypatch.setattr(lie.DInfinity, "pair_coordinates",
                            pair_coordinates)
        code, out, err = run(capsys, "verify", "master_diagram_2",
                             "--max-order", "2", "--labels", "1")
        assert code == 7 and out == ""
        assert err == ("error: master_diagram_2 block(k=1,m=1): a pair "
                       "(D' column, 0) escapes D^inf\n")

    def test_kernel_generator_escape_exit7(self, capsys, monkeypatch):
        # (J,J)^inf read outside ker eta(2,1) by thm31_v's generator map
        e = eta(2, 1)
        real = AbelianHom.kernel_coordinates

        def kernel_coordinates(h, vec):
            if h is e:
                raise NotDivisible("forced")
            return real(h, vec)
        monkeypatch.setattr(AbelianHom, "kernel_coordinates",
                            kernel_coordinates)
        code, out, err = run(capsys, "verify", "thm31_v", "--max-order", "2",
                             "--labels", "1")
        assert code == 7 and out == ""
        assert err == ("error: eta(2,1): (J,J)^inf escapes the kernel at "
                       "J=1\n")

    def test_in_domain_over_budget_exit2(self, capsys):
        for argv in (("group", "Dinf", "--order", "10", "--labels", "2"),
                     ("map", "delta", "--order", "21", "--labels", "2"),
                     ("map", "sq", "--order", "3", "--labels", "2")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error: budget exceeded"), argv

    def test_names_keep_their_order(self):
        assert cli.GROUP_NAMES == ("L", "Lq", "D", "Dq", "Dtilde", "Dinf",
                                   "T", "Ttilde", "Tinf", "Z2L", "Z2Lq")
        assert cli.MAP_NAMES == ("etaP", "eta", "etaTilde", "etaInf",
                                 "delta", "sq", "sl", "p", "bracket")

    def test_table_skips_out_of_domain_cells_silently(self, capsys):
        code, out, err = run(capsys, "table", "--names", "Dtilde,Dinf",
                             "--max-order", "6", "--labels", "1")
        assert code == 0
        cells = [line.split(",")[:2] for line in out.splitlines()[1:]]
        assert cells == [["Dtilde", "1"], ["Dtilde", "3"], ["Dinf", "2"]]
        assert "skipped orders 5,6 " in err

    def test_element_images_use_the_ambient_kernel_only_for_eta(
            self, capsys, monkeypatch):
        argv = ("--element", "<1,(1,2)>")
        for name in ("etaTilde", "etaP", "eta"):
            assert run(capsys, "map", name, "--order", "1", "--labels", "2",
                       *argv)[0] == 0
        seen = []
        real = lie.d_group
        monkeypatch.setattr(lie, "d_group",
                            lambda *a: seen.append(a) or real(*a))
        for name in ("etaTilde", "etaP", "eta"):
            run(capsys, "map", name, "--order", "1", "--labels", "2", *argv)
        assert seen == [(1, 2, QUASI), (1, 2, LIE)]
