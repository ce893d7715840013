"""The command-line surface: routing, formats, and exit codes."""

import json

from quasilie import cli
from quasilie.lie import LIE, lie_group
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

    def test_routing_matches_library(self, capsys):
        for name, order, builder in (
                ("L", 3, lambda: lie_group(3, 2, LIE).group),
                ("T", 2, lambda: t_group(2, 2).group),
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

    def test_deeply_nested_element_exit4(self, capsys):
        depth = 1200  # deeper than the interpreter's default recursion limit
        text = "<1," + "(" * depth + "1" + ",1)" * depth + ">"
        code, out, err = run(capsys, "map", "etaP", "--order", "0",
                             "--labels", "2", "--element", text)
        assert code == 4
        assert out == "" and err.startswith("error:")
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

    def test_order_alias(self, capsys):
        code, out, _ = run(capsys, "verify", "tau_odd", "--order", "1",
                           "--labels", "2")
        assert code == 0
        assert json.loads(out)[0]["status"] == "verified"

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

    def test_schema_error_exit5(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": 5}')
        code, _, _ = run(capsys, "quadratic", "commutative",
                         "--input", str(path))
        assert code == 5
        code, _, _ = run(capsys, "quadratic", "commutative")
        assert code == 5


class TestTable:
    def test_csv_grid(self, capsys):
        code, out, _ = run(capsys, "table", "--names", "L,T",
                           "--max-order", "2", "--labels", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,n,m,free_rank,torsion"
        assert "T,1,2,0,2;2;2;2" in lines
