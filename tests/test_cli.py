import json

import numpy as np
import pytest
from conftest import random_density

from entmono import DensityMatrix, PureState, monotone_report, pth_power, save_state
from entmono.cli import main


@pytest.fixture
def bell_file(tmp_path):
    mat = np.zeros((4, 4))
    mat[np.ix_([0, 3], [0, 3])] = 0.5  # exact entries so the CLI prints 0.5
    path = tmp_path / "bell.json"
    save_state(path, DensityMatrix(mat, (2, 2)))
    return str(path)


@pytest.fixture
def pure_file(tmp_path):
    psi = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    path = tmp_path / "bell_pure.json"
    save_state(path, psi)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSingleValueCommands:
    def test_negativity_bell(self, capsys, bell_file):
        code, out, _ = run(capsys, "negativity", "--input", bell_file)
        assert code == 0
        assert out == "0.5\n"

    def test_bound_concurrence(self, capsys, bell_file):
        code, out, _ = run(capsys, "bound", "--kind", "concurrence", "--input", bell_file)
        assert code == 0
        assert abs(float(out) - 1.0) < 1e-12

    def test_bound_tangle(self, capsys, bell_file):
        code, out, _ = run(capsys, "bound", "--kind", "tangle", "--input", bell_file)
        assert code == 0
        assert abs(float(out) - 1.0) < 1e-12

    def test_pure_accepts_pure_file_only(self, capsys, bell_file, pure_file):
        code, out, _ = run(capsys, "pure", "--input", pure_file)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "schmidt_coefficients,concurrence,tangle"
        coeffs, conc, tangle = row.split(",")
        assert [abs(float(c) - 1 / np.sqrt(2)) < 1e-12 for c in coeffs.split(";")] == [True, True]
        assert abs(float(conc) - 1.0) < 1e-12
        assert abs(float(tangle) - 1.0) < 1e-12
        code, _, err = run(capsys, "pure", "--input", bell_file)
        assert code == 2
        assert "pure" in err

    def test_pure_near_product_coefficients_match_concurrence(self, capsys, tmp_path):
        # sqrt(1 - delta^2) |00> + 1e-9 |11> under random local unitaries: the
        # printed Schmidt coefficients and concurrence come from one core
        rng = np.random.default_rng(5)
        core = np.zeros((2, 3), complex)
        core[0, 0], core[1, 1] = np.sqrt(1.0 - 1e-18), 1e-9
        a, b = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                for d in (2, 3))
        path = tmp_path / "near_product.json"
        save_state(path, PureState((a @ core @ b.T).reshape(-1), (2, 3)))
        code, out, _ = run(capsys, "pure", "--input", str(path))
        assert code == 0
        coeffs, conc, _ = out.strip().split("\n")[1].split(",")
        c1, c2 = (float(c) for c in coeffs.split(";"))
        assert abs(2.0 * c1 * c2 - float(conc)) <= 1e-15


class TestMonotone:
    def test_csv_output(self, capsys, bell_file):
        code, out, _ = run(capsys, "monotone", "--p", "2", "--input", bell_file)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "p,pnorm,power_sum,neg_count,negative_eigenvalues"
        cells = row.split(",")
        assert float(cells[0]) == 2.0
        assert abs(float(cells[1]) - 0.5) < 1e-12
        assert abs(float(cells[2]) - 0.25) < 1e-12
        assert cells[3] == "1"
        assert abs(float(cells[4]) + 0.5) < 1e-12

    def test_json_mirrors_csv_fields(self, capsys, bell_file):
        code, out, _ = run(capsys, "monotone", "--p", "2", "--input", bell_file, "--json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"p", "pnorm", "power_sum", "neg_count", "negative_eigenvalues"}
        assert abs(obj["pnorm"] - 0.5) < 1e-12
        assert obj["neg_count"] == 1

    def test_state_the_raw_rule_rejects_is_read_as_a_state(self, capsys, tmp_path):
        # skew 0.5 HERM_TOL passes the state's rule at scale 1 but not the raw
        # rule at the partial transpose's own scale: the command reads the state
        rng = np.random.default_rng(102)
        mat = random_density(rng, 3, 3, rank=2).mat.copy()
        mat[0, 4] += 0.5e-8
        rho = DensityMatrix(mat, (3, 3))
        path = tmp_path / "skewed.json"
        save_state(path, rho)
        code, out, _ = run(capsys, "monotone", "--p", "2", "--input", str(path), "--json")
        assert code == 0
        obj, rep = json.loads(out), monotone_report(rho, 2.0)
        assert (obj["p"], obj["pnorm"], obj["power_sum"], obj["neg_count"]) == (
            rep.p, rep.pnorm, rep.power_sum, rep.neg_count)
        assert obj["negative_eigenvalues"] == rep.negative_eigenvalues.tolist()
        assert rep.neg_count > 0


class TestIsotropic:
    def test_row_count_and_threshold(self, capsys):
        code, out, _ = run(capsys, "isotropic", "--d", "3", "--f-min", "0",
                           "--f-max", "1", "--steps", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d,F,lambda,m2pt,n2pt"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "3" and float(first[1]) == 0.0
        assert float(first[3]) == 0.0  # F=0 is below the 1/3 threshold
        last = lines[3].split(",")
        assert abs(float(last[3]) - 2.0 * np.sqrt(3.0) / 3.0) < 1e-12

    def test_numeric_check_column(self, capsys):
        code, out, _ = run(capsys, "isotropic", "--d", "3", "--steps", "5",
                           "--numeric-check")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].endswith(",m2pt_numeric")
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[3]) - float(cells[5])) <= 1e-9

    def test_numeric_check_needs_small_d(self, capsys):
        code, _, err = run(capsys, "isotropic", "--d", "40", "--steps", "2",
                           "--numeric-check")
        assert code == 1
        assert "--numeric-check" in err or "d <= 10" in err


class TestTcm:
    def test_csv_structure(self, capsys):
        code, out, _ = run(capsys, "tcm", "--nbar", "4", "--n-max", "30",
                           "--t-max", "10", "--steps", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "gt,n2pt,rank,purity"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        for line in lines[1:]:
            assert int(line.split(",")[2]) <= 2

    @pytest.mark.parametrize("nbar", ["nan", "inf"])
    def test_non_finite_nbar_is_named(self, capsys, nbar):
        code, out, err = run(capsys, "tcm", "--nbar", nbar, "--n-max", "30")
        assert code == 2 and out == ""
        assert "nbar" in err

    def test_nbar_beyond_the_cutoff_names_n_max(self, capsys):
        code, out, err = run(capsys, "tcm", "--nbar", "1e300", "--steps", "3")
        assert code == 2 and out == ""
        assert "n_max=200 is inadequate" in err


class TestRoof:
    def test_value_and_residual(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2, 2, rank=2)
        path = tmp_path / "rho.json"
        save_state(path, rho)
        code, out, _ = run(capsys, "roof", "--objective", "concurrence",
                           "--input", str(path), "--restarts", "3", "--iters", "200",
                           "--seed", "7")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "value,reconstruction_residual"
        value, residual = map(float, row.split(","))
        assert value >= 0.0
        assert residual <= 1e-8

    def test_byte_identical_repeat(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 2, 2, rank=2)
        path = tmp_path / "rho.json"
        save_state(path, rho)
        args = ("roof", "--objective", "tangle", "--input", str(path),
                "--restarts", "2", "--iters", "100", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_zero_restarts_is_a_computation_error(self, capsys, bell_file):
        code, out, err = run(capsys, "roof", "--objective", "concurrence",
                             "--input", bell_file, "--restarts", "0")
        assert code == 2 and out == ""
        assert "restarts" in err


class TestMajorize:
    def test_true_case(self, capsys):
        code, out, _ = run(capsys, "majorize", "--x", "0.5,0.5", "--y", "1,0")
        assert code == 0
        assert out == "true\n"

    def test_false_case(self, capsys):
        code, out, _ = run(capsys, "majorize", "--x", "1,0", "--y", "0.5,0.5")
        assert out == "false\n"

    def test_weak_flag(self, capsys):
        code, out, _ = run(capsys, "majorize", "--x", "1,1", "--y", "3,0", "--weak")
        assert out == "true\n"

    def test_bad_list_is_usage_error(self, capsys):
        code, _, err = run(capsys, "majorize", "--x", "1,zz", "--y", "1,0")
        assert code == 1
        assert "--x" in err


class TestErrorPaths:
    def test_unknown_flag(self, capsys, bell_file):
        code, _, _ = run(capsys, "negativity", "--input", bell_file, "--bogus")
        assert code == 1

    def test_out_of_domain_order_is_usage_error(self, capsys, bell_file):
        code, _, _ = run(capsys, "monotone", "--p", "0.5", "--input", bell_file)
        assert code == 1

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_order_is_usage_error(self, capsys, bell_file, p):
        code, _, err = run(capsys, "monotone", "--p", p, "--input", bell_file)
        assert code == 1
        assert "finite" in err

    @pytest.mark.parametrize("p", ["0.5", "-1", "nan", "inf"])
    def test_order_rule_is_shared(self, capsys, bell_file, p):
        messages = set()
        for call in (lambda: monotone_report(np.eye(2), float(p)),
                     lambda: pth_power([1.0, 2.0], float(p))):
            with pytest.raises(ValueError) as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1
        code, _, err = run(capsys, "monotone", "--p", p, "--input", bell_file)
        assert code == 1
        assert messages.pop() in err

    def test_small_dimension_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "isotropic", "--d", "1", "--steps", "2")
        assert code == 1

    def test_dimension_beyond_the_float_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "isotropic", "--d", "1" + "0" * 199, "--steps", "2")
        assert code == 1 and out == ""
        assert "1.34e154" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "negativity", "--input", "no_such_file.json")
        assert code == 2
        assert "no_such_file.json" in err

    def test_bad_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d_a": 2,\n  broken')
        code, _, err = run(capsys, "negativity", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_non_finite_state_file_names_path(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"d_a": 1, "d_b": 2, "kind": "density",
                                    "re": [[float("nan"), 0.0], [0.0, 0.5]],
                                    "im": [[0.0, 0.0], [0.0, 0.0]]}))
        code, _, err = run(capsys, "negativity", "--input", str(path))
        assert code == 2
        assert str(path) in err and "non-finite" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestOutputFile:
    def test_writes_file_with_newline_endings(self, capsys, tmp_path, bell_file):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "isotropic", "--d", "2", "--steps", "3",
                           "--output", str(target))
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert data.count(b"\n") == 4
        assert b"\r" not in data
