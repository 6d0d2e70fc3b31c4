import json

import pytest

from semcal import (
    ContingencyTable,
    doc_h1_from_table,
    doc_h2_from_table,
    raven_increments,
)
from semcal.cli import _read_pairs, main
from semcal.errors import ParseError
from semcal.reproduce import reproduce_rows


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def run_json(capsys, *argv):
    status, out = run(capsys, *argv, "--format", "json")
    return status, json.loads(out)


@pytest.fixture
def birds_csv(tmp_path):
    lines = (["h1,e1"] * 83 + ["h1,e0"] * 57 + ["h0,e1"] * 17 + ["h0,e0"] * 686)
    path = tmp_path / "birds.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def swans_files(tmp_path):
    prior = tmp_path / "prior.csv"
    prior.write_text("e1,0.8\ne0,0.2\n")
    sampling = tmp_path / "sampling.csv"
    sampling.write_text("e1,0.99\ne0,0.01\n")
    return str(prior), str(sampling)


# argv, exit code: 0 success, 1 parse or validation error, 2 degeneracy
DOC_EXIT_CODES = {
    "test-ok": (["--test", "0.917,0.999"], 0),
    "test-ok-with-prior": (["--test", "0.917,0.999", "--prior-positive", "0.1"], 0),
    "test-sensitivity-above-1": (["--test", "1.5,0.5"], 1),
    "test-sensitivity-negative": (["--test=-0.1,0.5"], 1),
    "test-specificity-above-1": (["--test", "0.5,1.5"], 1),
    "test-sensitivity-nan": (["--test", "nan,0.5"], 1),
    "test-specificity-nan": (["--test", "0.5,nan"], 1),
    "test-sensitivity-inf": (["--test", "inf,0.5"], 1),
    "test-prior-nan": (["--test", "0.917,0.999", "--prior-positive", "nan"], 1),
    "test-prior-above-1": (["--test", "0.917,0.999", "--prior-positive", "1.5"], 1),
    "test-zero-sensitivity": (["--test", "0,0.5"], 2),
    "test-reading-never-selected": (["--test", "1,0", "--prior-positive", "0.5"], 2),
    "test-prior-never-positive": (["--test", "0.5,1", "--prior-positive", "0"], 2),
    "test-one-value": (["--test", "0.5"], 1),
    "rates-ok": (["--rates", "0.2,0.8,0.01,0.99"], 0),
    "rates-nan": (["--rates", "nan,1,0.5,0.5"], 1),
    "rates-no-counterexample-mass": (["--rates", "0,1,0,1"], 2),
    "table-ok": (["--table", "83,57,17,686"], 0),
    "table-nan": (["--table", "nan,1,2,3"], 1),
    "table-inf": (["--table", "1,2,3,inf"], 1),
    "table-negative": (["--table", "1,-2,3,4"], 1),
    "table-three-values": (["--table", "1,2,3"], 1),
    "table-empty": (["--table", "0,0,0,0"], 2),
    "table-no-antecedent": (["--table", "0,0,3,4"], 2),
    "usage-prior-not-a-number": (["--test", "0.5,0.5", "--prior-positive", "x"], 1),
    "usage-unknown-format": (["--table", "83,57,17,686", "--format", "xml"], 1),
    "usage-unknown-option": (["--table", "83,57,17,686", "--bogus", "1"], 1),
}

# usage errors outside ``doc``: argv, exit code
USAGE_EXIT_CODES = {
    "info-missing-sampling": (["info", "--prior", "p.csv", "--tf", "crisp:e1"], 1),
    "msie-samples-prior": (["msie", "--samples", "s.csv", "--prior", "p.csv"], 1),
    "unknown-subcommand": (["bogus"], 1),
    "missing-subcommand": ([], 1),
}


@pytest.mark.parametrize("argv, code", DOC_EXIT_CODES.values(), ids=DOC_EXIT_CODES.keys())
def test_doc_exit_codes(capsys, argv, code):
    assert main(["doc", *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") if code else err == ""


@pytest.mark.parametrize("argv, code", USAGE_EXIT_CODES.values(), ids=USAGE_EXIT_CODES.keys())
def test_usage_exit_codes(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["doc", "--help"])
    assert info.value.code == 0
    assert "--table" in capsys.readouterr().out


class TestDocCommand:
    def test_table(self, capsys):
        status, rec = run_json(capsys, "doc", "--table", "83,57,17,686")
        assert status == 0
        assert rec["outputs"]["h1"]["b_star"] == pytest.approx(0.908, abs=5e-4)
        assert rec["outputs"]["h1"]["information_bits"] == pytest.approx(0.921, abs=2e-3)
        assert "raven_increments" in rec["outputs"]

    def test_test_characteristics(self, capsys):
        status, rec = run_json(capsys, "doc", "--test", "0.917,0.999")
        assert status == 0
        assert rec["outputs"]["positive"]["b_star"] == pytest.approx(0.9989, abs=1e-4)
        assert rec["outputs"]["negative"]["b_star"] == pytest.approx(0.917, abs=1e-3)

    def test_rates(self, capsys):
        status, rec = run_json(capsys, "doc", "--rates", "0.2,0.8,0.01,0.99")
        assert status == 0
        assert rec["outputs"]["h1"]["b_star"] == pytest.approx(0.9596, abs=1e-4)

    @pytest.mark.parametrize("flag, values", [
        ("--rates", "nan,1,0.5,0.5"),
        ("--table", "nan,1,2,3"),
        ("--table", "1,2,3,inf"),
    ])
    def test_non_finite_input_exit_code(self, capsys, flag, values):
        assert main(["doc", flag, values]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_requires_exactly_one_form(self, capsys):
        assert main(["doc", "--table", "1,2,3,4", "--rates", "0.5,0.5,0.5,0.5"]) == 1
        assert main(["doc"]) == 1

    def test_parse_error_exit_code(self, capsys):
        assert main(["doc", "--table", "1,2,3"]) == 1

    def test_degeneracy_exit_code(self, capsys):
        # no counterexample mass anywhere
        assert main(["doc", "--rates", "0,1,0,1"]) == 2

    def test_matches_direct_module_call(self, capsys):
        _, rec = run_json(capsys, "doc", "--table", "25,16,41,60")
        t = ContingencyTable(25, 16, 41, 60)
        assert rec["outputs"]["h1"]["b_star"] == doc_h1_from_table(t).b_star
        assert rec["outputs"]["h2"]["b_star"] == doc_h2_from_table(t).b_star

    def test_determinism(self, capsys):
        _, first = run(capsys, "doc", "--table", "83,57,17,686", "--format", "json")
        _, second = run(capsys, "doc", "--table", "83,57,17,686", "--format", "json")
        assert first == second

    def test_text_layout(self, capsys):
        status, out = run(capsys, "doc", "--table", "83,57,17,686")
        assert status == 0
        table = ContingencyTable(83, 57, 17, 686)
        lines = ["command: doc", "inputs:", "  table:"]
        lines += [f"    {k:<28} {v}" for k, v in (("n11", 83), ("n10", 57), ("n01", 17),
                                                   ("n00", 686))]
        lines.append("outputs:")
        for name, result in (("h1", doc_h1_from_table(table)), ("h2", doc_h2_from_table(table))):
            lines.append(f"  {name}:")
            lines += [f"    {'b_star':<28} {result.b_star:.12g}",
                      f"    {'b_prime_star':<28} {result.b_prime_star:.12g}",
                      f"    {'case':<28} {result.case.value}",
                      f"    {'information_bits':<28} {result.information_bits:.12g}"]
        d11, d00 = raven_increments(table)
        lines += ["  raven_increments:",
                  f"    {'db_star_dn11':<28} {d11:.12g}",
                  f"    {'db_star_dn00':<28} {d00:.12g}"]
        assert out == "\n".join(lines) + "\n"

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        status = main(["doc", "--rates", "0.2,0.8,0.01,0.99",
                       "--format", "json", "--out", str(out)])
        assert status == 0
        assert json.loads(out.read_text())["command"] == "doc"

    def test_out_file_in_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing" / "report.json"
        status = main(["doc", "--table", "1,2,3,4", "--out", str(out)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")


class TestInfoCommand:
    def test_tautology_average_zero(self, capsys, swans_files):
        prior, sampling = swans_files
        status, rec = run_json(capsys, "info", "--prior", prior,
                               "--sampling", sampling, "--tf", "table:1,1")
        assert status == 0
        assert rec["outputs"]["average_bits"] == 0.0

    def test_swans_with_belief(self, capsys, swans_files):
        prior, sampling = swans_files
        status, rec = run_json(capsys, "info", "--prior", prior,
                               "--sampling", sampling, "--tf", "belief:0.9596:crisp:e1")
        assert status == 0
        assert rec["outputs"]["average_bits"] == pytest.approx(0.2611, abs=1e-3)

    def test_counterexample_mass_reports_minus_inf(self, capsys, swans_files):
        prior, sampling = swans_files
        status, rec = run_json(capsys, "info", "--prior", prior,
                               "--sampling", sampling, "--tf", "crisp:e1")
        assert status == 0
        assert rec["outputs"]["average_bits"] == "-inf"
        assert rec["outputs"]["pointwise_bits"]["e0"] == "-inf"

    def test_tolerance_variable_is_ignored(self, capsys, monkeypatch, tmp_path, swans_files):
        # a prior summing to 5 stays unnormalized whatever the environment says
        prior = tmp_path / "prior5.csv"
        prior.write_text("e1,4\ne0,1\n")
        _, sampling = swans_files
        monkeypatch.setenv("SEMCAL_TOLERANCE", "nan")
        assert main(["info", "--prior", str(prior), "--sampling", sampling,
                     "--tf", "crisp:e1"]) == 1
        assert "sum to 5" in capsys.readouterr().err

    def test_text_format_minus_inf_token(self, capsys, swans_files):
        prior, sampling = swans_files
        status, out = run(capsys, "info", "--prior", prior,
                          "--sampling", sampling, "--tf", "crisp:e1")
        assert status == 0
        assert "-inf" in out


class TestMsieCommand:
    def test_birds_reproduces_table(self, capsys, birds_csv):
        status, rec = run_json(capsys, "msie", "--samples", birds_csv)
        assert status == 0
        h1 = rec["outputs"]["h1"]
        assert h1["truth[e0]"] == pytest.approx(0.0924, abs=1e-4)
        assert h1["b_star"] == pytest.approx(0.908, abs=5e-4)
        assert h1["information_bits"] == pytest.approx(0.921, abs=2e-3)

    def test_single_condition_uniform(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("z,e1\nz,e0\nz,e1\nz,e0\n")
        status, rec = run_json(capsys, "msie", "--samples", str(path))
        assert status == 0
        z = rec["outputs"]["z"]
        assert z["truth[e1]"] == 1.0 and z["truth[e0]"] == 1.0
        assert z["b_star"] == 0.0

    def test_gps_scenario(self, capsys, tmp_path):
        path = tmp_path / "gps.json"
        path.write_text(json.dumps(
            {"grid_size": 120, "delta_e": 3, "d": 5.0, "c": 0.001}))
        status, rec = run_json(capsys, "msie", "--gps", str(path))
        assert status == 0
        assert rec["outputs"]["delta_e_hat"] == pytest.approx(3.0, abs=1.0)
        assert rec["outputs"]["d_hat"] == pytest.approx(5.0, rel=0.05)
        assert rec["outputs"]["b_hat"] == pytest.approx(
            rec["outputs"]["b_reference"], abs=0.02)

    @pytest.mark.parametrize("grid_size", [64.5, True, "64"])
    def test_gps_grid_size_must_be_an_integer(self, capsys, tmp_path, grid_size):
        path = tmp_path / "gps.json"
        path.write_text(json.dumps({"grid_size": grid_size, "delta_e": 3, "d": 5.0, "c": 0.001}))
        assert main(["msie", "--gps", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "grid_size must be an integer" in captured.err

    @pytest.mark.parametrize("key, value, message", [
        ("delta_e", True, "delta_e must be a number, got True"),
        ("d", False, "d must be a number, got False"),
        ("c", False, "c must be a number, got False"),
        ("delta_e", "3", "delta_e must be a number, got '3'"),
        ("d", "5", "d must be a number, got '5'"),
        ("delta_e", 10**400, "too large to convert to float"),
        ("grid_size", 10**400, "grid_size is too large to convert to float"),
    ], ids=["delta_e-true", "d-false", "c-false", "delta_e-string", "d-string",
            "delta_e-overflow", "grid_size-overflow"])
    def test_gps_scenario_numbers_must_be_json_numbers(self, capsys, tmp_path, key, value,
                                                        message):
        scenario = {"grid_size": 64, "delta_e": 3, "d": 5, "c": 0.001}
        scenario[key] = value
        path = tmp_path / "gps.json"
        path.write_text(json.dumps(scenario))
        assert main(["msie", "--gps", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert message in captured.err


class TestReadPairs:
    def test_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# label,probability\n\ne1, 0.8\n\n#e2,1\ne0,0.2\n")
        assert list(_read_pairs(str(path), "label,probability")) == [
            ["e1", " 0.8"], ["e0", "0.2"]]

    def test_three_column_row(self, capsys, tmp_path, swans_files):
        path = tmp_path / "three.csv"
        path.write_text("e1,0.8,1\ne0,0.2\n")
        with pytest.raises(ParseError, match="expected 'label,probability' rows"):
            list(_read_pairs(str(path), "label,probability"))
        _, sampling = swans_files
        assert main(["info", "--prior", str(path), "--sampling", sampling,
                     "--tf", "crisp:e1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: expected 'label,probability' rows, got ['e1', '0.8', '1']\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            list(_read_pairs(str(tmp_path / "missing.csv"), "condition,label"))

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"h1,\xff\n")
        with pytest.raises(ParseError, match="cannot read"):
            list(_read_pairs(str(path), "condition,label"))
        assert main(["msie", "--samples", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


class TestReproduceCommand:
    def test_exit_zero_with_documented_warnings(self, capsys):
        status, rec = run_json(capsys, "reproduce")
        assert status == 0
        statuses = {k: v["status"] for k, v in rec["outputs"].items()}
        assert statuses["fatty-liver.information_bits"] == "warning"
        assert statuses["hiv-test.information_bits_negative"] == "warning"
        assert all(s in ("match", "warning") for s in statuses.values())
        assert len(rec["warnings"]) == 2

    def test_text_warning_lines(self, capsys):
        status, out = run(capsys, "reproduce")
        assert status == 0
        expected = [
            f"warning: {row['item']}.{row['quantity']}: published {row['published']} "
            f"vs computed {row['computed']:.12g} (documented discrepancy)"
            for row in reproduce_rows() if row["status"] == "warning"]
        assert len(expected) == 2
        assert out.splitlines()[-2:] == expected

    def test_cep_row_exact(self, capsys):
        _, rec = run_json(capsys, "reproduce")
        row = rec["outputs"]["gps-cep.b_star"]
        assert row["computed"] == "998/999"
        assert row["delta"] == 0.0
