import json
import random

import pytest

from semcal import (
    Alphabet,
    ContingencyTable,
    Crisp,
    Distribution,
    Gaussian,
    Tabular,
    average_semantic_info,
    bayes_invert,
    channel_from_samples,
    doc_h1_from_table,
    doc_h2_from_table,
    empirical_conditional,
    optimal_truth_function,
    optimize_belief,
    pointwise_semantic_info,
    raven_increments,
)
from semcal import estimation, reproduce
from semcal.cli import _read_pairs, _read_samples, main
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
    "table-raven-underflows": (["--table", "1,2,3," + "9" * 300], 0),
    "table-raven-overflows": (["--table", "1e-300,1,1,0"], 2),
    "table-total-overflows": (["--table", "1e308,1e308,1,1"], 2),
    "usage-prior-not-a-number": (["--test", "0.5,0.5", "--prior-positive", "x"], 1),
    "usage-unknown-format": (["--table", "83,57,17,686", "--format", "xml"], 1),
    "usage-unknown-option": (["--table", "83,57,17,686", "--bogus", "1"], 1),
    "usage-no-source": ([], 1),
    "usage-table-and-test": (["--table", "83,57,17,686", "--test", "0.5,0.5"], 1),
    "usage-rates-and-table": (["--rates", "0.2,0.8,0.01,0.99", "--table", "83,57,17,686"], 1),
    "usage-prior-positive-alone": (["--prior-positive", "0.3"], 1),
    "usage-prior-positive-with-table": (["--table", "5,1,2,3", "--prior-positive", "0.3"], 1),
    "usage-prior-positive-with-rates": (["--rates", "0.2,0.8,0.01,0.99",
                                         "--prior-positive", "0.3"], 1),
    "table-empty-text": (["--table", ""], 1),
    "rates-empty-text": (["--rates", ""], 1),
    "test-empty-text": (["--test", ""], 1),
}

# usage errors outside ``doc``: argv, exit code
USAGE_EXIT_CODES = {
    "info-missing-sampling": (["info", "--prior", "p.csv", "--tf", "crisp:e1"], 1),
    "msie-samples-prior": (["msie", "--samples", "s.csv", "--prior", "p.csv"], 1),
    "unknown-subcommand": (["bogus"], 1),
    "missing-subcommand": ([], 1),
}


# parse errors of each subcommand: argv with {name} for a file of ``cli_files``; each exits 1
PARSE_ERRORS = {
    "table-bad-number": ["doc", "--table", "1,x,3,4"],
    "csv-probability-not-a-number": ["info", "--prior", "{bad_probability}",
                                     "--sampling", "{prior}", "--tf", "crisp:e1"],
    "samples-without-records": ["msie", "--samples", "{no_records}"],
    "belief-without-inner-spec": ["info", "--prior", "{prior}", "--sampling", "{prior}",
                                  "--tf", "belief:0.5"],
    "belief-bad-value": ["info", "--prior", "{prior}", "--sampling", "{prior}",
                         "--tf", "belief:x:crisp:e1"],
    "unknown-spec-kind": ["info", "--prior", "{prior}", "--sampling", "{prior}",
                          "--tf", "fuzzy:e1"],
    "msie-neither-source": ["msie"],
    "msie-both-sources": ["msie", "--samples", "{samples}", "--gps", "{scenario}"],
    "gps-scenario-missing-key": ["msie", "--gps", "{scenario_without_c}"],
}


@pytest.fixture
def cli_files(tmp_path):
    contents = {
        "prior": "e1,0.8\ne0,0.2\n",
        "bad_probability": "e1,x\ne0,0.2\n",
        "no_records": "# condition,label\n\n",
        "samples": "h1,e1\nh0,e0\n",
        "scenario": json.dumps({"grid_size": 64, "delta_e": 3, "d": 5, "c": 0.001}),
        "scenario_without_c": json.dumps({"grid_size": 64, "delta_e": 3, "d": 5}),
    }
    paths = {}
    for name, text in contents.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("argv", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
def test_parse_error_prints_one_error_line(capsys, cli_files, argv):
    assert main([arg.format(**cli_files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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

    def test_gaussian_spec_matches_the_library(self, capsys, tmp_path):
        # labels that parse as numbers are their own positions
        prior, sampling = tmp_path / "prior.csv", tmp_path / "sampling.csv"
        prior.write_text("0,0.25\n1,0.25\n2.5,0.5\n")
        sampling.write_text("0,0.125\n1,0.625\n2.5,0.25\n")
        status, rec = run_json(capsys, "info", "--prior", str(prior),
                               "--sampling", str(sampling), "--tf", "gauss:1,0.8")
        assert status == 0
        ab = Alphabet(("0", "1", "2.5"))
        expected = average_semantic_info(Gaussian(1.0, 0.8), Distribution(ab, (0.25, 0.25, 0.5)),
                                         Distribution(ab, (0.125, 0.625, 0.25)))
        assert rec["outputs"]["average_bits"] == expected
        assert expected > 0.0

    def test_gaussian_spec_with_tiny_stddev(self, capsys, tmp_path):
        # the spread's square underflows to 0.0: only the center keeps truth
        prior, sampling = tmp_path / "prior.csv", tmp_path / "sampling.csv"
        prior.write_text("0,0.25\n1,0.25\n2.5,0.5\n")
        sampling.write_text("0,0.125\n1,0.625\n2.5,0.25\n")
        status, rec = run_json(capsys, "info", "--prior", str(prior),
                               "--sampling", str(sampling), "--tf", "gauss:0,1e-200")
        assert status == 0
        assert rec["outputs"]["pointwise_bits"] == {"0": 2.0, "1": "-inf", "2.5": "-inf"}
        assert rec["outputs"]["average_bits"] == "-inf"

    def test_pointwise_bits_match_the_library_at_n256(self, capsys, tmp_path):
        # the CLI computes the truth vector once for all labels; each value must be
        # bit for bit the library's own call for that label
        rng = random.Random(32)
        labels = [f"e{i}" for i in range(256)]
        weights = [rng.random() for _ in labels]
        probs = [w / sum(weights) for w in weights]
        table = [0.0 if rng.random() < 0.1 else rng.random() for _ in labels]
        prior = tmp_path / "prior.csv"
        prior.write_text("".join(f"{e},{p!r}\n" for e, p in zip(labels, probs)))
        spec = "table:" + ",".join(map(repr, table))
        status, rec = run_json(capsys, "info", "--prior", str(prior), "--sampling", str(prior),
                               "--tf", spec)
        assert status == 0
        tf = Tabular(Alphabet(labels), table)
        expected = {e: pointwise_semantic_info(tf, Distribution(Alphabet(labels), probs), e)
                    for e in labels}
        assert list(rec["outputs"]["pointwise_bits"]) == labels
        assert rec["outputs"]["pointwise_bits"] == {
            e: "-inf" if v == float("-inf") else v for e, v in expected.items()}
        assert "-inf" in rec["outputs"]["pointwise_bits"].values()

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

    def test_sampling_comes_from_the_channel(self, capsys, monkeypatch, tmp_path):
        """P(E|h_j) is Bayes' rule on channel row j: the records are counted once."""
        rng = random.Random(23)
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{rng.choice('hgk')},e{rng.randrange(5)}\n" for _ in range(300)))
        samples = _read_samples(str(path))
        channel, prior = channel_from_samples(samples)
        counted = {name: empirical_conditional(samples, {name}) for name in channel.hypotheses}

        def refuse(*args):
            raise AssertionError("msie --samples counted the records again")

        monkeypatch.setattr(estimation, "empirical_conditional", refuse)
        status, rec = run_json(capsys, "msie", "--samples", str(path))
        assert status == 0
        for j, name in enumerate(channel.hypotheses):
            table = optimal_truth_function(channel, j).table
            peak = Crisp(channel.alphabet, {channel.alphabet.labels[table.index(max(table))]})
            by_channel = optimize_belief(peak, prior, bayes_invert(prior, channel.row(j)))
            by_counting = optimize_belief(peak, prior, counted[name])
            out = rec["outputs"][name]
            for field in ("b_star", "b_prime_star", "information_bits"):
                assert out[field] == getattr(by_channel, field)
                assert out[field] == pytest.approx(getattr(by_counting, field),
                                                   rel=1e-12, abs=1e-15)

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

    def test_gps_spread_whose_square_overflows(self, capsys, tmp_path):
        path = tmp_path / "gps.json"
        path.write_text(json.dumps({"grid_size": 64, "delta_e": 3, "d": 1e200, "c": 0.001}))
        assert main(["msie", "--gps", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "2*d**2 is not finite" in captured.err


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

    def test_row_outside_tolerance_fails_and_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(reproduce, "predicted_probability", lambda p_e1, b_prime: 0.5)
        status, rec = run_json(capsys, "reproduce")
        assert status == 2
        row = rec["outputs"]["hiv-test.predicted_probability_high_risk"]
        assert (row["computed"], row["status"]) == (0.5, "fail")
        assert [r["status"] for r in reproduce.reproduce_rows()].count("fail") == 1

    def test_cep_row_exact(self, capsys):
        _, rec = run_json(capsys, "reproduce")
        row = rec["outputs"]["gps-cep.b_star"]
        assert row["computed"] == "998/999"
        assert row["delta"] == 0.0
