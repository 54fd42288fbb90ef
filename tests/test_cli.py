"""CLI behavior: subcommands, JSON schema conformance, determinism, exits."""

import json
import warnings
from itertools import product
from pathlib import Path

import jsonschema
import pytest

from mixedmilnor.cli import main

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schema" / "report.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def monomial_sum(n, size):
    """Polynomial text with `size` distinct monomials z^a, a in {0,1,2}^n."""
    exponents = sorted(product(range(3), repeat=n))[1:size + 1]
    return " + ".join(
        "*".join(f"z{i + 1}^{e}" for i, e in enumerate(a) if e) for a in exponents
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


class TestReports:
    def test_newton_fig1(self, capsys):
        code, report = run_json(capsys, "newton", "--poly", "z1^3+z2^3+z2*z3^2")
        assert code == 0
        assert report["result"]["vertices"] == [[0, 1, 2], [0, 3, 0], [3, 0, 0]]
        assert report["result"]["convenient"] is False
        assert len(report["result"]["essential_faces"]) == 1

    def test_zeta_brieskorn(self, capsys):
        code, report = run_json(capsys, "zeta", "--corpus", "brieskorn_curve")
        assert code == 0
        assert report["result"]["product"] == "(1-t^20)^2"

    def test_vanishing(self, capsys):
        code, report = run_json(capsys, "vanishing", "--corpus", "parusinski")
        assert code == 0
        assert [1] in report["result"]["vanishing"]

    def test_faces(self, capsys):
        code, report = run_json(capsys, "faces", "--corpus", "tibar")
        assert code == 0
        assert report["result"]["faces"]

    def test_nondeg(self, capsys):
        code, report = run_json(
            capsys, "nondeg", "--corpus", "tibar", "--budget", "8", "--seed", "0"
        )
        assert code == 0
        statuses = {v["status"] for v in report["result"]["verdicts"]}
        assert statuses == {"NoCriticalPointFound"}

    def test_nondeg_names_the_support_certificate(self, capsys):
        code, report = run_json(capsys, "nondeg", "--corpus", "cone", "--params", "1,2,1,1",
                                "--budget", "2")
        assert code == 0
        labels = [v.get("certified_by") for v in report["result"]["verdicts"]]
        # every face but the planted witness face -z1*|z2|^2 + z1^2*zb1
        assert labels.count(None) == 1 and set(labels) == {None, "support[1]"}
        bad = dict(report, result={"verdicts": [dict(report["result"]["verdicts"][0],
                                                     certified_by="support")]})
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, SCHEMA)

    def test_tame_strict_exit(self, capsys):
        code, report = run_json(
            capsys,
            "tame",
            "--corpus",
            "tibar_a",
            "--params",
            "1",
            "--strict",
            "--budget",
            "8",
        )
        assert code == 2
        statuses = {e["status"] for e in report["result"]["subspaces"]}
        assert "NotTame" in statuses

    def test_af_test_strict_exit(self, capsys):
        code, report = run_json(
            capsys,
            "af-test",
            "--corpus",
            "tibar",
            "--arc",
            "z1 = 1; z2 = t",
            "--subset",
            "1",
            "--strict",
        )
        assert code == 2
        assert report["result"]["contains_CI"] is False

    def test_arc_limit(self, capsys):
        code, report = run_json(
            capsys, "arc-limit", "--corpus", "parusinski", "--arc", "z1 = 1; z2 = t; z3 = t^3"
        )
        assert code == 0
        assert report["result"]["independent"] is True

    def test_transversality_small(self, capsys):
        code, report = run_json(
            capsys,
            "transversality",
            "--corpus",
            "tibar",
            "--samples",
            "20",
            "--delta",
            "0.01",
        )
        assert code == 0
        assert report["result"]["accepted"] == 20

    def test_openness(self, capsys):
        code, report = run_json(
            capsys,
            "openness",
            "--corpus",
            "tibar",
            "--point",
            "1, 0",
            "--epsilon",
            "0.1",
            "--samples",
            "4000",
        )
        assert code == 0
        assert report["result"]["arg_coverage"] < 1

    def test_pullback(self, capsys):
        code, report = run_json(
            capsys,
            "pullback",
            "--corpus",
            "d_n",
            "--params",
            "4",
            "--cover-a",
            "2,2,2",
            "--cover-b",
            "1,1,1",
        )
        assert code == 0
        assert "zb3^3" in report["result"]["polynomial"]

    def test_join(self, capsys):
        code, report = run_json(
            capsys, "join", "--corpus", "tibar", "--corpus2", "tibar"
        )
        assert code == 0
        assert report["result"]["polynomial"].count("|") == 4

    def test_corpus_listing(self, capsys):
        code, report = run_json(capsys, "corpus")
        assert code == 0
        assert "brieskorn_curve" in report["result"]["names"]

    def test_corpus_entry(self, capsys):
        code, report = run_json(capsys, "corpus", "--corpus", "fig1")
        assert code == 0
        assert report["result"]["polynomial"] == "z2*z3^2 + z2^3 + z1^3"


class TestErrors:
    def test_parse_error_exit_code(self, capsys):
        code = main(["newton", "--poly", "z1 + + ^"])
        assert code == 1

    def test_unknown_corpus(self, capsys):
        code = main(["zeta", "--corpus", "nonesuch"])
        assert code == 1

    def test_error_report_validates(self, capsys):
        code, out = run(capsys, "zeta", "--corpus", "nonesuch", "--json")
        assert code == 1
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"]["type"] == "UnknownCorpusNameError"

    def test_missing_input(self, capsys):
        assert main(["newton"]) == 1

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["af-test", "--corpus", "tibar", "--arc", "z1 = 1; z2 = 1", "--subset", "1"],
             "BadArcError"),
            (["openness", "--corpus", "tibar", "--point", "1, x"], "BadRequestError"),
            (["af-test", "--corpus", "tibar", "--arc", "z1 = 1", "--subset", "x"],
             "BadRequestError"),
            (["arc-limit", "--corpus", "tibar", "--arc", "z1 = 1/0; z2 = t"], "PolySyntaxError"),
            (["arc-limit", "--corpus", "tibar", "--arc", "z1 = 1; z2 = t^(1/0)"],
             "PolySyntaxError"),
            (["openness", "--corpus", "tibar", "--point", "1"], "DimensionMismatchError"),
            (["openness", "--corpus", "tibar", "--point", "1, 0, 0"], "DimensionMismatchError"),
            (["openness", "--corpus", "tibar", "--point", "nan, 0"], "BadRequestError"),
            (["openness", "--corpus", "tibar", "--point", "1e400, 0"], "BadRequestError"),
            (["openness", "--corpus", "tibar", "--point", "1" + "0" * 400 + ", 0"],
             "BadRequestError"),
            (["openness", "--poly", "z1^2 + z2", "--point", "1" + "0" * 200 + ", 0"],
             "NonFiniteValuesError"),
            (["tame", "--corpus", "tibar", "--subset", "5"], "DimensionMismatchError"),
            (["tame", "--corpus", "tibar", "--subset", "0"], "DimensionMismatchError"),
            (["af-test", "--corpus", "tibar", "--arc", "z1 = t; z2 = t", "--subset", "5"],
             "DimensionMismatchError"),
            (["af-test", "--corpus", "tibar", "--arc", "z1 = t; z2 = t", "--subset", "0"],
             "DimensionMismatchError"),
            (["arc-limit", "--corpus", "tibar"], "MixedMilnorError"),
            (["af-test", "--corpus", "tibar", "--subset", "1"], "MixedMilnorError"),
            (["nondeg", "--corpus", "tibar", "--seed", "-1", "--budget", "1"],
             "BadRequestError"),
            (["transversality", "--corpus", "tibar", "--seed", "-1", "--samples", "10"],
             "BadRequestError"),
            (["newton", "--poly", monomial_sum(5, 40)], "TooManySupportPointsError"),
            (["newton", "--poly", monomial_sum(7, 24)], "TooManySupportPointsError"),
            (["tame", "--corpus", "tibar", "--radius", "inf", "--budget", "1"],
             "NonPositiveArgumentError"),
            (["tame", "--corpus", "tibar", "--radius", "nan", "--budget", "1"],
             "NonPositiveArgumentError"),
            (["transversality", "--corpus", "tibar", "--radius", "inf", "--samples", "5"],
             "NonPositiveArgumentError"),
        ],
    )
    def test_typed_json_error(self, capsys, argv, error):
        code, out = run(capsys, *argv, "--json")
        assert code == 1
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"]["type"] == error

    def test_point_coordinates_are_coefficient_literals(self, capsys):
        results = [
            run_json(capsys, "openness", "--corpus", "tibar", "--point", point,
                     "--samples", "500")[1]["result"]
            for point in ("0.5, 0", "1/2, 0", "(1/2 + 0i), -0")
        ]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["openness", "--corpus", "tibar", "--point", "1, 0", "--epsilon", "0"],
            ["openness", "--corpus", "tibar", "--point", "1, 0", "--samples", "0"],
            ["nondeg", "--corpus", "tibar", "--budget", "0"],
            ["transversality", "--corpus", "tibar", "--radius", "0"],
            ["transversality", "--corpus", "tibar", "--samples", "0"],
            ["transversality", "--corpus", "tibar", "--delta", "0"],
            ["tame", "--corpus", "tibar", "--radius", "0"],
            ["tame", "--corpus", "tibar", "--radius", "-1"],
        ],
    )
    def test_non_positive_argument(self, capsys, argv):
        code, out = run(capsys, *argv, "--json")
        assert code == 1
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"]["type"] == "NonPositiveArgumentError"

    def test_huge_tame_radius_is_a_verdict(self, capfd):
        # at |z_I| = 1e200 the search objectives overflow; those points
        # score inf, silently, instead of ending the request
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["tame", "--corpus", "tibar", "--radius", "1e200", "--budget", "1", "--json"])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["result"]["subspaces"][0]["status"] == "Inconclusive"


class TestArgv:
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["newton"], "--poly", "-2i*zb2^2*z3^2"),
            (["openness", "--corpus", "tibar", "--samples", "500"], "--point", "-1,0"),
        ],
    )
    def test_value_may_start_with_a_dash(self, capsys, tmp_path, argv, flag, value):
        glued = run(capsys, *argv, f"{flag}={value}", "--json")
        assert glued[0] == 0
        assert run(capsys, *argv, flag, value, "--json") == glued
        request = {"command": argv[0], "json": True}
        for key, val in zip(argv[1::2], argv[2::2]):
            request[key[2:]] = val
        request[flag[2:]] = value
        batch = tmp_path / "requests.jsonl"
        batch.write_text(json.dumps(request))
        assert run(capsys, argv[0], "--batch", str(batch)) == glued

    def test_positional_poly_may_start_with_a_dash(self, capsys, tmp_path):
        glued = run(capsys, "newton", "--poly=-2i*z1", "--json")
        assert glued[0] == 0
        assert run(capsys, "newton", "-2i*z1", "--json") == glued
        assert run(capsys, "newton", "--json", "-2i*z1") == glued
        batch = tmp_path / "requests.jsonl"
        batch.write_text(json.dumps({"command": "newton", "poly": "-2i*z1", "json": True}))
        assert run(capsys, "newton", "--batch", str(batch)) == glued

    def test_help_and_extra_positionals_still_parse_as_before(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["newton", "-h"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["newton", "z1", "-z2"])
        assert exc.value.code == 2

    def test_option_as_value_is_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["newton", "--poly", "--json"])
        assert exc.value.code == 2

    def test_positional_after_options(self, capsys):
        after = run(capsys, "newton", "--json", "z1^3 + z2^2")
        assert after[0] == 0
        assert run(capsys, "newton", "z1^3 + z2^2", "--json") == after

    @pytest.mark.parametrize("dropped", ["poly", "corpus"])
    def test_request_echo_order(self, capsys, dropped):
        values = {
            "poly": "z1^2",
            "corpus": "tibar_a",
            "params": "2",
            "poly2": "z1",
            "corpus2": "fig1",
            "params2": "1",
            "arc": "z1 = t",
            "subset": "1",
            "point": "1, 0",
            "cover_a": "2",
            "cover_b": "1",
            "budget": 3,
            "radius": 0.5,
            "epsilon": 0.2,
            "delta": 0.01,
            "samples": 7,
            "strict": True,
        }
        del values[dropped]
        argv = ["corpus", "--seed", "5"]
        for key, value in values.items():
            flag = "--" + key.replace("_", "-")
            argv.extend([flag] if value is True else [flag, str(value)])
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert list(report["request"].items()) == list(values.items())


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ["nondeg", "--corpus", "tibar", "--budget", "8", "--seed", "3", "--json"]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_recorded(self, capsys):
        _, report = run_json(capsys, "vanishing", "--corpus", "tibar", "--seed", "9")
        assert report["seed"] == 9


class TestBatch:
    def test_batch_runs_lines(self, capsys, tmp_path):
        batch = tmp_path / "requests.jsonl"
        lines = [
            {"command": "zeta", "corpus": "brieskorn_curve", "json": True},
            {"command": "vanishing", "poly": "z1*|z2|^2", "json": True},
        ]
        batch.write_text("\n".join(json.dumps(x) for x in lines))
        code = main(["zeta", "--batch", str(batch)])
        out = capsys.readouterr().out
        assert code == 0
        # output is a stream of JSON documents, one per request
        decoder = json.JSONDecoder()
        rest = out.strip()
        count = 0
        while rest:
            report, idx = decoder.raw_decode(rest)
            jsonschema.validate(report, SCHEMA)
            rest = rest[idx:].strip()
            count += 1
        assert count == 2

    def test_malformed_lines_do_not_stop_the_batch(self, capsys, tmp_path):
        batch = tmp_path / "requests.jsonl"
        good = json.dumps({"command": "vanishing", "corpus": "fig1", "json": True})
        batch.write_text(
            "\n".join(
                [
                    "{not json",
                    good,
                    json.dumps(["vanishing"]),
                    json.dumps({"command": "vanishing", "no_such_flag": 1}),
                    good,
                ]
            )
        )
        code = main(["zeta", "--json", "--batch", str(batch)])
        out = capsys.readouterr().out
        assert code == 1
        decoder = json.JSONDecoder()
        rest = out.strip()
        reports = []
        while rest:
            report, idx = decoder.raw_decode(rest)
            jsonschema.validate(report, SCHEMA)
            reports.append(report)
            rest = rest[idx:].strip()
        assert ["error" in r for r in reports] == [True, False, True, True, False]
        assert {r["error"]["type"] for r in reports if "error" in r} == {"BadRequestError"}
        assert reports[1]["result"]["vanishing"] == [[3]]

    def test_unreadable_batch_file(self, capsys, tmp_path):
        code, out = run(capsys, "zeta", "--json", "--batch", str(tmp_path / "missing.jsonl"))
        assert code == 1
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"]["type"] == "BadRequestError"

    def test_bad_argument_does_not_stop_the_batch(self, capsys, tmp_path):
        batch = tmp_path / "requests.jsonl"
        lines = [
            {"command": "openness", "corpus": "tibar", "point": "1, 0", "epsilon": 0,
             "json": True},
            {"command": "vanishing", "corpus": "fig1", "json": True},
        ]
        batch.write_text("\n".join(json.dumps(x) for x in lines))
        code = main(["zeta", "--json", "--batch", str(batch)])
        out = capsys.readouterr().out
        assert code == 1
        decoder = json.JSONDecoder()
        first, idx = decoder.raw_decode(out.strip())
        second, _ = decoder.raw_decode(out.strip()[idx:].strip())
        assert first["error"]["type"] == "NonPositiveArgumentError"
        assert second["result"]["vanishing"] == [[3]]

    def test_negative_seed_does_not_stop_the_batch(self, capsys, tmp_path):
        batch = tmp_path / "requests.jsonl"
        lines = [
            {"command": "nondeg", "corpus": "tibar", "seed": -1, "budget": 1, "json": True},
            {"command": "vanishing", "corpus": "fig1", "json": True},
        ]
        batch.write_text("\n".join(json.dumps(x) for x in lines))
        code = main(["zeta", "--json", "--batch", str(batch)])
        out = capsys.readouterr().out
        assert code == 1
        decoder = json.JSONDecoder()
        first, idx = decoder.raw_decode(out.strip())
        second, _ = decoder.raw_decode(out.strip()[idx:].strip())
        jsonschema.validate(first, SCHEMA)
        assert first["error"]["type"] == "BadRequestError"
        assert second["result"]["vanishing"] == [[3]]
