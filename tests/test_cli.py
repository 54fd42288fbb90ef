"""CLI behavior: subcommands, JSON schema conformance, determinism, exits."""

import json
import time
import warnings
from http import HTTPStatus
from itertools import product
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedmilnor import cli, degeneracy, fibers
from mixedmilnor.cli import main
from mixedmilnor.poly import MixedPoly, parse_poly

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schema" / "report.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def monomial_sum(n, size):
    """Polynomial text with `size` distinct monomials z^a, a in {0,1,2}^n."""
    exponents = sorted(product(range(3), repeat=n))[1:size + 1]
    return " + ".join(
        "*".join(f"z{i + 1}^{e}" for i, e in enumerate(a) if e) for a in exponents
    )


def equal_degree_sum(n, size, seed=17):
    """Polynomial text with `size` distinct seeded monomials of degree 3n in n
    variables: no exponent is <= another, so every support point is undominated."""
    rng = np.random.default_rng(seed)
    exponents = set()
    while len(exponents) < size:
        cuts = sorted(int(c) for c in rng.integers(0, 3 * n + 1, size=n - 1))
        exponents.add(tuple(b - a for a, b in zip([0, *cuts], [*cuts, 3 * n])))
    return " + ".join(
        "*".join(f"z{i + 1}^{e}" for i, e in enumerate(a) if e) for a in sorted(exponents)
    )


# beyond float range, and a product of two literals longer than str() writes
BIG = "1" + "0" * 400
NINES = "9" * 3000
HUGE_EXP = "9" * 20
# the face of all three terms has dependent A_J rows, so nondeg searches it
HUGE_EXP_SEARCHED = f"z1^2*zb2*z3^{HUGE_EXP} + z1*z2^2*z3^{HUGE_EXP} + 3*|z1|^2*z2*z3^{HUGE_EXP}"
# a face whose float gradients underflow to 0 at every point of the search box
UNDERFLOW = "z1^1000*zb2^1000 + 2*z1^1001*zb2^999 + 3i*z1^999*zb2^1001"
# powers above poly.MAX_POWER_TERMS terms or poly.MAX_POWER_BITS bits of growth
POWER_REFUSALS = [
    ["faces", "--poly", "2^99999999999999999999*z1 + z2^2"],
    ["vanishing", "--poly", "(z1+z2)^3000"],
    ["vanishing", "--poly", "(z1+z2+z3+z4)^30"],
    ["arc-limit", "--poly", "z1^1000000000*z2 + z2^3", "--arc", "z1 = 2; z2 = t"],
    ["arc-limit", "--poly", "z2^300 + z1*z2", "--arc", "z1 = t; z2 = t + t^2"],
    ["vanishing", "--poly", "(z1+z2+z3+z4)^9*(z1+z2+z3+z4)^9*(z1+z2+z3+z4)^9"],
    ["vanishing", "--poly", "0^0*(z1+z2+z3+z4)^9*(z1+z2+z3+z4)^9*(z1+z2+z3+z4)^9"],
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not standard JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not standard JSON")

    return json.loads(text, parse_constant=refuse)


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    report = strict_json(out)
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
        # every face but the planted witness face -z1*|z2|^2 + z1^2*zb1, which
        # the phase-lattice decision settles
        assert labels.count("phase-lattice") == 1 and set(labels) == {"phase-lattice", "support[1]"}
        bad = dict(report, result={"verdicts": [dict(report["result"]["verdicts"][0],
                                                     certified_by="support")]})
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, SCHEMA)

    def test_tame_witness_outside_the_log_box(self, capsys):
        # the frozen search came back Inconclusive: the critical point has
        # |z3| = 20.8, outside the box it searches
        text = "-4*zb1^2*zb2^3*|z3|^2 + (2/3-i)*z1*|z2|^4*zb3^3 + (-4+i)*z1^3*zb1^2*z2*|z3|^4"
        code, report = run_json(capsys, "tame", "--poly", text, "--subset", "1", "--budget", "8",
                                "--seed", "17")
        assert code == 0
        (entry,) = report["result"]["subspaces"]
        assert entry["status"] == "NotTame" and entry["radius"] == 0.1
        (face,) = [fr for fr in entry["faces"] if fr["status"] == "NotTame"]
        assert face["certified_by"] == "phase-lattice"
        f = parse_poly(text)
        fd = MixedPoly(3, {m: c for m, c in f.terms.items()
                           if m.support_point() in {tuple(g) for g in face["face"]["generators"]}})
        point = [complex(*x) for x in entry["witness"]["point"]]
        assert abs(point[2]) > 20
        assert degeneracy.criticality_residual_exact(fd, point, {2, 3}) < 1e-25

    def test_tame_serves_a_coefficient_beyond_float_range_decided_exactly(self, capsys):
        # the face z1*|z2|^2 is decided by the phase lattice, which never
        # evaluates the coefficient as a float
        code, report = run_json(capsys, "tame", "--poly", BIG + "*z1*|z2|^2")
        assert code == 0
        entry = next(e for e in report["result"]["subspaces"] if e["I"] == [1])
        assert entry["status"] == "NotTame"
        assert [fr["certified_by"] for fr in entry["faces"]] == ["phase-lattice"]

    def test_one_free_variable_witness_is_labelled(self, capsys):
        # on I = [2, 3] this face has one free variable, z1: the F of its
        # first shell has a zero, whose witness at |z1| = 1 rechecks exactly
        text = "-4/3i*|z1|^2*|z2|^2*z3^3*zb3^2 + (4-2/3i)*z1^2*z2^3*|z3|^6"
        code, report = run_json(capsys, "tame", "--poly", text, "--subset", "2,3", "--budget", "8",
                                "--seed", "1")
        assert code == 0
        (entry,) = report["result"]["subspaces"]
        assert entry["status"] == "NotTame"
        assert [fr.get("certified_by") for fr in entry["faces"]] == ["sign-change-F"]
        point = [complex(*x) for x in entry["witness"]["point"]]
        assert abs(point[0]) == pytest.approx(1)
        assert degeneracy.criticality_residual_exact(parse_poly(text), point, {1}) < degeneracy.WITNESS_THRESHOLD
        # the falsifier on one variable: |1 + e^{2i theta}| = 1 at theta = pi/3
        code, report = run_json(capsys, "nondeg", "--poly", "|z1|^2 + 1/2*z1^2")
        assert code == 0
        assert [v.get("certified_by") for v in report["result"]["verdicts"]] == ["sign-change-F"]

    @pytest.mark.parametrize("argv", [
        ["tame", "--poly", "z1^2*|z2|^20000000", "--subset", "1"],
        ["tame", "--poly", "z1^2*|z2|^20000000*|z3|^2", "--subset", "1"],
        ["nondeg", "--budget", "1", "--poly",
         "(3/2-4/3i)*|z1|^2 + (3/2-4/3i)*|z2|^2*z4 + (3/2-4/3i)*|z3|^2*z4^100000"],
    ], ids=["recheck", "recheck-two-free", "rho"])
    def test_exact_decision_on_huge_exponents_is_bounded(self, capsys, argv):
        # the exact recheck of a witness in |z2|^20000000, and a rho with
        # exponents of 10^5 on a face of degree 100002: each is capped, and
        # ran for minutes without its cap.  Past the cap the frozen search
        # finds no witness: its gradients underflow to 0, which proves nothing.
        # With z2 the only free variable the face's F is 0, so each shell
        # decides a witness exactly, and that witness's recheck is capped too
        start = time.perf_counter()
        code, report = run_json(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 0
        if argv[0] == "tame":
            (entry,) = report["result"]["subspaces"]
            assert entry["status"] == "Inconclusive"
            assert all("certified_by" not in fr for fr in entry["faces"])

    @pytest.mark.parametrize("argv", [
        ["--poly", UNDERFLOW, "--budget", "2", "--seed", "0"],
        ["--poly", UNDERFLOW, "--budget", "2", "--seed", "2"],
        ["--poly", "z1^1000000000*zb2", "--budget", "1", "--seed", "0"],
        ["--poly", "|z1|^2000 + (1+i)*z1^1001*zb1^999 + (2-i)*z1^999*zb1^1001 + z2^2000*zb2",
         "--budget", "2", "--seed", "2"],
    ], ids=["underflow-seed0", "underflow-seed2", "nan-residual", "inf-residual"])
    def test_nondeg_at_huge_exponents(self, capsys, argv):
        # every search point of the UNDERFLOW face has all gradients 0 in
        # floats, which once scored residual 0 and came out as a witness;
        # a residual that overflows, or a search scoring inf at every start,
        # once printed NaN or Infinity
        code, report = run_json(capsys, "nondeg", *argv)
        assert code == 0
        verdicts = report["result"]["verdicts"]
        assert all(v["status"] == "NoCriticalPointFound" for v in verdicts)
        assert None in [v["stats"]["min_residual"] for v in verdicts]
        # no face without a critical point reports residual 0: a settled
        # face evaluates nothing and reports null, and so does a search
        # that scored inf at every start
        assert 0.0 not in [v["stats"]["min_residual"] for v in verdicts]
        searched = [v["stats"] for v in verdicts if v["stats"]["restarts"]]
        assert all(stats["min_residual"] is None for stats in searched)

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

    def test_arc_limit_text_prints_the_json_pairs(self, capsys):
        # the covectors as the report's [re, im] pairs, signed zeros included
        argv = ["arc-limit", "--corpus", "tibar", "--arc", "z1 = 1; z2 = t"]
        result = run_json(capsys, *argv)[1]["result"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[:2] == [f"covector_{k} = {result[f'covector_{k}']}" for k in "gh"]
        assert out.startswith("covector_g = [[-0.0, 1.0], [-0.0, -0.0]]\n")

    @pytest.mark.parametrize("exponent", [100_000, 10_000_000])
    def test_arc_limit_high_power_of_a_unit_coordinate(self, capsys, exponent):
        # z1 = 1 along the arc, so the exponent changes no series
        arc = ["--arc", "z1 = 1; z2 = t"]
        start = time.perf_counter()
        code, report = run_json(capsys, "arc-limit", "--poly", f"z1^{exponent}*z2 + z2^3", *arc)
        assert time.perf_counter() - start < 0.1
        assert code == 0
        assert report["result"] == run_json(capsys, "arc-limit", "--poly", "z1^2*z2 + z2^3", *arc)[1]["result"]
        assert report["result"]["covector_h"] == [[0.0, 0.0], [0.0, 1.0]]

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

    def test_transversality_draws_what_it_needs(self, capsys):
        # five points below delta lie in the first block of 4096 draws
        argv = ["transversality", "--corpus", "tibar", "--samples", "5", "--delta", "1e-3"]
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert (report["result"]["samples_drawn"], report["result"]["accepted"]) == (4096, 5)

    @pytest.mark.parametrize("extra", [["--delta", "1e-300"], ["--radius", "1e100"]])
    def test_transversality_projects_onto_bands_the_sphere_misses(self, capsys, extra):
        # no sphere draw reaches these bands; projected points do, long
        # before the draw cap (f == 0 on them is a hit, not an underflow)
        code, report = run_json(capsys, "transversality", "--corpus", "tibar", "--samples", "5", *extra)
        assert code == 0
        assert report["result"]["accepted"] == 5
        assert report["result"]["samples_drawn"] < 5_000

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
        report = strict_json(out)
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
            # more than 20,000 faces (0.3 s), and more than 64 support points
            (["newton", "--poly", equal_degree_sum(9, 10)], "TooManySupportPointsError"),
            (["newton", "--poly", monomial_sum(4, 65)], "TooManySupportPointsError"),
            (["tame", "--corpus", "tibar", "--radius", "inf", "--budget", "1"],
             "NonPositiveArgumentError"),
            (["tame", "--corpus", "tibar", "--radius", "nan", "--budget", "1"],
             "NonPositiveArgumentError"),
            (["transversality", "--corpus", "tibar", "--radius", "inf", "--samples", "5"],
             "NonPositiveArgumentError"),
            # every polyhedron in n variables has at least 2^n - 1 faces
            (["newton", "z15"], "TooManyVariablesError"),
            (["newton", "z18"], "TooManyVariablesError"),
            (["newton", "z30"], "TooManyVariablesError"),
            (["newton", "z3000000"], "PolySyntaxError"),
            (["vanishing", "z300000000"], "PolySyntaxError"),
            (["nondeg", "--corpus", "tibar", "--budget", "1025"], "BadRequestError"),
            (["tame", "--corpus", "tibar", "--budget", "100000000"], "BadRequestError"),
            (["tame", "--poly", "z1^2 + z2^2", "--budget", "5000"], "BadRequestError"),
            # digit runs longer than int() reads, in polynomial, arc and point text
            (["newton", "--poly", "1" + "0" * 5000 + "*z1"], "PolySyntaxError"),
            (["newton", "--poly", "z1 + 1/" + "1" * 5000 + "*z2"], "PolySyntaxError"),
            (["arc-limit", "--corpus", "tibar", "--arc", "z1 = " + "1" * 5000 + "*t; z2 = t"],
             "PolySyntaxError"),
            (["openness", "--corpus", "tibar", "--point", "1" + "0" * 5000 + ", 0"],
             "BadRequestError"),
            # a coefficient beyond float range, and one too long to write as text;
            # the float step is a search, on a face whose A_J rows are dependent
            (["nondeg", "--budget", "1", "--poly", BIG + "*|z1|^2*z2 + z1^2*zb2 + z1*z2^2"],
             "NonFiniteValuesError"),
            # first met inside the search, which scores an OverflowError as inf
            (["nondeg", "--budget", "1", "--poly", BIG + "*z1^2*zb2 + z1*z2^2 + 3*|z1|^2*z2"],
             "NonFiniteValuesError"),
            (["transversality", "--samples", "5", "--poly", BIG + "*z1^2 + z2^2"],
             "NonFiniteValuesError"),
            # z1*z2*z3 leaves z1 and z3 free on I = [2], so the face is searched
            (["tame", "--poly", BIG + "*z1*|z2|^2 + z1*z2^2 + z1*z2*z3"], "NonFiniteValuesError"),
            (["arc-limit", "--arc", "z1 = 1; z2 = t", "--poly", BIG + "*z1*|z2|^2"],
             "NonFiniteValuesError"),
            (["openness", "--point", "1, 0", "--poly", BIG + "*z1*z2"], "NonFiniteValuesError"),
            (["join", "--poly", f"{NINES}*{NINES}*z1^2 + z2^2", "--poly2", "z1"],
             "BadRequestError"),
            # an exponent beyond int64, which the float term table cannot hold
            (["nondeg", "--budget", "1", "--poly", HUGE_EXP_SEARCHED], "NonFiniteValuesError"),
            (["transversality", "--samples", "5", "--poly", f"z1^{HUGE_EXP}+z2^3"],
             "NonFiniteValuesError"),
            (["openness", "--point", "0,0", "--poly", f"z1^{HUGE_EXP}+z2"],
             "NonFiniteValuesError"),
            # a zeta expansion dense in a polar degree of millions
            (["zeta", "--corpus", "d_n", "--params", "2000001"], "BadRequestError"),
        ],
    )
    def test_typed_json_error(self, capsys, argv, error):
        code, out = run(capsys, *argv, "--json")
        assert code == 1
        report = strict_json(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"]["type"] == error

    @pytest.mark.parametrize(
        "argv",
        [
            ["nondeg", "--budget", "1", "--poly", BIG + "*z1^2 + z2^2"],
            ["nondeg", "--budget", "1", "--poly", f"z1^{HUGE_EXP}*|z2|^2 + z2^3"],
            ["tame", "--poly", BIG + "*z1*|z2|^2 + z1*z2^2"],
        ],
        ids=["nondeg-big-coefficient", "nondeg-huge-exponent", "tame-big-coefficient"],
    )
    def test_exact_verdicts_serve_inputs_beyond_float_range(self, capsys, argv):
        # every face is decided exactly, so nothing is evaluated in floats
        code, report = run_json(capsys, *argv)
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        result = report["result"]
        for v in result.get("verdicts", []):
            assert v["certified_by"] and v["stats"] == {"samples": 0, "min_residual": None, "restarts": 0}
        for entry in result.get("subspaces", []):
            # on I = [1] a one-variable shell has a zero of F; on I = [2] the
            # twelve shells are decided clean, which is not a proof
            labels = [fr.get("certified_by") for fr in entry["faces"]]
            assert (entry["status"], labels) in [("NotTame", ["sign-change-F"]), ("Inconclusive", [None])]

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
            ["tame", "--corpus", "tibar", "--budget", "0"],
            ["tame", "--corpus", "tibar", "--budget", "-3"],
            # no vanishing subspace, so no tameness check runs; the arguments are still checked
            ["tame", "--poly", "z1^2 + z2^2", "--budget", "0"],
            ["tame", "--poly", "z1^2 + z2^2", "--radius", "-1"],
        ],
    )
    def test_non_positive_argument(self, capsys, argv):
        code, out = run(capsys, *argv, "--json")
        assert code == 1
        report = strict_json(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"]["type"] == "NonPositiveArgumentError"

    @staticmethod
    def tame_at(capfd, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["tame", "--corpus", "tibar", "--radius", radius, "--budget", "1", "--json"])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        report = strict_json(out)
        jsonschema.validate(report, SCHEMA)
        return report["result"]["subspaces"][0]

    def test_huge_tame_radius_is_a_verdict(self, capfd):
        # at |z_I| = 1e200 the squared gradient norms overflow; the residual
        # is taken at unit scale, so tibar's face function z1*|z2|^2, which is
        # critical everywhere, is found NotTame, at a finite radius
        subspace = self.tame_at(capfd, "1e200")
        assert subspace["status"] == "NotTame"
        assert subspace["radius"] == pytest.approx(1e200)

    def test_tiny_tame_radius_is_reported(self, capfd):
        # at |z_I| = 1e-200 the squares underflow instead; the radius is not 0
        subspace = self.tame_at(capfd, "1e-200")
        assert subspace["status"] == "NotTame"
        assert subspace["radius"] == pytest.approx(1e-200, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "radius, error", [("1e200", "NonFiniteValuesError"), ("1e-200", "AllValuesZeroError")]
    )
    def test_transversality_out_of_float_range(self, capfd, monkeypatch, radius, error):
        # f overflows (underflows) on every draw; a block of draws says so at
        # once instead of scanning to the draw cap
        monkeypatch.setattr(fibers, "MAX_DRAWS", 400_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["transversality", "--corpus", "tibar", "--radius", radius,
                         "--samples", "5", "--json"])
        out, err = capfd.readouterr()
        assert code == 1 and err == ""
        report = strict_json(out)
        jsonschema.validate(report, SCHEMA)
        assert report["error"]["type"] == error

    @pytest.mark.parametrize("radius, accepted", [("1e-200", 5), ("1e308", 0)])
    def test_transversality_of_a_linear_poly_at_extreme_radii(self, capfd, radius, accepted):
        # the sphere norms are taken at unit scale, so they do not underflow
        # to 0 at 1e-200; at 1e308 the draws that overflow are screened, and
        # neither radius prints a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["transversality", "--poly", "z1 + 2*z2", "--radius", radius,
                         "--samples", "5", "--json"])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        report = strict_json(out)
        jsonschema.validate(report, SCHEMA)
        assert report["result"]["accepted"] == accepted

    def test_transversality_accepting_nothing_reports_null(self, capsys):
        # |f| >= 3/2 on the unit sphere, so no draw and no projection accepts
        argv = ["transversality", "--poly", "2 + z1*z2", "--delta", "1e-3", "--samples", "5"]
        code, out = run(capsys, *argv, "--json")
        assert code == 0
        report = strict_json(out)
        jsonschema.validate(report, SCHEMA)
        result = report["result"]
        assert result["accepted"] == 0
        assert result["min_residual"] is None and result["mean_residual"] is None
        assert run(capsys, *argv) == (0, "accepted 0 samples\n")


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["tame", "--poly", "z1^2 + z2^2", "--subs", "1"],
            ["tame", "--poly", "z1^2 + z2^2", "--subs=1"],
            ["newton", "z1^2", "--js"],
        ],
    )
    def test_abbreviated_options_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["newton", "--", "z1"], ["newton", "z1", "--"]])
    def test_literal_double_dash_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
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


    def test_request_echo_keeps_zero(self, capsys):
        code, report = run_json(capsys, "tame", "--poly", "z1^2 + z2^2", "--epsilon", "0")
        assert code == 0
        assert report["request"]["epsilon"] == 0
        assert report["result"]["subspaces"] == []


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


json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60)
    | st.floats() | st.text()
)
json_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=20,
)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    @example([[], {}, [[]], {"": {}}, [{}]])
    @example(["\u00e9\u2603\x00\x1f\"\\/\ud800", "\U0001f600"])
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-7, 1e16, 10**400, -(10**400)])
    @example({1: True, 2.5: False, None: None, True: [1.0], "k": -0.0})
    @example([np.float64(0.1), HTTPStatus.OK, {HTTPStatus.OK: np.float64(-0.0)}])  # subclasses of float and int
    def test_same_bytes_as_json_dumps_property(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [np.int64(3), np.float32(0.5), np.bool_(True), {3}, b"x"])
    def test_types_json_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps([value], indent=2)
        with pytest.raises(TypeError):
            cli._json_text([value])
        with pytest.raises(TypeError):
            cli._json_text({(1, 2): value})

    def test_batch_output_is_what_json_dumps_writes(self, capsys, tmp_path, monkeypatch):
        # reports with floats, nulls, nested lists, empty results and errors
        batch = tmp_path / "requests.jsonl"
        lines = [
            {"command": "zeta", "corpus": "brieskorn_curve"},
            {"command": "faces", "poly": "z1^2*zb2 + (1/2-i)*|z2|^4"},
            {"command": "nondeg", "corpus": "tibar", "budget": 2, "seed": 3},
            {"command": "tame", "corpus": "parusinski", "budget": 2},
            {"command": "transversality", "corpus": "fig1", "samples": 5, "seed": 1},
            {"command": "openness", "corpus": "tibar", "point": "1, 0", "samples": 200},
            {"command": "arc-limit", "corpus": "tibar", "arc": "z1 = t; z2 = 1 + t"},
            {"command": "join", "poly": "z1^2", "poly2": "|z1|^2 + z1"},
            {"command": "corpus"},
            {"command": "vanishing", "poly": "z1 + \u00e9"},
            "{not json",
        ]
        batch.write_text("\n".join(x if isinstance(x, str) else json.dumps({**x, "json": True}) for x in lines))
        argv = ["zeta", "--json", "--batch", str(batch)]
        code, out = run(capsys, *argv)
        monkeypatch.setattr(cli, "_json_text", lambda obj: json.dumps(obj, indent=2))
        assert run(capsys, *argv) == (code, out)
        assert out.count('"error"') == 2 and out.count('"result"') == len(lines) - 2


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
        report = strict_json(out)
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

    def test_long_literal_does_not_stop_the_batch(self, capsys, tmp_path):
        batch = tmp_path / "requests.jsonl"
        lines = [
            {"command": "newton", "poly": "1" + "0" * 5000 + "*z1", "json": True},
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
        assert first["error"]["type"] == "PolySyntaxError"
        assert second["result"]["vanishing"] == [[3]]

    def test_huge_coefficients_do_not_stop_the_batch(self, capsys, tmp_path):
        batch = tmp_path / "requests.jsonl"
        lines = [
            {"command": "nondeg", "poly": BIG + "*|z1|^2*z2 + z1^2*zb2 + z1*z2^2", "budget": 1,
             "json": True},
            {"command": "join", "poly": f"{NINES}*{NINES}*z1^2 + z2^2", "poly2": "z1",
             "json": True},
            # exact commands still serve a polynomial beyond float range, and
            # so does nondeg where every face is decided exactly
            {"command": "zeta", "poly": BIG + "*z1^2 + z2^2", "json": True},
            {"command": "nondeg", "poly": BIG + "*z1^2 + z2^2", "budget": 1, "json": True},
        ]
        batch.write_text("\n".join(json.dumps(x) for x in lines))
        code = main(["zeta", "--json", "--batch", str(batch)])
        out = capsys.readouterr().out.strip()
        assert code == 1
        decoder = json.JSONDecoder()
        reports = []
        while out:
            report, idx = decoder.raw_decode(out)
            jsonschema.validate(report, SCHEMA)
            reports.append(report)
            out = out[idx:].strip()
        assert [r["error"]["type"] for r in reports[:2]] == [
            "NonFiniteValuesError", "BadRequestError"]
        assert reports[2]["result"] == run_json(capsys, "zeta", "z1^2 + z2^2")[1]["result"]
        assert all(v["certified_by"] for v in reports[3]["result"]["verdicts"])

    def test_huge_exponent_does_not_stop_the_batch(self, capsys, tmp_path):
        exact = f"z1^{HUGE_EXP}*|z2|^2 + z2^3"
        batch = tmp_path / "requests.jsonl"
        lines = [
            {"command": "nondeg", "poly": HUGE_EXP_SEARCHED, "budget": 1, "json": True},
            # exact commands still serve the polynomial, and so does nondeg
            # where every face is decided exactly
            {"command": "faces", "poly": HUGE_EXP_SEARCHED, "json": True},
            {"command": "nondeg", "poly": exact, "budget": 1, "json": True},
        ]
        batch.write_text("\n".join(json.dumps(x) for x in lines))
        code = main(["zeta", "--json", "--batch", str(batch)])
        out = capsys.readouterr().out.strip()
        assert code == 1
        decoder = json.JSONDecoder()
        reports = []
        while out:
            report, idx = decoder.raw_decode(out)
            jsonschema.validate(report, SCHEMA)
            reports.append(report)
            out = out[idx:].strip()
        first, second, third = reports
        assert first["error"]["type"] == "NonFiniteValuesError"
        assert second["result"]["faces"]
        assert all(v["certified_by"] for v in third["result"]["verdicts"])

    def test_dense_zeta_expansion_does_not_stop_the_batch(self, capsys, tmp_path):
        # the expansion would hold millions of coefficients; it is refused
        # before any is computed
        start = time.perf_counter()
        code, out = run(capsys, "zeta", "--corpus", "d_n", "--params", "2000001", "--json")
        assert time.perf_counter() - start < 0.1
        assert code == 1
        assert strict_json(out)["error"]["type"] == "BadRequestError"
        batch = tmp_path / "requests.jsonl"
        lines = [
            {"command": "zeta", "corpus": "d_n", "params": "2000001", "json": True},
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
        assert "100000" in first["error"]["message"]
        assert second["result"]["vanishing"] == [[3]]

    @pytest.mark.parametrize("argv", POWER_REFUSALS, ids=lambda argv: argv[2])
    def test_refused_power_does_not_stop_the_batch(self, capsys, tmp_path, argv):
        # each would run for minutes or exhaust memory; it is refused before
        # anything is multiplied
        start = time.perf_counter()
        code, out = run(capsys, *argv, "--json")
        assert time.perf_counter() - start < 0.1
        assert code == 1
        assert strict_json(out)["error"]["type"] == "BadRequestError"
        request = {key[2:]: value for key, value in zip(argv[1::2], argv[2::2])}
        lines = [
            {"command": argv[0], **request, "json": True},
            {"command": "vanishing", "corpus": "fig1", "json": True},
        ]
        batch = tmp_path / "requests.jsonl"
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

    @pytest.mark.parametrize("command", ["nondeg", "tame"])
    def test_search_budget_cap_does_not_stop_the_batch(self, capsys, tmp_path, command):
        # 10**8 starts per face would run for months; they are refused before any face
        code, out = run(capsys, command, "--corpus", "tibar", "--budget", str(10**8), "--json")
        assert code == 1
        assert strict_json(out)["error"]["type"] == "BadRequestError"
        batch = tmp_path / "requests.jsonl"
        lines = [
            {"command": command, "corpus": "tibar", "budget": 10**8, "json": True},
            {"command": command, "corpus": "tibar", "budget": 1025, "json": True},
            {"command": "vanishing", "corpus": "fig1", "json": True},
        ]
        batch.write_text("\n".join(json.dumps(x) for x in lines))
        code = main(["zeta", "--json", "--batch", str(batch)])
        out = capsys.readouterr().out.strip()
        assert code == 1
        decoder = json.JSONDecoder()
        reports = []
        while out:
            report, idx = decoder.raw_decode(out)
            jsonschema.validate(report, SCHEMA)
            reports.append(report)
            out = out[idx:].strip()
        assert [r["error"]["type"] for r in reports[:2]] == ["BadRequestError"] * 2
        assert "1024" in reports[1]["error"]["message"]
        assert reports[2]["result"]["vanishing"] == [[3]]

    def test_too_many_openness_samples_do_not_stop_the_batch(self, capsys, tmp_path):
        # 10**15 samples would need petabytes; they are refused before any draw
        request = {"command": "openness", "corpus": "tibar", "point": "1, 0",
                   "epsilon": 0.1, "samples": 10**15, "json": True}
        code, out = run(capsys, "openness", "--corpus", "tibar", "--point", "1, 0",
                        "--epsilon", "0.1", "--samples", str(10**15), "--json")
        assert code == 1
        assert strict_json(out)["error"]["type"] == "BadRequestError"
        batch = tmp_path / "requests.jsonl"
        lines = [request, {"command": "vanishing", "corpus": "fig1", "json": True}]
        batch.write_text("\n".join(json.dumps(x) for x in lines))
        code = main(["zeta", "--json", "--batch", str(batch)])
        out = capsys.readouterr().out
        assert code == 1
        decoder = json.JSONDecoder()
        first, idx = decoder.raw_decode(out.strip())
        second, _ = decoder.raw_decode(out.strip()[idx:].strip())
        jsonschema.validate(first, SCHEMA)
        assert first["error"]["type"] == "BadRequestError"
        assert "200000" in first["error"]["message"]
        assert second["result"]["vanishing"] == [[3]]
