"""Command-line front end.

One polynomial per invocation (from --poly text or a named corpus entry),
one analysis subcommand, deterministic output for a fixed seed.  One parser
serves all subcommands: each takes the same options, and an option value
may start with '-'.  --json emits a machine-readable report with the
request echoed back; --strict turns analysis-negative verdicts (NotTame, a
critical-point witness, a failed containment test) into exit code 2.
Errors exit with code 1, each as a typed error (a --subset index outside
1..n is a DimensionMismatchError, a negative --seed a BadRequestError).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import arcs, constructors, degeneracy, newton, zeta
from .errors import BadRequestError, MixedMilnorError, require_positive
from .poly import MixedPoly, parse_coefficient, parse_poly

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _parse_point(text: str):
    """Comma-separated coordinates, each a signed sum of coefficient literals."""
    try:
        return [complex(parse_coefficient(part)) for part in text.split(",")]
    except MixedMilnorError:
        raise BadRequestError(f"cannot read {text!r} as a complex point") from None


def _parse_ints(text: str):
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise BadRequestError(f"cannot read {text!r} as a list of integers") from None


def _load_poly(args, suffix="") -> MixedPoly:
    poly_text = getattr(args, "poly" + suffix)
    corpus_name = getattr(args, "corpus" + suffix)
    if poly_text and corpus_name:
        raise MixedMilnorError(f"give either --poly{suffix} or --corpus{suffix}, not both")
    if poly_text:
        return parse_poly(poly_text)
    if corpus_name:
        params = getattr(args, "params" + suffix)
        return constructors.corpus(corpus_name, _parse_ints(params) if params else ())
    raise MixedMilnorError(f"missing input: --poly{suffix} or --corpus{suffix}")


def _required(args, name):
    """The value of an option the command cannot run without."""
    value = getattr(args, name)
    if not value:
        raise MixedMilnorError(f"{args.command} needs --{name.replace('_', '-')}")
    return value


# ---------------------------------------------------------------------------
# Command implementations: each takes the input polynomial and the parsed
# arguments and returns (result dict, negative flag, text)
# ---------------------------------------------------------------------------


def cmd_newton(f, args):
    result = newton.newton_report(f)
    lines = [
        f"polynomial: {f.to_text()}",
        f"vertices: {result['vertices']}",
        f"convenient: {result['convenient']}",
    ]
    for fc in result["essential_faces"]:
        lines.append(
            f"essential face I={fc['I']}: generators {fc['generators']}, "
            f"witness {fc['witness']}, d={fc['d']}"
        )
    for fc in result["inessential_faces"]:
        lines.append(f"inessential face I={fc['I']}: generators {fc['generators']}")
    return result, False, "\n".join(lines)


def cmd_vanishing(f, args):
    report = newton.vanishing_subsets(f)
    result = {
        "vanishing": sorted(sorted(I) for I in report.vanishing),
        "nonvanishing": sorted(sorted(I) for I in report.nonvanishing),
    }
    text = f"vanishing subsets: {result['vanishing']}"
    return result, False, text


def cmd_faces(f, args):
    faces = newton.all_faces(f)
    result = {"faces": [newton.face_to_json(fc) for fc in faces]}
    lines = [
        f"{fc['kind']} dim={fc['dim']} generators={fc['generators']} I={fc['I']}"
        for fc in result["faces"]
    ]
    return result, False, "\n".join(lines)


def cmd_nondeg(f, args):
    verdicts = degeneracy.falsify_nondegeneracy(f, budget=args.budget, seed=args.seed)
    result = {"verdicts": [degeneracy.nondeg_verdict_to_json(v) for v in verdicts]}
    negative = any(
        v.status is not degeneracy.NondegStatus.NO_CRITICAL_POINT_FOUND
        for v in verdicts
    )
    lines = [
        f"face {v['face']['generators']} ({v['face']['kind']}): {v['status']}"
        for v in result["verdicts"]
    ]
    return result, negative, "\n".join(lines)


def cmd_tame(f, args):
    report = newton.vanishing_subsets(f)
    subset = frozenset(_parse_ints(args.subset or ""))
    subsets = [subset] if subset else sorted(report.vanishing, key=sorted)
    # local_tameness_check's own checks, made even when there is no subspace
    require_positive(probe_radius=args.radius)
    degeneracy.require_budget(args.budget)
    entries = []
    negative = False
    for I in subsets:
        verdict = degeneracy.local_tameness_check(
            f, I, probe_radius=args.radius, budget=args.budget, seed=args.seed
        )
        entries.append(degeneracy.tameness_verdict_to_json(I, verdict))
        if verdict.status is degeneracy.TameStatus.NOT_TAME:
            negative = True
    result = {"subspaces": entries}
    lines = [f"I={e['I']}: {e['status']} (radius {e['radius']})" for e in entries]
    if not entries:
        lines = ["no vanishing coordinate subspaces; tameness is vacuous"]
    return result, negative, "\n".join(lines)


def cmd_zeta(f, args):
    z = zeta.zeta_function(f)
    result = zeta.zeta_to_json(z)
    text = f"zeta(t) = {result['product']}"
    return result, False, text


def cmd_arc_limit(f, args):
    arc = arcs.parse_arc(_required(args, "arc"), n=f.n)
    limit = arcs.limit_tangent(f, arc)
    result = arcs.limit_to_json(limit)
    text = (
        f"covector_g = {limit.covector_g}\ncovector_h = {limit.covector_h}\n"
        f"independent = {limit.independent}, steps = {len(limit.reduction_steps)}"
    )
    return result, False, text


def cmd_af_test(f, args):
    I = frozenset(_parse_ints(_required(args, "subset")))
    arc = arcs.parse_arc(_required(args, "arc"), n=f.n)
    verdict = arcs.af_test_arc(f, arc, I)
    result = arcs.af_verdict_to_json(verdict)
    negative = verdict.contains_CI is False
    text = f"contains C^{sorted(I)}: {verdict.contains_CI}"
    return result, negative, text


def cmd_transversality(f, args):
    report = arcs.transversality_scan(
        f,
        radius=args.radius,
        delta=args.delta,
        samples=args.samples,
        seed=args.seed,
    )
    result = dataclasses.asdict(report)
    text = f"accepted {report.accepted} samples"
    if report.accepted:
        text += f"; min residual {report.min_residual:.6g}"
    return result, False, text


def cmd_openness(f, args):
    p = _parse_point(_required(args, "point"))
    report = arcs.boundary_openness_probe(
        f, p, epsilon=args.epsilon, samples=args.samples, seed=args.seed
    )
    result = dataclasses.asdict(report)
    text = f"coverage {report.arg_coverage:.4f}" + (
        f", sector halfwidth {report.sector_halfwidth:.4f}"
        if report.sector_halfwidth is not None
        else ""
    )
    return result, False, text


def cmd_pullback(f, args):
    a = tuple(_parse_ints(_required(args, "cover_a")))
    b = tuple(_parse_ints(args.cover_b)) if args.cover_b else (0,) * len(a)
    spec = constructors.PullbackSpec(a, b)
    out = constructors.pullback_cyclic(f, spec)
    result = {"polynomial": out.to_text(), "a": list(a), "b": list(b)}
    return result, False, out.to_text()


def cmd_join(f, args):
    g = _load_poly(args, suffix="2")
    joined, index_map = constructors.join(f, g)
    result = {
        "polynomial": joined.to_text(),
        "index_map": {f"{side}:{j}": k for (side, j), k in sorted(index_map.items())},
        "has_linear_term": constructors.has_linear_term(joined),
    }
    return result, False, joined.to_text()


def cmd_corpus(f, args):
    """The named entry with --corpus (f is then that entry), else the listing."""
    if f is None:
        names = constructors.corpus_names()
        return {"names": names}, False, "\n".join(names)
    result = {
        "name": args.corpus,
        "polynomial": f.to_text(),
        "formula": constructors.corpus_formula(args.corpus),
        "n": f.n,
    }
    return result, False, f.to_text()


_COMMANDS = {
    "newton": cmd_newton,
    "vanishing": cmd_vanishing,
    "faces": cmd_faces,
    "nondeg": cmd_nondeg,
    "tame": cmd_tame,
    "zeta": cmd_zeta,
    "arc-limit": cmd_arc_limit,
    "af-test": cmd_af_test,
    "transversality": cmd_transversality,
    "openness": cmd_openness,
    "pullback": cmd_pullback,
    "join": cmd_join,
    "corpus": cmd_corpus,
}


_OPTIONS = (
    ("--poly", {"help": "polynomial text, e.g. 'z1^3 + z2*zb2'"}),
    ("--corpus", {"help": "named corpus polynomial"}),
    ("--params", {"help": "corpus parameters, comma separated"}),
    ("--poly2", {"help": "second polynomial (join)"}),
    ("--corpus2", {"help": "second corpus name (join)"}),
    ("--params2", {"help": "second corpus parameters (join)"}),
    ("--arc", {"help": "arc text, e.g. 'z1 = 1; z2 = t'"}),
    ("--subset", {"help": "variable subset, e.g. '1,3'"}),
    ("--point", {"help": "complex point, one coefficient each, e.g. '1, 0' or '1/2 - i, 0.5'"}),
    ("--cover-a", {"help": "pullback exponents a, comma separated"}),
    ("--cover-b", {"help": "pullback exponents b, comma separated"}),
    ("--seed", {"type": int, "default": 0}),
    ("--budget", {"type": int, "default": 64}),
    ("--radius", {"type": float}),
    ("--epsilon", {"type": float, "default": 0.1}),
    ("--delta", {"type": float, "default": 1e-3}),
    ("--samples", {"type": int}),
    ("--json", {"action": "store_true", "dest": "as_json"}),
    ("--strict", {"action": "store_true"}),
    ("--batch", {"help": "JSON-lines request file"}),
)
_VALUE_OPTIONS = frozenset(flag for flag, spec in _OPTIONS if "action" not in spec)
# parsed names that describe how a request runs rather than what it asks
_NOT_ECHOED = ("command", "poly_positional", "seed", "as_json", "batch")


# the one argument parser, built at import and used for every request
_PARSER = argparse.ArgumentParser(
    prog="mixed-milnor",
    allow_abbrev=False,
    description="Newton boundary, tameness, limit tangent, and zeta analysis "
    "of mixed polynomials",
)
_PARSER.add_argument("command", nargs="?", choices=_COMMANDS)
_PARSER.add_argument("poly_positional", nargs="?", help="polynomial text")
for _flag, _spec in _OPTIONS:
    _PARSER.add_argument(_flag, **_spec)


def _parse(argv):
    """Parse argv in one pass, each value-taking option joined to its next
    token as --flag=value unless that token starts with '--', so a value may
    start with '-' ('-2i*z1', '-1,0').  Every other token but an option ('--'
    or '-h' led) is positional, plain words before dash-led ones: the
    command, then the polynomial, before or after options."""
    glued, words, dashed = [], [], []
    for token in argv:
        if glued and glued[-1] in _VALUE_OPTIONS and not token.startswith("--"):
            glued[-1] += "=" + token
        elif token.startswith("--") or token == "-h":
            glued.append(token)
        else:
            (dashed if token.startswith("-") else words).append(token)
    return _PARSER.parse_args([*glued, "--", *words, *dashed])


_RADIUS_DEFAULT = {"tame": 0.1, "transversality": 1.0}
_SAMPLES_DEFAULT = {"transversality": 10_000, "openness": 20_000}


def _apply_defaults(args):
    if args.seed < 0:
        raise BadRequestError(f"seed must be a non-negative integer, got {args.seed}")
    if args.radius is None:
        args.radius = _RADIUS_DEFAULT.get(args.command, 0.1)
    if args.samples is None:
        args.samples = _SAMPLES_DEFAULT.get(args.command, 10_000)
    if args.poly_positional and not args.poly and not args.corpus:
        args.poly = args.poly_positional


def _request_echo(args) -> dict:
    """The parsed options in declaration order, unset ones left out."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED and v is not None and v is not False}


def _report_error(args, exc) -> int:
    if args.as_json:
        payload = {
            "command": args.command,
            "seed": args.seed,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
    return EXIT_ERROR


def _run_one(args) -> int:
    handler = _COMMANDS[args.command]
    try:
        _apply_defaults(args)
        f = None if handler is cmd_corpus and not args.corpus else _load_poly(args)
        result, negative, text = handler(f, args)
    except MixedMilnorError as exc:
        return _report_error(args, exc)
    if args.as_json:
        report = {
            "command": args.command,
            "seed": args.seed,
            "request": _request_echo(args),
            "result": result,
        }
        print(json.dumps(report, indent=2))
    else:
        print(text)
    if args.strict and negative:
        return EXIT_NEGATIVE
    return EXIT_OK


def _batch_args(line, lineno):
    """Parsed arguments of one batch line; BadRequestError if unreadable."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise BadRequestError(f"batch line {lineno} is not JSON: {exc}") from None
    if not isinstance(request, dict) or request.get("command") not in _COMMANDS:
        raise BadRequestError(
            f"batch line {lineno} is not a JSON object with a known 'command'"
        )
    argv = [request.pop("command")]
    for key, value in request.items():
        flag = "--" + key.replace("_", "-")
        if value is not False:
            argv += [flag] if value is True else [flag, str(value)]
    try:
        return _parse(argv)
    except SystemExit:
        # argparse has printed the usage error; report the line and go on
        raise BadRequestError(f"batch line {lineno} has invalid arguments") from None


def _run_batch(args) -> int:
    try:
        with open(args.batch, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        return _report_error(args, BadRequestError(f"cannot read the batch file: {exc}"))
    worst = EXIT_OK
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            sub_args = _batch_args(line, lineno)
        except BadRequestError as exc:
            code = _report_error(args, exc)
        else:
            code = _run_one(sub_args)
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not args.command:
        _PARSER.print_help()
        return EXIT_ERROR
    try:
        if args.batch:
            return _run_batch(args)
        return _run_one(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
