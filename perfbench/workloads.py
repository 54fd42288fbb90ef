"""Seeded request pools for the three workloads.

Each workload is a list of CLI requests built only from the seed, plus the
data its checks need (the input polynomial as exact term data, pinned
answers, planted faces).  The program under test sees only the argv.

search  nondeg and tame requests, about 75% nondeg: multistart float
        search in `degeneracy` (scipy Nelder-Mead over single-point
        evaluate/gradients calls).  Loads degeneracy and poly float
        evaluation; the Newton boundary is built but is under 1% of the
        time.
probe   transversality and openness requests: rejection sampling through
        evaluate_many plus per-point exact real/imag splits and lstsq.
        Loads the batched float layer and arcs; bypasses the Newton
        boundary and the optimizer.
exact   newton, faces, vanishing, zeta, arc-limit, af-test, pullback,
        join and corpus requests, about 5% of them invalid.  Loads
        lattice.newton_faces, exact series and per-request CLI overhead;
        bypasses every float search.

Within a workload, requests of one kind cost about the same, and the pools
are sized so that the median and p90 each fall inside such a block rather
than on the slope between two costs; the comments at each pool say which.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

# Nondeg/tame budget for `search`.  At budget 1 the current falsifier finds
# the planted witness of every cone variant this pool draws (checked on
# every run: a miss counts as a failed request); budget 64 makes a single
# two-variable cyclic request take tens of seconds.
SEARCH_BUDGET = 1

# Inputs that exit without a JSON report at the parent of this benchmark
# (ROADMAP item 4).  They stay in the pool and count as failed until the CLI
# returns a typed JSON error for them.
KNOWN_DEFECTS = ("af-test:arc-not-in-stratum", "openness:bad-point")


@dataclass
class Request:
    label: str
    argv: list
    check: str
    info: dict = field(default_factory=dict)


def _gaussian(rng, bound=3):
    while True:
        c = (Fraction(rng.randint(-bound, bound)), Fraction(rng.randint(-bound, bound)))
        if c != ref.ZERO:
            return c


def random_mixed_poly(rng, n, terms, min_deg, max_deg, max_exp=3):
    """Random mixed polynomial in exactly n variables (z_n occurs)."""
    while True:
        poly = {}
        for _ in range(terms):
            while True:
                nu = tuple(rng.randint(0, max_exp) for _ in range(n))
                mu = tuple(rng.randint(0, max_exp) for _ in range(n))
                if min_deg <= sum(nu) + sum(mu) <= max_deg:
                    break
            ref.add_term(poly, nu, mu, _gaussian(rng))
        if len(poly) >= min(terms, 2) and any(nu[-1] or mu[-1] for nu, mu in poly):
            return poly


def random_support_poly(rng, n, size, max_exp):
    """Random polynomial with exactly ``size`` distinct support points."""
    points = set()
    while len(points) < size:
        pt = tuple(rng.randint(0, max_exp) for _ in range(n))
        if sum(pt) >= 2:
            points.add(pt)
    if not any(pt[-1] for pt in points):
        points.pop()
        points.add(tuple([0] * (n - 1) + [max_exp]))
    poly = {}
    for pt in sorted(points):
        nu = tuple(rng.randint(0, x) for x in pt)
        mu = tuple(x - a for x, a in zip(pt, nu))
        ref.add_term(poly, nu, mu, _gaussian(rng))
    return poly


def _corpus_args(name, params, suffix=""):
    args = [f"--corpus{suffix}", name]
    if params:
        args += [f"--params{suffix}", ",".join(str(p) for p in params)]
    return args


def _arity(poly):
    return len(next(iter(poly))[0])


def _tag(name, params):
    return f"{name}({','.join(str(p) for p in params)})" if params else name


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def search(seed):
    rng = random.Random(f"search:{seed}")
    reqs = []

    def add(command, tag, source_args, poly, req_seed, **info):
        argv = [command, *source_args, "--budget", str(SEARCH_BUDGET), "--seed", str(req_seed)]
        n = _arity(poly)
        reqs.append(Request(f"{command}:{tag}#s{req_seed}", argv, command, dict(poly=poly, n=n, **info)))

    def corpus_req(command, name, params, req_seed, **info):
        add(command, _tag(name, params), _corpus_args(name, params), ref.corpus_poly(name, params), req_seed,
            **info)

    # The workload exists to load the falsifier, so about 75% of the pool
    # are nondeg requests.  Single-face tibar searches (500-670 objective
    # evaluations, about 0.1 s; roughly one in ten stops after about 60)
    # form the largest block, and about as many requests cost less as cost
    # more, so the median lies mid-block: it is a falsifier search, not a
    # symbolic tameness verdict.
    #
    # Entries whose face search may escape to the box boundary (about 12k
    # objective evaluations instead of about 600) keep pinned optimizer
    # seeds: drawing those per run would swing the run time by whole
    # escapes.  The seeded random polynomial carries that variation.
    #
    # Planted degenerate faces: cone = z1 * (real factor taking both signs);
    # its top compact face is f itself and carries a critical point.  Each
    # two-variable cone goes out at optimizer seeds 0 and 1, where none of
    # their searches escapes (about a third of seeds do, at about 2 s).
    # These 18 requests of about 0.35 s hold p90: about as many of them lie
    # above it as below.
    cones = [((1, 2, a1, a2), req_seed) for a1 in (1, 2, 3) for a2 in (1, 2, 3) for req_seed in (0, 1)]
    for params, req_seed in cones + [((1, 3, 1, 1, 1), 9)]:
        poly = ref.corpus_poly("cone", params)
        corpus_req("nondeg", "cone", params, req_seed, planted=sorted(ref.support(poly)),
                   pinned="cone-1-2-1-1" if params == (1, 2, 1, 1) else None)

    # nondegenerate entries: no verdict may report a critical point.  tibar
    # is searched at any seed in about 0.1 s; most of the block sends it as
    # c * z1*z2*zb2 with a seeded Gaussian integer c, which has the same
    # critical points, so the inputs are distinct.
    tibar = ref.corpus_poly("tibar")
    for k in range(72):
        if k % 4 == 0:
            corpus_req("nondeg", "tibar", (), rng.randrange(1000), expect_nondegenerate=True)
            continue
        c = _gaussian(rng, bound=9)
        poly = {key: ref.c_mul(c, coeff) for key, coeff in tibar.items()}
        add("nondeg", "c*tibar", ["--poly=" + ref.render(poly)], poly, rng.randrange(1000),
            expect_nondegenerate=True)
    for a, req_seed in ((2, 28), (3, 29), (4, 30), (5, 31)):
        corpus_req("nondeg", "tibar_a", (a,), req_seed, expect_nondegenerate=True)
    corpus_req("nondeg", "fig1", (), 36, expect_nondegenerate=True)
    corpus_req("nondeg", "d_n", (rng.randint(3, 8),), rng.randrange(1000), expect_nondegenerate=True)
    # the two-variable cyclic entry is the falsifier's slowest case
    corpus_req("nondeg", "cyclic", (2, 2), 39, expect_nondegenerate=True)

    # a seeded random two-variable mixed polynomial (no known answer; every
    # emitted witness must re-verify exactly).  Only one, with at most three
    # terms: about half of them escape, at 2 to 8 s, and each one more
    # widens the run-to-run spread of requests_per_s by a few percent.
    poly = random_mixed_poly(rng, 2, rng.randint(2, 3), 2, 5)
    add("nondeg", "random2", ["--poly=" + ref.render(poly)], poly, rng.randrange(1000))

    # tameness: tibar_a(1) = tibar is NotTame along the z1-axis; tibar_a(a >= 2)
    # and the cyclic family are TameCertified by symbolic witness
    # polynomials.  Their parameters are drawn without repetition, so no two
    # requests of a pool carry the same input.
    for _ in range(3):
        corpus_req("tame", "tibar_a", (1,), rng.randrange(1000), expect_tame={1: "NotTame"})
    corpus_req("tame", "tibar", (), rng.randrange(1000), expect_tame={1: "NotTame"})
    for a in rng.sample(range(2, 200), 8):
        corpus_req("tame", "tibar_a", (a,), rng.randrange(1000), expect_tame={1: "TameCertified"})
    pairs = [(a1, a2) for a1 in range(2, 13) for a2 in range(2, 13)]
    triples = [(a1, a2, a3) for a1 in range(2, 7) for a2 in range(2, 7) for a3 in range(2, 7)]
    for params in rng.sample(pairs, 8) + rng.sample(triples, 4):
        corpus_req("tame", "cyclic", params, rng.randrange(1000), expect_tame="all-certified")
    for k, params in enumerate([(1, 2, 1, 1), (1, 2, 2, 3), (1, 3, 1, 1, 1), (2, 3, 1, 2, 1)]):
        corpus_req("tame", "cone", params, k)
    corpus_req("tame", "fig1", (), 0)
    corpus_req("tame", "d_n", (rng.randint(3, 8),), 0)
    corpus_req("tame", "parusinski", (), 0)
    return reqs


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

# delta per polynomial, chosen so rejection sampling on the unit sphere
# accepts the requested samples within one or two 200k-point blocks
_TRANSVERSALITY = [
    ("tibar", (), 1e-3),
    ("tibar_a", (2,), 1e-2),
    ("tibar_a", (3,), 1e-2),
    ("tibar_a", (4,), 1e-2),
    ("parusinski", (), 1e-2),
    ("fig1", (), 5e-2),
    ("d_n", (4,), 5e-2),
    ("d_n", (5,), 5e-2),
    ("cyclic", (2, 3), 2e-2),
]
# Transversality sample counts at three levels: 5, where the 200k-point
# rejection block dominates, 40, and 200, where the per-point exact split
# and lstsq dominate.  Requests of one level cost about the same, so the
# median falls inside the 5-sample level and p90 inside the 200-sample one,
# not on a slope between two costs.  Polynomials take the counts in turn;
# the seed draws the sampling seeds.
_SAMPLE_SIZES = [5] * 54 + [40] * 34 + [200] * 32


def probe(seed):
    rng = random.Random(f"probe:{seed}")
    reqs = []

    def add(command, tag, argv_tail, poly, **info):
        req_seed = rng.randrange(1000)
        n = _arity(poly)
        reqs.append(Request(
            f"{command}:{tag}#s{req_seed}", [command, *argv_tail, "--seed", str(req_seed)],
            command, dict(poly=poly, n=n, **info),
        ))

    for i, samples in enumerate(_SAMPLE_SIZES):
        name, params, delta = _TRANSVERSALITY[i % len(_TRANSVERSALITY)]
        source = _corpus_args(name, params)
        if name == "tibar" and i % 2:
            source = ["--poly", "z1*|z2|^2"]
        add("transversality", f"{_tag(name, params)}/{samples}",
            [*source, "--delta", repr(delta), "--samples", str(samples), "--radius", "1.0"],
            ref.corpus_poly(name, params), samples=samples,
            min_residual=0.5 if name == "tibar" else None)

    # openness: the tibar sector (pinned: within 20% of atan(eps)), full
    # coverage for z1*z2, and other zero-set points checked for range only
    for k in range(24):
        eps = (0.05, 0.1, 0.2)[k % 3]
        samples = (2000, 5000, 20000)[k // 3 % 3]
        add("openness", f"tibar/{eps}/{samples}",
            ["--corpus", "tibar", "--point", "1, 0", "--epsilon", repr(eps), "--samples", str(samples)],
            ref.corpus_poly("tibar"), samples=samples, sector_of=eps)
    for k in range(8):
        samples = (5000, 20000)[k % 2]
        add("openness", f"z1*z2/{samples}",
            ["--poly", "z1*z2", "--point", "1, 0", "--epsilon", "0.1", "--samples", str(samples)],
            ref.monomial(2, {1: 1, 2: 1}), samples=samples, full_coverage=True)
    others = [("fig1", (), "0, 0, 1"), ("tibar_a", (2,), "1, 0"), ("tibar_a", (3,), "1, 0"),
              ("parusinski", (), "1, 0, 0"), ("d_n", (4,), "0, 1, 0")]
    for k in range(10):
        name, params, point = others[k % len(others)]
        samples = (2000, 20000)[k // len(others)]
        add("openness", f"{_tag(name, params)}/{samples}",
            [*_corpus_args(name, params), "--point", point, "--epsilon", "0.1", "--samples", str(samples)],
            ref.corpus_poly(name, params), samples=samples)
    return reqs


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

# (n, |S|, max exponent) cells of the random-support grid; n = 5 stays at
# |S| = 8 because face enumeration there already costs about 1 s.  The cost
# of a request depends on its cell and command far more than on the draw.
_SUPPORT_GRID = [(2, 8, 8), (2, 12, 9), (2, 16, 10), (3, 8, 5), (3, 12, 5), (3, 16, 6),
                 (4, 8, 4), (4, 10, 4), (4, 12, 4), (5, 8, 3)]
# Extra `newton` draws of one cell, about 0.12 s each: with them p90 falls
# among requests of one cost that Newton-boundary enumeration dominates,
# instead of on the slope between the grid's cells.
_P90_CELL, _P90_DRAWS = (3, 12, 5), 16
_ARC_POLYS = [("tibar", ()), ("tibar_a", (2,)), ("parusinski", ()), ("fig1", ()), ("cyclic", (2, 3))]


def _random_arc(rng, n):
    """Multi-term monomial arc text with every coordinate nonzero."""
    chunks = []
    for j in range(1, n + 1):
        e1 = rng.randint(0, 2)
        e2 = e1 + rng.randint(1, 3)
        c1, c2 = rng.randint(1, 3), rng.randint(-3, 3) or 1
        sign = "+" if c2 > 0 else "-"
        chunks.append(f"z{j} = {c1}*t^{e1} {sign} {abs(c2)}*t^{e2}")
    return "; ".join(chunks)


def _strongly_polar_sum(rng, n):
    """sum_j z_j^{c_j a} zb_j^{c_j b}: strongly polar since b/a is shared."""
    a = rng.randint(2, 4)
    b = rng.randint(0, a - 1)
    poly = {}
    for j in range(n):
        c = rng.randint(1, 2)
        nu = [0] * n
        mu = [0] * n
        nu[j], mu[j] = c * a, c * b
        ref.add_term(poly, nu, mu, ref.ONE)
    return poly


def exact(seed):
    rng = random.Random(f"exact:{seed}")
    reqs = []

    def add(label, argv, check, **info):
        reqs.append(Request(label, argv, check, info))

    # three independently drawn blocks: one pass then takes most of a run,
    # and the percentiles rest on three draws of every random cell
    for block in range(3):
        # seeded random supports over the (n, |S|) grid
        commands = ("newton", "faces", "vanishing")
        cells = [(cell, commands[(i + rep) % 3]) for rep in range(2) for i, cell in enumerate(_SUPPORT_GRID)]
        for (n, size, max_exp), command in cells + [(_P90_CELL, "newton")] * _P90_DRAWS:
            poly = random_support_poly(rng, n, size, max_exp)
            add(f"{command}:support{n}x{size}", [command, "--poly=" + ref.render(poly)], command, poly=poly, n=n)

        # pinned Newton data of the paper's figure 1
        for command in ("newton", "faces", "vanishing"):
            add(f"{command}:fig1", [command, "--corpus", "fig1"], command, poly=ref.corpus_poly("fig1"), n=3,
                pinned="fig1")
        for name, params in (("parusinski", ()), ("cyclic", (2, 3, 2)), ("cone", (1, 3, 1, 2, 1)), ("tibar", ())):
            add(f"newton:{_tag(name, params)}", ["newton", *_corpus_args(name, params)], "newton",
                poly=ref.corpus_poly(name, params), n=_arity(ref.corpus_poly(name, params)))

        # strongly polar families, their zeta functions, and (A, A-1) covers
        families = [("d_n", (rng.randint(3, 8),)) for _ in range(6)] + [("brieskorn_curve", ())] * 2
        sums = [_strongly_polar_sum(rng, rng.randint(2, 4)) for _ in range(8)]
        for k, item in enumerate(families + sums):
            if isinstance(item, tuple):
                name, params = item
                poly = ref.corpus_poly(name, params)
                source, tag = _corpus_args(name, params), _tag(name, params)
            else:
                poly, source, tag = item, ["--poly=" + ref.render(item)], "polar-sum"
            n = _arity(poly)
            cover = rng.randint(2, 3)
            a, b = (cover,) * n, (cover - 1,) * n
            pair = f"zeta-pair-{block}-{k}"
            add(f"zeta:{tag}", ["zeta", *source], "zeta", poly=poly, n=n, pair=pair,
                pinned="brieskorn" if tag == "brieskorn_curve" else None)
            add(f"pullback:{tag}/{cover}", ["pullback", *source, "--cover-a", ",".join(map(str, a)),
                                             "--cover-b", ",".join(map(str, b))],
                "pullback", poly=poly, n=n, a=a, b=b)
            lifted = ref.pullback(poly, a, b)
            add(f"zeta:{tag}/cover{cover}", ["zeta", "--poly=" + ref.render(lifted)], "zeta",
                poly=lifted, n=n, pair=pair)

        # exact limit tangents along multi-term arcs
        for _ in range(20):
            name, params = _ARC_POLYS[rng.randrange(len(_ARC_POLYS))]
            poly = ref.corpus_poly(name, params)
            n = _arity(poly)
            add(f"arc-limit:{_tag(name, params)}", ["arc-limit", *_corpus_args(name, params), "--arc",
                                                    _random_arc(rng, n)], "arc-limit", poly=poly, n=n)

        # a_f containment along arcs into the open stratum of the z1-axis
        for _ in range(4):
            add("af-test:tibar", ["af-test", "--corpus", "tibar", "--arc", "z1 = 1; z2 = t", "--subset", "1"],
                "af-test", pinned="tibar")
            add("af-test:parusinski", ["af-test", "--corpus", "parusinski", "--arc", "z1 = 1; z2 = t; z3 = t^3",
                                       "--subset", "1"], "af-test", pinned="parusinski")
        for _ in range(6):
            a = rng.randint(1, 4)
            c = rng.randint(1, 3)
            k = rng.randint(1, 3)
            add(f"af-test:tibar_a({a})", ["af-test", "--corpus", "tibar_a", "--params", str(a), "--arc",
                                          f"z1 = {c}; z2 = t^{k} + {c}*t^{k + 1}", "--subset", "1"], "af-test")

        # joins and the corpus listing
        for _ in range(10):
            f = random_mixed_poly(rng, rng.randint(1, 2), rng.randint(1, 3), 2, 4)
            name, params = _ARC_POLYS[rng.randrange(len(_ARC_POLYS))]
            g = ref.corpus_poly(name, params)
            n, m = _arity(f), _arity(g)
            add(f"join:random+{_tag(name, params)}",
                ["join", "--poly=" + ref.render(f), *_corpus_args(name, params, suffix="2")],
                "join", poly=ref.join(f, n, g, m), n=n + m)
        add("corpus:list", ["corpus"], "corpus-list")
        for _ in range(9):
            name, params = rng.choice([("tibar", ()), ("tibar_a", (3,)), ("parusinski", ()), ("fig1", ()),
                                       ("d_n", (5,)), ("cyclic", (2, 3)), ("cone", (1, 2, 1, 1)),
                                       ("brieskorn_curve", ())])
            poly = ref.corpus_poly(name, params)
            add(f"corpus:{_tag(name, params)}", ["corpus", *_corpus_args(name, params)], "corpus",
                poly=poly, n=_arity(poly))

        # invalid requests: each must come back as a typed JSON error
        bad_text = {"z1^3 + * z2": "PolySyntaxError", "z1*(z2 + ": "PolySyntaxError", "z1 + z0^2": "PolySyntaxError",
                    "z1^2 $ z2": "PolySyntaxError", "3/0*z1": "PolySyntaxError", "zb1 z2)": "PolySyntaxError",
                    "|z1|^3 + z2^2": "OddModulusExponentError"}
        for text in rng.sample(sorted(bad_text), 3):
            add("newton:malformed", ["newton", "--poly", text], "error", error=bad_text[text])
        add("corpus:unknown", ["corpus", "--corpus", f"no_such_{rng.randint(0, 99)}"], "error",
            error="UnknownCorpusNameError")
        add("zeta:unknown", ["zeta", "--corpus", "tibar_b"], "error", error="UnknownCorpusNameError")
        add("newton:bad-params", ["newton", "--corpus", "cone", "--params", str(rng.randint(3, 9))], "error",
            error="BadParamsError")
        add("faces:bad-params", ["faces", "--corpus", "cyclic", "--params", "1,2"], "error", error="BadParamsError")
        add("corpus:bad-params", ["corpus", "--corpus", "tibar_a", "--params", "0"], "error", error="BadParamsError")
        # ROADMAP item 4: when this benchmark was written both left without a
        # JSON report
        add(KNOWN_DEFECTS[0], ["af-test", "--corpus", "tibar", "--arc", "z1 = 1; z2 = 1", "--subset", "1"],
            "error", error=None)
        add(KNOWN_DEFECTS[1], ["openness", "--corpus", "tibar", "--point", "1, x"], "error", error=None)
    return reqs


WORKLOADS = {"search": search, "probe": probe, "exact": exact}

# One cheap request per command a workload sends, run during set-up so lazy
# imports and first-call costs stay out of the timed region.
WARMUP = {
    "search": [["nondeg", "--corpus", "tibar", "--budget", "1"], ["tame", "--corpus", "tibar_a", "--params", "2"]],
    "probe": [["transversality", "--corpus", "tibar", "--samples", "5"],
              ["openness", "--corpus", "tibar", "--point", "1, 0", "--samples", "2000"]],
    "exact": [["newton", "--corpus", "fig1"], ["faces", "--corpus", "tibar"], ["vanishing", "--corpus", "fig1"],
              ["zeta", "--corpus", "d_n", "--params", "4"], ["arc-limit", "--corpus", "tibar", "--arc", "z1 = 1; z2 = t"],
              ["af-test", "--corpus", "tibar", "--arc", "z1 = 1; z2 = t", "--subset", "1"],
              ["pullback", "--corpus", "tibar", "--cover-a", "2,2"], ["join", "--corpus", "tibar", "--corpus2", "fig1"],
              ["corpus"], ["newton", "--poly", "z1 +"]],
}


def build(workload, seed):
    """The pool in its seeded run order."""
    reqs = WORKLOADS[workload](seed)
    random.Random(f"order:{workload}:{seed}").shuffle(reqs)
    return reqs
