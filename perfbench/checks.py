"""Output checks, run outside the timed region.

Every report must validate against ``schema/report.json``.  Beyond that each
request kind is checked against the benchmark's own exact reference
(``reference.py``): face data against the input support, witnesses
re-evaluated in exact rationals, pinned answers from the paper and the
acceptance suite, and zeta multisets of each (A, A-1) cyclic cover pair.
A check returns None when the report is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import reference as ref

# the package promises a criticality residual below 1e-10 for each witness
WITNESS_TOL = Fraction(1, 10**10)


def _pt(p):
    return tuple(int(x) for x in p)


def face_reason(face, poly, n):
    """Why a reported face disagrees with the input support, or None."""
    supp = ref.support(poly)
    w = face["witness"]
    if len(w) != n or any(x < 0 for x in w) or not any(w):
        return f"bad witness weight {w}"
    values = {pt: sum(a * b for a, b in zip(w, pt)) for pt in supp}
    d = min(values.values())
    argmin = {pt for pt, v in values.items() if v == d}
    if {_pt(g) for g in face["generators"]} != argmin:
        return f"witness {w} attains its minimum on {sorted(argmin)}, not on {face['generators']}"
    if face["d"] != d:
        return f"face d={face['d']} but the witness minimum is {d}"
    rays = [j + 1 for j, x in enumerate(w) if x == 0]
    if sorted(face["I"]) != rays:
        return f"face I={face['I']} but the witness vanishes on {rays}"
    kind = face["kind"]
    if not rays:
        expected = "Compact"
    elif ref.vanishes_on(poly, rays):
        expected = "NonCompactEssential"
    else:
        expected = "NonCompactInessential"
    if kind != expected:
        return f"face over I={rays} is {kind}, expected {expected}"
    return None


def witness_residual(poly, point, free):
    exact = [ref.c_from_float(complex(re_, im_)) for re_, im_ in point]
    return ref.criticality_residual(poly, exact, sorted(free))


def _unit_or_zero(vec):
    norm = math.sqrt(sum(re_ * re_ + im_ * im_ for re_, im_ in vec))
    return norm < 1e-12 or abs(norm - 1.0) < 1e-9


def _has_covector(limit, target):
    for key in ("covector_g", "covector_h"):
        vec = [complex(a, b) for a, b in limit[key]]
        for sign in (1, -1):
            if math.sqrt(sum(abs(sign * x - t) ** 2 for x, t in zip(vec, target))) < 1e-9:
                return True
    return False


def _product_text(factors):
    merged = Counter()
    for d, e in factors:
        merged[d] += e
    parts = [f"(1-t^{d})" + ("" if e == 1 else f"^{e}") for d, e in sorted(merged.items()) if e]
    return "".join(parts) or "1", [(d, e) for d, e in sorted(merged.items()) if e]


class Checker:
    """Checks reports and accumulates the outcome counts the trace reports."""

    def __init__(self, schema):
        import jsonschema

        self.validator = jsonschema.Draft7Validator(schema)
        self.stats = Counter()
        self.zeta_pairs = {}
        self._key = None

    def check(self, req, code, out, err, key=None):
        try:
            report = json.loads(out)
        except ValueError:
            first = (err.strip().splitlines() or ["no output"])[-1]
            return f"no JSON report (exit {code}): {first[:120]}"
        problems = sorted(self.validator.iter_errors(report), key=lambda e: list(e.path))
        if problems:
            return f"schema: {problems[0].message[:120]}"
        if req.check == "error":
            if "error" not in report:
                return "expected a typed JSON error, got a result"
            expected = req.info.get("error")
            if expected and report["error"]["type"] != expected:
                return f"expected {expected}, got {report['error']['type']}"
            return None if code == 1 else f"error report with exit code {code}"
        if "error" in report:
            return f"unexpected {report['error']['type']}: {report['error']['message'][:100]}"
        if code != 0:
            return f"exit code {code}"
        self._key = key
        handler = getattr(self, "_" + req.check.replace("-", "_"))
        return handler(req.info, report["result"])

    def cross_check(self):
        """Checks that span two requests: (key, reason) per failure."""
        failures = []
        for entries in self.zeta_pairs.values():
            if len({m for _, m in entries}) > 1:
                failures.append((entries[-1][0], f"zeta multisets differ from the uncovered input: {entries}"))
        return failures

    # -- float searches ------------------------------------------------------

    def _nondeg(self, info, result):
        poly, n = info["poly"], info["n"]
        planted = info.get("planted")
        if planted is not None:
            self.stats["planted.faces"] += 1
        hits = []
        searched = set()
        for v in result["verdicts"]:
            face = v["face"]
            reason = face_reason(face, poly, n)
            if reason:
                return reason
            gens = face["compact_part"] if face["kind"] == "NonCompactEssential" else face["generators"]
            fpoly = ref.terms_on(poly, gens)
            if ref.parse_canonical(v["face_function"], n) != fpoly:
                return f"face function {v['face_function']!r} is not f on {gens}"
            self.stats["nondeg.verdicts"] += 1
            # the falsifier searches once per distinct monomial set of a face
            # function; a real-valued one (up to a unit) is settled without a
            # search and reports zero restarts
            if v["stats"]["restarts"] > 0 and frozenset(fpoly) not in searched:
                searched.add(frozenset(fpoly))
                self.stats["nondeg.searches"] += 1
            if v["status"] == "NoCriticalPointFound":
                if "witness" in v:
                    return "NoCriticalPointFound with a witness"
                continue
            if "witness" not in v:
                return f"{v['status']} without a witness"
            residual = witness_residual(fpoly, v["witness"], range(1, n + 1))
            if residual >= WITNESS_TOL:
                return f"witness on {gens} has exact residual {float(residual):.3g}"
            hits.append(sorted(_pt(g) for g in face["generators"]))
        if planted is not None:
            if planted not in hits:
                return f"no verified witness on the planted face {planted}"
            self.stats["planted.verified"] += 1
        if info.get("expect_nondegenerate") and hits:
            return f"critical point reported on a nondegenerate entry: {hits[0]}"
        if info.get("pinned") == "cone-1-2-1-1" and hits != [[(1, 2), (3, 0)]]:
            return f"cone 1,2,1,1 must have exactly one witness face {{(3,0),(1,2)}}, got {hits}"
        return None

    def _tame(self, info, result):
        poly, n = info["poly"], info["n"]
        expected = info.get("expect_tame")
        seen = {}
        for entry in result["subspaces"]:
            I = entry["I"]
            if not ref.vanishes_on(poly, I):
                return f"tameness reported for the nonvanishing subset {I}"
            seen[tuple(I)] = entry
            for fr in entry["faces"]:
                reason = face_reason(fr["face"], poly, n)
                if reason:
                    return reason
                self.stats["tame.faces"] += 1
                if "certified_by" in fr:
                    self.stats["tame.faces_symbolic"] += 1
            if entry["status"] == "NotTame":
                if "witness" not in entry:
                    return f"NotTame on {I} without a witness"
                point = entry["witness"]["point"]
                z_i = entry["witness"]["z_I"]
                if [point[i - 1] for i in I] != z_i:
                    return f"witness z_I does not match its point on {I}"
                verified = False
                for fr in entry["faces"]:
                    if fr["status"] != "NotTame":
                        continue
                    fpoly = ref.terms_on(poly, fr["face"]["generators"])
                    free = [j for j in range(1, n + 1) if j not in fr["face"]["I"]]
                    if witness_residual(fpoly, point, free) < WITNESS_TOL:
                        verified = True
                if not verified:
                    return f"NotTame witness on {I} does not re-verify exactly"
        if expected == "all-certified":
            for I, entry in seen.items():
                if entry["status"] != "TameCertified" or entry["radius"] != "inf":
                    return f"expected TameCertified with infinite radius on {list(I)}, got {entry['status']}"
        elif expected:
            for axis, status in expected.items():
                entry = seen.get((axis,))
                if entry is None or entry["status"] != status:
                    got = entry["status"] if entry else "nothing"
                    return f"expected {status} on [{axis}], got {got}"
                if status == "TameCertified" and entry["radius"] != "inf":
                    return f"TameCertified on [{axis}] with finite radius {entry['radius']}"
        return None

    def _transversality(self, info, result):
        self.stats["transversality.draws"] += result["samples_drawn"]
        self.stats["transversality.accepted"] += result["accepted"]
        if result["accepted"] != info["samples"]:
            return f"accepted {result['accepted']} of {info['samples']} samples"
        if result["samples_drawn"] < result["accepted"]:
            return "drew fewer points than it accepted"
        low, mean = result["min_residual"], result["mean_residual"]
        if not 0.0 <= low <= mean + 1e-12:
            return f"residual statistics out of order: min {low}, mean {mean}"
        bound = info.get("min_residual")
        if bound is not None and low < bound:
            return f"min transversality residual {low:.4g} below {bound}"
        return None

    def _openness(self, info, result):
        coverage, halfwidth = result["arg_coverage"], result["sector_halfwidth"]
        if not 0.0 < coverage <= 1.0 or result["nonzero_samples"] > info["samples"]:
            return f"coverage {coverage} from {result['nonzero_samples']} samples is out of range"
        if (halfwidth is None) != (coverage == 1.0):
            return "sector half-width must be given exactly when coverage is partial"
        if info.get("full_coverage") and coverage != 1.0:
            return f"expected full argument coverage, got {coverage}"
        eps = info.get("sector_of")
        if eps is not None:
            target = math.atan(eps)
            if coverage >= 1.0 or abs(halfwidth - target) > 0.2 * target:
                return f"sector half-width {halfwidth} not within 20% of atan({eps}) = {target:.4f}"
        return None

    # -- exact combinatorics ---------------------------------------------------

    def _newton(self, info, result):
        poly, n = info["poly"], info["n"]
        supp = ref.support(poly)
        if {_pt(p) for p in result["support"]} != supp:
            return "reported support differs from the input"
        if not {_pt(v) for v in result["vertices"]} <= supp:
            return "a vertex is not a support point"
        convenient = all(
            any(pt[i] > 0 and sum(pt) == pt[i] for pt in supp) for i in range(n)
        )
        if result["convenient"] != convenient:
            return f"convenient={result['convenient']}, expected {convenient}"
        for key, kind in (("essential_faces", "NonCompactEssential"), ("inessential_faces", "NonCompactInessential")):
            for face in result[key]:
                reason = face_reason(face, poly, n)
                if reason:
                    return reason
                if face["kind"] != kind:
                    return f"{kind} list holds a {face['kind']} face"
        if info.get("pinned") == "fig1":
            if sorted(map(_pt, result["vertices"])) != [(0, 1, 2), (0, 3, 0), (3, 0, 0)]:
                return f"figure-1 vertices are {result['vertices']}"
            essential = [(f["I"], sorted(map(_pt, f["generators"]))) for f in result["essential_faces"]]
            if essential != [([3], [(0, 1, 2), (3, 0, 0)])]:
                return f"figure-1 essential faces are {essential}"
            inessential = {tuple(sorted(map(_pt, f["generators"]))) for f in result["inessential_faces"]}
            if not {((0, 3, 0), (3, 0, 0)), ((0, 1, 2), (0, 3, 0))} <= inessential:
                return "figure-1 inessential faces over AB and BC are missing"
        return None

    def _faces(self, info, result):
        for face in result["faces"]:
            reason = face_reason(face, info["poly"], info["n"])
            if reason:
                return reason
        if info.get("pinned") == "fig1":
            essential = [sorted(map(_pt, f["generators"])) for f in result["faces"]
                         if f["kind"] == "NonCompactEssential"]
            if [(0, 1, 2), (3, 0, 0)] not in essential:
                return "figure-1 essential face AC is missing"
        return None

    def _vanishing(self, info, result):
        vanishing, nonvanishing = ref.vanishing_partition(info["poly"], info["n"])
        if result["vanishing"] != vanishing or result["nonvanishing"] != nonvanishing:
            return f"vanishing subsets {result['vanishing']}, expected {vanishing}"
        return None

    def _zeta(self, info, result):
        factors = [(f["d"], f["e"]) for f in result["factors"]]
        for f in result["factors"]:
            if f["e"] * f["d"] != -f["chi"]:
                return f"factor d={f['d']} e={f['e']} does not satisfy e*d = -chi ({f['chi']})"
        text, merged = _product_text(factors)
        if result["product"] != text:
            return f"product {result['product']!r}, expected {text!r}"
        if not ref.zeta_cross_check(merged, result["numerator"], result["denominator"]):
            return "expanded numerator/denominator do not equal the factor product"
        if info.get("pinned") == "brieskorn":
            expected = [1] + [0] * 19 + [-2] + [0] * 19 + [1]
            if text != "(1-t^20)^2" or result["numerator"] != expected or result["denominator"] != [1]:
                return f"brieskorn_curve zeta is {text}, expected (1-t^20)^2"
        pair = info.get("pair")
        if pair:
            self.zeta_pairs.setdefault(pair, []).append((self._key, tuple(sorted(factors))))
        return None

    def _arc_limit(self, info, result):
        if not (_unit_or_zero(result["covector_g"]) and _unit_or_zero(result["covector_h"])):
            return "limit covectors are not normalized"
        if len(result["orders"]) != 2 or min(result["orders"]) < 0:
            return f"bad orders {result['orders']}"
        return None

    def _af_test(self, info, result):
        limit = result["limit"]
        if result["I"] != [1]:
            return f"af-test answered for I={result['I']}"
        if (result["contains_CI"] is None) != (not limit["independent"]):
            return "contains_CI must be null exactly when the covector pair collapsed"
        reason = self._arc_limit(info, limit)
        if reason:
            return reason
        pinned = info.get("pinned")
        if pinned:
            target = {"tibar": [-1j, 0], "parusinski": [-1j, 0, 0]}[pinned]
            if result["contains_CI"] is not False or not _has_covector(limit, target):
                return f"{pinned}: expected a_f failure with limit covector +-{target}"
        return None

    def _pullback(self, info, result):
        expected = ref.pullback(info["poly"], info["a"], info["b"])
        if ref.parse_canonical(result["polynomial"], info["n"]) != expected:
            return "pullback polynomial differs from the exact substitution"
        return None

    def _join(self, info, result):
        poly, n = info["poly"], info["n"]
        if ref.parse_canonical(result["polynomial"], n) != poly:
            return "joined polynomial differs from the reference join"
        linear = any(sum(nu) + sum(mu) == 1 for nu, mu in poly)
        if result["has_linear_term"] != linear:
            return f"has_linear_term={result['has_linear_term']}, expected {linear}"
        return None

    def _corpus_list(self, info, result):
        if result["names"] != ref.CORPUS_NAMES:
            return f"corpus names {result['names']}"
        return None

    def _corpus(self, info, result):
        if result["n"] != info["n"] or not result["formula"]:
            return "corpus entry has the wrong arity or no formula"
        if ref.parse_canonical(result["polynomial"], info["n"]) != info["poly"]:
            return "corpus polynomial differs from its definition"
        return None
