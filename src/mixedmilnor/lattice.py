"""Exact rational linear algebra and polyhedral primitives.

Everything operates on small integer/rational data (supports are capped at
64 points), so the algorithms favor exactness over asymptotics: faces come
from brute-force normal enumeration over support subsets, volumes from
recursive facet triangulation with rational determinants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import TooManySupportPointsError

MAX_SUPPORT = 64


def primitive(vec):
    """Scale an integer vector by 1/gcd of its entries (all-zero stays zero)."""
    g = 0
    for v in vec:
        g = gcd(g, abs(int(v)))
    if g <= 1:
        return tuple(int(v) for v in vec)
    return tuple(int(v) // g for v in vec)


def _fractionize(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rank(rows) -> int:
    """Rank of a rational matrix given as a list of row vectors."""
    if not rows:
        return 0
    ncols = len(rows[0])
    return ncols - len(nullspace(rows, ncols))


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set."""
    pts = list(points)
    if len(pts) <= 1:
        return 0
    base = pts[0]
    return rank([[a - b for a, b in zip(p, base)] for p in pts[1:]])


def nullspace(rows, ncols):
    """Basis of the right nullspace of a rational matrix, as Fraction tuples."""
    m = _fractionize(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -m[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def integerize(vec):
    """Clear denominators of a rational vector and reduce to primitive form."""
    denoms = 1
    for v in vec:
        denoms = denoms * v.denominator // gcd(denoms, v.denominator)
    ints = [int(v * denoms) for v in vec]
    return primitive(ints)


# ---------------------------------------------------------------------------
# Faces of a Newton polyhedron conv(S) + R_{>=0}^n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeFace:
    """One face of the Newton polyhedron of a support set.

    generators: support points realizing the minimum of the witness weight.
    rays: 1-based coordinate directions i with witness_i == 0 (the face is
    closed under adding R_{>=0} E_i for each).  Compact faces have no rays.
    """

    generators: frozenset
    rays: frozenset
    witness: tuple
    d: int

    def is_compact(self) -> bool:
        return not self.rays


def _argmin_face(support, weight):
    vals = [sum(w * x for w, x in zip(weight, pt)) for pt in support]
    d = min(vals)
    gens = frozenset(pt for pt, v in zip(support, vals) if v == d)
    rays = frozenset(i + 1 for i, w in enumerate(weight) if w == 0)
    return LatticeFace(gens, rays, tuple(weight), d)


def _candidate_normals(support, n):
    """Primitive nonnegative normals of all facets of conv(S) + R_{>=0}^n.

    Every facet hyperplane is spanned by affinely independent support points
    plus coordinate ray directions, so enumerating (point subset, ray subset)
    pairs whose combined direction space has rank n-1 finds every facet
    normal (plus harmless normals of lower faces).
    """
    seen = set()
    pts = list(support)
    for nrays in range(0, n):
        npts = n - nrays  # |T| - 1 + nrays == n - 1
        if npts < 1 or npts > len(pts):
            continue
        for rayset in combinations(range(n), nrays):
            eis = []
            for i in rayset:
                e = [0] * n
                e[i] = 1
                eis.append(e)
            for subset in combinations(pts, npts):
                base = subset[0]
                rows = [[a - b for a, b in zip(p, base)] for p in subset[1:]]
                rows += eis
                basis = nullspace(rows, n)
                if len(basis) != 1:
                    continue
                w = integerize(basis[0])
                if all(x <= 0 for x in w):
                    w = tuple(-x for x in w)
                if any(x < 0 for x in w) or all(x == 0 for x in w):
                    continue
                seen.add(w)
    return seen


def newton_faces(support, n):
    """All proper faces of conv(S) + R_{>=0}^n for a support set S.

    Returns LatticeFace objects keyed by (generators, rays); the stored
    witness is the lexicographically smallest primitive weight among the
    candidates that expose the face (facet witnesses are unique).
    """
    pts = [tuple(int(x) for x in p) for p in support]
    pts = sorted(set(pts))
    if not pts:
        return []
    if len(pts) > MAX_SUPPORT:
        raise TooManySupportPointsError(
            f"{len(pts)} support points exceeds the exact-enumeration cap {MAX_SUPPORT}"
        )
    faces = {}

    def record(face):
        key = (face.generators, face.rays)
        old = faces.get(key)
        if old is None or face.witness < old.witness:
            faces[key] = face

    for w in _candidate_normals(pts, n):
        record(_argmin_face(pts, w))

    # close under pairwise intersection; every face of a pointed polyhedron
    # is an intersection of the facets containing it
    frontier = list(faces.values())
    while frontier:
        new = []
        items = list(faces.values())
        for fa in frontier:
            for fb in items:
                gens = fa.generators & fb.generators
                if not gens:
                    continue
                w = tuple(a + b for a, b in zip(fa.witness, fb.witness))
                w = primitive(w)
                cand = _argmin_face(pts, w)
                if cand.generators != gens:
                    # numeric witness exposes a different face; cannot happen
                    # for faces of the same polyhedron, guard anyway
                    continue
                key = (cand.generators, cand.rays)
                old = faces.get(key)
                if old is None:
                    faces[key] = cand
                    new.append(cand)
                elif cand.witness < old.witness:
                    faces[key] = cand
        frontier = new
    return sorted(
        faces.values(), key=lambda f: (sorted(f.rays), sorted(f.generators))
    )


# ---------------------------------------------------------------------------
# Exact volumes
# ---------------------------------------------------------------------------


def _det(rows):
    m = _fractionize(rows)
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((i for i in range(col, size) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, size):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def hull_2d(points):
    """Vertices of the 2-D convex hull, counterclockwise (monotone chain)."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _triangulate_full(points, m):
    """Simplices covering conv(points), assumed full-dimensional in R^m."""
    pts = sorted(set(tuple(p) for p in points))
    if m == 1:
        return [(pts[0], pts[-1])]
    if m == 2:
        hull = hull_2d(pts)
        apex = hull[0]
        return [(apex, hull[i], hull[i + 1]) for i in range(1, len(hull) - 1)]
    apex = pts[0]  # lex-min point is a vertex of the hull
    simplices = []
    seen_facets = set()
    for subset in combinations(pts, m):
        base = subset[0]
        rows = [[a - b for a, b in zip(p, base)] for p in subset[1:]]
        basis = nullspace(rows, m)
        if len(basis) != 1:
            continue
        w = basis[0]
        c = sum(wi * xi for wi, xi in zip(w, base))
        sides = [sum(wi * xi for wi, xi in zip(w, p)) - c for p in pts]
        if all(s >= 0 for s in sides):
            pass
        elif all(s <= 0 for s in sides):
            w = tuple(-x for x in w)
            c = -c
            sides = [-s for s in sides]
        else:
            continue
        facet = tuple(p for p, s in zip(pts, sides) if s == 0)
        if facet in seen_facets or apex in facet:
            continue
        seen_facets.add(facet)
        drop = next(i for i, wi in enumerate(w) if wi != 0)
        proj = {tuple(x for i, x in enumerate(p) if i != drop): p for p in facet}
        for sub in _triangulate_full(list(proj.keys()), m - 1):
            simplices.append((apex,) + tuple(proj[q] for q in sub))
    return simplices


def normalized_volume(points) -> Fraction:
    """k! times the k-dimensional volume of conv(points) in R^k.

    Returns 0 when the hull is lower-dimensional.  Points may have negative
    coordinates (unimodular images are fine).
    """
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    if not pts:
        return Fraction(0)
    m = len(pts[0])
    if affine_rank(pts) < m:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _triangulate_full(pts, m):
        base = simplex[0]
        rows = [[a - b for a, b in zip(p, base)] for p in simplex[1:]]
        total += abs(_det(rows))
    return total
