"""Exact rational linear algebra and polyhedral primitives.

Everything operates on small integer/rational data (supports are capped at
64 points), so the algorithms favor exactness over asymptotics.  The one
Gaussian elimination is `nullspace`; on it sits one brute-force hyperplane
search over point subsets (`_hyperplanes`), which gives both the facet
normals of a Newton polyhedron and the facets of a volume's pyramid sum.
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


def rank(rows) -> int:
    """Rank of a rational matrix given as a list of row vectors."""
    if not rows:
        return 0
    ncols = len(rows[0])
    return ncols - len(nullspace(rows, ncols))


def directions(points, rays, n):
    """Rows p - points[0] for the other points, then e_i (0-based i in rays) in R^n."""
    base = points[0]
    rows = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    rows += [[int(j == i) for j in range(n)] for i in rays]
    return rows


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set."""
    pts = list(points)
    return rank(directions(pts, (), len(pts[0]))) if pts else 0


def nullspace(rows, ncols):
    """Basis of the right nullspace of a rational matrix, as Fraction tuples."""
    m = [[Fraction(x) for x in row] for row in rows]
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


def _hyperplanes(points, n, rays=()):
    """(subset, normal) for each subset of n - len(rays) points, in combinations
    order, whose direction rows span a hyperplane; normal has any scale and sign."""
    for subset in combinations(points, n - len(rays)):
        basis = nullspace(directions(subset, rays, n), n)
        if len(basis) == 1:
            yield subset, basis[0]


def _candidate_normals(support, n):
    """Primitive nonnegative normals of all facets of conv(S) + R_{>=0}^n.

    Every facet hyperplane is spanned by affinely independent support points
    plus coordinate ray directions, so the hyperplanes of (point subset, ray
    subset) pairs find every facet normal (plus harmless normals of lower
    faces).
    """
    seen = set()
    for nrays in range(0, n):
        for rayset in combinations(range(n), nrays):
            for _, normal in _hyperplanes(support, n, rayset):
                w = integerize(normal)
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


def _pyramid_sum(pts, m):
    """Normalized volume of sorted distinct points, full-dimensional in R^m.

    conv(P) is the union of the pyramids conv(a, F) over the facets F that
    miss its lex-min vertex a.  Each weighs a's lattice height over F's
    hyperplane w.x = c times F's volume in that hyperplane's lattice, which
    is NV(pi_k F) / |w_k| for primitive w when pi_k drops a coordinate with
    w_k != 0; |w.a - c| / |w_k| does not depend on how w is scaled.
    """
    if m == 1:
        return pts[-1][0] - pts[0][0]
    total = Fraction(0)
    seen = set()
    for subset, w in _hyperplanes(pts[1:], m):
        c = sum(wi * xi for wi, xi in zip(w, subset[0]))
        sides = [sum(wi * xi for wi, xi in zip(w, p)) - c for p in pts]
        height = sides[0]
        if height == 0 or any(s * height < 0 for s in sides):
            continue
        facet = tuple(p for p, s in zip(pts, sides) if s == 0)
        if facet in seen:
            continue
        seen.add(facet)
        k = next(i for i, wi in enumerate(w) if wi != 0)
        proj = sorted({p[:k] + p[k + 1:] for p in facet})
        total += abs(height) / abs(w[k]) * _pyramid_sum(proj, m - 1)
    return total


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
    return _pyramid_sum(pts, m)
