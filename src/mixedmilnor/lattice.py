"""Exact rational linear algebra and polyhedral primitives.

Everything operates on small integer/rational data, so the algorithms favor
exactness over asymptotics.  The one Gaussian elimination is `nullspace`,
fraction-free (Bareiss 1968): rows are cleared of denominators and eliminated
in Python ints, each new row divided by its gcd.  On it sits one brute-force
hyperplane search over point subsets (`_hyperplanes`), which gives both the
facets of a Newton polyhedron, whose intersections are its other faces, and
the facets of a volume's pyramid sum.  Face enumeration is refused before it
starts above 64 support points or 150,000 (ray set, point subset) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .errors import TooManySupportPointsError

MAX_SUPPORT = 64
# (ray set, point subset) pairs over all support points; the facet search visits
# only undominated projected points, so the cap is conservative: supports near it
# take at most about 7 s for n <= 7 on a 2-vCPU x86 host.  The closure after the
# search costs faces x facets subset tests per round and is not capped
MAX_CANDIDATE_SUBSETS = 150_000


def primitive(vec):
    """Scale an integer vector by 1/gcd of its entries (all-zero stays zero)."""
    vec = [int(v) for v in vec]
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


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
    """Basis of the right nullspace of a rational matrix, one primitive integer
    tuple per free column (in column order): each is the positive multiple of
    the reduced-row-echelon basis vector with 1 at its free column."""
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append([int(x * den) for x in row])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][col]
        for i in range(len(m)):
            f = m[i][col]
            if i != r and f != 0:
                row = [p * a - f * b for a, b in zip(m[i], m[r])]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        r += 1
    scale = lcm(*(abs(m[i][pc]) for i, pc in enumerate(pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc] * (scale // m[i][pc])
        basis.append(primitive(vec))
    return basis


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


def _hyperplanes(points, n):
    """(subset, normal) for each subset of n points, in combinations order,
    whose differences span a hyperplane; the normal is a primitive integer
    vector of either sign."""
    for subset in combinations(points, n):
        basis = nullspace(directions(subset, (), n), n)
        if len(basis) == 1:
            yield subset, basis[0]


def _facets(pts, n):
    """Facets of conv(S) + R_{>=0}^n for sorted distinct points S, as
    {(generator mask, ray mask): primitive normal}, bit k of a generator mask
    standing for pts[k] and bit i of a ray mask for e_i (0-based).

    Dropping the coordinates R where a facet's normal vanishes maps it to a
    compact facet of the projection, spanned by undominated projected points
    (no other one is <= them in every coordinate).  A hyperplane through such
    points is kept when its normal is nonnegative and they attain the minimum.
    """
    facets = {}
    for nrays in range(n):
        for rays in combinations(range(n), nrays):
            proj = {tuple(x for i, x in enumerate(p) if i not in rays) for p in pts}
            low = [p for p in proj if not any(q != p and all(map(int.__le__, q, p)) for q in proj)]
            for subset, w in _hyperplanes(low, n - nrays):
                if min(w) < 0 < max(w):
                    continue
                entries = map(abs, w)
                weight = tuple(0 if i in rays else next(entries) for i in range(n))
                vals = [sum(a * b for a, b in zip(weight, p)) for p in pts]
                d = min(vals)
                if d == sum(abs(a) * b for a, b in zip(w, subset[0])):
                    gens = sum(1 << k for k, v in enumerate(vals) if v == d)
                    facets[gens, sum(1 << i for i, x in enumerate(weight) if x == 0)] = weight
    return facets


def newton_faces(support, n):
    """All proper faces of conv(S) + R_{>=0}^n for a support set S, one
    LatticeFace per distinct (generators, rays), sorted by (sorted rays,
    sorted generators).

    Each face is the intersection of the facets containing it, so the facets
    are closed under intersection with a facet.  Its witness is the primitive
    sum of those facets' normals, which lies in the relative interior of its
    normal cone and so exposes exactly this face.  Raises
    TooManySupportPointsError, before enumerating anything, above
    MAX_SUPPORT points or MAX_CANDIDATE_SUBSETS candidate subsets.
    """
    pts = sorted({tuple(int(x) for x in p) for p in support})
    if not pts:
        return []
    if len(pts) > MAX_SUPPORT:
        raise TooManySupportPointsError(
            f"{len(pts)} support points exceeds the exact-enumeration cap {MAX_SUPPORT}"
        )
    subsets = sum(comb(n, r) * comb(len(pts), n - r) for r in range(n))
    if subsets > MAX_CANDIDATE_SUBSETS:
        raise TooManySupportPointsError(
            f"{len(pts)} support points in {n} variables give {subsets} candidate subsets,"
            f" above the exact-enumeration cap {MAX_CANDIDATE_SUBSETS}"
        )
    facets = _facets(pts, n)
    keys = list(facets)
    seen = set(keys)
    for gens, rays in keys:  # keys grows while it is read
        for fgens, frays in facets:
            key = (gens & fgens, rays & frays)
            if key[0] and key not in seen:
                seen.add(key)
                keys.append(key)
    faces = []
    for gens, rays in keys:
        normals = [w for (fg, fr), w in facets.items() if fg & gens == gens and fr & rays == rays]
        faces.append(_argmin_face(pts, primitive(map(sum, zip(*normals)))))
    return sorted(faces, key=lambda f: (sorted(f.rays), sorted(f.generators)))


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
