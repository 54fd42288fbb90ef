"""Exact rational linear algebra and polyhedral primitives.

Everything operates on small integer/rational data, so the algorithms favor
exactness over asymptotics.  The one Gaussian elimination is `nullspace`,
fraction-free (Bareiss 1968): rows are cleared of denominators and eliminated
in Python ints, each new row divided by its gcd.  On it sits one facet routine
for cones, exact double description (`_cone_facets`), for both the faces of a
Newton polyhedron (intersections of its facets) and a volume's pyramid sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import numpy as np

from .errors import TooManySupportPointsError, TooManyVariablesError

MAX_SUPPORT = 64
# faces of a Newton polyhedron, or facets of a cone held at once; a polyhedron
# in n variables has at least 2^n - 1 proper faces, so n >= 15 is refused
MAX_FACES = 20_000


def primitive(vec):
    """Scale an integer vector by 1/gcd of its entries (all-zero stays zero)."""
    vec = [int(v) for v in vec]
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def rank(rows) -> int:
    """Rank of a rational matrix given as a list of row vectors."""
    return len(rows[0]) - len(nullspace(rows, len(rows[0]))) if rows else 0


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


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _argmin_face(support, weight):
    vals = [_dot(weight, pt) for pt in support]
    d = min(vals)
    gens = frozenset(pt for pt, v in zip(support, vals) if v == d)
    rays = frozenset(i + 1 for i, w in enumerate(weight) if w == 0)
    return LatticeFace(gens, rays, tuple(weight), d)


def _cone_facets(gens, dim):
    """Facets of the full-dimensional pointed cone spanned by integer vectors
    gens in R^dim, as (primitive inner normal, mask of the gens on it) pairs,
    by double description (Motzkin et al. 1953; Fukuda & Prodon 1996): each
    generator after dim independent ones keeps the facets it satisfies and
    joins each adjacent pair it separates: they share dim - 2 or more gens,
    and no third facet holds all of those.  Raises TooManySupportPointsError
    above MAX_FACES facets.
    """
    basis = []
    for k, g in enumerate(gens):
        if len(basis) < dim and rank([gens[j] for j in basis] + [g]) > len(basis):
            basis.append(k)
    facets = []
    for i in basis:
        w = nullspace([gens[j] for j in basis if j != i], dim)[0]  # the facet opposite gens[i]
        w = w if _dot(w, gens[i]) > 0 else tuple(-x for x in w)
        facets.append((w, sum(1 << j for j in basis if j != i)))
    for k, g in enumerate(gens):
        if k in basis:
            continue
        sides = [(w, mask, _dot(w, g)) for w, mask in facets]
        kept = [(w, mask | 1 << k if s == 0 else mask) for w, mask, s in sides if s >= 0]
        pos = [i for i, side in enumerate(sides) if side[2] > 0]
        neg = [i for i, side in enumerate(sides) if side[2] < 0]
        if neg:  # the masks as 0/1 rows, and for each generator the facets holding it
            rows = np.array([[m >> j & 1 for j in range(len(gens))] for _, m, _ in sides], np.float32)
            held = np.packbits(rows.astype(bool), axis=0, bitorder="little").T
            holders = [int.from_bytes(c.tobytes(), "little") for c in held]
        for lo in range(0, len(neg), 256):  # shared generators of (neg, pos) pairs, 256 rows at once
            shared = rows[neg[lo:lo + 256]] @ rows[pos].T
            for qi, pi in zip(*np.nonzero(shared >= dim - 2)):
                (wp, mp, sp), (wq, mq, sq) = sides[pos[pi]], sides[neg[lo + qi]]
                common = mp & mq
                on = [holders[j] for j in range(len(gens)) if common >> j & 1]
                if reduce(int.__and__, on, (1 << len(sides)) - 1).bit_count() == 2:
                    kept.append((primitive(a * sp - b * sq for a, b in zip(wq, wp)), common | 1 << k))
        if len(kept) > MAX_FACES:
            raise TooManySupportPointsError(f"more than {MAX_FACES} facets, the face cap")
        facets = kept
    return facets


def newton_faces(support, n):
    """All proper faces of conv(S) + R_{>=0}^n for a support set S, one
    LatticeFace per distinct (generators, rays), sorted by (sorted rays,
    sorted generators).

    The facets are those of the cone over (1, p), for the undominated p (no
    other point is <= p in every coordinate), and (0, e_i), less x_0 >= 0.
    Every face is an intersection of facets; its witness, the primitive sum
    of their normals, exposes exactly it.  Raises TooManySupportPointsError
    above MAX_SUPPORT points or MAX_FACES faces, and TooManyVariablesError
    before any work when 2^n - 1 > MAX_FACES (the faces at any vertex).
    """
    pts = sorted({tuple(int(x) for x in p) for p in support})
    if not pts:
        return []
    if len(pts) > MAX_SUPPORT:
        raise TooManySupportPointsError(
            f"{len(pts)} support points exceeds the exact-enumeration cap {MAX_SUPPORT}"
        )
    if 2**n - 1 > MAX_FACES:
        raise TooManyVariablesError(
            f"{n} variables give at least 2^{n} - 1 faces, above the face cap {MAX_FACES}"
        )
    low = [p for p in pts if not any(q != p and all(map(int.__le__, q, p)) for q in pts)]
    gens = [(1, *p) for p in low] + [tuple(int(j == i) for j in range(n + 1)) for i in range(1, n + 1)]
    facets = {}
    for normal, _ in _cone_facets(gens, n + 1):
        weight = normal[1:]
        if any(weight):  # x_0 >= 0 is the facet at infinity
            gmask = sum(1 << k for k, p in enumerate(pts) if _dot(weight, p) == -normal[0])
            facets[gmask, sum(1 << i for i, x in enumerate(weight) if x == 0)] = weight
    keys = list(facets)
    seen = set(keys)
    for gens, rays in keys:  # keys grows while it is read
        for fgens, frays in facets:
            key = (gens & fgens, rays & frays)
            if key[0] and key not in seen:
                seen.add(key)
                keys.append(key)
        if len(keys) > MAX_FACES:
            raise TooManySupportPointsError(f"more than {MAX_FACES} faces, the face cap")
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

    conv(P) is the union of the pyramids conv(a, F) over the facets F (of the
    cone over (den, den * p), den clearing denominators) that miss its lex-min
    vertex a.  Each adds |w.a - c| / |w_k| NV(pi_k F) for F's hyperplane
    w.x = c, where pi_k drops a coordinate with w_k != 0; this does not depend
    on how w is scaled.
    """
    if m == 1:
        return pts[-1][0] - pts[0][0]
    den = lcm(*(x.denominator for p in pts for x in p))
    gens = [(den, *(int(x * den) for x in p)) for p in pts]
    total = Fraction(0)
    for w, mask in _cone_facets(gens, m + 1):
        if mask & 1:
            continue
        k = next(i for i, wi in enumerate(w) if i and wi)
        proj = sorted({p[:k - 1] + p[k:] for j, p in enumerate(pts) if mask >> j & 1})
        total += Fraction(_dot(w, gens[0]), den * abs(w[k])) * _pyramid_sum(proj, m - 1)
    return total


def normalized_volume(points) -> Fraction:
    """k! times the k-dimensional volume of conv(points) in R^k.

    Returns 0 when the hull is lower-dimensional.  Points may have negative
    coordinates (unimodular images are fine).
    """
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    if not pts or affine_rank(pts) < len(pts[0]):
        return Fraction(0)
    return _pyramid_sum(pts, len(pts[0]))
