"""Exact rational linear algebra and polyhedral primitives.

Everything operates on small integer/rational data, so the algorithms favor
exactness over asymptotics.  The one Gaussian elimination is `nullspace`,
fraction-free (Bareiss 1968): rows are cleared of denominators and eliminated
in Python ints, each new row divided by its gcd.  On it sits one facet routine
for cones, exact double description (`_cone_facets`), for both the faces of a
Newton polyhedron and a volume's pyramid sum.  The faces are the facets closed
level by level under intersection, as bitmasks (Kaibel & Pfetsch, "Computing
the face lattice of a polytope from its vertex-facet incidences", 2002), so
each face's dimension is its level and no face is ranked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import numpy as np

from .errors import TooManySupportPointsError, TooManyVariablesError

MAX_SUPPORT = 64
# faces of a Newton polyhedron met, or facets of a cone held at once; a polyhedron
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


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set."""
    pts = list(points)
    return rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) if pts else 0


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
    d: that minimum.  dim: the face's dimension, its level in the face lattice.
    """

    generators: frozenset
    rays: frozenset
    witness: tuple
    d: int
    dim: int

    def is_compact(self) -> bool:
        return not self.rays


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _bits(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


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
    They are closed level by level from dim n - 1 down (Kaibel & Pfetsch
    2002): the facets of a face F are its inclusion-maximal proper nonempty
    intersections with facets, each face a mask of the points and rays on it,
    so a face's dim is its level.  Its facet mask is the AND of the masks of
    the facets holding its points and rays; its witness, the primitive sum of
    the normals on that mask, exposes exactly it.  Raises
    TooManySupportPointsError above MAX_SUPPORT points or once the closure
    has met more than MAX_FACES faces, and TooManyVariablesError before any
    work when 2^n - 1 > MAX_FACES (the faces at any vertex).
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
    # a face as one mask: bit k for pts[k] on it, bit len(pts) + i for ray i + 1
    facets = {}
    for normal, _ in _cone_facets(gens, n + 1):
        weight = normal[1:]
        if any(weight):  # x_0 >= 0 is the facet at infinity
            incident = [_dot(weight, p) == -normal[0] for p in pts] + [x == 0 for x in weight]
            facets[sum(1 << k for k, b in enumerate(incident) if b)] = weight
    keys, normals = list(facets), list(facets.values())
    # for each point, then each ray, the mask of the facets holding it
    held = [sum(1 << j for j, key in enumerate(keys) if key >> k & 1) for k in range(len(pts) + n)]
    point_bits = (1 << len(pts)) - 1
    masks = {key: 1 << j for j, key in enumerate(keys)}  # each face met -> the facets holding it
    level, faces = keys, []
    for dim in range(n - 1, -1, -1):
        below = {}
        for face in level:
            on = masks[face]
            witness = primitive(map(sum, zip(*(normals[j] for j in _bits(on)))))
            bits = _bits(face)
            points = frozenset(pts[k] for k in bits if k < len(pts))
            rays = frozenset(k - len(pts) + 1 for k in bits if k >= len(pts))
            faces.append(LatticeFace(points, rays, witness, _dot(witness, pts[bits[0]]), dim))
            # F & G over the facets G, less F itself: each is a face, and one is
            # maximal (a facet of F) exactly when every facet holding it but not
            # F gives it
            meets = Counter(face & key for key in keys if face & key & point_bits)
            del meets[face]
            new = [key for key in meets if key not in masks]
            if len(masks) + len(new) > MAX_FACES:
                raise TooManySupportPointsError(f"more than {MAX_FACES} faces, the face cap")
            masks.update((key, reduce(int.__and__, [held[k] for k in _bits(key)])) for key in new)
            below.update((key, None) for key, count in meets.items()
                         if count == masks[key].bit_count() - on.bit_count())
        level = below
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
