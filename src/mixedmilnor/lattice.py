"""Exact rational linear algebra and polyhedral primitives.

Everything operates on small integer/rational data, so the algorithms favor
exactness over asymptotics.  The one Gaussian elimination is `hermite_rows`,
the row Hermite form with its unimodular transform U (Cohen, "A Course in
Computational Algebraic Number Theory", 1993, 2.4), in Python ints: its
pivots give a rank and a simplex's |det|, and the rows of U past them a
Z-basis of the left kernel.  On it sits one facet routine for cones, exact
double description (`_cone_facets`), for both the faces of a Newton
polyhedron and a volume's pyramid sum.  The faces are the facets closed
level by level under intersection, as bitmasks (Kaibel & Pfetsch,
"Computing the face lattice of a polytope from its vertex-facet
incidences", 2002), so each face's dimension is its level and no face is
ranked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod

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


def hermite_rows(rows, ncols):
    """Row Hermite form of an integer matrix with its unimodular transform.

    Column by column, the row with the least nonzero entry in absolute value
    becomes the pivot and the rows below are reduced modulo it, until no
    other is left (Euclid on rows; taking the least pivot keeps the entries
    of U small, where a 2x2 extended-gcd step lets them grow into the
    billions).  Each pivot is made positive and the entries above it are
    reduced into [0, pivot).  Returns (H, U, pivots) with H = U rows and
    pivots the pivot columns in order: the rows of U from len(pivots) on
    are a Z-basis of the integer left kernel {l : l^T rows = 0}.
    """
    h = [[int(x) for x in row] for row in rows]
    u = [[int(i == j) for j in range(len(h))] for i in range(len(h))]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        live = [i for i in range(r, len(h)) if h[i][col]]
        if not live:
            continue
        while len(live) > 1 or live[0] != r:
            p = min(live, key=lambda i: abs(h[i][col]))
            h[r], h[p], u[r], u[p] = h[p], h[r], u[p], u[r]
            for i in range(r + 1, len(h)):
                _subtract(h, u, i, r, h[i][col] // h[r][col])
            live = [i for i in range(r, len(h)) if h[i][col]]
        if h[r][col] < 0:
            h[r], u[r] = [-x for x in h[r]], [-x for x in u[r]]
        for i in range(r):
            _subtract(h, u, i, r, h[i][col] // h[r][col])
        pivots.append(col)
    return h, u, pivots


def _subtract(h, u, i, r, q):
    """Row i -= q * row r, in H and in U."""
    if q:
        h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        u[i] = [x - q * y for x, y in zip(u[i], u[r])]


def echelon_solve(h, pivots, rhs):
    """The solution v of H v = rhs over the pivot rows of an echelon form H,
    zero on the free columns, by exact back-substitution; rhs rational."""
    v = [Fraction(0)] * len(h[0])
    for i in reversed(range(len(pivots))):
        col = pivots[i]
        rest = sum((h[i][j] * v[j] for j in range(col + 1, len(v))), Fraction(0))
        v[col] = (Fraction(rhs[i]) - rest) / h[i][col]
    return v


class CapExceeded(Exception):
    """An exact routine met more rows than its cap."""


# rows one Fourier-Motzkin elimination may combine, over all its steps
MAX_FM_ROWS = 512


def strict_point(rows, nvars):
    """A rational point t with a.t > 0 for every integer row a, or None when
    there is none, by Fourier-Motzkin elimination (Motzkin 1936).

    Each step eliminates the variable with the fewest (lower, upper) pairs:
    the rows that do not hold it stay, and each pair of rows with opposite
    signs there gives their positive combination without it, made
    primitive and kept once.  A strict system is feasible exactly when no
    step leaves the row 0 > 0.  The point comes from back-substitution,
    each variable strictly between the bounds of its step.  Raises
    CapExceeded once more than MAX_FM_ROWS combined rows are made.
    """
    rows = list(dict.fromkeys(primitive(a) for a in rows))
    steps = []
    made = 0
    while rows:
        if any(not any(a) for a in rows):
            return None
        live = [v for v in range(nvars) if any(a[v] for a in rows)]
        var = min(live, key=lambda v: sum(a[v] > 0 for a in rows) * sum(a[v] < 0 for a in rows))
        pos = [a for a in rows if a[var] > 0]
        neg = [a for a in rows if a[var] < 0]
        made += len(pos) * len(neg)
        if made > MAX_FM_ROWS:
            raise CapExceeded(f"more than {MAX_FM_ROWS} Fourier-Motzkin rows")
        steps.append((var, pos, neg))
        rows = [a for a in rows if a[var] == 0]
        rows += [primitive(-q[var] * s + p[var] * t for s, t in zip(p, q)) for p in pos for q in neg]
        rows = list(dict.fromkeys(rows))
    t = [Fraction(0)] * nvars
    for var, pos, neg in reversed(steps):
        def bound(a):
            return -sum((x * y for x, y in zip(a, t)), Fraction(0)) / a[var]
        lo = max(map(bound, pos), default=None)
        hi = min(map(bound, neg), default=None)
        if lo is None:
            t[var] = Fraction(0) if hi is None else hi - 1
        else:
            t[var] = lo + 1 if hi is None else (lo + hi) / 2
    return t


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
    """The set bits of mask, ascending: one find per bit in its binary string,
    so a wide sparse mask costs its length once, not once per bit."""
    bits, text = [], f"{mask:b}"[::-1]
    k = text.find("1")
    while k >= 0:
        bits.append(k)
        k = text.find("1", k + 1)
    return bits


def _holders(masks, width):
    """For each bit j < width, the mask of the indices i whose masks[i] hold
    it: the bit matrix transposed, one binary string per bit."""
    rows = [format(m, f"0{width}b") for m in reversed(masks)]
    return [int("".join(col), 2) for col in reversed(list(zip(*rows)))] if rows else [0] * width


def _sharing(holders, mask, k, lanes):
    """The lanes (bits of lanes) whose facets hold at least k of the bits of
    mask, holders[j] the facets holding bit j: one bit-sliced counter per
    lane, int AND and XOR over all lanes at once, started at 2^m - k so that
    a carry out of its top plane means k is reached."""
    if k <= 0:
        return lanes
    m = k.bit_length()
    planes = [lanes if ((1 << m) - k) >> b & 1 else 0 for b in range(m)]
    reached = 0
    for j in _bits(mask):
        carry = holders[j] & lanes
        for b in range(m):
            if not carry:
                break
            planes[b], carry = planes[b] ^ carry, planes[b] & carry
        reached |= carry
    return reached


def _cone_facets(gens, dim):
    """Facets of the full-dimensional pointed cone spanned by integer vectors
    gens in R^dim, as (primitive inner normal, mask of the gens on it) pairs,
    by double description (Motzkin et al. 1953; Fukuda & Prodon 1996): each
    generator after dim independent ones keeps the facets it satisfies and
    joins each adjacent pair it separates: they share dim - 2 or more gens
    (`_sharing`, all positive facets at once), and no third facet holds all
    of those.  Raises TooManySupportPointsError above MAX_FACES facets.
    """
    basis = hermite_rows(zip(*gens), len(gens))[2]  # the first dim independent gens
    facets = []
    for i in basis:
        # the facet opposite gens[i]: the left kernel of the other basis gens as columns
        w = tuple(hermite_rows(zip(*(gens[j] for j in basis if j != i)), dim - 1)[1][-1])
        w = w if _dot(w, gens[i]) > 0 else tuple(-x for x in w)
        facets.append((w, sum(1 << j for j in basis if j != i)))
    for k, g in enumerate(gens):
        if k in basis:
            continue
        sides = [(w, mask, _dot(w, g)) for w, mask in facets]
        kept = [(w, mask | 1 << k if s == 0 else mask) for w, mask, s in sides if s >= 0]
        if any(s < 0 for _, _, s in sides):
            # for each generator, the facets holding it; lanes: the positive facets
            holders = _holders([mask for _, mask, _ in sides], len(gens))
            lanes = int("".join("1" if s > 0 else "0" for _, _, s in reversed(sides)), 2)
            everyone = (1 << len(sides)) - 1
            for wq, mq, sq in sides:
                if sq >= 0:
                    continue
                for p in _bits(_sharing(holders, mq, dim - 2, lanes)):
                    wp, mp, sp = sides[p]
                    common = mp & mq
                    if reduce(int.__and__, [holders[j] for j in _bits(common)], everyone).bit_count() == 2:
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
    on how w is scaled.  A simplex (m + 1 points) is one determinant instead.
    """
    if m == 1:
        return pts[-1][0] - pts[0][0]
    if len(pts) == m + 1:
        return _pivot_volume(pts, m)
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
    if not pts:
        return Fraction(0)
    volume = _pivot_volume(pts, len(pts[0]))
    return _pyramid_sum(pts, len(pts[0])) if volume and len(pts) > len(pts[0]) + 1 else volume


def _pivot_volume(pts, m):
    """Product of the Hermite pivots of the edge vectors p - pts[0] of rational
    points in R^m, 0 below rank m: a simplex's normalized volume (|det|, as the
    transform is unimodular); for more points, nonzero exactly at rank m."""
    den = lcm(*(x.denominator for p in pts for x in p))
    h, _, pivots = hermite_rows([[int((x - y) * den) for x, y in zip(p, pts[0])] for p in pts[1:]], m)
    return Fraction(prod(h[i][col] for i, col in enumerate(pivots)), den**m) if len(pivots) == m else Fraction(0)
