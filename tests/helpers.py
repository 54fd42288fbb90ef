"""Shared test utilities: random inputs and independent brute-force oracles.

The oracles here deliberately avoid the package's own geometry code so that
agreement is evidence, not tautology.
"""

import math
import operator
from fractions import Fraction
from itertools import combinations

import numpy as np

from mixedmilnor import lattice
from mixedmilnor.newton import WeightVector
from mixedmilnor.poly import GaussianRational, MixedMonomial, MixedPoly


def random_gaussian(rng, max_num=4, max_den=3, allow_zero=False):
    while True:
        re = Fraction(int(rng.integers(-max_num, max_num + 1)), int(rng.integers(1, max_den + 1)))
        im = Fraction(int(rng.integers(-max_num, max_num + 1)), int(rng.integers(1, max_den + 1)))
        c = GaussianRational(re, im)
        if allow_zero or c:
            return c


def random_mixed_poly(rng, n=None, max_terms=5, max_exp=3, holomorphic=False):
    if n is None:
        n = int(rng.integers(1, 4))
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        nu = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(n))
        if holomorphic:
            mu = (0,) * n
        else:
            mu = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(n))
        terms[MixedMonomial(nu, mu)] = random_gaussian(rng)
    poly = MixedPoly(n, terms)
    if poly.is_zero():
        poly = MixedPoly.monomial(n, {1: 1}, {})
    return poly


def random_real_valued_poly(rng, n=None, max_terms=3, max_exp=2):
    base = random_mixed_poly(rng, n=n, max_terms=max_terms, max_exp=max_exp)
    return base + base.conjugate()


def repeated_power(base, e, one, mul=operator.mul):
    """one * base**e by e multiplications: the oracle for square-and-multiply."""
    for _ in range(e):
        one = mul(one, base)
    return one


def random_point(rng, n, scale=1.0, min_mag=0.3):
    mags = rng.uniform(min_mag, scale, size=n)
    phases = rng.uniform(0, 2 * np.pi, size=n)
    return mags * np.exp(1j * phases)


# ---------------------------------------------------------------------------
# Top faces of a restriction, enumerated on the restriction alone
# ---------------------------------------------------------------------------


def top_faces_oracle(f, I):
    """(WeightVector, face function) pairs of the top compact faces of f^I.

    Projects the support of f^I to the coordinates in I and enumerates the
    faces of that polyhedron on its own, independently of f's full boundary.
    """
    I = sorted(set(I))
    fI = f.restrict(I)
    proj = {tuple(m.support_point()[i - 1] for i in I): m.support_point() for m in fI.terms}
    pts = sorted(proj)

    def on(points):
        return MixedPoly(f.n, {m: c for m, c in fI.terms.items() if m.support_point() in points})

    def lift(witness):
        weight = [0] * f.n
        for idx, i in enumerate(I):
            weight[i - 1] = witness[idx]
        return WeightVector(tuple(weight))

    if len(I) == 1:
        return [(lift((1,)), on({proj[min(pts)]}))]
    out = []
    for face in lattice.newton_faces(pts, len(I)):
        if face.is_compact() and lattice.affine_rank(sorted(face.generators)) == len(I) - 1:
            out.append((lift(face.witness), on({proj[q] for q in face.generators})))
    return sorted(out, key=lambda pair: pair[0].p)


# ---------------------------------------------------------------------------
# Rational Gauss-Jordan nullspace, and the face enumeration on it with an
# unpruned intersection closure
# ---------------------------------------------------------------------------


def nullspace_oracle(rows, ncols):
    """Reduced-row-echelon basis of the right nullspace, as Fraction tuples
    with 1 at their free column, by Gauss-Jordan elimination in Fractions."""
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
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -m[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def integerize(vec):
    """The primitive integer vector that is a positive multiple of a rational one."""
    denom = 1
    for v in vec:
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _argmin_face_oracle(pts, weight, dim=None):
    vals = [sum(w * x for w, x in zip(weight, pt)) for pt in pts]
    d = min(vals)
    gens = frozenset(pt for pt, v in zip(pts, vals) if v == d)
    rays = frozenset(i + 1 for i, w in enumerate(weight) if w == 0)
    return lattice.LatticeFace(gens, rays, tuple(weight), d, dim)


def newton_faces_oracle(support, n):
    """Faces of conv(S) + R_{>=0}^n from every hyperplane through n - r support
    points and r coordinate rays, closed under pairwise intersection with an
    argmin at every pair.  Each face's witness is the integerized sum of the
    normals of the facets (faces of rank n - 1) that contain it, and its dim
    its rank; same faces, witnesses, dims and order as the library."""
    pts = sorted(set(tuple(int(x) for x in p) for p in support))
    if not pts:
        return []
    normals = set()
    for nrays in range(n):
        for rayset in combinations(range(n), nrays):
            for subset in combinations(pts, n - nrays):
                rows = [[a - b for a, b in zip(p, subset[0])] for p in subset[1:]]
                rows += [[int(j == i) for j in range(n)] for i in rayset]
                basis = nullspace_oracle(rows, n)
                if len(basis) != 1:
                    continue
                w = integerize(basis[0])
                if all(x <= 0 for x in w):
                    w = tuple(-x for x in w)
                if not any(x < 0 for x in w):
                    normals.add(w)
    faces = {}
    for w in normals:
        face = _argmin_face_oracle(pts, w)
        faces.setdefault((face.generators, face.rays), face)
    frontier = list(faces.values())
    while frontier:
        new = []
        items = list(faces.values())
        for fa in frontier:
            for fb in items:
                gens = fa.generators & fb.generators
                if not gens:
                    continue
                w = integerize([Fraction(a + b) for a, b in zip(fa.witness, fb.witness)])
                cand = _argmin_face_oracle(pts, w)
                key = (cand.generators, cand.rays)
                if cand.generators == gens and key not in faces:
                    faces[key] = cand
                    new.append(cand)
        frontier = new

    def rank(face):
        gens = sorted(face.generators)
        rows = [[a - b for a, b in zip(p, gens[0])] for p in gens[1:]]
        rows += [[int(j == i - 1) for j in range(n)] for i in face.rays]
        return n - len(nullspace_oracle(rows, n))

    facets = [f for f in faces.values() if rank(f) == n - 1]
    out = []
    for face in faces.values():
        normals = [f.witness for f in facets if face.generators <= f.generators and face.rays <= f.rays]
        witness = integerize([Fraction(sum(c)) for c in zip(*normals)])
        out.append(_argmin_face_oracle(pts, witness, rank(face)))
    return sorted(out, key=lambda f: (sorted(f.rays), sorted(f.generators)))


# ---------------------------------------------------------------------------
# Independent Newton-vertex oracle
# ---------------------------------------------------------------------------


def _solve_exact(rows, rhs):
    """Solve a square rational system; None when singular."""
    size = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]


def _dominated_cone_member(xi, others, n):
    """Exact feasibility of xi in conv(others) + R_{>=0}^n by basis search.

    Variables are the convex weights plus n slack coordinates; a feasible
    basic solution exists iff the system lambda >= 0, slack >= 0,
    sum(lambda) = 1, sum(lambda * other) + slack = xi has a solution.
    """
    others = list(others)
    m = len(others)
    if m == 0:
        return False
    ncols = m + n
    nrows = n + 1
    columns = []
    for k, pt in enumerate(others):
        columns.append([Fraction(pt[i]) for i in range(n)] + [Fraction(1)])
    for i in range(n):
        col = [Fraction(0)] * nrows
        col[i] = Fraction(1)
        columns.append(col)
    rhs = [Fraction(xi[i]) for i in range(n)] + [Fraction(1)]
    for basis in combinations(range(ncols), nrows):
        rows = [[columns[c][r] for c in basis] for r in range(nrows)]
        sol = _solve_exact(rows, rhs)
        if sol is None:
            continue
        if all(x >= 0 for x in sol):
            return True
    return False


def newton_vertices_oracle(support, n):
    """Brute-force vertices of conv(support) + R_{>=0}^n.

    Pairwise dominance prunes the easy cases; survivors get the exact
    convex-cone membership test against the other points.
    """
    support = sorted(set(tuple(p) for p in support))
    vertices = set()
    for xi in support:
        others = [p for p in support if p != xi]
        if any(all(q[i] <= xi[i] for i in range(n)) for q in others):
            # a single dominating point already writes xi as point + orthant
            continue
        if not _dominated_cone_member(xi, others, n):
            vertices.add(xi)
    return vertices


def hull_2d_oracle(points):
    """Monotone-chain hull, written here independently of the library."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    lo, hi = [], []
    for p in pts:
        while len(lo) >= 2 and turn(lo[-2], lo[-1], p) <= 0:
            lo.pop()
        lo.append(p)
    for p in reversed(pts):
        while len(hi) >= 2 and turn(hi[-2], hi[-1], p) <= 0:
            hi.pop()
        hi.append(p)
    return lo[:-1] + hi[:-1]


# ---------------------------------------------------------------------------
# Normalized-volume oracle: facet triangulation from the lex-min apex, 2-D
# hulls by monotone chain, simplex volumes as rational determinants
# ---------------------------------------------------------------------------


def _det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
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


def _triangulate_full(points, m):
    """Simplices covering conv(points), assumed full-dimensional in R^m."""
    pts = sorted(set(tuple(p) for p in points))
    if m == 1:
        return [(pts[0], pts[-1])]
    if m == 2:
        hull = hull_2d_oracle(pts)
        apex = hull[0]
        return [(apex, hull[i], hull[i + 1]) for i in range(1, len(hull) - 1)]
    apex = pts[0]  # lex-min point is a vertex of the hull
    simplices = []
    seen_facets = set()
    for subset in combinations(pts, m):
        base = subset[0]
        rows = [[a - b for a, b in zip(p, base)] for p in subset[1:]]
        basis = nullspace_oracle(rows, m)
        if len(basis) != 1:
            continue
        w = basis[0]
        c = sum(wi * xi for wi, xi in zip(w, base))
        sides = [sum(wi * xi for wi, xi in zip(w, p)) - c for p in pts]
        if all(s >= 0 for s in sides):
            pass
        elif all(s <= 0 for s in sides):
            w = tuple(-x for x in w)
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


def normalized_volume_oracle(points):
    """k! Vol_k(conv(points)) as a sum of |det| over a facet triangulation."""
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    if not pts:
        return Fraction(0)
    m = len(pts[0])
    if lattice.affine_rank(pts) < m:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _triangulate_full(pts, m):
        base = simplex[0]
        total += abs(_det([[a - b for a, b in zip(p, base)] for p in simplex[1:]]))
    return total


# ---------------------------------------------------------------------------
# Rational-function zeta expansion oracle: Fraction polynomial product,
# Euclidean gcd and division, independent of the cyclotomic netting
# ---------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            out[i + j] += x * y
    return out


def _poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_divmod(a, b):
    a = [Fraction(x) for x in a]
    b = _poly_trim([Fraction(x) for x in b])
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(x != 0 for x in a):
        a = _poly_trim(a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        coeff = a[-1] / b[-1]
        q[shift] += coeff
        for i, y in enumerate(b):
            a[shift + i] -= coeff * y
        a = _poly_trim(a)
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a, b):
    a = _poly_trim([Fraction(x) for x in a])
    b = _poly_trim([Fraction(x) for x in b])
    while any(x != 0 for x in b):
        _, r = _poly_divmod(a, b)
        a, b = b, _poly_trim(r)
        if b == [Fraction(0)]:
            break
    lead = a[-1]
    return [x / lead for x in a]


def _poly_to_int(a):
    denom = 1
    for x in a:
        denom = denom * x.denominator // math.gcd(denom, x.denominator)
    ints = [int(x * denom) for x in a]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _one_minus_td(d):
    out = [Fraction(0)] * (d + 1)
    out[0] = Fraction(1)
    out[d] = Fraction(-1)
    return out


def expand_zeta_oracle(z):
    """Reduced integer numerator/denominator of the factor product by
    multiplying out each side and dividing both by their gcd."""
    num = [Fraction(1)]
    den = [Fraction(1)]
    for d, e in z.merged():
        base = _one_minus_td(d)
        for _ in range(abs(e)):
            if e > 0:
                num = _poly_mul(num, base)
            else:
                den = _poly_mul(den, base)
    g = _poly_gcd(num, den)
    if len(g) > 1:
        num, _ = _poly_divmod(num, g)
        den, _ = _poly_divmod(den, g)
    num_i = _poly_to_int(num)
    den_i = _poly_to_int(den)
    # one joint sign normalization: lowest nonzero denominator coefficient
    # positive, numerator compensated, so the ratio is unchanged
    lead = next((x for x in den_i if x != 0), 1)
    if lead < 0:
        den_i = [-x for x in den_i]
        num_i = [-x for x in num_i]
    return num_i, den_i
