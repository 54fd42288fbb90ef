"""Newton polyhedron combinatorics for mixed polynomials.

The Newton polyhedron of f is the convex hull of the union of the orthant
translates xi + R_{>=0}^n over the support points xi = nu + mu of f.  This
module computes its vertices, compact boundary, the non-compact faces that
become relevant when f vanishes on coordinate subspaces (essential faces),
weight/face duality data, and radial/polar degrees of face functions.

Subsets of variables are always 1-based sets, matching the z1, z2, ...
naming of the text format.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations

from . import lattice
from .errors import (
    DimensionMismatchError,
    TooManyVariablesError,
    VanishingSubsetError,
    ZeroPolynomialError,
)
from .poly import MixedPoly

MAX_VANISHING_VARS = 16


class FaceKind(Enum):
    COMPACT = "Compact"
    NONCOMPACT_ESSENTIAL = "NonCompactEssential"
    NONCOMPACT_INESSENTIAL = "NonCompactInessential"


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative integer weight, stored primitive and not all zero."""

    p: tuple

    def __post_init__(self):
        if not self.p or all(x == 0 for x in self.p):
            raise ValueError("weight vector must be nonzero")
        if any(x < 0 for x in self.p):
            raise ValueError("weight vector must be nonnegative")
        object.__setattr__(self, "p", lattice.primitive(self.p))

    @property
    def n(self) -> int:
        return len(self.p)

    def zero_set(self) -> frozenset:
        """I(P) = set of 1-based indices with p_i == 0."""
        return frozenset(i + 1 for i, x in enumerate(self.p) if x == 0)

    def value(self, xi) -> int:
        return sum(w * x for w, x in zip(self.p, xi))


@dataclass(frozen=True)
class FaceDescriptor:
    """One face of the (modified) Newton boundary.

    generators are the support points realizing the face; for non-compact
    faces the geometric face is conv(generators) plus rays in the
    noncompact_directions, and compact_part lists the generators lying on
    the compact boundary (the Delta_0 part used by degeneracy tests).
    """

    generators: frozenset
    dim: int
    weight_witness: WeightVector
    d_value: int
    kind: FaceKind
    noncompact_directions: frozenset
    compact_part: frozenset

    def is_compact(self) -> bool:
        return self.kind is FaceKind.COMPACT


@dataclass(frozen=True)
class VanishingReport:
    """Partition of the nonempty variable subsets by f^I == 0 or not."""

    vanishing: frozenset
    nonvanishing: frozenset

    def is_vanishing(self, I) -> bool:
        return frozenset(I) in self.vanishing


@dataclass(frozen=True)
class DegreeReport:
    """Radial/polar homogeneity data of a face function under one weight.

    rdeg/pdeg are None when the corresponding degree is not constant
    across the terms.
    """

    rdeg: int | None
    pdeg: int | None
    strongly_polar: bool
    polar_positive: bool


def _support(f: MixedPoly):
    if f.is_zero():
        raise ZeroPolynomialError("operation needs a nonzero polynomial")
    return sorted(f.support())


def coordinate_subset(I, n: int) -> frozenset:
    """I as a frozenset of coordinate indices, each of which must lie in 1..n."""
    I = frozenset(I)
    outside = sorted(i for i in I if not 1 <= i <= n)
    if outside:
        raise DimensionMismatchError(f"subset indices {outside} are outside 1..{n}")
    return I


def vanishes_on(f: MixedPoly, I) -> bool:
    """True when f^I == 0, i.e. no support point of f lies in R^I.

    f^I keeps the terms whose exponents vanish outside I, so it is zero
    exactly when every support point has a nonzero coordinate outside I.
    """
    outside = [k for k in range(f.n) if k + 1 not in I]
    return all(any(xi[k] for k in outside) for xi in f.support())


@dataclass(frozen=True)
class NewtonBoundary:
    """The Newton boundary of one polynomial, built once and shared.

    support is sorted; faces are in the lattice enumeration order (by
    noncompact directions, then generators).
    """

    support: tuple
    faces: tuple
    vertices: frozenset


def newton_boundary(f: MixedPoly) -> NewtonBoundary:
    """The Newton boundary of f, enumerated on first use and memoized on f."""
    if f._boundary is None:
        support = _support(f)
        faces = lattice.newton_faces(support, f.n)
        compact = [fc.generators for fc in faces if fc.is_compact()]
        compact_pts = frozenset().union(*compact)
        boundary = NewtonBoundary(
            support=tuple(support),
            faces=tuple(_descriptor(fc, compact_pts) for fc in faces),
            vertices=frozenset().union(*(g for g in compact if len(g) == 1)),
        )
        object.__setattr__(f, "_boundary", boundary)
    return f._boundary


def _descriptor(face, compact_pts):
    if face.is_compact():
        kind = FaceKind.COMPACT
    else:  # the witness is zero exactly on the rays, so f^rays == 0 exactly when d > 0
        kind = FaceKind.NONCOMPACT_ESSENTIAL if face.d > 0 else FaceKind.NONCOMPACT_INESSENTIAL
    return FaceDescriptor(
        generators=face.generators,
        dim=face.dim,
        weight_witness=WeightVector(face.witness),
        d_value=face.d,
        kind=kind,
        noncompact_directions=face.rays,
        compact_part=face.generators & compact_pts,
    )


def support_vertices(f: MixedPoly):
    """Support points, Newton-polyhedron vertices, and the convenience flag.

    Vertices are the support points that are 0-dimensional faces of
    conv(support) + R_{>=0}^n.  f is convenient when its compact boundary
    meets every coordinate axis, i.e. every axis carries a support point.
    """
    boundary = newton_boundary(f)
    support = boundary.support
    convenient = all(
        any(pt[i] > 0 and all(x == 0 for j, x in enumerate(pt) if j != i) for pt in support)
        for i in range(f.n)
    )
    return frozenset(support), boundary.vertices, convenient


def delta_of_weight(f: MixedPoly, P):
    """Minimal weight value d(P), the face it selects, and the face function.

    The weight is evaluated on the support; the face function f_P collects
    the terms whose support point attains the minimum.  The face is the
    boundary face with those generators and rays, with P as its witness.
    """
    if not isinstance(P, WeightVector):
        P = WeightVector(tuple(P))
    boundary = newton_boundary(f)
    if P.n != f.n:
        raise ValueError("weight length does not match variable count")
    d = min(map(P.value, boundary.support))
    key = frozenset(xi for xi in boundary.support if P.value(xi) == d), P.zero_set()
    face = next(fc for fc in boundary.faces if (fc.generators, fc.noncompact_directions) == key)
    return d, replace(face, weight_witness=P, d_value=d), face_function(f, face)


def _terms_on(f: MixedPoly, points) -> MixedPoly:
    """Sum of the terms of f whose support point lies in points."""
    return MixedPoly(
        f.n, {m: c for m, c in f.terms.items() if m.support_point() in points}
    )


def face_function(f: MixedPoly, face: FaceDescriptor) -> MixedPoly:
    """Sum of the terms of f supported on the face."""
    return _terms_on(f, face.generators)


def compact_part_function(f: MixedPoly, face: FaceDescriptor) -> MixedPoly:
    """Sum of the terms supported on the compact part Delta_0 of the face."""
    return _terms_on(f, face.compact_part)


def vanishing_subsets(f: MixedPoly) -> VanishingReport:
    """Exact classification of all nonempty variable subsets by f^I == 0.

    The empty set is excluded (f(0) = 0 always); the full set is included
    and is nonvanishing for nonzero f.
    """
    _support(f)
    if f.n > MAX_VANISHING_VARS:
        raise TooManyVariablesError(
            f"subset enumeration guarded at {MAX_VANISHING_VARS} variables"
        )
    indices = range(1, f.n + 1)
    subsets = {frozenset(I) for k in indices for I in combinations(indices, k)}
    vanishing = frozenset(I for I in subsets if vanishes_on(f, I))
    return VanishingReport(vanishing, frozenset(subsets - vanishing))


def all_faces(f: MixedPoly) -> list:
    """Every proper face of the Newton polyhedron as a FaceDescriptor."""
    return list(newton_boundary(f).faces)


def faces_with_directions(f: MixedPoly, I) -> list:
    """All non-compact faces whose noncompact direction set is exactly I.

    Includes nested (non-maximal) faces; local tameness must hold for every
    one of them, so degeneracy checks iterate this full list.
    """
    I = frozenset(I)
    return [fc for fc in newton_boundary(f).faces if fc.noncompact_directions == I]


def essential_noncompact_faces(f: MixedPoly, include_inessential=False) -> list:
    """Inclusion-maximal non-compact faces, essential ones first.

    A face is essential when f vanishes identically on the coordinate
    subspace spanned by its noncompact directions; with
    include_inessential=True the maximal non-essential non-compact faces
    are reported too.
    """
    by_dirs = {}  # in boundary order, so by sorted directions, then generators
    for fc in newton_boundary(f).faces:
        if fc.kind is FaceKind.NONCOMPACT_ESSENTIAL or include_inessential and not fc.is_compact():
            by_dirs.setdefault(fc.noncompact_directions, []).append(fc)
    out = [fc for group in by_dirs.values() for fc in group
           if not any(fc.generators < other.generators for other in group)]
    return sorted(out, key=lambda fc: fc.kind is not FaceKind.NONCOMPACT_ESSENTIAL)


def top_faces(f: MixedPoly, I) -> list:
    """Weights of the (|I|-1)-dimensional compact faces of the restriction f^I.

    Returns (WeightVector, face function) pairs; the weights are primitive,
    strictly positive on I, zero elsewhere.  For |I| = 1 the single pair is
    the lowest-degree support point on that axis with unit weight.

    Newton(f^I) is the face Newton(f) meet R^I: these are the compact faces of
    f's boundary of that dimension inside R^I, witnesses restricted to I.
    """
    I = sorted(set(I))
    if vanishes_on(f, I):
        raise VanishingSubsetError(f"f vanishes on the subspace of {set(I)}")
    inside = f.restrict(I).support()
    out = []
    for fc in newton_boundary(f).faces:
        if fc.is_compact() and fc.dim == len(I) - 1 and fc.generators <= inside:
            weight = tuple(x if i + 1 in I else 0 for i, x in enumerate(fc.weight_witness.p))
            out.append((WeightVector(weight), face_function(f, fc)))
    out.sort(key=lambda pair: pair[0].p)
    return out


def degrees(f_face: MixedPoly, P) -> DegreeReport:
    """Radial and polar degrees of a face function under a weight.

    rdeg = sum p_i (nu_i + mu_i), pdeg = sum p_i (nu_i - mu_i); either is
    reported only when constant across all terms.  strongly_polar means
    both are constant under this same weight.
    """
    if not isinstance(P, WeightVector):
        P = WeightVector(tuple(P))
    if f_face.is_zero():
        raise ZeroPolynomialError("degrees of the zero polynomial are undefined")
    rdegs = set()
    pdegs = set()
    for m in f_face.terms:
        rdegs.add(sum(p * (a + b) for p, a, b in zip(P.p, m.nu, m.mu)))
        pdegs.add(sum(p * (a - b) for p, a, b in zip(P.p, m.nu, m.mu)))
    rdeg = rdegs.pop() if len(rdegs) == 1 else None
    pdeg = pdegs.pop() if len(pdegs) == 1 else None
    strongly_polar = rdeg is not None and pdeg is not None
    return DegreeReport(
        rdeg=rdeg,
        pdeg=pdeg,
        strongly_polar=strongly_polar,
        polar_positive=pdeg is not None and pdeg > 0,
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def face_to_json(face: FaceDescriptor) -> dict:
    return {
        "I": sorted(face.noncompact_directions),
        "generators": [list(g) for g in sorted(face.generators)],
        "compact_part": [list(g) for g in sorted(face.compact_part)],
        "witness": list(face.weight_witness.p),
        "d": face.d_value,
        "dim": face.dim,
        "kind": face.kind.value,
    }


def newton_report(f: MixedPoly) -> dict:
    """Stable JSON-ready summary of the Newton boundary combinatorics."""
    support, vertices, convenient = support_vertices(f)
    essential = essential_noncompact_faces(f, include_inessential=True)
    report = {
        "vertices": [list(v) for v in sorted(vertices)],
        "support": [list(v) for v in sorted(support)],
        "essential_faces": [
            face_to_json(fc)
            for fc in essential
            if fc.kind is FaceKind.NONCOMPACT_ESSENTIAL
        ],
        "inessential_faces": [
            face_to_json(fc)
            for fc in essential
            if fc.kind is FaceKind.NONCOMPACT_INESSENTIAL
        ],
        "convenient": convenient,
    }
    return report
