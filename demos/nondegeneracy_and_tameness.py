#!/usr/bin/env python3
"""Walkthrough: mixed critical points, the non-degeneracy falsifier, and
local tameness along vanishing coordinate subspaces.

A point is a mixed critical point when the conjugated holomorphic gradient
and the antiholomorphic gradient align up to a unit complex factor.  The
criticality residual measures that alignment, scale- and phase-invariantly;
driving it to zero over the torus falsifies strong non-degeneracy.
"""

import numpy as np

from mixedmilnor import degeneracy, newton, parse_poly
from mixedmilnor.constructors import corpus

# Real-valued mixed polynomials have no regular points at all: the two
# gradients coincide everywhere, so the residual vanishes identically.
k = parse_poly("|z1|^2 - |z2|^2")
for p in [(1, 1), (0.3 + 0.2j, -1.1), (2, 0.5j)]:
    print("residual of the real-valued k at", p, "=", degeneracy.criticality_residual(k, p))

# z1 * |z2|^2 is strongly non-degenerate, and its exponents prove it: the
# support certificate rules out torus critical points before any search.
tibar = corpus("tibar")
print("\nsearching faces of", tibar)
for v in degeneracy.falsify_nondegeneracy(tibar, budget=16, seed=0):
    print(
        f"  face {sorted(v.face.generators)} [{v.face.kind.value}]:",
        v.status.value,
        f"(certified by {v.certified_by})",
    )

# Multiplying by a real-valued cone factor breaks non-degeneracy: the face
# carrying the factor picks up a whole torus worth of critical points.
cone = corpus("cone", (1, 2, 1, 1))
print("\nsearching faces of", cone)
for v in degeneracy.falsify_nondegeneracy(cone, budget=16, seed=0):
    line = f"  face {sorted(v.face.generators)} [{v.face.kind.value}]: {v.status.value}"
    if v.witness is not None:
        line += f" at {np.round(v.witness, 4)}"
    print(line)

# Local tameness along a vanishing subspace: freeze small nonzero values on
# the vanishing coordinates and ask whether the face function can have
# critical points in the remaining torus directions.  The witness
# polynomials T_j decide many cases symbolically: a sign-definite
# combination of squared moduli certifies tameness with infinite radius.
print("\ntameness of z1 * z2^a * zb2 along the z1-axis:")
for a in (1, 2, 3):
    f = corpus("tibar_a", (a,))
    verdict = degeneracy.local_tameness_check(f, {1}, seed=0)
    (face,) = newton.faces_with_directions(f, {1})
    T = degeneracy.tameness_witness_polys(f, face)
    print(f"  a = {a}: {verdict.status.value:15} T_2 = {T[2]}")

# The cyclic polynomial is tame along every coordinate axis, certified by
# a sign-definite witness on every face over each axis.
cyc = corpus("cyclic", (2, 2, 2))
print("\ncyclic polynomial", cyc)
for axis in (1, 2, 3):
    verdict = degeneracy.local_tameness_check(cyc, {axis}, seed=0)
    print(f"  axis {axis}: {verdict.status.value}, radius {verdict.certified_radius}")
