#!/usr/bin/env python3
"""Walkthrough: limit tangent planes along arcs and the a_f containment test.

Along a curve z(t) approaching a point of the zero set, the tangent planes
of the fibers of f converge; the limit plane is cut out by the normalized
limits of the two gradient covector series.  When the naive leading
coefficients are real-dependent, an exact elimination recovers the true
Grassmann limit.  The containment test asks whether the limit plane
contains the coordinate subspace the arc lands in; a failure exhibits a
violation of the Thom regularity condition along that subspace.
"""

import numpy as np

from mixedmilnor import arcs, fibers, parse_poly
from mixedmilnor.constructors import corpus

# The classic failure: z1 |z2|^2 along the arc (1, t) into the z1-axis.
tibar = corpus("tibar")
arc = arcs.parse_arc("z1 = 1; z2 = t")
limit = arcs.limit_tangent(tibar, arc)
print("f =", tibar, " arc:", arc.to_text())
print("limit covectors:", np.round(limit.covector_g, 6), np.round(limit.covector_h, 6))
verdict = arcs.af_test_arc(tibar, arc, {1})
print("limit tangent contains the z1-axis plane:", verdict.contains_CI)

# Same story for the three-variable example with a curved arc.
paru = corpus("parusinski")
arc = arcs.parse_arc("z1 = 1; z2 = t; z3 = t^3")
verdict = arcs.af_test_arc(paru, arc, {1})
print("\nf =", paru)
print("contains the z1-axis plane:", verdict.contains_CI)

# A locally tame input passes the test on every admissible arc.
cyc = corpus("cyclic", (2, 2, 2))
arc = arcs.parse_arc("z1 = t; z2 = t^2 + t^3; z3 = (1+1i)")
verdict = arcs.af_test_arc(cyc, arc, {3})
print("\nf =", cyc)
print("contains the z3-axis plane:", verdict.contains_CI)

# When the two leading coefficients align, the elimination fires; the
# recorded steps certify the limit plane was computed after reduction.
f = parse_poly("(1+1i)*|z1|^2 + i*|z2|^4")
limit = arcs.limit_tangent(f, arcs.parse_arc("z1 = t; z2 = t"))
print("\nreduction steps for", f, ":", limit.reduction_steps)

# Exact series expansion along an arc exposes the leading behavior: for a
# pure monomial arc with exponents equal to a face weight, the leading
# exponent is the radial degree of that face.
b = corpus("brieskorn_curve")
series = arcs.expand_arc(b, arcs.parse_arc("z1 = t^2; z2 = t^3"))
print("\nleading exponent of the curve along (t^2, t^3):", min(series))

# Numeric probes: transversality of near-zero fibers with spheres, and the
# argument coverage of f near a point of its zero set (an open map covers
# the whole circle; a sector means the map is not open there).
report = fibers.transversality_scan(tibar, radius=1.0, delta=1e-2, samples=300, seed=0)
print("\nmin fiber/sphere transversality residual:", round(report.min_residual, 4))

openness = fibers.boundary_openness_probe(tibar, [1, 0], epsilon=0.1, seed=0)
print(
    "argument coverage near (1, 0):", round(openness.arg_coverage, 4),
    "| sector half-width:", round(openness.sector_halfwidth, 4),
    "| atan(0.1) =", round(np.arctan(0.1), 4),
)
