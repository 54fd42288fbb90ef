#!/usr/bin/env python3
"""Walkthrough: Milnor-fibration zeta functions from Newton data.

For inputs whose face functions are strongly polar positive weighted
homogeneous, the zeta function of the Milnor fibration is a product of
factors (1 - t^d)^e read off from the Newton boundary of each nonvanishing
coordinate restriction: d is the polar degree of the face and e = -chi/d
with chi the Euler characteristic of the face's torus fiber, computed as a
signed normalized lattice volume.
"""

from mixedmilnor import zeta
from mixedmilnor.arcs import series_to_text
from mixedmilnor.constructors import PullbackSpec, corpus, pullback_cyclic
from mixedmilnor.poly import MixedPoly

# A curve with two mixed faces, each contributing (1 - t^20).
b = corpus("brieskorn_curve")
z = zeta.zeta_function(b)
print("f =", b)
for factor in z.factors:
    print(
        f"  I = {sorted(factor.I)}, weight {factor.P}: chi = {factor.chi}, "
        f"factor (1 - t^{factor.d})^{factor.e}"
    )
print("zeta(t) =", z.product_text())
num, den = zeta.expand_zeta(z)
print("expanded:", " / ".join(series_to_text({i: c for i, c in enumerate(p) if c}) for p in (num, den)))

# A simple singularity and its double-cover pullback: the covering
# substitution z -> z^2 zbar multiplies each covering degree by one, so the
# factor data is identical even though the pullback is genuinely mixed.
f = corpus("d_n", (4,))
spec = PullbackSpec((2, 2, 2), (1, 1, 1))
ft = pullback_cyclic(f, spec)
print("\nf  =", f)
print("f~ =", ft)
zf, zt = zeta.zeta_function(f), zeta.zeta_function(ft)
print("factors of f :", zf.multiset())
print("factors of f~:", zt.multiset())
print("equal:", zf.multiset() == zt.multiset())
print("zeta(t) =", zf.product_text())

# One-variable mixed monomials: the fiber of z^a zbar^b = 1 has a - b
# points permuted cyclically, so the zeta function is 1/(1 - t^(a-b)).
for a, b2 in [(3, 1), (5, 2), (4, 0)]:
    m = MixedPoly.monomial(1, (a,), (b2,))
    print(f"\nzeta of {m}: {zeta.zeta_function(m).product_text()}")
