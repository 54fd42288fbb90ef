"""Newton polyhedron combinatorics against brute-force oracles."""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from helpers import (
    hull_2d_oracle,
    integerize,
    newton_faces_oracle,
    newton_vertices_oracle,
    nullspace_oracle,
    random_mixed_poly,
    top_faces_oracle,
)
from mixedmilnor import lattice, newton, zeta
from mixedmilnor.cli import main
from mixedmilnor.constructors import corpus
from mixedmilnor.errors import (
    TooManySupportPointsError,
    TooManyVariablesError,
    VanishingSubsetError,
    ZeroPolynomialError,
)
from mixedmilnor.newton import FaceKind, WeightVector
from mixedmilnor.poly import MixedPoly, parse_poly

FIG1 = parse_poly("z1^3 + z2^3 + z2*z3^2")


class TestSupportVertices:
    def test_fig1(self):
        support, vertices, convenient = newton.support_vertices(FIG1)
        assert vertices == {(3, 0, 0), (0, 3, 0), (0, 1, 2)}
        assert convenient is False

    def test_single_variable(self):
        f = parse_poly("z1^4")
        support, vertices, convenient = newton.support_vertices(f)
        assert vertices == {(4,)}
        assert convenient is True

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomialError):
            newton.support_vertices(MixedPoly.zero(2))

    def test_constant_term_is_not_convenience(self):
        # convenience asks for a support point with a positive coordinate on
        # each axis; the constant term makes every f^{i} nonzero without one
        f = parse_poly("1 + z1*z2")
        _, _, convenient = newton.support_vertices(f)
        assert convenient is False
        assert newton.vanishing_subsets(f).vanishing == frozenset()

    def test_random_2d_against_hull_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            f = random_mixed_poly(rng, n=2, max_terms=8, max_exp=5)
            _, vertices, _ = newton.support_vertices(f)
            support = sorted(f.support())
            undominated = [
                p
                for p in support
                if not any(
                    q != p and all(q[i] <= p[i] for i in range(2)) for q in support
                )
            ]
            # pad with points far out on the axes so hull edges toward the
            # recession directions do not create spurious hull vertices
            big = 10 * (1 + max(max(p) for p in support))
            padded = undominated + [
                (big, min(p[1] for p in undominated)),
                (min(p[0] for p in undominated), big),
            ]
            hull = set(hull_2d_oracle(padded))
            expected = {p for p in undominated if p in hull}
            assert vertices == expected

    def test_vertices_subset_of_support_and_domination(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            f = random_mixed_poly(rng, n=3, max_terms=6, max_exp=4)
            support, vertices, _ = newton.support_vertices(f)
            assert vertices <= support
            oracle = newton_vertices_oracle(support, 3)
            assert vertices == oracle


class TestDeltaOfWeight:
    def test_fig1_edge_weight(self):
        d, face, face_poly = newton.delta_of_weight(FIG1, (1, 3, 0))
        assert d == 3
        assert {(3, 0, 0), (0, 1, 2)} <= face.generators
        assert face_poly == parse_poly("z1^3 + z2*z3^2")

    def test_tibar_whole_face(self):
        f = corpus("tibar")
        d, face, face_poly = newton.delta_of_weight(f, (1, 0))
        assert face_poly == f
        assert face.noncompact_directions == frozenset({2})

    def test_unit_weight_total_degree(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            f = random_mixed_poly(rng)
            d, _, _ = newton.delta_of_weight(f, (1,) * f.n)
            assert d == min(sum(xi) for xi in f.support())

    def test_matches_bruteforce_minimum(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            f = random_mixed_poly(rng, n=3)
            P = tuple(int(rng.integers(0, 4)) for _ in range(3))
            if all(x == 0 for x in P):
                P = (1, 1, 1)
            d, face, face_poly = newton.delta_of_weight(f, P)
            P = WeightVector(P)
            vals = {xi: P.value(xi) for xi in f.support()}
            dmin = min(vals.values())
            argmin = {xi for xi, v in vals.items() if v == dmin}
            assert face.generators == argmin
            assert face_poly.support() == frozenset(argmin)
            oracle = newton_faces_oracle(sorted(f.support()), 3)
            (dim,) = [fc.dim for fc in oracle if (fc.generators, fc.rays) == (argmin, P.zero_set())]
            assert face.dim == dim
            # primitive rescaling can change the reported minimum value
            assert d == min(P.value(xi) for xi in f.support())


class TestVanishingSubsets:
    def test_fig1(self):
        report = newton.vanishing_subsets(FIG1)
        assert report.vanishing == {frozenset({3})}

    def test_parusinski(self):
        report = newton.vanishing_subsets(corpus("parusinski"))
        assert report.vanishing == {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 3}),
            frozenset({2, 3}),
        }

    def test_d_n(self):
        report = newton.vanishing_subsets(corpus("d_n", (5,)))
        assert report.vanishing == {frozenset({2})}

    def test_monotone_under_subsets(self):
        for name, params in [
            ("tibar", ()),
            ("parusinski", ()),
            ("cyclic", (2, 2, 2)),
            ("d_n", (4,)),
            ("fig1", ()),
        ]:
            report = newton.vanishing_subsets(corpus(name, params))
            for I in report.vanishing:
                for J in report.vanishing | report.nonvanishing:
                    if J < I:
                        assert J in report.vanishing

    def test_full_set_nonvanishing(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            f = random_mixed_poly(rng)
            report = newton.vanishing_subsets(f)
            assert frozenset(range(1, f.n + 1)) in report.nonvanishing

    def test_support_predicate_matches_restriction(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            f = random_mixed_poly(rng, n=3)
            report = newton.vanishing_subsets(f)
            for I in report.vanishing | report.nonvanishing:
                assert newton.vanishes_on(f, I) == f.restrict(I).is_zero()
                assert report.is_vanishing(I) == f.restrict(I).is_zero()

    def test_variable_count_guard(self):
        from mixedmilnor.errors import TooManyVariablesError

        f = MixedPoly.monomial(17, {1: 1}, {})
        with pytest.raises(TooManyVariablesError):
            newton.vanishing_subsets(f)

    def test_support_size_guard(self):
        from mixedmilnor.errors import TooManySupportPointsError
        from mixedmilnor.lattice import newton_faces

        pts = [(i, i * i % 97) for i in range(70)]
        with pytest.raises(TooManySupportPointsError):
            newton_faces(pts, 2)


class TestBoundaryBuiltOnce:
    @pytest.fixture
    def face_calls(self, monkeypatch):
        calls = []
        original = lattice.newton_faces

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lattice, "newton_faces", counting)
        return calls

    def test_newton_report(self, face_calls):
        newton.newton_report(parse_poly("z1^3 + z2^3 + z2*z3^2"))
        assert len(face_calls) == 1

    def test_shared_across_queries(self, face_calls):
        f = parse_poly("z1^3 + z2^3 + z2*z3^2")
        newton.all_faces(f)
        newton.faces_with_directions(f, {3})
        newton.support_vertices(f)
        newton.delta_of_weight(f, (1, 3, 0))
        assert len(face_calls) == 1

    def test_cli_tame_over_all_vanishing_subsets(self, face_calls, capsys):
        assert len(newton.vanishing_subsets(corpus("parusinski")).vanishing) == 5
        main(["tame", "--corpus", "parusinski", "--budget", "1"])
        assert len(face_calls) == 1

    def test_zeta_reads_the_boundary_once(self, face_calls):
        assert len(newton.vanishing_subsets(corpus("parusinski")).nonvanishing) > 1
        zeta.zeta_function(corpus("parusinski"))
        assert len(face_calls) == 1

    def test_vanishing_builds_no_faces(self, face_calls):
        for name, params in [("parusinski", ()), ("cyclic", (2, 2, 2)), ("d_n", (4,))]:
            newton.vanishing_subsets(corpus(name, params))
        assert face_calls == []


class TestEssentialFaces:
    def test_fig1_exactly_one_essential(self):
        faces = newton.essential_noncompact_faces(FIG1)
        assert len(faces) == 1
        face = faces[0]
        assert face.noncompact_directions == frozenset({3})
        assert face.generators == {(3, 0, 0), (0, 1, 2)}
        assert face.compact_part == {(3, 0, 0), (0, 1, 2)}
        assert face.weight_witness.p == (1, 3, 0)
        assert face.d_value == 3

    def test_fig1_inessential_ab_bc(self):
        faces = newton.essential_noncompact_faces(FIG1, include_inessential=True)
        inessential = {
            frozenset(fc.generators)
            for fc in faces
            if fc.kind is FaceKind.NONCOMPACT_INESSENTIAL
        }
        assert frozenset({(3, 0, 0), (0, 3, 0)}) in inessential
        assert frozenset({(0, 3, 0), (0, 1, 2)}) in inessential

    def test_convenient_no_essential_faces(self):
        f = parse_poly("z1^2 + z2^2")
        assert newton.essential_noncompact_faces(f) == []

    def test_d_n_family(self):
        faces = newton.essential_noncompact_faces(corpus("d_n", (4,)))
        assert len(faces) == 1
        face = faces[0]
        assert face.generators == {(2, 0, 0), (0, 2, 1)}
        assert face.noncompact_directions == frozenset({2})
        assert face.weight_witness.p == (1, 0, 2)
        assert face.d_value == 2

    def test_defining_conditions_reverified(self):
        for name, params in [("fig1", ()), ("d_n", (5,)), ("parusinski", ()), ("tibar", ())]:
            f = corpus(name, params)
            for face in newton.essential_noncompact_faces(f):
                P = face.weight_witness
                I = face.noncompact_directions
                # witness selects exactly the generators
                vals = {xi: P.value(xi) for xi in f.support()}
                d = min(vals.values())
                assert face.generators == {xi for xi, v in vals.items() if v == d}
                assert d == face.d_value
                # the restriction to the noncompact directions vanishes
                assert f.restrict(I).is_zero()
                # ray closure: moving generators along the directions keeps
                # the witness value, hence stays on the face
                assert P.zero_set() == I
                for xi in face.generators:
                    for i in I:
                        shifted = list(xi)
                        shifted[i - 1] += 7
                        assert P.value(shifted) == face.d_value


class TestFaceEnumerationCompleteness:
    @staticmethod
    def check_random_weights(rng, pts, n, draws):
        # the face selected by any semipositive weight (its argmin set plus
        # its zero coordinates) must appear in the enumerated face lattice
        from mixedmilnor.lattice import newton_faces, primitive

        enumerated = [(f.generators, f.rays) for f in newton_faces(pts, n)]
        faces = set(enumerated)
        # each witness exposes its own face, so no face comes out twice
        assert len(faces) == len(enumerated), pts
        for _ in range(draws):
            w = tuple(int(x) for x in rng.integers(0, 5, size=n))
            if all(x == 0 for x in w):
                continue
            w = primitive(w)
            vals = [sum(a * b for a, b in zip(w, p)) for p in pts]
            d = min(vals)
            gens = frozenset(p for p, v in zip(pts, vals) if v == d)
            rays = frozenset(i + 1 for i, x in enumerate(w) if x == 0)
            assert (gens, rays) in faces, (pts, w)

    def test_every_random_weight_face_is_enumerated(self):
        rng = np.random.default_rng(137)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            pts = sorted(
                {
                    tuple(int(x) for x in rng.integers(0, 6, size=n))
                    for _ in range(int(rng.integers(1, 7)))
                }
            )
            self.check_random_weights(rng, pts, n, 15)
        # supports near the candidate-subset cap: two n = 5 supports of 24
        # points and one n = 6 support of 14
        for n, size in ((5, 24), (5, 24), (6, 14)):
            pts = set()
            while len(pts) < size:
                pts.add(tuple(int(x) for x in rng.integers(0, 7, size=n)))
            self.check_random_weights(rng, sorted(pts), n, 200)

    def test_forty_points_in_five_variables(self):
        # 40 monomials z^a, a in {0,1,2}^5: once refused by a subset-count cap
        rng = np.random.default_rng(149)
        pts = sorted(product(range(3), repeat=5))[1:41]
        assert len(lattice.newton_faces(pts, 5)) == 59
        self.check_random_weights(rng, pts, 5, 400)

    def test_dominated_points_add_no_hyperplane_search(self, monkeypatch):
        # a point p + e_i lies above the support point p, so it is never a
        # vertex of a facet or of a facet's projection and is never searched
        calls = []
        nullspace = lattice.nullspace

        def counted(rows, ncols):
            calls.append(ncols)
            return nullspace(rows, ncols)

        monkeypatch.setattr(lattice, "nullspace", counted)
        rng = np.random.default_rng(61)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            pts = sorted({tuple(int(x) for x in rng.integers(0, 5, size=n)) for _ in range(8)})
            calls.clear()
            faces = lattice.newton_faces(pts, n)
            searched = len(calls)
            above = set(pts)
            for p in pts[:4]:
                i = int(rng.integers(n))
                above.add(tuple(x + (j == i) for j, x in enumerate(p)))
            calls.clear()
            more = lattice.newton_faces(sorted(above), n)
            assert len(calls) == searched, (pts, sorted(above))
            # the same polyhedron: its faces keep their witnesses
            assert sorted(f.witness for f in more) == sorted(f.witness for f in faces)

    def test_boundary_ranks_no_face(self, monkeypatch):
        # each face's dim is its closure level, so only the facet routine
        # solves for normals: z10 has 1,023 faces and 10 facets
        calls = []
        nullspace = lattice.nullspace

        def counted(rows, ncols):
            calls.append(ncols)
            return nullspace(rows, ncols)

        monkeypatch.setattr(lattice, "nullspace", counted)
        assert len(newton.newton_boundary(parse_poly("z10")).faces) == 1023
        built = len(calls)
        calls.clear()
        lattice._cone_facets([(1, *(0,) * 9, 1)] + [tuple(int(j == i) for j in range(11)) for i in range(1, 11)], 11)
        assert built <= len(calls)


def cone_facets_oracle(gens, dim):
    """{(primitive inner normal, generator mask)} of the cone spanned by gens,
    from every hyperplane through dim - 1 of them that no generator crosses."""
    facets = set()
    for subset in combinations(gens, dim - 1):
        basis = nullspace_oracle(subset, dim)
        if len(basis) != 1:
            continue
        w = integerize(basis[0])
        sides = [sum(a * b for a, b in zip(w, g)) for g in gens]
        if min(sides) < 0 < max(sides):
            continue
        if min(sides) < 0:
            w, sides = tuple(-x for x in w), [-s for s in sides]
        facets.add((w, sum(1 << k for k, s in enumerate(sides) if s == 0)))
    return facets


class TestConeFacets:
    @pytest.mark.parametrize("dims, low, draws", [((2, 6), -2, 100), ((5, 7), 0, 50)])
    def test_matches_the_hyperplane_search(self, dims, low, draws):
        # pointed cones over random integer points (first coordinate 1), often
        # degenerate; on {0,1,2}^5 two facets can share dim - 2 points and still
        # meet in a smaller face than a ridge, so only the third-facet test
        # tells them apart
        rng = np.random.default_rng(811 + low)
        for _ in range(draws):
            dim = int(rng.integers(*dims))
            pts = {tuple(int(x) for x in rng.integers(low, 3, size=dim - 1))
                   for _ in range(int(rng.integers(dim, dim + 7)))}
            gens = [(1, *p) for p in sorted(pts)]
            if lattice.rank(gens) < dim:
                continue
            facets = lattice._cone_facets(gens, dim)
            assert len(set(facets)) == len(facets), gens
            assert set(facets) == cone_facets_oracle(gens, dim), gens

    def test_cube_and_the_facet_cap(self, monkeypatch):
        cube = [(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        facets = lattice._cone_facets(cube, 4)
        assert sorted(w for w, _ in facets) == sorted(
            [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)]
        )
        assert all(bin(mask).count("1") == 4 for _, mask in facets)
        monkeypatch.setattr(lattice, "MAX_FACES", 5)
        with pytest.raises(TooManySupportPointsError, match="facets"):
            lattice._cone_facets(cube, 4)


class TestFaceCap:
    def test_variables_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("nullspace called")

        monkeypatch.setattr(lattice, "nullspace", no_work)
        for n in (15, 18, 3000000):
            with pytest.raises(TooManyVariablesError):
                lattice.newton_faces([(0,) * (n - 1) + (1,)], n)

    def test_one_monomial_has_every_coordinate_face(self):
        # z_n: the orthant e_n + R^n_{>=0} has 2^n - 1 proper faces
        for n in range(1, 11):
            faces = lattice.newton_faces([(0,) * (n - 1) + (1,)], n)
            assert len(faces) == 2**n - 1
            assert len({f.rays for f in faces}) == 2**n - 1

    def test_closure_refused_above_the_cap(self, monkeypatch):
        pts = [(2, 0, 0, 1), (0, 3, 1, 0), (1, 1, 1, 1), (0, 0, 4, 0), (3, 1, 0, 0), (0, 1, 0, 3)]
        total = len(lattice.newton_faces(pts, 4))
        monkeypatch.setattr(lattice, "MAX_FACES", total)
        assert len(lattice.newton_faces(pts, 4)) == total
        monkeypatch.setattr(lattice, "MAX_FACES", total - 1)
        with pytest.raises(TooManySupportPointsError, match="faces"):
            lattice.newton_faces(pts, 4)

    def test_closure_stops_at_the_cap(self, monkeypatch):
        # the cap bounds the closure's work, not only its answer: of these 55
        # faces (9 facets), no more than the cap are ever built
        pts = [(2, 0, 0, 1), (0, 3, 1, 0), (1, 1, 1, 1), (0, 0, 4, 0), (3, 1, 0, 0), (0, 1, 0, 3)]
        built = []
        face = lattice.LatticeFace

        def counted(*args):
            built.append(args)
            return face(*args)

        monkeypatch.setattr(lattice, "LatticeFace", counted)
        monkeypatch.setattr(lattice, "MAX_FACES", 20)
        with pytest.raises(TooManySupportPointsError, match="faces"):
            lattice.newton_faces(pts, 4)
        assert len(built) <= 20


class TestFractionFreeEnumeration:
    def test_nullspace_is_the_primitive_rref_basis(self):
        rng = np.random.default_rng(419)
        cases = [([], 3), ([[0, 0, 0]], 3), ([[0, 0], [0, 0], [0, 0]], 2)]
        for _ in range(2400):
            nrows, ncols = int(rng.integers(0, 7)), int(rng.integers(1, 7))
            rows = []
            for _ in range(nrows):
                if rng.random() < 0.15:
                    rows.append([0] * ncols)
                    continue
                row = [int(x) if rng.random() < 0.7 else 0 for x in rng.integers(-5, 6, size=ncols)]
                if rng.random() < 0.4:
                    row = [Fraction(x, int(rng.integers(1, 7))) for x in row]
                rows.append(row)
            cases.append((rows, ncols))
        for rows, ncols in cases:
            expected = [integerize(v) for v in nullspace_oracle(rows, ncols)]
            assert lattice.nullspace(rows, ncols) == expected, rows

    def test_faces_match_the_unpruned_enumeration(self):
        # cells (n, points, max exponent) of the benchmark's support grid,
        # cut to size, plus n = 1 and n = 5; points with degree >= 2 as there
        rng = np.random.default_rng(523)
        cells = [((1, 4, 8), 30), ((2, 8, 8), 70), ((2, 12, 9), 60), ((2, 16, 10), 30),
                 ((3, 8, 5), 60), ((3, 12, 5), 30), ((4, 7, 4), 15), ((5, 5, 3), 6)]
        for (n, size, max_exp), draws in cells:
            for _ in range(draws):
                pts = set()
                while len(pts) < size:
                    pt = tuple(int(x) for x in rng.integers(0, max_exp + 1, size=n))
                    if sum(pt) >= 2:
                        pts.add(pt)
                pts = sorted(pts)
                assert lattice.newton_faces(pts, n) == newton_faces_oracle(pts, n), pts


class TestFacesWithDirections:
    def test_cyclic_subfaces_enumerated(self):
        f = corpus("cyclic", (2, 2, 2))
        faces = newton.faces_with_directions(f, {3})
        gens = sorted(sorted(fc.generators) for fc in faces)
        assert gens == [
            [(0, 2, 1)],
            [(0, 2, 1), (1, 0, 2)],
            [(1, 0, 2)],
        ]


class TestTopFaces:
    def test_brieskorn_two_weights(self):
        f = corpus("brieskorn_curve")
        pairs = newton.top_faces(f, {1, 2})
        weights = sorted(P.p for P, _ in pairs)
        assert weights == [(2, 3), (3, 2)]

    def test_single_vertex(self):
        f = parse_poly("z1^2", n=1)
        pairs = newton.top_faces(f, {1})
        assert len(pairs) == 1
        P, poly = pairs[0]
        assert P.p == (1,)
        assert poly == f

    def test_d_n_axis_pair(self):
        f = corpus("d_n", (5,))
        pairs = newton.top_faces(f, {1, 3})
        assert len(pairs) == 1
        P, poly = pairs[0]
        assert poly == parse_poly("z1^2 + z3^4", n=3)
        assert P.p[1] == 0

    def test_vanishing_subset_rejected(self):
        with pytest.raises(VanishingSubsetError):
            newton.top_faces(corpus("d_n", (4,)), {2})

    def test_matches_enumeration_of_each_restriction(self):
        rng = np.random.default_rng(61)
        polys = [
            corpus(name, params)
            for name, params in [("parusinski", ()), ("fig1", ()), ("d_n", (5,)),
                                 ("cyclic", (2, 2, 2)), ("brieskorn_curve", ())]
        ]
        polys += [random_mixed_poly(rng, n=int(rng.integers(2, 5)), max_terms=7) for _ in range(60)]
        for f in polys:
            for I in sorted(newton.vanishing_subsets(f).nonvanishing, key=sorted):
                got = [(P.p, poly) for P, poly in newton.top_faces(f, I)]
                want = [(P.p, poly) for P, poly in top_faces_oracle(f, I)]
                assert got == want, (f, sorted(I))


class TestDegrees:
    def test_brieskorn_face(self):
        f = corpus("brieskorn_curve")
        pairs = dict((P.p, poly) for P, poly in newton.top_faces(f, {1, 2}))
        report = newton.degrees(pairs[(2, 3)], (2, 3))
        assert report.rdeg == 40
        assert report.pdeg == 20
        assert report.strongly_polar and report.polar_positive

    def test_holomorphic_monomial(self):
        report = newton.degrees(parse_poly("z1^5"), (1,))
        assert report.rdeg == report.pdeg == 5

    def test_modulus_square(self):
        report = newton.degrees(parse_poly("|z1|^2"), (1,))
        assert report.rdeg == 2 and report.pdeg == 0
        assert not report.polar_positive

    def test_additive_under_products(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            m1 = random_mixed_poly(rng, n=n, max_terms=1)
            m2 = random_mixed_poly(rng, n=n, max_terms=1)
            P = tuple(int(rng.integers(1, 4)) for _ in range(n))
            r1 = newton.degrees(m1, P)
            r2 = newton.degrees(m2, P)
            r12 = newton.degrees(m1 * m2, P)
            assert r12.rdeg == r1.rdeg + r2.rdeg
            assert r12.pdeg == r1.pdeg + r2.pdeg


class TestRestrictionBoundary:
    def test_support_restriction_law(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            f = random_mixed_poly(rng, n=3)
            for I in [{1}, {2}, {1, 3}, {1, 2, 3}]:
                fI = f.restrict(I)
                expected = {
                    xi
                    for xi in f.support()
                    if all(xi[k] == 0 for k in range(3) if (k + 1) not in I)
                }
                assert fI.support() == expected


class TestJsonReport:
    def test_fig1_shape(self):
        report = newton.newton_report(FIG1)
        assert report["vertices"] == [[0, 1, 2], [0, 3, 0], [3, 0, 0]]
        assert report["convenient"] is False
        assert len(report["essential_faces"]) == 1
        entry = report["essential_faces"][0]
        assert entry["I"] == [3]
        assert entry["witness"] == [1, 3, 0]
        assert entry["d"] == 3
