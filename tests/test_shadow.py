import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import V, neg
from ghckit import rootsys, shadow
from ghckit.exact import cone_member, vadd, vzero
from ghckit.errors import InputError
from ghckit.rootsys import bits
from ghckit.shadow import RootSubalgebra, closed_subsets, fernando_fk, parabolic_pm, support_shape


def make(rs, roots):
    return RootSubalgebra(rs, frozenset(roots))


class TestRootSubalgebra:
    def test_closure_enforced(self, a2):
        with pytest.raises(InputError):
            make(a2, [V(1, -1, 0), V(0, 1, -1)])  # sum is a root but missing

    def test_non_root_rejected(self, a2):
        with pytest.raises(InputError):
            make(a2, [V(2, -2, 0)])


class TestShadow:
    def test_full_subalgebra_is_all_f(self, a2):
        sd = shadow.shadow(a2, make(a2, a2.all_roots))
        assert sd.F == frozenset(a2.all_roots)
        assert not sd.I and not sd.plus and not sd.minus

    def test_a1_borel(self, a1):
        alpha = a1.positive_roots[0]
        sd = shadow.shadow(a1, make(a1, [alpha]))
        assert sd.plus == {alpha}
        assert sd.minus == {neg(alpha)}
        assert not sd.I and not sd.F
        assert parabolic_pm(sd) == {alpha}
        assert fernando_fk(sd) == {alpha}

    def test_a1_cartan_is_cuspidal_shadow(self, a1):
        sd = shadow.shadow(a1, make(a1, []))
        assert sd.I == frozenset(a1.all_roots)
        assert fernando_fk(sd) == frozenset()

    def test_a2_borel(self, a2):
        borel = frozenset(a2.positive_roots)
        sd = shadow.shadow(a2, make(a2, borel))
        assert sd.plus == borel
        assert parabolic_pm(sd) == borel
        assert fernando_fk(sd) == borel

    def test_classification_depends_only_on_subalgebra(self, a2):
        # same input twice gives identical decompositions
        sub = make(a2, [V(1, -1, 0), neg(V(1, -1, 0)), V(0, 1, -1), V(1, 0, -1)])
        assert shadow.shadow(a2, sub) == shadow.shadow(a2, sub)


def _partition_invariants(rs, sd):
    parts = [sd.I, sd.F, sd.plus, sd.minus]
    assert frozenset().union(*parts) == frozenset(rs.all_roots)
    assert sum(len(p) for p in parts) == len(rs.all_roots)
    assert sd.I == {neg(a) for a in sd.I}
    assert sd.F == {neg(a) for a in sd.F}
    assert sd.minus == {neg(a) for a in sd.plus}


class TestShadowInvariantsExhaustive:
    @pytest.mark.parametrize("fixture", ["a2", "c2"])
    def test_partition_symmetry_and_parabolicity(self, fixture, request):
        rs = request.getfixturevalue(fixture)
        for roots in closed_subsets(rs):
            sd = shadow.shadow(rs, RootSubalgebra(rs, roots))
            _partition_invariants(rs, sd)
            pm = parabolic_pm(sd)
            assert shadow.is_closed(rs, pm)
            assert pm | {neg(a) for a in pm} == frozenset(rs.all_roots)

    @pytest.mark.parametrize("fixture", ["a2", "c2"])
    def test_parabolic_round_trip(self, fixture, request):
        rs = request.getfixturevalue(fixture)
        full = frozenset(rs.all_roots)
        for roots in closed_subsets(rs):
            if roots | {neg(a) for a in roots} == full:
                sub = RootSubalgebra(rs, roots)
                assert fernando_fk(shadow.shadow(rs, sub)) == roots


def reference_support_shape(sd, base_points, truncation_radius):
    """support_shape as it was before it grew only new points and had a bound."""
    gamma = sorted(sd.gamma_generators)
    dim = sd.rs.ambient_dim
    shifts = {vzero(dim)}
    frontier = {vzero(dim)}
    for _ in range(truncation_radius):
        frontier = {vadd(s, g) for s in frontier for g in gamma}
        shifts |= frontier
    return frozenset(vadd(b, s) for b in base_points for s in shifts)


class TestSupportShape:
    def test_empty_gamma(self, a1):
        sd = shadow.shadow(a1, make(a1, a1.all_roots))
        base = (V(0, 0),)
        assert support_shape(sd, base, 5) == {V(0, 0)}

    def test_a1_cartan_radius_two(self, a1):
        sd = shadow.shadow(a1, make(a1, []))
        nu = V(3, 0)
        alpha = a1.positive_roots[0]
        got = support_shape(sd, (nu,), 2)
        want = {nu}
        for k in (1, 2):
            want.add(tuple(n + k * a for n, a in zip(nu, alpha)))
            want.add(tuple(n - k * a for n, a in zip(nu, alpha)))
        assert got == frozenset(want)

    def test_a1_borel_radius_one(self, a1):
        alpha = a1.positive_roots[0]
        sd = shadow.shadow(a1, make(a1, [alpha]))
        nu = V(1, 0)
        assert support_shape(sd, (nu,), 1) == {nu, tuple(n - a for n, a in zip(nu, alpha))}

    @pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2)])
    def test_matches_reference(self, key):
        rs = rootsys.build(*key)
        for roots in ([], rs.positive_roots[:1], rs.positive_roots):
            sd = shadow.shadow(rs, make(rs, roots))
            base = (tuple(F(0) for _ in range(rs.ambient_dim)), tuple(F(k, 3) for k in range(rs.ambient_dim)))
            for radius in range(5):
                assert support_shape(sd, base, radius) == reference_support_shape(sd, base, radius)

    def test_oversized_radius_fails_fast(self):
        a4 = rootsys.build("A", 4)
        sd = shadow.shadow(a4, make(a4, []))
        # radius 12 is past the bound (radius 9 passes it), yet small enough that an
        # unbounded version would finish in a few seconds and fail here, not run out of memory
        start = time.perf_counter()
        with pytest.raises(InputError):
            support_shape(sd, (tuple(F(0) for _ in range(5)),), 12)
        assert time.perf_counter() - start < 10
        # the bound counts base points times shifts
        base = [tuple(F(k) for _ in range(5)) for k in range(shadow.MAX_SUPPORT_POINTS)]
        with pytest.raises(InputError):
            support_shape(sd, base, 1)

    @given(radius=st.integers(min_value=0, max_value=3))
    @settings(deadline=None, max_examples=10)
    def test_monotone_in_radius(self, a2, radius):
        sd = shadow.shadow(a2, make(a2, [V(1, -1, 0)]))
        base = (V(0, 0, 0),)
        assert support_shape(sd, base, radius) <= support_shape(sd, base, radius + 1)


class TestClosedSubsetEnumeration:
    def test_counts(self, a1, a2, a3, c2):
        assert len(list(closed_subsets(a1))) == 4
        assert len(list(closed_subsets(a2))) == 29
        assert len(list(closed_subsets(a3))) == 355
        assert len(list(closed_subsets(c2))) == 55
        assert len(list(closed_subsets(rootsys.build("B", 3)))) == 1785
        assert len(list(closed_subsets(rootsys.build("C", 3)))) == 1803
        assert len(list(closed_subsets(rootsys.build("A", 4)))) == 6942

    def test_g2_matches_brute_force(self):
        # every one of the 2^12 subsets of G2, closed or not, checked by
        # vector addition alone
        g2 = rootsys.build("G", 2)
        roots = g2.all_roots
        sums = {(a, b): vadd(a, b) for a in roots for b in roots}

        def closed(sub):
            return all(sums[a, b] in sub or not g2.is_root(sums[a, b]) for a in sub for b in sub)

        subsets = [
            frozenset(itertools.compress(roots, bits))
            for bits in itertools.product((0, 1), repeat=len(roots))
        ]
        want = {s for s in subsets if closed(s)}
        got = list(closed_subsets(g2))
        assert len(got) == len(set(got)) == 168
        assert set(got) == want
        assert all(shadow.is_closed(g2, s) == (s in want) for s in subsets)

    def test_all_closed_and_unique(self, a2):
        seen = list(closed_subsets(a2))
        assert len(seen) == len(set(seen))
        for s in seen:
            assert shadow.is_closed(a2, s)

    def test_json_round_trip(self, a2):
        sub = make(a2, [V(1, -1, 0), neg(V(1, -1, 0))])
        sd = shadow.shadow(a2, sub)
        doc = sd.to_json()
        back = {k: frozenset(a2.all_roots[i] for i in doc[k]) for k in ("I", "F", "plus", "minus")}
        assert back == {"I": sd.I, "F": sd.F, "plus": sd.plus, "minus": sd.minus}


def mask_closure(rs, mask):
    """The closed subset that a mask generates, through the sum table."""
    while True:
        grown = mask
        for i in bits(mask):
            for j in bits(mask):
                if rs.sum_table[i][j] >= 0:
                    grown |= 1 << rs.sum_table[i][j]
        if grown == mask:
            return mask
        mask = grown


# the types of the shadow benchmark workload
@pytest.mark.parametrize("key", [("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("A", 4)])
def test_doubled_rows_decide_membership_like_fraction_rows(key):
    rs = rootsys.build(*key)
    rng = random.Random(7)
    # the Borel subalgebra leaves a pointed cone, where membership is not settled by a lineality space
    masks = [rs.positive_mask]
    masks += [mask_closure(rs, rs.index_mask(rng.sample(range(len(rs.all_roots)), k))) for k in range(1, 7)]
    for mask in masks:
        gamma = bits(rs.full_mask & ~mask)
        inside = set()
        for i, root in enumerate(rs.all_roots):
            by_fractions = cone_member(root, [rs.all_roots[j] for j in gamma])
            by_doubled = cone_member(rs.doubled_roots[i], [rs.doubled_roots[j] for j in gamma])
            assert (by_fractions is None) == (by_doubled is None), (key, bits(mask), i)
            if by_fractions is not None:
                inside.add(root)
        sd = shadow.shadow(rs, RootSubalgebra(rs, mask))
        assert sd.I | sd.minus == inside
