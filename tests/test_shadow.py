import dataclasses
import functools
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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

    def test_subalgebra_of_another_system_rejected(self):
        a2, b3 = rootsys.build("A", 2), rootsys.build("B", 3)
        # the A2 mask read in B3 would put every root in I
        with pytest.raises(InputError, match="A2, not to B3"):
            shadow.shadow(b3, RootSubalgebra.from_indices(a2, [0]))
        # another object of the same type is the same system
        copy = dataclasses.replace(b3)
        assert shadow.shadow(b3, RootSubalgebra.from_indices(copy, [0])) == shadow.shadow(b3, make(b3, [b3.all_roots[0]]))

    def test_classification_depends_only_on_subalgebra(self, a2):
        # same input twice gives identical decompositions
        sub = make(a2, [V(1, -1, 0), neg(V(1, -1, 0)), V(0, 1, -1), V(1, 0, -1)])
        assert shadow.shadow(a2, sub) == shadow.shadow(a2, sub)


PARTS = ("I", "F", "plus", "minus")


def _part_masks(rs, sd):
    """The masks of I, F, plus and minus, read from the JSON indices so that no vector is hashed."""
    doc = sd.to_json()
    return [rs.index_mask(doc[k]) for k in PARTS]


def _check_invariants(rs, mask, sd):
    """The four parts partition the roots, I and F are symmetric and minus = -plus, and
    p_M = I + F + plus is a parabolic; a parabolic-type subset is its own Fernando-Kac subalgebra."""
    I, F_, plus, minus = _part_masks(rs, sd)
    assert I | F_ | plus | minus == rs.full_mask
    assert sum(map(len, (sd.I, sd.F, sd.plus, sd.minus))) == len(rs.all_roots)
    assert rs.negated(I) == I and rs.negated(F_) == F_ and rs.negated(plus) == minus
    pm = I | F_ | plus
    assert parabolic_pm(sd) == rs.roots_of(pm)
    assert shadow.closed_mask(rs, pm) and pm | rs.negated(pm) == rs.full_mask
    if _is_parabolic_type(rs, mask):
        assert fernando_fk(sd) == rs.roots_of(mask)


def _is_parabolic_type(rs, mask):
    return mask | rs.negated(mask) == rs.full_mask


# the number of cone_member LPs that the shadow calls of decompositions(key) ran, by key
LP_CALLS = {}


@functools.cache
def decompositions(key):
    """(mask, shadow decomposition) for every closed subset of a type, in closed_masks order."""
    rs = rootsys.build(*key)
    with mock.patch.object(shadow, "cone_member", wraps=shadow.cone_member) as lp:
        built = [(m, shadow.shadow(rs, RootSubalgebra(rs, m))) for m in shadow.closed_masks(rs)]
    LP_CALLS[key] = lp.call_count
    return built


@pytest.fixture(scope="module", autouse=True)
def _free_decompositions():
    # the cache holds thousands of decompositions; free them once this module is done
    yield
    decompositions.cache_clear()


# every closed subset of these is decomposed; the non-simply-laced ones are those of the shadow bench
EXHAUSTIVE = [("A", 2), ("C", 2), ("G", 2), ("B", 3), ("C", 3)]


def _type_id(key):
    return f"{key[0].lower()}{key[1]}"


class TestShadowInvariantsExhaustive:
    @pytest.mark.parametrize("key", EXHAUSTIVE, ids=_type_id)
    def test_partition_symmetry_and_parabolicity(self, key):
        rs = rootsys.build(*key)
        for mask, sd in decompositions(key):
            _check_invariants(rs, mask, sd)

    @pytest.mark.parametrize("key", EXHAUSTIVE, ids=_type_id)
    def test_parabolic_round_trip(self, key):
        rs = rootsys.build(*key)
        parabolic = [(m, sd) for m, sd in decompositions(key) if _is_parabolic_type(rs, m)]
        assert parabolic
        for mask, sd in parabolic:
            assert fernando_fk(sd) == rs.roots_of(mask) == frozenset(rs.all_roots[i] for i in bits(mask))

    def test_d4_sample(self):
        # 18,291 closed subsets: a fixed sample of them, and one of the parabolic ones,
        # which a sample of all of them would seldom hit
        d4 = rootsys.build("D", 4)
        masks = list(shadow.closed_masks(d4))
        assert len(masks) == 18291
        rng = random.Random(4)
        parabolic = [m for m in masks if _is_parabolic_type(d4, m)]
        for mask in rng.sample(masks, 150) + rng.sample(parabolic, 40):
            _check_invariants(d4, mask, shadow.shadow(d4, RootSubalgebra(d4, mask)))


def test_shadow_json_pinned():
    # SHA-256 of the canonical JSON list of every to_json() over the closed subsets of
    # G2, B3 and C3 in closed_masks order, taken when every membership was decided by an LP
    docs = [sd.to_json() for key in [("G", 2), ("B", 3), ("C", 3)] for _, sd in decompositions(key)]
    assert len(docs) == 168 + 1785 + 1803
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert digest == "02b36ede24e936fa88f0c99ac2a9aac4a14fcce1b70a35cb4d0d5d3b0cffe27c"


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

    def test_base_point_of_the_wrong_dimension(self):
        a2 = rootsys.build("A", 2)
        sd = shadow.shadow(a2, make(a2, []))
        with pytest.raises(InputError, match="dimension 3"):
            support_shape(sd, (V(0, 0, 0), V(0, 0)), 1)

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

    @pytest.mark.parametrize(
        "key, count, digest",
        [
            pytest.param(("A", 4), 6942, "95a1848d18d98e6eccc7bb8da2d1cca6eaea25782fda8f6cf23b85f62ba7dd85", id="a4"),
            pytest.param(("D", 4), 18291, "006d0f651fc1c06e51973251028031737eeef77d28dba6c688f081f66e7cde5b", id="d4"),
        ],
    )
    def test_order_pinned(self, key, count, digest):
        # SHA-256 of the compact JSON list of the bits of every mask in closed_masks order,
        # taken when each include branch was closed in full before the excluded roots were tested
        masks = [bits(m) for m in shadow.closed_masks(rootsys.build(*key))]
        assert len(masks) == count
        assert hashlib.sha256(json.dumps(masks, separators=(",", ":")).encode()).hexdigest() == digest

    @pytest.mark.parametrize("key", [("B", 3), ("D", 4)], ids=_type_id)
    def test_close_stops_at_the_stop_mask(self, key):
        # from a closed mask and one more root, a stop mask disjoint from both gives -1
        # exactly when the full closure meets it, and the full closure otherwise
        rs = rootsys.build(*key)
        rng = random.Random(14)
        n = len(rs.all_roots)
        masks = list(shadow.closed_masks(rs))
        outcomes = set()
        for mask in rng.sample(masks, 300):
            if mask == rs.full_mask:
                continue
            i = rng.choice([j for j in range(n) if not mask >> j & 1])
            start = mask | 1 << i
            stop = rs.index_mask(j for j in range(n) if not start >> j & 1 and rng.random() < rng.random())
            full = shadow._close(rs, start, [i])
            got = shadow._close(rs, start, [i], stop)
            assert got == (-1 if full & stop else full), (key, bits(mask), i, bits(stop))
            outcomes.add(got < 0)
        assert outcomes == {False, True}

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


def reference_inside(rs, mask):
    """The mask of the roots in the cone over the complement of mask, by one
    cone_member LP per root of mask: shadow's membership without its additive closure."""
    gamma_mask = rs.full_mask & ~mask
    gamma = [rs.doubled_roots[i] for i in bits(gamma_mask)]
    inside = gamma_mask
    for i in bits(mask):
        if cone_member(rs.doubled_roots[i], gamma) is not None:
            inside |= 1 << i
    return inside


def _assert_matches_lp_reference(rs, mask, sd):
    inside = reference_inside(rs, mask)
    neg_inside = rs.negated(inside)
    want = [inside & neg_inside, rs.full_mask & ~(inside | neg_inside), neg_inside & ~inside, inside & ~neg_inside]
    assert _part_masks(rs, sd) == want, (rs.series, rs.rank, bits(mask))


class TestClosureAgreesWithLP:
    @pytest.mark.parametrize("key", [("G", 2), ("B", 3), ("C", 3)], ids=_type_id)
    def test_every_closed_subset(self, key):
        rs = rootsys.build(*key)
        for mask, sd in decompositions(key):
            _assert_matches_lp_reference(rs, mask, sd)
        # the certificate decided every root outside the additive closure
        assert LP_CALLS[key] == 0

    @staticmethod
    def _assert_lp_path_matches(key):
        # no tested subset leaves a cone member outside the additive closure, so
        # with an empty closure table every member comes from an LP
        rs = dataclasses.replace(rootsys.build(*key))
        rs.__dict__["sum_partners"] = ((),) * len(rs.all_roots)
        with mock.patch.object(shadow, "cone_member", wraps=shadow.cone_member) as lp:
            for mask, _ in decompositions(key)[::7]:
                _assert_matches_lp_reference(rs, mask, shadow.shadow(rs, RootSubalgebra(rs, mask)))
        # an emptied table that the closure no longer read would leave this test passing with no LP
        assert lp.call_count >= 1

    @pytest.mark.parametrize("key", [("G", 2), ("C", 3)], ids=_type_id)
    def test_lp_path_alone(self, key):
        # the non-members come from the certificate
        self._assert_lp_path_matches(key)

    @pytest.mark.parametrize("key", [("G", 2), ("C", 3)], ids=_type_id)
    def test_lp_path_alone_uncertified(self, key, monkeypatch):
        # with a certificate that certifies nothing, the non-members come from an LP too;
        # the cached decompositions are built first, with the certificate in place
        decompositions(key)
        monkeypatch.setattr(shadow, "_certified_outside", lambda *args: 0)
        self._assert_lp_path_matches(key)

    @pytest.mark.parametrize("key", [("D", 4), ("F", 4), ("A", 4)], ids=_type_id)
    def test_seeded_closures(self, key, monkeypatch):
        rs = rootsys.build(*key)
        rng = random.Random(11)
        n = len(rs.all_roots)
        masks = [rs.positive_mask, 0, rs.full_mask]
        masks += [mask_closure(rs, rs.index_mask(rng.sample(range(n), rng.randint(1, 6)))) for _ in range(40)]
        lp = mock.Mock(wraps=shadow.cone_member)
        monkeypatch.setattr(shadow, "cone_member", lp)
        for mask in masks:
            _assert_matches_lp_reference(rs, mask, shadow.shadow(rs, RootSubalgebra(rs, mask)))
        assert lp.call_count == 0


@st.composite
def root_subsets(draw):
    """A type, an arbitrary mask gamma of its roots (not only the complement of a closed
    set) and whether the members handed to the chain are gamma's additive closure or gamma."""
    key = draw(st.sampled_from([("A", 3), ("B", 3), ("G", 2), ("D", 4)]))
    rs = rootsys.build(*key)
    return key, rs.index_mask(draw(st.lists(st.integers(0, len(rs.all_roots) - 1)))), draw(st.booleans())


class TestCertifiedOutside:
    @staticmethod
    def certified(rs, gamma_mask, closed=True):
        """The roots the chain certifies outside cone(gamma), each checked by an LP."""
        inside = shadow._close(rs, gamma_mask, bits(gamma_mask)) if closed else gamma_mask
        outside = shadow._certified_outside(rs, gamma_mask, inside)
        assert not outside & inside
        gamma = [rs.doubled_roots[i] for i in bits(gamma_mask)]
        for i in bits(outside):
            assert cone_member(rs.doubled_roots[i], gamma) is None, (rs.series, rs.rank, bits(gamma_mask), i)
        return outside

    @given(root_subsets())
    # without the check of phi on the generators, a negative value there certifies a member
    @example((("G", 2), 0b11, False))
    # where phi is 0 on the live set, a root with (t, g) > 0 for a generator g may be a member
    @example((("G", 2), 1 << 5 | 1 << 6 | 1 << 10, True))
    def test_every_certified_root_is_outside_the_cone(self, drawn):
        key, gamma_mask, closed = drawn
        self.certified(rootsys.build(*key), gamma_mask, closed)

    def test_cone_member_outside_the_closure_goes_to_the_lp(self):
        # Gamma = {e1 +- e2, e3 +- e4} in D4 is its own additive closure, and e1 + e3 is in its
        # cone; the complement of Gamma is not closed, so no shadow call meets this
        d4 = rootsys.build("D", 4)
        gamma_mask = d4.mask_of([V(1, 1, 0, 0), V(1, -1, 0, 0), V(0, 0, 1, 1), V(0, 0, 1, -1)])
        assert shadow._close(d4, gamma_mask, bits(gamma_mask)) == gamma_mask
        e1_e3 = d4.root_index(V(1, 0, 1, 0))
        assert cone_member(d4.doubled_roots[e1_e3], [d4.doubled_roots[i] for i in bits(gamma_mask)]) is not None
        assert not self.certified(d4, gamma_mask) >> e1_e3 & 1
