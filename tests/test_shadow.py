import functools
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_TYPES, V, mask_closure, neg, seeded_closures, sum_table
from ghckit import fk, rootsys, shadow
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

    def test_mask_out_of_range_rejected(self, a2):
        for mask in (-1, a2.full_mask + 1, 1 << 64):
            with pytest.raises(InputError, match="out of range"):
                RootSubalgebra(a2, mask)

    @pytest.mark.parametrize("index", [-1, 6])
    def test_index_out_of_range_rejected(self, a2, index):
        # A2 has 6 roots, so 6 is the first index past them
        with pytest.raises(InputError, match=f"^root index {index} out of range$"):
            a2.index_mask([index])

    @pytest.mark.parametrize("index", [1.7, True], ids=["float", "bool"])
    def test_index_that_is_not_an_integer_rejected(self, a2, index):
        # int() would read both as root 1
        with pytest.raises(InputError, match=f"root index {index!r} is not an integer"):
            RootSubalgebra.from_indices(a2, [index])


# a root subset or subalgebra that is no collection, one text, a root that cannot be hashed, or
# no subalgebra, at each entry point: an input error, not a TypeError or an AttributeError, a
# bool is no mask, and "12" is not the indices 1 and 2
MALFORMED = [
    ("RootSubalgebra-None", lambda rs: RootSubalgebra(rs, None)),
    ("RootSubalgebra-True", lambda rs: RootSubalgebra(rs, True)),
    ("RootSubalgebra-False", lambda rs: RootSubalgebra(rs, False)),
    ("from_indices-5", lambda rs: RootSubalgebra.from_indices(rs, 5)),
    ("from_indices-text", lambda rs: RootSubalgebra.from_indices(rs, "12")),
    ("RootSubalgebra-list-root", lambda rs: RootSubalgebra(rs, [[1, -1, 0]])),
    ("mask_of-5", lambda rs: rs.mask_of(5)),
    ("index_mask-None", lambda rs: rs.index_mask(None)),
    ("is_closed-5", lambda rs: shadow.is_closed(rs, 5)),
    ("shadow-5", lambda rs: shadow.shadow(rs, 5)),
    ("shadow-roots", lambda rs: shadow.shadow(rs, frozenset(rs.positive_roots))),
    ("theorem8_finite_type-5", lambda rs: fk.theorem8_finite_type(rs, 5)),
    ("theorem6_solvable_finite_type-5", lambda rs: fk.theorem6_solvable_finite_type(rs, 5)),
]


@pytest.mark.parametrize("call", [c for _, c in MALFORMED], ids=[name for name, _ in MALFORMED])
def test_a_malformed_subset_is_an_input_error(a2, call):
    with pytest.raises(InputError):
        call(a2)


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
        copy = b3._replace()
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


@functools.cache
def decompositions(key):
    """(mask, shadow decomposition) for every closed subset of a type, in closed_masks order."""
    rs = rootsys.build(*key)
    return [(m, shadow.shadow(rs, RootSubalgebra(rs, m))) for m in shadow.closed_masks(rs)]


@pytest.fixture(scope="module", autouse=True)
def _free_decompositions():
    # the cache holds thousands of decompositions; free them once this module is done
    yield
    decompositions.cache_clear()


# every closed subset of these is decomposed; the non-simply-laced ones are those of the shadow bench
EXHAUSTIVE = [("A", 2), ("C", 2), ("G", 2), ("B", 3), ("C", 3)]


def _type_id(key):
    return f"{key[0].lower()}{key[1]}"


def reference_closed_masks(rs):
    n = len(rs.all_roots)
    # (next root to decide, chosen, excluded); the exclude branch is pushed last, so it is popped first
    stack = [(0, 0, 0)]
    while stack:
        i, chosen, excluded = stack.pop()
        while i < n and chosen >> i & 1:
            i += 1
        if i == n:
            yield chosen
            continue
        c = shadow._close(rs, chosen | 1 << i, [i])
        if not c & excluded:
            stack.append((i + 1, c, excluded))
        stack.append((i + 1, chosen, excluded | 1 << i))


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

    def test_bound_holds_exactly_max_support_points(self, a1):
        # the A1 Cartan at radius 2 shifts each base point by 0, ±a and ±2a: 5 points each,
        # distinct over base points (k, k), so 4,000 of them reach the bound exactly
        sd = shadow.shadow(a1, make(a1, []))
        base = [V(k, k) for k in range(shadow.MAX_SUPPORT_POINTS // 5 + 1)]
        assert len(support_shape(sd, base[:-1], 2)) == shadow.MAX_SUPPORT_POINTS
        with pytest.raises(InputError, match="exceeds"):
            support_shape(sd, base, 2)

    @pytest.mark.parametrize("radius", [-1, True, 1.0, 1.5])
    def test_radius_must_be_a_nonnegative_integer(self, a1, radius):
        sd = shadow.shadow(a1, make(a1, []))
        with pytest.raises(InputError, match="nonnegative|expected an integer"):
            support_shape(sd, (V(0, 0),), radius)

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

    @pytest.mark.parametrize("key", [k for k in ALL_TYPES if rootsys.root_count(*k) <= 24], ids=_type_id)
    def test_walk_matches_the_full_closure_dfs(self, key):
        # every mask, in order, against the depth-first search with a stack entry per branch that
        # closes each include branch in full and prunes it iff the closure meets the excluded roots
        rs = rootsys.build(*key)
        assert list(shadow.closed_masks(rs)) == list(reference_closed_masks(rs))

    def test_json_round_trip(self, a2):
        sub = make(a2, [V(1, -1, 0), neg(V(1, -1, 0))])
        sd = shadow.shadow(a2, sub)
        doc = sd.to_json()
        back = {k: frozenset(a2.all_roots[i] for i in doc[k]) for k in ("I", "F", "plus", "minus")}
        assert back == {"I": sd.I, "F": sd.F, "plus": sd.plus, "minus": sd.minus}


class TestCloseFromOutside:
    """shadow's closure kernel against the queue walk of closed_masks."""

    @pytest.mark.parametrize("key", [("G", 2), ("B", 3), ("C", 3)], ids=_type_id)
    def test_every_gamma(self, key):
        # Gamma, the complement of a closed subset, is what shadow closes
        rs = rootsys.build(*key)
        for mask, _ in decompositions(key):
            gamma_mask = rs.full_mask & ~mask
            assert shadow._close_from_outside(rs, gamma_mask) == shadow._close(rs, gamma_mask, bits(gamma_mask)), bits(mask)

    @pytest.mark.parametrize("key", ALL_TYPES, ids=_type_id)
    def test_random_masks(self, key):
        # masks closed or not, sparse to dense
        rs = rootsys.build(*key)
        n = len(rs.all_roots)
        rng = random.Random(n)
        masks = [0, rs.full_mask, rs.positive_mask]
        masks += [rs.index_mask(i for i in range(n) if rng.random() < p) for p in (0.05, 0.2, 0.5, 0.8, 0.95)]
        masks += [mask_closure(rs, rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n))]
        for mask in masks:
            assert shadow._close_from_outside(rs, mask) == shadow._close(rs, mask, bits(mask)), bits(mask)


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


def reference_closed(rs, mask):
    """Whether every pair of members sums to a member or to no root, by the reference sum table."""
    table = sum_table(rs)
    return all(table[i][j] < 0 or mask >> table[i][j] & 1 for i in bits(mask) for j in bits(mask))


class TestClosedMask:
    @pytest.mark.parametrize(
        "key", [("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6), ("B", 8), ("E", 8)], ids=_type_id
    )
    def test_matches_pairwise_sums(self, key):
        # every pair of members against the reference sum table, on masks closed or not;
        # E6, B8 and E8 give the member walk masks of 72, 128 and 240 bits
        rs = rootsys.build(*key)
        n = len(rs.all_roots)
        rng = random.Random(3)
        masks = [mask_closure(rs, rs.index_mask(rng.sample(range(n), rng.randint(1, 4)))) for _ in range(30)]
        masks += [rs.index_mask(i for i in range(n) if rng.random() < p) for p in (0.05, 0.1, 0.2, 0.5, 0.9) * 10]
        outcomes = set()
        for mask in masks:
            want = reference_closed(rs, mask)
            assert shadow.closed_mask(rs, mask) == want, (key, bits(mask))
            outcomes.add(want)
        assert outcomes == {False, True}


class TestClosureAgreesWithLP:
    @pytest.mark.parametrize("key", [("G", 2), ("B", 3), ("C", 3)], ids=_type_id)
    def test_every_closed_subset(self, key):
        rs = rootsys.build(*key)
        for mask, sd in decompositions(key):
            _assert_matches_lp_reference(rs, mask, sd)

    @pytest.mark.parametrize("key", [("D", 4), ("F", 4), ("A", 4)], ids=_type_id)
    def test_seeded_closures(self, key):
        rs = rootsys.build(*key)
        for mask in seeded_closures(rs):
            _assert_matches_lp_reference(rs, mask, shadow.shadow(rs, RootSubalgebra(rs, mask)))

    @given(st.data())
    @settings(deadline=None, max_examples=100)
    def test_random_closed_subsets(self, data):
        # the closure of Gamma alone against one LP per root of S, past the types above
        rs = rootsys.build(*data.draw(st.sampled_from([("B", 4), ("C", 4), ("D", 5)])))
        seed = data.draw(st.lists(st.integers(0, len(rs.all_roots) - 1), max_size=6))
        mask = mask_closure(rs, rs.index_mask(seed))
        assert shadow._close_from_outside(rs, rs.full_mask & ~mask) == reference_inside(rs, mask)


def _assert_proof_steps(rs, mask):
    """Step A of shadow's proof, T = the roots outside Gamma-bar is closed, and Step B's
    parabolic P = Gamma-bar + T^s, on which phi = sum of Gamma-bar^u is 0 on the Levi part
    and > 0 on the nilradical; closure and closedness come from the reference sum table."""
    closure = mask_closure(rs, rs.full_mask & ~mask)
    t = rs.full_mask & ~closure
    assert not t & ~mask and reference_closed(rs, t), (rs.series, rs.rank, bits(mask))
    t_sym, b_sym = t & rs.negated(t), closure & rs.negated(closure)
    p = closure | t_sym
    assert reference_closed(rs, p) and p | rs.negated(p) == rs.full_mask
    phi = [sum(col) for col in zip(*[rs.doubled_roots[i] for i in bits(closure & ~b_sym)])]
    values = {i: sum(map(mul, phi, rs.doubled_roots[i])) for i in range(len(rs.all_roots))}
    assert all(values[i] == 0 for i in bits(b_sym | t_sym))
    assert all(values[i] > 0 for i in bits(closure & ~b_sym))


class TestProofSteps:
    @pytest.mark.parametrize("key", [("G", 2), ("B", 3), ("C", 3)], ids=_type_id)
    def test_every_closed_subset(self, key):
        rs = rootsys.build(*key)
        for mask, _ in decompositions(key):
            _assert_proof_steps(rs, mask)

    @pytest.mark.parametrize("key", [("D", 4), ("F", 4), ("A", 4)], ids=_type_id)
    def test_seeded_closures(self, key):
        rs = rootsys.build(*key)
        for mask in seeded_closures(rs):
            _assert_proof_steps(rs, mask)

    def test_self_closed_gamma_with_a_cone_member_outside(self):
        # the proof needs the complement of Gamma closed: Gamma = {e1 +- e2, e3 +- e4} in D4
        # is its own additive closure, yet e1 + e3 is in its cone, and the complement of
        # Gamma is not closed, so no shadow call meets this
        d4 = rootsys.build("D", 4)
        gamma_mask = d4.mask_of([V(1, 1, 0, 0), V(1, -1, 0, 0), V(0, 0, 1, 1), V(0, 0, 1, -1)])
        assert shadow._close(d4, gamma_mask, bits(gamma_mask)) == gamma_mask
        assert not shadow.closed_mask(d4, d4.full_mask & ~gamma_mask)
        gamma = [d4.doubled_roots[i] for i in bits(gamma_mask)]
        coefficients = cone_member(d4.doubled_roots[d4.root_index(V(1, 0, 1, 0))], gamma)
        assert coefficients is not None and min(coefficients) >= 0
        assert [sum(c * g[j] for c, g in zip(coefficients, gamma)) for j in range(4)] == [2, 0, 2, 0]
