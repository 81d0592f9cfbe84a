import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_TYPES, VIEWS, V, neg, solve_linear, sum_table
from reference_rootsys import reference_construct
from ghckit import exact, fk, mathieu, principal, rootsys, shadow
from ghckit.errors import InputError, InternalError
from ghckit.exact import dot, vadd, vscale, vzero

F = Fraction

CLASSICAL_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20,
    ("B", 2): 8, ("B", 3): 18, ("C", 2): 8, ("C", 3): 18,
    ("D", 4): 24, ("D", 5): 40, ("G", 2): 12, ("F", 4): 48,
    ("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
}


@pytest.mark.parametrize("key,count", sorted(CLASSICAL_COUNTS.items()))
def test_root_counts(key, count):
    rs = rootsys.build(*key)
    assert len(rs.all_roots) == count
    assert len(rs.positive_roots) == count // 2


def test_json_digest_all_types():
    # pins roots, their canonical order, simple roots and Cartan matrices;
    # the digest was taken from the Fraction-arithmetic construction
    docs = [rootsys.build(*key).to_json() for key in ALL_TYPES]
    assert len(docs) == 34
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == "412f102203ccc672f8d9592552bfee5c57f73c4e07acd30664339ae8febc0a1a"


FIELDS = ["series", "rank", "ambient_dim", "cartan_matrix", "doubled_roots", "_coords", "_simple_doubled"]


@pytest.mark.parametrize("key", ALL_TYPES)
def test_copy_compares_and_hashes_by_integer_tables(key):
    # the fields are the integer tables: a copy of the cached system equals it and hashes as
    # it does, and neither the copy nor the comparison builds a view on either
    rs = rootsys.build(*key)
    assert list(rs._fields) == FIELDS
    before = [v for v in VIEWS if v in vars(rs)]
    copy = rs._replace()
    assert copy == rs and copy is not rs and hash(copy) == hash(rs)
    assert [v for v in VIEWS if v in vars(rs)] == before and not any(v in vars(copy) for v in VIEWS)
    # the copy builds its own views, equal to the cached system's
    assert all(getattr(copy, v) == getattr(rs, v) for v in VIEWS)


def _b3():
    # a copy of the cached system, so that the views a test builds stay off the cache
    return rootsys.build("B", 3)._replace()


def _infinite_a2():
    # A2 with one negative root, 32 = bit 5: of infinite type, so its verdict holds a witness
    a2 = rootsys.build("A", 2)._replace()
    return fk.theorem8_finite_type(a2, shadow.RootSubalgebra(a2, 32))


# (record class, a record of it, its fields, a view built on first use or None, whether it hashes)
RECORDS = [
    (rootsys.RootSystem, _b3, FIELDS, "all_roots", True),
    (shadow.RootSubalgebra, lambda: shadow.RootSubalgebra(_b3(), 1), ["rs", "mask"], "roots", True),
    (shadow.ShadowDecomposition, lambda: shadow.shadow(b3 := _b3(), shadow.RootSubalgebra(b3, 1)),
     ["rs", "i_mask", "f_mask", "plus_mask", "minus_mask", "gamma_mask"], "I", True),
    (fk.SingularWeightData, lambda: _infinite_a2().singular_g_mod_l, ["rs", "mask"], "singular_weights", True),
    (principal.PrincipalData, lambda: principal.PrincipalData.build(_b3()),
     ["rs", "h_row", "h_den", "exponents", "nbar_multiset", "nbar_kperp_multiset"], "h_element", False),
    (exact.ConeWitness, lambda: _infinite_a2().witness, ["coefficients_a", "coefficients_b", "point"], None, True),
    (fk.LeviDecomposition, lambda: fk.levi_decompose(shadow.RootSubalgebra(_b3(), 1)), ["k_roots", "n_roots"],
     None, True),
    (fk.FiniteTypeVerdict, _infinite_a2, ["finite_type", "witness", "singular_g_mod_l", "singular_n"], None, True),
    (principal.KTypeSeries, lambda: principal.ktype_series(pd := principal.PrincipalData.build(_b3()),
                                                           principal.find_nonintegral_weight(pd, 4), 3),
     ["lambda_h", "entries", "truncation"], None, False),
    (mathieu.CoherentFamilyDescriptor, lambda: mathieu.CoherentFamilyDescriptor.from_weight([F(5, 2), F(1, 2)]),
     ["rank", "representative", "degree"], None, True),
]


@pytest.mark.parametrize("cls,make,fields,view,hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, make, fields, view, hashable):
    # what dataclass(frozen=True) gave each record: its fields in order; _replace() gives an equal,
    # distinct record that holds nothing but its fields, so no view; a field cannot be assigned or
    # deleted; and equal records hash equal, where their fields hash
    rec = make()
    assert type(rec) is cls and list(rec._fields) == fields
    if view is not None:
        getattr(rec, view)
        assert view in vars(rec)
    copy = rec._replace()
    assert copy == rec and copy is not rec
    assert not set(getattr(copy, "__dict__", ())) - set(fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
    try:
        want = hash(rec)
    except TypeError:
        assert not hashable
    else:
        assert hashable and hash(copy) == want


def test_dot_rejects_rows_of_two_lengths():
    assert rootsys._dot((1, -2, 3), [4, 5, 6]) == 12 and rootsys._dot((), ()) == 0
    with pytest.raises(ValueError, match="^dot of rows of lengths 3 and 2$"):
        rootsys._dot((1, 2, 3), (1, 2))
    with pytest.raises(ValueError, match="^dot of rows of lengths 0 and 1$"):
        rootsys._dot((), (1,))


@pytest.mark.parametrize("key", ALL_TYPES + [("B", 1), ("C", 1)] + [(s, 12) for s in "ABCD"])
def test_construct_matches_reflection_closure(key):
    # the level-by-level build against the reflection closure it replaced, field for field
    built, want = rootsys._construct.__wrapped__(*key), reference_construct(*key)
    assert {f: getattr(built, f) for f in FIELDS} == {f: getattr(want, f) for f in FIELDS}


@pytest.mark.parametrize("key", [("A", 8), ("C", 8), ("E", 8), ("G", 2)])
def test_build_makes_no_fraction(key, monkeypatch):
    def no_fraction(*args):
        raise AssertionError("the build made a Fraction")

    monkeypatch.setattr(rootsys, "_F", no_fraction)
    monkeypatch.setattr(rootsys, "Fraction", no_fraction)
    rs = rootsys._construct.__wrapped__(*key)
    assert rs == rootsys.build(*key) and not any(v in vars(rs) for v in VIEWS)


@pytest.mark.parametrize("key", [("G", 2), ("F", 4), ("E", 8)])
def test_sum_table_matches_vector_sums(key):
    # the library's root-sum table is sum_partners: row i holds every (j, k) with a_i + a_j = a_k
    rs = rootsys.build(*key)
    n = len(rs.all_roots)
    # E8: the rows of the simple roots and of the eight highest roots
    rows = range(n) if n < 100 else [*range(8), *range(n // 2 - 8, n // 2)]
    for i in rows:
        row = dict(rs.sum_partners[i])
        for j, b in enumerate(rs.all_roots):
            s = vadd(rs.all_roots[i], b)
            assert row.get(j, -1) == (rs.root_index(s) if rs.is_root(s) else -1)


def reference_validate(series, rank):
    """build's accept-or-reject answer as it was before the one table of simple types."""
    ok = (
        (series == "A" and rank >= 1)
        or (series == "B" and rank >= 1)
        or (series == "C" and rank >= 1)
        or (series == "D" and rank >= 2)
        or (series == "E" and rank in (6, 7, 8))
        or (series == "F" and rank == 4)
        or (series == "G" and rank == 2)
    )
    if not ok:
        return f"invalid simple type ({series},{rank})"
    if rank > rootsys.max_rank():
        return f"rank {rank} exceeds the configured bound {rootsys.max_rank()}"
    return None


def test_build_accepts_what_the_reference_accepts():
    for series in [*"ABCDEFG", "", "AB", "a", None, ["A"]]:
        for rank in range(10):
            want = reference_validate(series, rank)
            try:
                rs = rootsys.build(series, rank)
            except InputError as e:
                assert str(e) == want, (series, rank)
            else:
                assert want is None, (series, rank)
                assert len(rs.all_roots) == rootsys.root_count(series, rank)


def test_invalid_types():
    for series, rank in [("A", 0), ("D", 1), ("E", 5), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(InputError):
            rootsys.build(series, rank)


@pytest.mark.parametrize("rank", [True, False, 3.0, 1.0, "x", None])
def test_rank_is_read_before_the_cache(rank):
    # the build cache keys True as 1 and 3.0 as 3: once A1 and A3 were built, such a
    # rank was answered from it, and True came back as the rank of a system
    rootsys.build("A", 1), rootsys.build("A", 3)
    with pytest.raises(InputError, match="^expected an integer, got "):
        rootsys.build("A", rank)
    assert type(rootsys.build("A", 1).rank) is int and rootsys.build("A", 1).to_json()["rank"] == 1


def test_rank_text_is_read_by_the_integer_rule():
    assert rootsys.build("A", "3") is rootsys.build("A", 3)
    with pytest.raises(InputError, match="^expected an integer, got '0_3'$"):
        rootsys.build("A", "0_3")


def test_rank_cap(monkeypatch):
    with pytest.raises(InputError):
        rootsys.build("A", 9)
    monkeypatch.setenv("GHC_MAX_RANK", "9")
    assert len(rootsys.build("A", 9).all_roots) == 90


@pytest.mark.parametrize("value, match", [("1_0", "must be an integer, got '1_0'"), ("-5", "-5 is negative"), ("-1", "-1 is negative")])
def test_rank_cap_malformed(monkeypatch, value, match):
    # the CLI's integer rule: int reads "1_0" as 10; and a negative cap bounds nothing
    monkeypatch.setenv("GHC_MAX_RANK", value)
    with pytest.raises(InputError, match="^GHC_MAX_RANK " + match):
        rootsys.build("A", 1)


def test_rank_cap_ceiling(monkeypatch):
    monkeypatch.setenv("GHC_MAX_RANK", str(rootsys.MAX_RANK_CEILING))
    assert len(rootsys.build("A", 9).all_roots) == 90
    monkeypatch.setenv("GHC_MAX_RANK", str(rootsys.MAX_RANK_CEILING + 1))
    with pytest.raises(InputError, match="ceiling"):
        rootsys.build("A", 2)


def test_c2_positive_roots(c2):
    assert set(c2.positive_roots) == {V(1, -1), V(0, 2), V(1, 1), V(2, 0)}


def test_delta_symmetric(a3, c2):
    for rs in (a3, c2):
        roots = set(rs.all_roots)
        assert roots == {neg(r) for r in roots}


def test_cartan_matrix_integral(a3, c2):
    for rs in (a3, c2, rootsys.build("G", 2)):
        for a in rs.all_roots:
            for b in rs.all_roots:
                assert rs.pairing(a, b).denominator == 1


def test_positive_roots_have_nonneg_simple_coords(a3):
    for r in a3.positive_roots:
        assert all(c >= 0 for c in a3.simple_coordinates(r))


class TestHeight:
    def test_a2_simple(self, a2):
        assert a2.height(V(1, -1, 0)) == 1
        assert a2.height(V(1, 0, -1)) == 2
        assert a2.height(V(-1, 0, 1)) == -2

    def test_c2_long_root(self, c2):
        assert c2.height(V(2, 0)) == 3

    def test_non_root_rejected(self, a2):
        with pytest.raises(InputError):
            a2.height(V(2, -2, 0))


class TestWeylDim:
    def test_sl2_defining(self, a1):
        assert rootsys.weyl_dim(a1, a1.fundamental_weights[0]) == 2

    def test_sl3_adjoint(self, a2):
        lam = tuple(x + y for x, y in zip(a2.fundamental_weights[0], a2.fundamental_weights[1]))
        assert rootsys.weyl_dim(a2, lam) == 8

    def test_d2_half_integral(self):
        d2 = rootsys.build("D", 2)
        assert rootsys.weyl_dim(d2, V(F(5, 2), F(3, 2))) == 10

    def test_zero_weight(self):
        for key in [("A", 2), ("C", 3), ("G", 2), ("F", 4)]:
            rs = rootsys.build(*key)
            assert rootsys.weyl_dim(rs, (F(0),) * rs.ambient_dim) == 1

    def test_c2_adjoint_dim(self, c2):
        # highest root 2e1 is the adjoint highest weight; dim sp(4) = 10
        assert rootsys.weyl_dim(c2, V(2, 0)) == 10

    def test_non_dominant_rejected(self, a2):
        with pytest.raises(InputError):
            rootsys.weyl_dim(a2, V(-1, 1, 0))


class TestWeightPredicates:
    def test_a2_fundamental(self, a2):
        w = a2.fundamental_weights[0]
        assert rootsys.is_integral(a2, w)
        assert rootsys.is_dominant(a2, w)
        half = tuple(c / 2 for c in w)
        assert not rootsys.is_integral(a2, half)

    def test_c2_half_integer(self, c2):
        lam = V(F(3, 2), F(1, 2))
        # pairing 1 on the short simple root but 1/2 on the long one
        assert c2.pairing(lam, V(1, -1)) == 1
        assert c2.pairing(lam, V(0, 2)) == F(1, 2)
        assert not rootsys.is_integral(c2, lam)

    def test_regular_integral(self, a1, a2):
        zero = (F(0), F(0))
        assert rootsys.is_regular_integral(a1, zero)
        assert not rootsys.is_regular_integral(a1, tuple(-c for c in a1.rho()))
        half = tuple(c / 2 for c in a2.fundamental_weights[0])
        assert not rootsys.is_regular_integral(a2, half)


class TestHeightDistribution:
    def test_tables(self, a2, a3, c2):
        assert rootsys.height_distribution(a2) == {1: 2, 2: 1}
        assert rootsys.height_distribution(c2) == {1: 2, 2: 1, 3: 1}
        assert rootsys.height_distribution(a3) == {1: 3, 2: 2, 3: 1}

    def test_total_is_positive_count(self):
        for key in [("B", 3), ("D", 4), ("G", 2), ("F", 4)]:
            rs = rootsys.build(*key)
            assert sum(rootsys.height_distribution(rs).values()) == len(rs.positive_roots)


def test_json_surface(c2):
    doc = c2.to_json()
    assert doc["series"] == "C" and doc["rank"] == 2
    assert ["1", "-1"] in doc["roots"]
    assert len(doc["roots"]) == 8


# ---------------------------------------------------------------------------
# differential tests: the integer weight kernel against the Fraction code it
# replaced, kept here unchanged as the reference (rho summed afresh each call)


def reference_rho(rs):
    half = reduce(vadd, rs.positive_roots, vzero(rs.ambient_dim))
    return vscale(F(1, 2), half)


def reference_is_regular_integral(rs, lam):
    shifted = vadd(lam, reference_rho(rs))
    for a in rs.positive_roots:
        p = rs.pairing(shifted, a)
        if p == 0 or p.denominator != 1:
            return False
    return True


def reference_weyl_dim(rs, lam):
    if len(lam) != rs.ambient_dim:
        raise InputError("weight dimension does not match the ambient space")
    for a in rs.simple_roots:
        p = rs.pairing(lam, a)
        if p < 0 or p.denominator != 1:
            raise InputError(f"weight is not dominant integral: pairing {p} on {a}")
    rho = reference_rho(rs)
    num = F(1)
    for a in rs.positive_roots:
        num *= dot(vadd(lam, rho), a) / dot(rho, a)
    if num.denominator != 1 or num <= 0:
        raise InternalError(f"Weyl product gave a non-positive-integer value {num}")
    return int(num)


def _combination(rs, coeffs):
    lam = vzero(rs.ambient_dim)
    for c, w in zip(coeffs, rs.fundamental_weights):
        lam = vadd(lam, vscale(c, w))
    return lam


def _error_text(fn, *args):
    with pytest.raises(InputError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("key", ALL_TYPES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_weyl_dim_matches_reference(key, data):
    rs = rootsys.build(*key)
    coeffs = data.draw(st.lists(st.integers(0, 4), min_size=rs.rank, max_size=rs.rank))
    lam = _combination(rs, coeffs)
    assert rootsys.weyl_dim(rs, lam) == reference_weyl_dim(rs, lam)


@pytest.mark.parametrize("key", ALL_TYPES)
def test_weight_tables_match_reference(key):
    rs = rootsys.build(*key)
    assert rs.rho() == reference_rho(rs)
    assert rs.doubled_roots == tuple(tuple(int(2 * x) for x in a) for a in rs.all_roots)
    for a, d in zip(rs.positive_roots, rs.coroot_coords):
        coroot = reduce(vadd, (vscale(c, rs.coroot(s)) for c, s in zip(d, rs.simple_roots)))
        assert coroot == rs.coroot(a)
    heights = Counter(rs.height(a) for a in rs.positive_roots)
    assert list(rootsys.height_distribution(rs).items()) == sorted(heights.items())
    # the weight predicates agree with the Fraction pairings, and with the
    # reference on weights around -rho
    w = rs.fundamental_weights
    for lam in (w[0], vscale(F(1, 2), w[-1]), vscale(-1, reference_rho(rs)), vadd(w[0], vscale(-2, w[-1]))):
        pairings = [rs.pairing(lam, a) for a in rs.simple_roots]
        assert rootsys.is_integral(rs, lam) == all(p.denominator == 1 for p in pairings)
        assert rootsys.is_dominant(rs, lam) == all(p >= 0 for p in pairings)
        assert rootsys.is_regular_integral(rs, lam) == reference_is_regular_integral(rs, lam)


@pytest.mark.parametrize("key", ALL_TYPES)
def test_coroot_chain_covers_the_positive_coroots(key):
    """Each chain entry is an earlier positive coroot plus one simple coroot, by their
    coordinates over the simple coroots, and the chain reaches every positive coroot
    once, in order of coroot height."""
    rs = rootsys.build(*key)
    r = rs.rank
    coords = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    for p, j in rs.coroot_chain:
        assert 0 <= p < len(coords) and 0 <= j < r
        coords.append(tuple(c + (i == j) for i, c in enumerate(coords[p])))
    assert len(set(coords)) == len(coords) == len(rs.coroot_coords)
    assert set(coords) == set(rs.coroot_coords)
    heights = [sum(c) for c in coords]
    assert heights == sorted(heights)
    # prod <rho, b^vee>: the coroot heights, and the Fraction pairings of the reference rho
    rho = reference_rho(rs)
    assert rs.rho_product == reduce(mul, heights) == reduce(mul, (rs.pairing(rho, a) for a in rs.positive_roots))


def test_coroot_order_is_not_root_order(c2):
    # the root a1 + a2 (a1 short) comes before 2a1 + a2, but its coroot a1^vee + 2a2^vee
    # comes after a1^vee + a2^vee, the coroot of 2a1 + a2
    assert [sum(c) for c in c2.coroot_coords] == [1, 1, 3, 2]
    assert c2.coroot_chain == ((1, 0), (2, 1))


@pytest.mark.parametrize("key", ALL_TYPES)
def test_weyl_dim_of_rho(key):
    # prod <2 rho, b^vee> / <rho, b^vee> over the positive coroots
    rs = rootsys.build(*key)
    assert rootsys.weyl_dim(rs, rs.rho()) == 2 ** len(rs.positive_roots)


@pytest.mark.parametrize("key", [k for k in ALL_TYPES if k[0] in "ABCD"])
def test_weyl_dim_of_the_first_fundamental_weight(key):
    # the standard module: n + 1 for A_n, 2n + 1 for B_n and 2n for C_n and D_n; on
    # D2 = A1 x A1, w_1 = (1/2, -1/2) is a spin weight, of dimension 2
    series, n = key
    rs = rootsys.build(*key)
    standard = {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n if n > 2 else 2}[series]
    assert rootsys.weyl_dim(rs, rs.fundamental_weights[0]) == standard


@pytest.mark.parametrize("key", ALL_TYPES)
def test_fundamental_weights_match_reference(key):
    """<w_i, a_j^vee> = delta_ij, and w_i is the simple-root combination x with
    x C = e_i that the Fraction reference solver gives on the Cartan matrix C."""
    rs = rootsys.build(*key)
    columns = list(zip(*rs.cartan_matrix))
    for i, w in enumerate(rs.fundamental_weights):
        unit = [int(j == i) for j in range(rs.rank)]
        assert all(type(x) is F for x in w)
        assert [rs.pairing(w, a) for a in rs.simple_roots] == unit
        x = solve_linear(columns, unit)
        assert w == reduce(vadd, (vscale(c, a) for c, a in zip(x, rs.simple_roots)))


@pytest.mark.parametrize("key", ALL_TYPES)
def test_weyl_dim_rejects_like_reference(key):
    rs = rootsys.build(*key)
    w = rs.fundamental_weights
    for lam in (vscale(-1, w[0]), vadd(w[0], vscale(-2, w[-1])), vscale(F(1, 3), w[-1]), w[0][:-1]):
        assert _error_text(rootsys.weyl_dim, rs, lam) == _error_text(reference_weyl_dim, rs, lam)


@pytest.mark.parametrize("key", [("A", n) for n in range(1, 9)])
def test_vector_order_sorts_like_the_vectors(key):
    # fk._type_a_roots lists the roots as the root vectors sort: that order is the column
    # order of the Theorem 8 LP, on which the census witness bytes depend
    rs = rootsys.build(*key)
    order = [i for i, _, _ in fk._type_a_roots(rs)]
    assert order == sorted(range(len(rs.all_roots)), key=rs.all_roots.__getitem__)


@pytest.mark.parametrize("key", ALL_TYPES)
def test_roots_of_builds_the_vector_set(key):
    rs = rootsys.build(*key)
    n = len(rs.all_roots)
    rng = random.Random(n)
    masks = [0, rs.full_mask, rs.positive_mask, rs.negated(rs.positive_mask)]
    masks += [rng.getrandbits(n) for _ in range(10)] + [1 << rng.randrange(n) for _ in range(3)]
    # masks whose highest root lies in the last chunk of four or of six, a partial one unless 4
    # or 6 divides n, masks that straddle each six-root chunk boundary, and sparse masks, which
    # leave whole chunks empty
    masks.append(1 << n - 1)
    for width in (4, 6):
        last = width * ((n - 1) // width)
        masks += [rs.full_mask >> last << last, rs.full_mask & ~(1 << last)]
    masks += [3 << c - 1 for c in range(6, n, 6)]
    masks += [1 << n - 1 | rng.getrandbits(n - 1) for _ in range(5)]
    masks += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(5)]
    for mask in masks:
        got = rs.roots_of(mask)
        assert type(got) is frozenset
        assert got == frozenset(rs.all_roots[i] for i in rootsys.bits(mask))


@pytest.mark.parametrize("mask", [1 << 6, -1, 1 << 40])
def test_roots_of_rejects_a_mask_out_of_range(a2, mask):
    with pytest.raises(InputError, match=f"root mask {mask} is out of range for A2"):
        a2.roots_of(mask)


def test_bits_match_the_bitwise_definition():
    def naive(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    full = rootsys.build("E", 8).full_mask
    rng = random.Random(240)
    masks = [0, 1, 1 << 239, 1 << 63, 1 << 64, full, full >> 1, full & ~1]
    masks += [rng.getrandbits(240) & rng.getrandbits(240) & rng.getrandbits(240) for _ in range(20)]
    masks += [rng.getrandbits(240) | rng.getrandbits(240) | rng.getrandbits(240) for _ in range(20)]
    masks += [rng.getrandbits(rng.randrange(1, 240)) for _ in range(20)]
    for mask in masks:
        assert rootsys.bits(mask) == naive(mask), mask
    assert rootsys.bits(full) == list(range(240))


@pytest.mark.parametrize("key", ALL_TYPES)
def test_sum_partners_are_the_root_entries_of_the_sum_table(key):
    # the sum table is the reference one of conftest, from the root vectors
    rs = rootsys.build(*key)
    want = tuple(tuple((j, k) for j, k in enumerate(row) if k >= 0) for row in sum_table(rs))
    assert rs.sum_partners == want


@pytest.mark.parametrize("key", [("G", 2), ("F", 4), ("E", 8)])
def test_sums_are_the_image_of_the_sum_table(key):
    # sums(a, b) against every entry of the conftest table whose row is in a and column in b
    rs = rootsys.build(*key)
    table, n, full = sum_table(rs), len(rs.all_roots), rs.full_mask
    rng = random.Random(n)
    pos, negs = rs.positive_mask, rs.negated(rs.positive_mask)
    pairs = [(0, 0), (0, full), (full, 0), (full, full), (pos, pos), (pos, negs), (negs, full)]
    # seeded dense, sparse and one-root masks on either side, and some pairs both ways round
    dense = [rng.getrandbits(n) for _ in range(4)]
    sparse = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(4)]
    single = [1 << rng.randrange(n) for _ in range(4)]
    pairs += [*zip(dense, sparse), *zip(sparse, single), *zip(single, dense), *zip(dense[:2], dense[2:])]
    pairs += [(b, a) for a, b in pairs[-6:]]
    for a, b in pairs:
        want = 0
        for i in rootsys.bits(a):
            for j in rootsys.bits(b):
                if table[i][j] >= 0:
                    want |= 1 << table[i][j]
        assert rs.sums(a, b) == want, (a, b)
