import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_TYPES, V, neg
from ghckit import rootsys
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


@pytest.mark.parametrize("key", [("G", 2), ("F", 4), ("E", 8)])
def test_sum_table_matches_vector_sums(key):
    rs = rootsys.build(*key)
    n = len(rs.all_roots)
    # E8: the rows of the simple roots and of the eight highest roots
    rows = range(n) if n < 100 else [*range(8), *range(n // 2 - 8, n // 2)]
    for i in rows:
        for j, b in enumerate(rs.all_roots):
            s = vadd(rs.all_roots[i], b)
            assert rs.sum_table[i][j] == (rs.root_index(s) if rs.is_root(s) else -1)


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


def test_rank_cap(monkeypatch):
    with pytest.raises(InputError):
        rootsys.build("A", 9)
    monkeypatch.setenv("GHC_MAX_RANK", "9")
    assert len(rootsys.build("A", 9).all_roots) == 90


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
def test_weyl_dim_rejects_like_reference(key):
    rs = rootsys.build(*key)
    w = rs.fundamental_weights
    for lam in (vscale(-1, w[0]), vadd(w[0], vscale(-2, w[-1])), vscale(F(1, 3), w[-1]), w[0][:-1]):
        assert _error_text(rootsys.weyl_dim, rs, lam) == _error_text(reference_weyl_dim, rs, lam)


@pytest.mark.parametrize("key", ALL_TYPES)
def test_vector_order_sorts_like_the_vectors(key):
    rs = rootsys.build(*key)
    assert rs.vector_order == tuple(sorted(range(len(rs.all_roots)), key=rs.all_roots.__getitem__))


@pytest.mark.parametrize("key", ALL_TYPES)
def test_roots_of_builds_the_vector_set(key):
    rs = rootsys.build(*key)
    n = len(rs.all_roots)
    rng = random.Random(n)
    masks = [0, rs.full_mask, rs.positive_mask, rs.negated(rs.positive_mask)]
    masks += [rng.getrandbits(n) for _ in range(10)] + [1 << rng.randrange(n) for _ in range(3)]
    for mask in masks:
        got = rs.roots_of(mask)
        assert type(got) is frozenset
        assert got == frozenset(rs.all_roots[i] for i in rootsys.bits(mask))


@pytest.mark.parametrize("key", ALL_TYPES)
def test_sum_partners_are_the_root_entries_of_the_sum_table(key):
    rs = rootsys.build(*key)
    assert len(rs.sum_partners) == len(rs.sum_table)
    for i, (partners, row) in enumerate(zip(rs.sum_partners, rs.sum_table)):
        assert list(partners) == [(j, k) for j, k in enumerate(row) if k >= 0], i
        assert all(rs.sum_table[j][i] == k for j, k in partners)
