import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from ghckit import principal, rootsys
from ghckit.errors import InputError, InternalError
from ghckit.exact import dot, nullspace, solve_linear, vadd, vscale, vzero
from ghckit.principal import (
    PrincipalData,
    _partition_table,
    _table_entry,
    a1_multiplicity,
    euler_rhs,
    exponents,
    partition_P,
)

F = Fraction

CLASSICAL_EXPONENTS = {
    ("A", 1): [1], ("A", 2): [1, 2], ("A", 3): [1, 2, 3], ("A", 4): [1, 2, 3, 4],
    ("A", 5): [1, 2, 3, 4, 5], ("A", 6): [1, 2, 3, 4, 5, 6], ("A", 7): [1, 2, 3, 4, 5, 6, 7],
    ("A", 8): [1, 2, 3, 4, 5, 6, 7, 8],
    ("B", 2): [1, 3], ("B", 3): [1, 3, 5], ("B", 4): [1, 3, 5, 7],
    ("B", 5): [1, 3, 5, 7, 9], ("B", 6): [1, 3, 5, 7, 9, 11],
    ("B", 7): [1, 3, 5, 7, 9, 11, 13], ("B", 8): [1, 3, 5, 7, 9, 11, 13, 15],
    ("C", 2): [1, 3], ("C", 3): [1, 3, 5], ("C", 4): [1, 3, 5, 7],
    ("C", 5): [1, 3, 5, 7, 9], ("C", 6): [1, 3, 5, 7, 9, 11],
    ("C", 7): [1, 3, 5, 7, 9, 11, 13], ("C", 8): [1, 3, 5, 7, 9, 11, 13, 15],
    ("D", 2): [1, 1], ("D", 3): [1, 2, 3], ("D", 4): [1, 3, 3, 5],
    ("D", 5): [1, 3, 4, 5, 7], ("D", 6): [1, 3, 5, 5, 7, 9],
    ("D", 7): [1, 3, 5, 6, 7, 9, 11], ("D", 8): [1, 3, 5, 7, 7, 9, 11, 13],
    ("G", 2): [1, 5], ("F", 4): [1, 5, 7, 11],
    ("E", 6): [1, 4, 5, 7, 8, 11], ("E", 7): [1, 5, 7, 9, 11, 13, 17],
    ("E", 8): [1, 7, 11, 13, 17, 19, 23, 29],
}

RANK23 = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("G", 2)]


@pytest.mark.parametrize("key", sorted(CLASSICAL_EXPONENTS))
def test_exponents_table(key):
    rs = rootsys.build(*key)
    assert exponents(rs) == CLASSICAL_EXPONENTS[key]


@pytest.mark.parametrize("key", sorted(CLASSICAL_EXPONENTS))
def test_dimension_bookkeeping(key):
    rs = rootsys.build(*key)
    assert sum(2 * e + 1 for e in exponents(rs)) == len(rs.all_roots) + rs.rank


RANK2_TYPES = sorted(
    [("A", n) for n in range(2, 9)]
    + [(s, n) for s in "BCD" for n in range(2, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def reference_principal_h(rs):
    # the solve-based construction that the closed form 2 rho^vee replaced
    rank = rs.rank
    rows = [[dot(a, b) for b in rs.simple_roots] for a in rs.simple_roots]
    sol = solve_linear(rows, [Fraction(2)] * rank)
    if sol is None:
        raise InternalError("simple roots are linearly dependent")
    h = vzero(rs.ambient_dim)
    for c, a in zip(sol, rs.simple_roots):
        h = vadd(h, vscale(c, a))
    for a in rs.all_roots:
        if dot(a, h) != 2 * rs.height(a):
            raise InternalError("h does not pair with roots by twice the height")
    return h


@pytest.mark.parametrize("key", RANK2_TYPES)
def test_principal_h_matches_reference(key):
    rs = rootsys.build(*key)
    assert principal.principal_h(rs) == reference_principal_h(rs)


def reference_find_nonintegral_weight(pd, target):
    # the nullspace-based search that the a_j - a_0 directions replaced
    rs, h, t = pd.rs, pd.h_element, Fraction(target)
    base = vscale(t / dot(h, h), h)
    if not rootsys.is_integral(rs, base):
        return base
    for c in nullspace([tuple(dot(h, a) for a in rs.simple_roots)]):
        w = vzero(rs.ambient_dim)
        for ci, ai in zip(c, rs.simple_roots):
            w = vadd(w, vscale(ci, ai))
        for den in (3, 5, 7, 11, 13):
            lam = vadd(base, vscale(Fraction(1, den), w))
            if not rootsys.is_integral(rs, lam):
                return lam
    raise InternalError("could not find a non-integral weight with the requested h-value")


@pytest.mark.parametrize("key", RANK2_TYPES)
def test_find_nonintegral_weight_matches_reference(key):
    pd = _pd(*key)
    hh = dot(pd.h_element, pd.h_element)
    # h is integral in most types, so the targets (h, h) and its multiples take the perturbation path
    for target in (2, 5, F(7, 2), hh, 2 * hh, -hh):
        assert principal.find_nonintegral_weight(pd, target) == reference_find_nonintegral_weight(pd, target)


@pytest.mark.parametrize("key", RANK2_TYPES)
def test_nbar_counts_twice_the_heights(key):
    pd = _pd(*key)
    assert pd.nbar_multiset == dict(sorted(Counter(2 * pd.rs.height(a) for a in pd.rs.positive_roots).items()))


class TestPrincipalH:
    def test_a1_pairing(self, a1):
        h = principal.principal_h(a1)
        from ghckit.exact import dot

        assert dot(a1.simple_roots[0], h) == 2

    def test_a2_eigenvalues(self, a2):
        from ghckit.exact import dot

        h = principal.principal_h(a2)
        assert sorted(dot(a, h) for a in a2.all_roots) == [-4, -2, -2, 2, 2, 4]

    def test_c2_eigenvalues(self, c2):
        from ghckit.exact import dot

        h = principal.principal_h(c2)
        assert sorted(dot(a, h) for a in c2.positive_roots) == [2, 2, 4, 6]


class TestPrincipalData:
    def test_rank_one_rejected(self, a1):
        with pytest.raises(InputError):
            PrincipalData.build(a1)

    def test_a2_multisets(self, a2):
        pd = PrincipalData.build(a2)
        assert pd.nbar_multiset == {2: 2, 4: 1}
        assert pd.nbar_kperp_multiset == {2: 1, 4: 1}

    def test_kperp_removes_one_eigenvalue_two(self):
        for key in RANK23:
            pd = PrincipalData.build(rootsys.build(*key))
            assert pd.nbar_multiset[2] >= 1
            total = sum(pd.nbar_multiset.values())
            assert sum(pd.nbar_kperp_multiset.values()) == total - 1

    def test_even_positive_keys(self):
        pd = PrincipalData.build(rootsys.build("F", 4))
        assert all(k > 0 and k % 2 == 0 for k in pd.nbar_multiset)


class TestPartitionP:
    def test_target_zero(self):
        assert partition_P({2: 3, 6: 1}, 0) == 1

    def test_two_parts(self):
        assert partition_P({2: 1, 4: 1}, 4) == 2

    def test_colored_parts(self):
        assert partition_P({2: 2, 4: 1}, 8) == 9

    def test_unreachable_targets(self):
        ms = {2: 1, 4: 1}
        assert partition_P(ms, -2) == 0
        assert partition_P(ms, F(1, 2)) == 0
        assert partition_P(ms, 3) == 0

    def test_bad_part_rejected(self):
        with pytest.raises(InputError):
            partition_P({0: 1}, 4)

    def test_brute_force_small(self):
        # direct enumeration over the count vectors, independent of the DP
        ms = {2: 2, 4: 1, 6: 1}
        parts = [p for p, mult in ms.items() for _ in range(mult)]
        for target in range(0, 21):
            count = 0
            def rec(i, rem):
                nonlocal count
                if i == len(parts):
                    count += rem == 0
                    return
                k = 0
                while k * parts[i] <= rem:
                    rec(i + 1, rem - k * parts[i])
                    k += 1
            rec(0, target)
            assert partition_P(ms, target) == count


def _pd(series, rank):
    return PrincipalData.build(rootsys.build(series, rank))


class TestA1Multiplicity:
    def test_bottom_of_spectrum(self, a2):
        pd = PrincipalData.build(a2)
        for n in range(0, 6):
            lam = principal.find_nonintegral_weight(pd, n + 2)
            assert a1_multiplicity(pd, n, lam) == 1
            for m in range(n):
                assert a1_multiplicity(pd, m, lam) == 0

    def test_derived_value(self, a2):
        pd = PrincipalData.build(a2)
        lam = principal.find_nonintegral_weight(pd, 2)
        assert a1_multiplicity(pd, 4, lam) == 2

    def test_parity(self, a2):
        pd = PrincipalData.build(a2)
        lam = principal.find_nonintegral_weight(pd, 4)
        for m in range(0, 15):
            if m % 2 == 1:
                assert a1_multiplicity(pd, m, lam) == 0

    def test_integral_lambda_rejected(self, a2):
        pd = PrincipalData.build(a2)
        with pytest.raises(InputError):
            a1_multiplicity(pd, 2, (F(1), F(0), F(-1)))

    def test_negative_m_rejected(self, a2):
        pd = PrincipalData.build(a2)
        lam = principal.find_nonintegral_weight(pd, 2)
        with pytest.raises(InputError):
            a1_multiplicity(pd, -1, lam)


class TestEuler:
    def test_a2_examples(self, a2):
        pd = PrincipalData.build(a2)
        lam = principal.find_nonintegral_weight(pd, 2)
        assert euler_rhs(pd, 0, lam) == -1
        assert euler_rhs(pd, 2, lam) == -1
        assert euler_rhs(pd, 1, lam) == 0

    def test_matches_direct_formula(self):
        for key in RANK23:
            pd = _pd(*key)
            for n in (0, 3, 7):
                lam = principal.find_nonintegral_weight(pd, n + 2)
                for m in range(0, 12):
                    assert a1_multiplicity(pd, m, lam) == -euler_rhs(pd, m, lam)


class TestMinimalKtype:
    def test_bottom_values(self, a2):
        pd = PrincipalData.build(a2)
        for target, want in [(2, 0), (5, 3)]:
            lam = principal.find_nonintegral_weight(pd, target)
            assert principal.minimal_ktype(pd, lam) == want

    def test_fractional_target_rejected(self, a2):
        pd = PrincipalData.build(a2)
        lam = principal.find_nonintegral_weight(pd, F(7, 2))
        with pytest.raises(InputError):
            principal.minimal_ktype(pd, lam)

    @pytest.mark.parametrize("key", RANK23 + [("F", 4), ("E", 8)])
    def test_first_nonzero_entry_of_the_series(self, key):
        pd = _pd(*key)
        for target in (2, 3, 9):
            lam = principal.find_nonintegral_weight(pd, target)
            entries = principal.ktype_series(pd, lam, 12).entries
            assert principal.minimal_ktype(pd, lam) == min(m for m, v in entries.items() if v)

    def test_integral_lambda_rejected(self, a2):
        pd = PrincipalData.build(a2)
        with pytest.raises(InputError, match="non-integral"):
            principal.minimal_ktype(pd, (F(2), F(0), F(-2)))


def test_vanishing_degree(a2):
    assert principal.vanishing_degree(PrincipalData.build(a2)) == 2


def test_ktype_series_json(a2):
    pd = PrincipalData.build(a2)
    lam = principal.find_nonintegral_weight(pd, 4)
    series = principal.ktype_series(pd, lam, 6)
    doc = series.to_json()
    assert doc["lambda_h"] == "4"
    assert doc["series"]["2"] == 1
    assert set(doc["series"]) == {str(m) for m in range(7)}


@pytest.mark.parametrize("key", RANK23)
def test_ktype_series_matches_a1_multiplicity(key):
    # the series reads every entry from one partition table; each must equal
    # the per-m count, also for a fractional lambda(h) and a bottom above max_m
    pd = _pd(*key)
    for target in (2, 5, F(7, 2), 14):
        lam = principal.find_nonintegral_weight(pd, target)
        series = principal.ktype_series(pd, lam, 10)
        assert series.entries == {m: a1_multiplicity(pd, m, lam) for m in range(11)}


def test_ktype_series_integral_lambda_rejected(a2):
    with pytest.raises(InputError):
        principal.ktype_series(PrincipalData.build(a2), (F(1), F(0), F(-1)), 3)


class TestBuildCache:
    def test_same_object_twice(self):
        rs = rootsys.build("F", 4)
        assert PrincipalData.build(rs) is PrincipalData.build(rs)

    def test_build_stays_a_classmethod(self):
        # the benchmark's tracer wraps it in the class __dict__
        assert isinstance(PrincipalData.__dict__["build"], classmethod)

    def test_equal_copy_gets_its_own(self):
        rs = rootsys.build("B", 3)
        copy = dataclasses.replace(rs)
        pd = PrincipalData.build(copy)
        assert copy == rs and copy is not rs
        assert pd is not PrincipalData.build(rs) and pd.rs is copy
        assert PrincipalData.build(copy) is pd
        assert pd == PrincipalData.build(rs)

    def test_multisets_read_only(self):
        pd = _pd("A", 3)
        for ms in (pd.nbar_multiset, pd.nbar_kperp_multiset):
            with pytest.raises(TypeError):
                ms[2] = 5
            with pytest.raises(TypeError):
                del ms[2]
        assert pd.nbar_multiset == {2: 3, 4: 2, 6: 1}


def fresh_series(pd, n, max_m):
    """The k-type series entries at lambda(h) = n, from a partition table built for them alone."""
    table = _partition_table(pd.nbar_kperp_multiset, max(0, max_m - n + 2))
    return {m: _table_entry(table, m - n + 2) - _table_entry(table, -m - n) for m in range(max_m + 1)}


# tops of the k-perp table (max_m - lambda(h) + 2) in call order: they rise, fall
# and rise again, so that the lower ones are read from a table built for a larger top
GROWING_TOPS = [10, 30, 5, 25, 70, 100, 120, 0, 64]


@pytest.mark.parametrize("key", RANK2_TYPES)
def test_growing_table_matches_fresh_tables(key):
    # a copy of the cached RootSystem starts with no table of its own
    pd = PrincipalData.build(dataclasses.replace(rootsys.build(*key)))
    rng = random.Random(5)
    for top in GROWING_TOPS:
        n = rng.randint(-3, 12)
        max_m = max(0, top + n - 2)
        lam = principal.find_nonintegral_weight(pd, n)
        series = principal.ktype_series(pd, lam, max_m)
        assert series.entries == fresh_series(pd, n, max_m)
        for m in rng.sample(range(max_m + 1), min(3, max_m + 1)):
            assert series.entries[m] == a1_multiplicity(pd, m, lam)
    # rebuilt at the top asked for, so it ends at the largest one
    assert len(pd.kperp_table(0)) == max(GROWING_TOPS) + 1


@pytest.mark.parametrize("key", RANK2_TYPES)
def test_series_slices_match_per_m_entries(key):
    # both signs of lambda(h), and bottoms below, at and above max_m, against the per-m reads
    pd = _pd(*key)
    for n in range(-9, 10):
        lam = principal.find_nonintegral_weight(pd, n)
        for max_m in (0, 1, 2, 3, 5, 13):
            assert principal.ktype_series(pd, lam, max_m).entries == fresh_series(pd, n, max_m), (n, max_m)


def test_negative_entry_is_an_internal_error():
    # a planted table with table[1] above table[5]: at lambda(h) = -2, m = 1 reads
    # table[5] - table[1] = -7 and m = 2 reads table[6] - table[0] = -3; the first is reported
    pd = PrincipalData.build(dataclasses.replace(rootsys.build("B", 2)))
    vars(pd)["_kperp_table"] = [3, 7] + [0] * 20
    with pytest.raises(InternalError, match="negative multiplicity -7 for m=1"):
        principal.ktype_series(pd, principal.find_nonintegral_weight(pd, -2), 6)


def test_larger_top_replaces_table():
    # a table is replaced, never changed, so one a reader holds stays as it was
    pd = PrincipalData.build(dataclasses.replace(rootsys.build("F", 4)))
    held = pd.kperp_table(10)
    assert len(held) == 11 and pd.kperp_table(5) is held
    assert pd.kperp_table(100) is not held and held == _partition_table(pd.nbar_kperp_multiset, 10)
    assert len(pd.kperp_table(0)) == 101
