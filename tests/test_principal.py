import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import nullspace, solve_linear
from test_rootsys import reference_is_regular_integral, reference_weyl_dim

from ghckit import principal, rootsys
from ghckit.errors import InputError, InternalError
from ghckit.exact import dot, vadd, vscale, vzero
from ghckit.principal import (
    MAX_M,
    TABLE_TOP,
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
        # a negative multiplicity was skipped, and a float part or multiplicity was a TypeError
        with pytest.raises(InputError, match="multiplicity must be a nonnegative integer, got -1"):
            partition_P({2: -1}, 4)
        for ms in ({2: 1.5}, {1.5: 1}):
            with pytest.raises(InputError, match="expected an integer, got 1.5"):
                partition_P(ms, 4)
        # a table past q^TABLE_TOP, which no k-type series within MAX_M reads
        with pytest.raises(InputError, match=f"q\\^20003 exceeds the bound q\\^{TABLE_TOP}$"):
            partition_P({2: 1}, 20_003)

    def test_table_reaches_its_bound(self):
        # the largest table a k-type series within MAX_M reads is allowed, one more is not
        assert partition_P({2: 1}, TABLE_TOP) == 1
        pd = PrincipalData.build(rootsys.build("A", 2))
        lam = principal.find_nonintegral_weight(pd, 4)
        # lambda(h) = 4, so both counts read a table to q^(m - 2)
        m = TABLE_TOP + 2
        assert euler_rhs(pd, m, lam) == -a1_multiplicity(pd, m, lam)
        for f in (euler_rhs, a1_multiplicity):
            with pytest.raises(InputError, match="exceeds the bound"):
                f(pd, m + 1, lam)

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

    @pytest.mark.parametrize("m", [True, 2.0, 1.5])
    def test_bool_or_float_m_rejected(self, a2, m):
        pd = PrincipalData.build(a2)
        lam = principal.find_nonintegral_weight(pd, 2)
        with pytest.raises(InputError, match="expected an integer"):
            a1_multiplicity(pd, m, lam)


class TestEuler:
    def test_a2_examples(self, a2):
        pd = PrincipalData.build(a2)
        lam = principal.find_nonintegral_weight(pd, 2)
        assert euler_rhs(pd, 0, lam) == -1
        assert euler_rhs(pd, 2, lam) == -1
        assert euler_rhs(pd, 1, lam) == 0

    def test_nonintegral_lambda_h_gives_zero(self, a2):
        pd = PrincipalData.build(a2)
        lam = principal.find_nonintegral_weight(pd, F(7, 2))
        assert [euler_rhs(pd, m, lam) for m in range(4)] == [0] * 4

    @pytest.mark.parametrize("m", [True, 2.0, 1.5])
    def test_bool_or_float_m_rejected(self, a2, m):
        pd = PrincipalData.build(a2)
        lam = principal.find_nonintegral_weight(pd, 2)
        with pytest.raises(InputError, match="expected an integer"):
            euler_rhs(pd, m, lam)

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
        assert principal.ktype_series(pd, lam, 6).minimal_ktype is None

    @pytest.mark.parametrize("key", RANK23 + [("F", 4), ("E", 8)])
    def test_first_nonzero_entry_of_the_series(self, key):
        pd = _pd(*key)
        for target in (2, 3, 9):
            lam = principal.find_nonintegral_weight(pd, target)
            series = principal.ktype_series(pd, lam, 12)
            first = min(m for m, v in series.entries.items() if v)
            assert principal.minimal_ktype(pd, lam) == series.minimal_ktype == first

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


class TestBounds:
    """ktype_series rejects a max_m or a |lambda(h)| above MAX_M before it builds a table."""

    def fresh(self):
        # a copy of the cached RootSystem starts with no table of its own
        return PrincipalData.build(rootsys.build("A", 2)._replace())

    def test_max_m_above_bound(self):
        pd = self.fresh()
        lam = principal.find_nonintegral_weight(pd, 4)
        with pytest.raises(InputError, match=f"^max_m {MAX_M + 1} exceeds the bound {MAX_M}$"):
            principal.ktype_series(pd, lam, MAX_M + 1)
        assert "_kperp_table" not in vars(pd)

    @pytest.mark.parametrize("max_m", [True, 2.0, 2.5])
    def test_bool_or_float_max_m_rejected(self, max_m):
        # a bool would be read as 1 and echoed as "truncation": true
        pd = self.fresh()
        lam = principal.find_nonintegral_weight(pd, 4)
        with pytest.raises(InputError, match="expected an integer"):
            principal.ktype_series(pd, lam, max_m)

    # the last two are the edges of |num| > MAX_M den off the integers
    @pytest.mark.parametrize("target", [MAX_M + 1, -MAX_M - 1, F(2 * MAX_M + 1, 2), MAX_M + F(1, 3), -MAX_M - F(1, 3)])
    def test_lambda_h_above_bound(self, target):
        pd = self.fresh()
        held = pd.kperp_table(8)
        lam = principal.find_nonintegral_weight(pd, target)
        with pytest.raises(InputError, match=r"^lambda\(h\) = .* is outside the bound \+-10000$"):
            principal.ktype_series(pd, lam, 4)
        assert vars(pd)["_kperp_table"] is held and held == _partition_table(pd.nbar_kperp_multiset, 8)

    def test_lambda_h_at_bound(self):
        pd = self.fresh()
        for target in (MAX_M, -MAX_M, MAX_M - F(1, 3), -MAX_M + F(1, 3)):
            lam = principal.find_nonintegral_weight(pd, target)
            assert principal.ktype_series(pd, lam, 2).lambda_h == target


class TestBuildCache:
    def test_same_object_twice(self):
        rs = rootsys.build("F", 4)
        assert PrincipalData.build(rs) is PrincipalData.build(rs)

    def test_build_stays_a_classmethod(self):
        # the benchmark's tracer wraps it in the class __dict__
        assert isinstance(PrincipalData.__dict__["build"], classmethod)

    def test_equal_copy_gets_its_own(self):
        rs = rootsys.build("B", 3)
        copy = rs._replace()
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
    pd = PrincipalData.build(rootsys.build(*key)._replace())
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
    pd = PrincipalData.build(rootsys.build("B", 2)._replace())
    vars(pd)["_kperp_table"] = [3, 7] + [0] * 20
    with pytest.raises(InternalError, match="negative multiplicity -7 for m=1"):
        principal.ktype_series(pd, principal.find_nonintegral_weight(pd, -2), 6)


def test_larger_top_replaces_table():
    # a table is replaced, never changed, so one a reader holds stays as it was
    pd = PrincipalData.build(rootsys.build("F", 4)._replace())
    held = pd.kperp_table(10)
    assert len(held) == 11 and pd.kperp_table(5) is held
    assert pd.kperp_table(100) is not held and held == _partition_table(pd.nbar_kperp_multiset, 10)
    assert len(pd.kperp_table(0)) == 101


@pytest.mark.parametrize("lam", [(F(1), F(0)), (F(1, 3),), ()])
def test_weight_of_the_wrong_length_is_an_input_error(a2, lam):
    # A2 lives in a 3-dimensional ambient space; the length is checked where a weight
    # enters, before any pairing is taken
    pd = PrincipalData.build(a2)
    on_rs = (rootsys.is_integral, rootsys.is_dominant, rootsys.is_regular_integral, rootsys.weyl_dim)
    calls = [partial(f, a2) for f in on_rs] + [pd.lambda_h, partial(principal.ktype_series, pd, max_m=4)]
    for call in calls:
        with pytest.raises(InputError, match="^weight dimension does not match the ambient space$"):
            call(lam)


@pytest.mark.parametrize("lam, match", [
    ((0.5, 0, -0.5), "^not a rational: 0.5$"), ((True, 0, False), "^not a rational: True$"),
    ((F(1), None, F(-1)), "^not a rational: None$"), ((F(1), "x", F(-1)), "^not a rational: 'x'$"),
    ("101", "^a vector is a sequence of entries, not the text '101'$"),
])
def test_weight_entry_that_is_not_rational_is_an_input_error(a2, lam, match):
    # a float or None entry, or a weight given as one text, raised AttributeError, and a bool
    # was read as an integer; the text "101" must not be read as (1, 0, 1)
    pd = PrincipalData.build(a2)
    on_rs = (rootsys.is_integral, rootsys.is_dominant, rootsys.is_regular_integral, rootsys.weyl_dim)
    calls = [partial(f, a2) for f in on_rs] + [pd.lambda_h, partial(principal.ktype_series, pd, max_m=4)]
    for call in calls:
        with pytest.raises(InputError, match=match):
            call(lam)


def test_weight_text_is_read_as_rationals(a2):
    # the highest root e1 - e3 of A2 heads the adjoint module
    assert rootsys.weyl_dim(a2, ("1", "0", "-1")) == rootsys.weyl_dim(a2, (1, 0, -1)) == 8
    assert PrincipalData.build(a2).lambda_h(("1/3", 0, F(-1, 3))) == F(4, 3)


def _outcome(fn, *args):
    """fn's value, or the type and text of the InputError it raises."""
    try:
        return fn(*args)
    except InputError as e:
        return InputError, str(e)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_integer_weight_path_matches_fraction_pairings(data):
    # weights with mixed denominators, negative entries and zeros, or integer
    # combinations of the fundamental weights, which reach the dominant and the
    # regular integral cases; every answer against the Fraction pairings 2(lam,a)/(a,a)
    rs = rootsys.build(*data.draw(st.sampled_from(RANK2_TYPES)))
    pd = PrincipalData.build(rs)
    if data.draw(st.booleans()):
        entry = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12]))
        lam = tuple(data.draw(st.lists(entry, min_size=rs.ambient_dim, max_size=rs.ambient_dim)))
    else:
        coeffs = data.draw(st.lists(st.integers(-2, 3), min_size=rs.rank, max_size=rs.rank))
        lam = tuple(sum(c * w[k] for c, w in zip(coeffs, rs.fundamental_weights)) for k in range(rs.ambient_dim))
    assert pd.lambda_h(lam) == dot(lam, pd.h_element)
    pairings = [rs.pairing(lam, a) for a in rs.simple_roots]
    assert rootsys.is_integral(rs, lam) == all(p.denominator == 1 for p in pairings)
    assert rootsys.is_dominant(rs, lam) == all(p >= 0 for p in pairings)
    assert rootsys.is_regular_integral(rs, lam) == reference_is_regular_integral(rs, lam)
    assert _outcome(rootsys.weyl_dim, rs, lam) == _outcome(reference_weyl_dim, rs, lam)
