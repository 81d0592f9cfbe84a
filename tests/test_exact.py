import hashlib
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import pytest
from hypothesis import given, strategies as st

from ghckit import cli
from ghckit.errors import InputError
from ghckit.exact import (
    ConeWitness,
    Vector,
    cone_member,
    cone_witness,
    cones_intersect_trivially,
    format_rational,
    lp_feasible,
    parse_rational,
    vadd,
    vec,
    vscale,
    vzero,
)

F = Fraction


class TestLpFeasible:
    def test_single_variable_sat(self):
        assert lp_feasible([((F(1),), F(1))], 1) == [F(1)]

    def test_sign_contradiction_unsat(self):
        assert lp_feasible([((F(1),), F(-1))], 1) is None

    def test_two_by_two_system(self):
        # a + 2b = 3, a - b = 0 has the unique solution a = b = 1
        sol = lp_feasible([((F(1), F(2)), F(3)), ((F(1), F(-1)), F(0))], 2)
        assert sol == [F(1), F(1)]

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            lp_feasible([((F(1), F(2)), F(0))], 1)

    def test_no_equalities(self):
        assert lp_feasible([], 3) == [F(0)] * 3


class TestConeMember:
    def test_zero_in_empty_cone(self):
        assert cone_member(vec([0, 0]), []) == []

    def test_nonzero_not_in_empty_cone(self):
        assert cone_member(vec([1, 0]), []) is None

    def test_positive_quadrant(self):
        assert cone_member(vec([1, 1]), [vec([1, 0]), vec([0, 1])]) == [F(1), F(1)]

    def test_skew_generators(self):
        # (1,0) = (1,1) + (0,-1)
        coeffs = cone_member(vec([1, 0]), [vec([1, 1]), vec([0, -1])])
        assert coeffs == [F(1), F(1)]

    def test_outside(self):
        assert cone_member(vec([-1, 0]), [vec([1, 0]), vec([0, 1])]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            cone_member(vec([1, 0]), [vec([1, 0, 0])])

    def test_coefficients_reconstruct(self):
        gens = [vec([1, 2, 0]), vec([0, 1, 1]), vec([1, 0, 3])]
        v = vec([2, 5, 4])
        coeffs = cone_member(v, gens)
        assert coeffs is not None
        total = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3)]
        assert tuple(total) == v


class TestConesIntersect:
    def test_orthogonal_rays(self):
        assert cones_intersect_trivially([vec([1, 0])], [vec([0, 1])]) == (True, None)

    def test_quadrant_vs_diagonal(self):
        trivial, w = cones_intersect_trivially([vec([1, 0]), vec([0, 1])], [vec([1, 1])])
        assert not trivial
        assert w.verify([vec([1, 0]), vec([0, 1])], [vec([1, 1])])

    def test_skew_witness(self):
        a = [vec([1, -1]), vec([-1, 2])]
        b = [vec([0, 1])]
        trivial, w = cones_intersect_trivially(a, b)
        assert not trivial
        assert w.verify(a, b)
        # the only common ray is the positive second axis
        assert w.point[0] == 0 and w.point[1] > 0

    def test_empty_side_is_trivial(self):
        assert cones_intersect_trivially([], [vec([1, 0])]) == (True, None)
        assert cones_intersect_trivially([vec([1, 0])], []) == (True, None)

    def test_lineal_cone_against_orthogonal_ray(self):
        # cone(A) is the whole first axis, cone(B) the positive second axis;
        # they still meet only at the origin
        a = [vec([1, 0]), vec([-1, 0])]
        assert cones_intersect_trivially(a, [vec([0, 1])]) == (True, None)

    def test_one_pair_witness(self):
        # the skew cones meet on the positive second axis only
        a = [vec([1, -1]), vec([-1, 2])]
        b = [vec([0, 1])]
        assert [cone_witness(a, b, k, s) is not None for k in (0, 1) for s in (1, -1)] == [False, False, True, False]
        assert cone_witness(a, b, 1, 1) == cones_intersect_trivially(a, b)[1]
        assert cone_witness([], b, 1, 1) is None

    def test_verify_rejects_a_coefficient_count_that_differs(self):
        w = ConeWitness((F(1),), (F(1),), (F(1), F(0)))
        assert w.verify([(1, 0)], [(1, 0)])
        assert not w.verify([(1, 0), (0, 1)], [(1, 0)])
        assert not w.verify([(1, 0)], [(1, 0), (0, 1)])

    def test_verify_rejects_a_generator_of_another_dimension(self):
        w = ConeWitness((F(1),), (F(1),), (F(1), F(0)))
        assert not w.verify([(1, 0)], [(1, 0, 0)])
        assert not w.verify([(1, 0, 0)], [(1, 0)])

    @pytest.mark.parametrize(
        "a,b",
        [
            ([vec([1, 0])], [vec([0, 1])]),
            ([vec([1, 0]), vec([0, 1])], [vec([1, 1])]),
            ([vec([1, -1]), vec([-1, 2])], [vec([0, 1])]),
            ([vec([1, 2, 3])], [vec([2, 4, 6])]),
            ([vec([1, 0, 0]), vec([0, 1, 0])], [vec([0, 0, 1]), vec([0, -1, 0])]),
        ],
    )
    def test_symmetry(self, a, b):
        assert cones_intersect_trivially(a, b)[0] == cones_intersect_trivially(b, a)[0]


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
)


class TestSerialization:
    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_formats(self):
        assert format_rational(F(3)) == "3"
        assert format_rational(F(-4, 6)) == "-2/3"

    def test_parse_rejects_junk(self):
        with pytest.raises(InputError):
            parse_rational("pi")
        with pytest.raises(InputError):
            parse_rational("1/0")


# ---------------------------------------------------------------------------
# reference: the Fraction two-phase simplex that lp_feasible replaced, kept
# verbatim so the integer tableau can be checked against it pivot for pivot


def reference_lp_feasible(
    equalities: Sequence[tuple[Sequence[Fraction], Fraction]], nonneg_vars: int
) -> Optional[list[Fraction]]:
    """Decide feasibility of {x >= 0, coeffs·x = rhs for each equality}.

    Returns an exact rational solution, or None when infeasible.  Pivoting
    uses Bland's rule, so the run always terminates and the answer is
    deterministic.
    """
    n = nonneg_vars
    for coeffs, _ in equalities:
        if len(coeffs) != n:
            raise InputError(f"equality has {len(coeffs)} coefficients, expected {n}")
    m = len(equalities)
    if m == 0:
        return [Fraction(0)] * n
    # tableau rows: n structural columns, m artificial columns, rhs; b >= 0
    tab: list[list[Fraction]] = []
    for i, (coeffs, rhs) in enumerate(equalities):
        row = [Fraction(c) for c in coeffs] + [Fraction(0)] * m + [Fraction(rhs)]
        if row[-1] < 0:
            row = [-x for x in row]
        row[n + i] = Fraction(1)
        tab.append(row)
    basis = [n + i for i in range(m)]
    # phase-1 objective: minimize the sum of artificials.  Reduced-cost row
    # for the artificial basis is the negated column sum on structural columns.
    obj = [Fraction(0)] * (n + m + 1)
    for j in range(n + m + 1):
        obj[j] = -sum(tab[i][j] for i in range(m))
    for i in range(m):
        obj[n + i] += Fraction(1)

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise InputError("unbounded phase-1 LP; inconsistent input")
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter

    # -obj[-1] is the attained phase-1 objective value
    if -obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = tab[i][-1]
    return x


# entries p/q with |p| <= 3 and q in {1, 2, 3}: small enough that zero
# columns, repeated rows, degenerate vertices and infeasible systems all
# come up often
small_rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))


@st.composite
def lp_systems(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    row = st.tuples(st.lists(small_rationals, min_size=n, max_size=n).map(tuple), small_rationals)
    return draw(st.lists(row, min_size=m, max_size=m)), n


class TestLpAgainstReference:
    @given(lp_systems())
    def test_same_answer_as_fraction_simplex(self, system):
        eqs, n = system
        assert lp_feasible(eqs, n) == reference_lp_feasible(eqs, n)

    @pytest.mark.parametrize(
        "eqs,n",
        [
            # degenerate: the rhs is 0, so every ratio ties at 0
            ([((F(1), F(-1), F(0)), F(0)), ((F(0), F(1), F(-1)), F(0)), ((F(1), F(1), F(1)), F(0))], 3),
            # a redundant row leaves an artificial basic at 0
            ([((F(1, 2), F(1, 3)), F(1)), ((F(1), F(2, 3)), F(2))], 2),
            # mixed denominators and a negative rhs
            ([((F(2, 3), F(-1, 2), F(1)), F(-1, 3)), ((F(1, 3), F(1), F(-3, 2)), F(1, 2))], 3),
            # infeasible over x >= 0
            ([((F(1, 2), F(1, 3)), F(-1))], 2),
        ],
    )
    def test_fixed_cases(self, eqs, n):
        assert lp_feasible(eqs, n) == reference_lp_feasible(eqs, n)

    def test_accepts_ints_and_strings(self):
        sol = lp_feasible([((1, "1/2"), "3/2"), ((1, -1), 0)], 2)
        assert sol == reference_lp_feasible([((F(1), F(1, 2)), F(3, 2)), ((F(1), F(-1)), F(0))], 2)
        assert sol == [F(1), F(1)]


def test_census_a3_stdout_digest(capsys):
    # SHA-256 of `ghckit census --series A --rank 3` stdout, pinned before the
    # integer simplex replaced the Fraction one
    assert cli.main(["census", "--series", "A", "--rank", "3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "c57d41e0857dd4fc454a637063ccc8a361304356523e641d6f7f1ce78b73d042"


# ---------------------------------------------------------------------------
# reference: cones_intersect_trivially as it was before integer generators
# were read directly, kept verbatim except that it runs the Fraction simplex
# above, so a whole Fraction pipeline checks the integer one


def reference_cones_intersect_trivially(
    gens_a: Sequence[Vector], gens_b: Sequence[Vector]
) -> tuple[bool, Optional[ConeWitness]]:
    if not gens_a or not gens_b:
        return True, None
    dim = len(gens_a[0])
    na, nb = len(gens_a), len(gens_b)
    # sum of a-coefficients times gens_a minus b-coefficients times gens_b is 0
    balance = [(tuple(g[j] for g in gens_a) + tuple(-g[j] for g in gens_b), 0) for j in range(dim)]
    for k in range(dim):
        norm = tuple(g[k] for g in gens_a) + (0,) * nb
        for sign in (1, -1):
            sol = reference_lp_feasible(balance + [(norm, sign)], na + nb)
            if sol is not None:
                ca = tuple(sol[:na])
                cb = tuple(sol[na:])
                point = vzero(dim)
                for c, g in zip(ca, gens_a):
                    if c:  # a basic solution has at most dim + 1 nonzero coefficients
                        point = vadd(point, vscale(c, g))
                return False, ConeWitness(ca, cb, point)
    return True, None


def outcome(result):
    """A verdict with its witness as JSON, and the Fraction types it must carry."""
    trivial, witness = result
    if witness is None:
        return trivial, None
    fields = (*witness.coefficients_a, *witness.coefficients_b, *witness.point)
    assert all(type(x) is Fraction for x in fields)
    return trivial, witness.to_json()


@st.composite
def integer_cone_pairs(draw):
    dim = draw(st.integers(1, 4))
    gens = st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=4)
    return draw(gens), draw(gens)


class TestIntegerGenerators:
    @given(integer_cone_pairs())
    def test_same_verdict_and_witness_as_fractions(self, pair):
        ints_a, ints_b = pair
        fracs_a, fracs_b = [list(map(vec, gens)) for gens in pair]
        got = outcome(cones_intersect_trivially(ints_a, ints_b))
        assert got == outcome(cones_intersect_trivially(fracs_a, fracs_b))
        assert got == outcome(reference_cones_intersect_trivially(fracs_a, fracs_b))

    def test_integer_witness_verifies_on_fractions(self):
        a, b = [(1, 0), (0, 1)], [(1, 1)]
        trivial, w = cones_intersect_trivially(a, b)
        assert not trivial
        assert w.verify([vec(g) for g in a], [vec(g) for g in b])
        assert w.point == vec([1, 1])

    @given(lp_systems())
    def test_lp_on_integer_multiples(self, system):
        # scaling every equality by the lcm of the denominators leaves the LP, and so
        # the pivots and the solution, as they are; the scaled rows are all ints
        eqs, n = system
        scale = lcm(*(c.denominator for coeffs, rhs in eqs for c in (*coeffs, rhs)))
        ints = [(tuple(int(c * scale) for c in coeffs), int(rhs * scale)) for coeffs, rhs in eqs]
        assert lp_feasible(ints, n) == reference_lp_feasible(ints, n) == reference_lp_feasible(eqs, n)
