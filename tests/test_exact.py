import hashlib
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import nullspace as reference_nullspace, solve_linear as reference_solve_linear
from reference_simplex import outcome, reference_cones_intersect_trivially, reference_lp_feasible
from ghckit import cli, exact, fk
from ghckit.errors import InputError
from ghckit.exact import (
    ConeWitness,
    cone_member,
    cone_witness,
    cones_intersect_trivially,
    format_rational,
    lp_feasible,
    parse_rational,
    vec,
)
from ghckit.shadow import RootSubalgebra, closed_subsets

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

    # without the checks, sign 0 gives an empty point that fails its own verify, sign 2 a
    # point whose coordinate k is 2, k = -1 the point (1, 1) found on the last coordinate,
    # and k = 5 an IndexError; without parse_integer, k = 1.0 is a TypeError (1.0 is in
    # range(2)), and k = True, sign = True and sign = 1.0 are read as 1
    @pytest.mark.parametrize(
        "k,sign,match",
        [
            (1, 0, "sign must be 1 or -1"),
            (1, 2, "sign must be 1 or -1"),
            (-1, 1, "outside range"),
            (5, 1, "outside range"),
            (1.0, 1, "expected an integer, got 1.0"),
            (True, 1, "expected an integer, got True"),
            (1, True, "expected an integer, got True"),
            (1, 1.0, "expected an integer, got 1.0"),
        ],
    )
    def test_coordinate_and_sign_out_of_range(self, k, sign, match):
        a, b = [vec([1, 0]), vec([0, 1])], [vec([1, 1])]
        with pytest.raises(InputError, match=match):
            cone_witness(a, b, k, sign)

    def test_verify_rejects_a_coefficient_count_that_differs(self):
        w = ConeWitness((F(1),), (F(1),), (F(1), F(0)))
        assert w.verify([(1, 0)], [(1, 0)])
        assert not w.verify([(1, 0), (0, 1)], [(1, 0)])
        assert not w.verify([(1, 0)], [(1, 0), (0, 1)])

    def test_verify_rejects_a_zero_point(self):
        # zero coefficients do combine to the zero point, which is no witness
        w = ConeWitness((F(0),), (F(0),), (F(0), F(0)))
        assert not w.verify([(1, 0)], [(1, 0)])

    def test_verify_rejects_a_negative_coefficient(self):
        # -1·(1, 0) + 1·(2, 0) is the point (1, 0), but not as a cone member
        w = ConeWitness((F(-1), F(1)), (F(1),), (F(1), F(0)))
        assert not w.verify([(1, 0), (2, 0)], [(1, 0)])

    def test_verify_rejects_an_empty_side_under_a_nonzero_point(self):
        # no generators combine to the zero point, whatever the point's dimension
        w = ConeWitness((), (F(1),), (F(1), F(0)))
        assert not w.verify([], [(1, 0)])

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


def fraction_rule(s: str) -> Fraction:
    """parse_rational with no fast path: the exponent and "_" rejections, then Fraction."""
    if re.search(r"[\d.][eE]", s):
        raise InputError(f"not a rational: {s!r} (exponent notation is not accepted)")
    if "_" in s:
        raise InputError(f"not a rational: {s!r} (_ separators are not accepted)")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"not a rational: {s!r}") from e


def _parsed(parse, text):
    try:
        return parse(text)
    except InputError as e:
        return InputError, str(e)


# ASCII and other decimal digits (Arabic-Indic, Devanagari) and superscripts, which are
# digits but not decimal; the text adds the signs, "/", ".", "e", "_" and ASCII and Unicode spaces
DIGITS = "0123456789\u0663\u06f7\u0969\u00b2\u00b3"
rational_text = st.text(st.sampled_from("+-/.eE_ \t\n\u00a0\u2003" + DIGITS), max_size=10)
plain_text = st.builds(
    lambda sign, num, den: sign + num + den,
    st.sampled_from(["", "+", "-", " ", "--"]),
    st.text(st.sampled_from(DIGITS), max_size=6),
    st.one_of(st.just(""), st.text(st.sampled_from(DIGITS), max_size=6).map(lambda d: "/" + d)),
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

    @pytest.mark.parametrize("text", ["1e5", "1.e5", "2.5E-3"])
    def test_parse_rejects_exponent_notation(self, text):
        with pytest.raises(InputError, match="exponent notation"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["3_0/2", "1_000", "1/2_0", "_1", "1_"])
    def test_parse_rejects_digit_separators(self, text):
        # Fraction reads "3_0" as 30 from Python 3.11 on and rejects it before: one answer on all
        with pytest.raises(InputError, match="not a rational"):
            parse_rational(text)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(plain_text, rational_text))
    @example("1" * 4301)
    @example("-7/" + "3" * 4301)
    @example("+٣/۷")
    @example("1/0")
    def test_parse_agrees_with_the_fraction_rule(self, text):
        # the fast path for plain "p" and "p/q" gives what Fraction gives, or InputError with
        # the same text; past 4,300 digits int and Fraction both raise from Python 3.11 on
        assert _parsed(parse_rational, text) == _parsed(fraction_rule, text)


class TestVec:
    def test_keeps_fractions_ints_and_text(self):
        v = vec([F(1, 2), 3, "-3/4", " 5 "])
        assert v == (F(1, 2), F(3), F(-3, 4), F(5)) and all(type(c) is Fraction for c in v)

    # "1e9999", not "1e999999999": the latter would cost the old rule a billion-digit integer
    @pytest.mark.parametrize("entry, match", [
        ("1e9999", "exponent notation"), ("3_0", "_ separators"), ("x", "not a rational: 'x'$"),
        (0.1, "not a rational: 0.1$"), (True, "not a rational: True$"), (None, "not a rational: None$"),
    ])
    def test_other_entries_are_input_errors(self, entry, match):
        # vec read "1e9999" as a 10,000-digit integer, "3_0" as 30, 0.1 as
        # 3602879701896397/36028797018963968 and True as 1, and raised ValueError or TypeError on "x" and None
        with pytest.raises(InputError, match=match):
            vec([1, entry])

    def test_one_text_is_no_vector(self):
        # vec read "101" a character at a time, as (1, 0, 1)
        with pytest.raises(InputError, match="^a vector is a sequence of entries, not the text '101'$"):
            vec("101")


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


small_ints = st.integers(-6, 6)
nonzero_ints = small_ints.filter(bool)


@st.composite
def pivot_steps(draw, f, p, d):
    """A row, a pivot row and an entering column for one _pivot_row step, with the
    entering entry f and the pivots p and d drawn from the given strategies."""
    n = draw(st.integers(1, 6))
    row = draw(st.lists(small_ints, min_size=n, max_size=n))
    prow = draw(st.lists(small_ints, min_size=n, max_size=n))
    enter = draw(st.integers(0, n - 1))
    row[enter] = draw(f)
    p = draw(p)
    return row, prow, p, draw(d) if d is not None else p, enter


class TestPivotRow:
    """Every branch of the fraction-free step is the Bareiss step (p·x - f·y) // d."""

    unit = st.just(1)
    general = st.integers(-6, 6).filter(lambda x: x not in (0, 1))

    # d None: d = p
    @pytest.mark.parametrize(
        "f,p,d",
        [
            (st.just(1), unit, unit),
            (st.just(-1), unit, unit),
            (nonzero_ints.filter(lambda f: abs(f) != 1), unit, unit),
            (nonzero_ints, general, nonzero_ints),
            (nonzero_ints, unit, general),
            (st.just(0), unit, None),
            (st.just(0), general, None),
            (st.just(0), general, st.just(1)),
            (st.just(0), unit, general),
        ],
        ids=["unit f=1", "unit f=-1", "unit other f", "p not 1", "p=1 d not 1", "f=0 p=d=1", "f=0 p=d",
             "f=0 d=1", "f=0 p=1"],
    )
    @settings(max_examples=25)  # per branch: each is one line of arithmetic
    @given(data=st.data())
    def test_bareiss_step(self, f, p, d, data):
        row, prow, p, d, enter = data.draw(pivot_steps(f, p, d))
        f = row[enter]
        got = exact._pivot_row(row, prow, p, d, enter)
        assert got == [(p * x - f * y) // d for x, y in zip(row, prow)]
        if f == 0 and p == d:
            assert got is row


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


class TestLinearSystemsAgainstReference:
    """solve_linear and nullspace on the fraction-free step, against the Fraction
    Gauss-Jordan references in conftest: the same Fractions, on systems where zero
    columns, dependent rows and inconsistent right-hand sides come up often."""

    @given(lp_systems())
    def test_same_answers_as_fraction_gauss_jordan(self, system):
        eqs, _ = system
        rows, rhs = [c for c, _ in eqs], [b for _, b in eqs]
        assert exact.solve_linear(rows, rhs) == reference_solve_linear(rows, rhs)
        assert exact.nullspace(rows) == reference_nullspace(rows)

    def test_edge_cases(self):
        assert exact.solve_linear([], []) == reference_solve_linear([], []) == []
        # integer input, a zero column and an inconsistent row
        assert exact.solve_linear([(1, 0, 2), (2, 0, 4)], [1, 3]) is None
        assert exact.solve_linear([(1, 0, 2), (2, 0, 4)], [1, 2]) == [F(1), F(0), F(0)]
        assert exact.nullspace([(2, 0, 4)]) == [(F(0), F(1), F(0)), (F(-2), F(0), F(1))]
        with pytest.raises(InputError):
            exact.nullspace([])


def test_census_a3_stdout_digest(capsys):
    # SHA-256 of `ghckit census --series A --rank 3` stdout, pinned before the
    # integer simplex replaced the Fraction one
    assert cli.main(["census", "--series", "A", "--rank", "3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "c57d41e0857dd4fc454a637063ccc8a361304356523e641d6f7f1ce78b73d042"


def counting_pivots(monkeypatch):
    """Replace exact._pivot_row by a wrapper that counts its row steps twice: by kind,
    "unit" (p = d = 1, the step with no scaling) or "general", and by the entering
    entry f of the row, "±1", "0" or "other"."""
    counts = {"unit": 0, "general": 0}
    entries = {"±1": 0, "0": 0, "other": 0}
    pivot_row = exact._pivot_row

    def counted(row, prow, p, d, enter):
        counts["unit" if p == d == 1 else "general"] += 1
        f = row[enter]
        entries["0" if f == 0 else "±1" if abs(f) == 1 else "other"] += 1
        return pivot_row(row, prow, p, d, enter)

    monkeypatch.setattr(exact, "_pivot_row", counted)
    return counts, entries


class TestTypeAWitnesses:
    def test_theorem8_witness_matches_the_fraction_pipeline(self, a3, monkeypatch):
        # every infinite-type verdict on A3: the reachability rule's one integer LP and its
        # point summed over one denominator, against the Fraction LP loop on the Fraction
        # singular weights.  Every row step on the way has p = d = 1; their number was
        # counted before that step had a branch of its own, so the pivots are the same.
        # Every entering entry is 0 or ±1, so each step that eliminates an entry is a
        # plain row subtraction or addition
        counts, entries = counting_pivots(monkeypatch)
        infinite = 0
        for roots in closed_subsets(a3):
            verdict = fk.theorem8_finite_type(a3, RootSubalgebra(a3, roots))
            if verdict.finite_type:
                continue
            infinite += 1
            gens = sorted(verdict.singular_g_mod_l.singular_weights), sorted(verdict.singular_n.singular_weights)
            assert outcome(reference_cones_intersect_trivially(*gens)) == outcome((False, verdict.witness))
        assert infinite == 168
        assert counts == {"unit": 3065, "general": 0}
        assert entries == {"±1": 2144, "0": 921, "other": 0}

    def test_fractional_input_takes_the_general_step(self, monkeypatch):
        # the redundant-row case of TestLpAgainstReference.test_fixed_cases: scaled by 6,
        # so its pivots are not 1
        counts, _ = counting_pivots(monkeypatch)
        eqs = [((F(1, 2), F(1, 3)), F(1)), ((F(1), F(2, 3)), F(2))]
        assert lp_feasible(eqs, 2) == reference_lp_feasible(eqs, 2)
        assert counts["general"] > 0


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
