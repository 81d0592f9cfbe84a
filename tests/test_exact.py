import hashlib
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import nullspace as reference_nullspace, solve_linear as reference_solve_linear
from reference_simplex import outcome, reference_cones_intersect_trivially, reference_lp_feasible
from ghckit import cli, exact, fk, mathieu, principal, rootsys
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
from ghckit.shadow import RootSubalgebra, closed_subsets, shadow, support_shape

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


def _a2():
    return rootsys.build("A", 2)


# each raised TypeError, from vec's loop or from _weight_row's scan of the entry types
@pytest.mark.parametrize("call, shown", [
    (lambda: rootsys.weyl_dim(_a2(), None), "None"),
    (lambda: rootsys.is_dominant(_a2(), 1.5), "1.5"),
    (lambda: principal.ktype_series(principal.PrincipalData.build(_a2()), 0, 3), "0"),
    (lambda: mathieu.sp_degree(0), "0"),
    (lambda: mathieu.describe(0), "0"),
    (lambda: mathieu.describe(["3/2", "1/2"], eta=5), "5"),
    (lambda: vec(0), "0"),
], ids=["weyl_dim", "is_dominant", "ktype_series", "sp_degree", "describe", "describe_eta", "vec"])
def test_a_weight_that_is_no_sequence_is_an_input_error(call, shown):
    with pytest.raises(InputError, match=f"^a vector is a sequence of entries, not {re.escape(shown)}$"):
        call()


def test_a_generator_weight_is_read_once():
    # _weight_row's scan of the entry types used to consume the generator, leaving vec nothing
    assert rootsys.weyl_dim(_a2(), (x for x in (1, 0, -1))) == 8 == rootsys.weyl_dim(_a2(), (1, 0, -1))
    assert mathieu.describe(["3/2", "1/2"], eta=(c for c in ["1/2", "1"]))["fiber_irreducible"] is False


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
            assert all_fractions(verdict.witness)
        assert infinite == 168
        assert counts == {"unit": 3065, "general": 0}
        assert entries == {"±1": 2144, "0": 921, "other": 0}

    def test_fractional_input_takes_the_general_step(self, monkeypatch):
        # the redundant-row case of TestLpAgainstReference.test_fixed_cases: scaled by 6,
        # so its pivots are not 1
        counts, _ = counting_pivots(monkeypatch)
        eqs = [((F(1, 2), F(1, 3)), F(1)), ((F(1), F(2, 3)), F(2))]
        sol = lp_feasible(eqs, 2)
        assert sol == reference_lp_feasible(eqs, 2)
        assert counts["general"] > 0
        assert all(type(x) is Fraction for x in sol)
        # the same system as a two-cone question: its columns against the rhs
        a = [(F(1, 2), F(1)), (F(1, 3), F(2, 3))]
        assert all_fractions(cone_witness(a, [(F(1), F(2))], 0, 1))


def all_fractions(witness: ConeWitness) -> bool:
    """Whether every coefficient and point entry of the witness is exactly a Fraction."""
    return all(type(x) is Fraction for x in chain(witness.coefficients_a, witness.coefficients_b, witness.point))


class TestSharedFractions:
    """lp_feasible and cone_witness take small integers from one table of shared
    Fractions, and drop zero coefficients by identity with its zero."""

    def test_table(self):
        # the table is built by whichever fractions module runs; its construction differs
        # from one Python version to the next, so each entry's fields are checked
        assert [(type(f), type(f.numerator), f.numerator, f.denominator) for f in exact._SMALL] == [
            (Fraction, int, i, 1) for i in range(-8, 9)]
        assert exact._ZERO == 0 and exact._ZERO is exact._SMALL[8]

    def test_values_past_the_table(self):
        for v in (8, 9, 12, 10**30):
            (x,) = lp_feasible([((1,), v)], 1)
            assert x == v and type(x) is Fraction
        w = cone_witness([(1, 12, -9)], [(1, 12, -9)], 0, 1)
        assert w == ConeWitness((F(1),), (F(1),), (F(1), F(12), F(-9))) and all_fractions(w)
        # b-coefficients above the table, and a point over a denominator
        w = cone_witness([(1, 0)], [(F(1, 20), 0)], 0, 1)
        assert w == ConeWitness((F(1),), (F(20),), (F(1), F(0))) and all_fractions(w)
        w = cone_witness([(2, 1)], [(1, F(1, 2))], 0, 1)
        assert w == ConeWitness((F(1, 2),), (F(1),), (F(1), F(1, 2))) and all_fractions(w)

    def test_a_zero_that_is_not_shared_adds_nothing(self, monkeypatch):
        # a zero basic value from the general step is Fraction(0, p): not the shared zero, so
        # it reaches the point sum, where it adds nothing over denominator 1
        a, b = [(1, 0), (0, 1), (1, 1)], [(1, 1)]
        want = cone_witness(a, b, 0, 1)
        real = exact.lp_feasible
        monkeypatch.setattr(exact, "lp_feasible", lambda eqs, n: [F(0, 1) if x == 0 else x for x in real(eqs, n)])
        w = cone_witness(a, b, 0, 1)
        assert 0 in w.coefficients_a and not any(c is exact._ZERO for c in w.coefficients_a)
        assert w == want and w.point == (F(1), F(1)) and all_fractions(w) and w.verify(a, b)

    @pytest.mark.parametrize("a, b, message", [
        ([(1, 0), (1, 0, 0)], [(1, 1)], "dimension mismatch: expected 2, got 3"),
        ([(1, 0)], [(1, 1), (1,)], "dimension mismatch: expected 2, got 1"),
        # both sides wrong: the a-side is named, as it is checked first
        ([(1, 0), (1, 0, 0, 0)], [(1,)], "dimension mismatch: expected 2, got 4"),
        ([(1, 0), (1, 0, 0)], [(1, 1), (1,), (1, 1, 1, 1)], "dimension mismatch: expected 2, got 3"),
    ])
    def test_dimension_mismatch_messages(self, a, b, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            cone_witness(a, b, 0, 1)


class Int(int):
    """An int subclass: its sums with ints are ints, so the all-int test takes it as one."""


def reference_integer_rows(equalities):
    """``exact._integer_rows`` with its former all-int test, a type pass over every cell."""
    rows = [[*coeffs, rhs] for coeffs, rhs in equalities]
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    rows = [[c if isinstance(c, (int, Fraction)) else Fraction(c) for c in row] for row in rows]
    scale = lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in rows]


def _result(fn, *args):
    """fn's value, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (TypeError, ValueError, ArithmeticError) as e:
        return type(e)


BIG = 10**3999 + 1  # 4,000 digits
CELLS = {
    "int": st.integers(-3, 3),
    "bool": st.booleans(),
    "int subclass": st.integers(-3, 3).map(Int),
    "Fraction": st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3))),
    "float": st.integers(-8, 8).map(lambda i: i / 4),
    "Decimal": st.integers(-30, 30).map(lambda i: Decimal(i) / 10),
    "text": st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3))).map(str),
    "None": st.none(),
    "4,000 digits": st.sampled_from((BIG, -BIG, 3 * BIG, BIG - 2)),
}


@st.composite
def mixed_systems(draw):
    """An LP system whose cells mix up to three of the CELLS kinds."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=3, unique=True))
    cell = st.one_of(*(CELLS[kind] for kind in kinds))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    row = st.tuples(st.lists(cell, min_size=n, max_size=n).map(tuple), cell)
    return draw(st.lists(row, min_size=m, max_size=m)), n


class TestIntegerRows:
    """_integer_rows takes all-int input by one reduction, against the former type pass."""

    @settings(deadline=None)  # a 4,000-digit LP can outlast the default deadline
    @given(mixed_systems())
    @example(([((1, True), Int(2))], 2))
    @example(([((BIG, -BIG), 3 * BIG), ((1, 2), BIG)], 2))
    @example(([((F(1, 2), Decimal("0.5")), 1)], 2))
    @example(([((Decimal("0.5"), 0.5), 1)], 2))
    @example(([((1, None), 1)], 2))
    # a float beside an int past the float range: the sum raises OverflowError
    @example(([((BIG, 0.5), 1)], 2))
    @example(([((F(BIG), 0.5), 1)], 2))
    # a signalling NaN raises decimal.InvalidOperation in the sum, ValueError in Fraction
    @example(([((1, Decimal("sNaN")), 1)], 2))
    @example(([((1, "x"), 1)], 2))
    def test_same_rows_and_solution_as_the_type_pass(self, system):
        # a cell that Fraction does not read (None, "x", a signalling NaN) raised the type pass's
        # TypeError or ValueError, and is an input error, from exact._cell, and nothing else
        def expected(result):
            return InputError if isinstance(result, type) else result

        eqs, n = system
        got = _result(exact._integer_rows, eqs)
        assert got == expected(_result(reference_integer_rows, eqs))
        if isinstance(got, list):
            assert all(isinstance(c, int) for row in got for c in row)
        assert _result(lp_feasible, eqs, n) == expected(_result(reference_lp_feasible, eqs, n))

    def test_all_int_rows_are_read_as_they_are(self):
        eqs = [((1, -2, BIG), 3), ((0, 0, 1), -1)]
        rows = exact._integer_rows(eqs)
        assert rows == [[1, -2, BIG, 3], [0, 0, 1, -1]]
        assert rows[0][2] is BIG


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


HUGE = 10**4999  # 5,000 digits: its text passes the interpreter's limit on integer text
DESCRIPTOR = mathieu.CoherentFamilyDescriptor.from_weight(["5/2", "1/2"])

# each raised TypeError, AttributeError or ValueError, or (a bool count) returned: a
# collection that is a number, an equality, vector or component that is no pair or has no
# length, a cell that is no rational, a multiset that is no mapping and an int past the
# limit on integer text in a message are each an input error
MALFORMED_ARGUMENTS = [
    ("is_primal-toral-5", lambda a2: fk.is_primal(a2, 0, toral_part=5)),
    ("is_primal-toral-[5]", lambda a2: fk.is_primal(a2, 0, toral_part=[5])),
    ("cuspidal_exists-5", lambda a2: mathieu.cuspidal_exists(5)),
    ("cuspidal_exists-[5]", lambda a2: mathieu.cuspidal_exists([5])),
    ("cuspidal_exists-unhashable", lambda a2: mathieu.cuspidal_exists([[["A"], 2]])),
    ("degree_constancy_check-5", lambda a2: mathieu.degree_constancy_check(DESCRIPTOR, 5)),
    ("lp_feasible-5", lambda a2: lp_feasible(5, 1)),
    ("lp_feasible-[5]", lambda a2: lp_feasible([5], 1)),
    ("lp_feasible-text-cell", lambda a2: lp_feasible([(("a",), 1)], 1)),
    # Fraction read "1e3" as 1000, and would expand "1e999999999" into a billion digits
    ("lp_feasible-exponent-text", lambda a2: lp_feasible([(("1e3",), 1)], 1)),
    ("lp_feasible-bool-count", lambda a2: lp_feasible([((1,), 1)], True)),
    # with no equation the answer is n zeros, which no list holds for these n
    ("lp_feasible-huge-count", lambda a2: lp_feasible([], HUGE)),
    ("lp_feasible-count-past-maxsize", lambda a2: lp_feasible([], 2**64)),
    ("cone_member-5", lambda a2: cone_member(5, [(1,)])),
    ("cone_member-text-cell", lambda a2: cone_member(("a",), [(1,)])),
    ("nullspace-text-cell", lambda a2: exact.nullspace([["a"]])),
    ("cone_witness-[5]", lambda a2: cone_witness([5], [5], 0, 1)),
    ("cone_witness-text-cell", lambda a2: cone_witness([(1,)], [("a",)], 0, 1)),
    ("partition_P-5", lambda a2: principal.partition_P(5, 3)),
    ("RootSubalgebra-huge-mask", lambda a2: RootSubalgebra(a2, HUGE)),
    ("roots_of-huge-mask", lambda a2: a2.roots_of(HUGE)),
    ("index_mask-huge-index", lambda a2: a2.index_mask([HUGE])),
    ("build-huge-rank", lambda a2: rootsys.build("A", HUGE)),
    ("build-huge-series", lambda a2: rootsys.build(HUGE, 2)),
    ("weyl_dim-huge-pairing", lambda a2: rootsys.weyl_dim(a2, (-HUGE, 0, HUGE))),
    ("partition_P-huge-target", lambda a2: principal.partition_P({1: 1}, HUGE)),
    ("vec-huge", lambda a2: vec(HUGE)),
    ("support_shape-text-entry", lambda a2: support_shape(shadow(a2, RootSubalgebra(a2, [])), [("x", 0, 0)], 1)),
    ("support_shape-5", lambda a2: support_shape(shadow(a2, RootSubalgebra(a2, [])), 5, 1)),
]


@pytest.mark.parametrize("call", [c for _, c in MALFORMED_ARGUMENTS], ids=[name for name, _ in MALFORMED_ARGUMENTS])
def test_a_malformed_argument_is_an_input_error(call):
    with pytest.raises(InputError) as info:
        call(rootsys.build("A", 2))
    # a message never shows the 5,000 digits, which str would refuse to write
    assert "0" * 100 not in str(info.value)


def test_nonneg_vars_is_read_by_the_integer_rule():
    # "1" was compared with len(coeffs) as a text: "equality has 1 coefficients, expected 1"
    assert lp_feasible([((1,), 1)], "1") == [F(1)]
    with pytest.raises(InputError, match="^nonneg_vars must be a nonnegative integer, got -1$"):
        lp_feasible([], -1)


def test_a_cone_witness_reads_text_cells_by_the_cell_rule():
    # the b-side text was negated, a TypeError, and the a-side text multiplied into the point
    assert cone_witness([("1", "0")], [(1, "0")], 0, 1) == cone_witness([(1, 0)], [(1, 0)], 0, 1)


# the collection rule names the argument and what was given, where a pair or length check
# further on would raise an input error that names neither
@pytest.mark.parametrize("call, what, shown", [
    (lambda a2: lp_feasible(5, 1), "equalities", "5"),
    (lambda a2: lp_feasible("ab", 1), "equalities", "the text 'ab'"),
    (lambda a2: mathieu.cuspidal_exists(5), "components", "5"),
    (lambda a2: mathieu.cuspidal_exists("A2"), "components", "the text 'A2'"),
    (lambda a2: mathieu.degree_constancy_check(DESCRIPTOR, None), "sample points", "None"),
    (lambda a2: fk.is_primal(a2, 0, toral_part=5), "vectors", "5"),
    (lambda a2: cone_member((1,), 5), "generators", "5"),
    (lambda a2: cone_witness([(1,)], "1", 0, 1), "generators", "the text '1'"),
], ids=["lp_feasible", "lp_feasible-text", "cuspidal_exists", "cuspidal_exists-text", "degree_constancy_check",
        "is_primal", "cone_member", "cone_witness-text"])
def test_the_collection_rule_names_the_argument(call, what, shown):
    with pytest.raises(InputError, match=f"^{what} must be a collection, not {re.escape(shown)}$"):
        call(rootsys.build("A", 2))
