"""Exact rational arithmetic, linear algebra and rational-cone geometry.

The interface is ``fractions.Fraction``; no floating point is used anywhere.
Numbers enter as text by one rule: ``parse_rational`` and ``parse_integer``
take no exponent notation and no "_" digit separators.  ``parse_rational``
reads plain "p" and "p/q" (a sign and decimal digits) by ``int`` alone, with
no pattern compiled, and any other text by ``Fraction``, to the same value
or input error.  ``parse_integer`` is also the one rule for the library's
integer arguments (so a float or a bool is an input error),
``parse_nonnegative`` that rule for a count or a bound, and ``cone_witness``
reads its k and sign by it.
Vectors are plain tuples of Fractions, which keeps them hashable and
immutable, so all operations are pure and safe for concurrent use.  ``vec``
reads a vector's entries: a Fraction or an int (not a bool) as it is, text by
``parse_rational``, and anything else, a float among them, as an input error.
Elimination runs on integers, by one fraction-free step, ``_pivot_row``.
The LP behind the cone queries reads integer input as it is and scales any
other input by the lcm of its denominators, keeps the tableau as an integer
matrix whose rows share one denominator, pivots it with
that step under Bland's rule, and turns back to Fractions only for the
solution.  ``_reduce`` is Gauss-Jordan by the same step: ``nullspace`` (and
``solve_linear`` through it) scale their rows to integers the same way and
reduce them with it, ``rootsys`` inverts the Cartan matrix with it, and
``fk`` compares the ranks of integer toral rows with it.  A step whose pivot
and previous pivot are both 1 (every step of the type-A LPs that ``fk``
runs) and whose row's entering entry is 1 or -1 (every such step of those
LPs that changes its row) skips the scaling and runs in C, through ``map``:
a row subtraction for 1, an addition for -1.  The cone queries pass their
generators through unchanged, so integer generators (as ``fk`` and
``shadow`` give them) reach the simplex with no Fraction built on the way,
and a solution or point entry over denominator 1 is built as a one-argument
Fraction.

``cone_witness`` is the one LP behind the two-cone test: it asks for a
common point whose coordinate k is +1 or -1 and returns it as a
``ConeWitness``, whose point it sums in integers over one denominator (the
lcm of the nonzero coefficients' denominators, 1 on every type-A LP) and
turns into one Fraction per coordinate.  A coordinate outside the cones'
dimension, or a sign other than +1 and -1, is an input error.
``ConeWitness.verify`` checks each side one coordinate at a time, by one
``dot`` of the coefficients with that coordinate of the generators.
``cones_intersect_trivially`` is the general test, that LP for every
(coordinate, sign) pair in turn; ``fk`` picks the one pair to ask for by
graph reachability and calls ``cone_witness`` once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul, neg, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InputError

Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers


def vec(coords: Iterable) -> Vector:
    """coords as a Vector: a Fraction entry as it is (so vec on a Vector converts
    nothing), an int (not a bool) as its Fraction, and text by ``parse_rational``;
    any other entry, a float among them, is an input error, and so is coords
    given as one text, which would otherwise be read a character at a time."""
    if isinstance(coords, str):
        raise InputError(f"a vector is a sequence of entries, not the text {coords!r}")
    return tuple(c if type(c) is Fraction else _entry(c) for c in coords)


def _entry(c) -> Fraction:
    if isinstance(c, str):
        return parse_rational(c)
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return Fraction(c)
    raise InputError(f"not a rational: {c!r}")


def vzero(dim: int) -> Vector:
    return (Fraction(0),) * dim


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vscale(c, a: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * x for x in a)


def dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


def format_rational(q: Fraction) -> str:
    """Serialize as "p" or "p/q" (lowest terms, positive denominator)."""
    if type(q) is not Fraction:
        q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    # plain "p" or "p/q", a sign and decimal digits, is read by int alone: isdecimal
    # takes exactly the digits that int (and Fraction's \d) reads, and no pattern is
    # compiled, here or at import
    num, slash, den = s.partition("/")
    plain = (num[1:] if num[:1] in ("+", "-") else num).isdecimal() and (den.isdecimal() or not slash)
    if not plain:
        # no exponent notation: Fraction would expand "1e999999999" into a billion-digit integer
        if re.search(r"[\d.][eE]", s):
            raise InputError(f"not a rational: {s!r} (exponent notation is not accepted)")
        # nor "_" separators, which Fraction reads ("3_0" is 30) only from Python 3.11 on
        if "_" in s:
            raise InputError(f"not a rational: {s!r} (_ separators are not accepted)")
    try:
        if plain:
            # int raises ValueError past 4,300 digits from Python 3.11 on, as Fraction does
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"not a rational: {s!r}") from e


def parse_integer(value) -> int:
    """An int (not a bool) as it is, or the integer a string spells, with no "_"
    separators, which int reads ("0_2" is 2), as parse_rational takes none."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and "_" not in value:
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"expected an integer, got {value!r}")


def parse_nonnegative(value, name: str) -> int:
    """``parse_integer``, then the rule that the integer is not negative."""
    n = parse_integer(value)
    if n < 0:
        raise InputError(f"{name} must be a nonnegative integer, got {n}")
    return n


def format_vector(v: Vector) -> list[str]:
    return [format_rational(c) for c in v]


# ---------------------------------------------------------------------------
# LP feasibility: two-phase simplex, Bland's anti-cycling rule


def _integer_rows(equalities: Sequence[tuple[Sequence, object]]) -> list[list[int]]:
    """The rows [coeffs..., rhs] as integers: all-int input is read as it is, and
    any other rationals are scaled by the lcm of their denominators."""
    rows = [[*coeffs, rhs] for coeffs, rhs in equalities]
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    rows = [[c if isinstance(c, (int, Fraction)) else Fraction(c) for c in row] for row in rows]
    scale = lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in rows]


def lp_feasible(
    equalities: Sequence[tuple[Sequence[Fraction], Fraction]], nonneg_vars: int
) -> Optional[list[Fraction]]:
    """Decide feasibility of {x >= 0, coeffs·x = rhs for each equality}.

    Coefficients are rationals (int, Fraction, or anything Fraction accepts),
    and the result is an exact rational solution as a list of Fractions, or
    None when infeasible.  All-int input is read directly; any other input is
    scaled to integer rows first (``_integer_rows``), and both go through the
    same tableau.

    Inside, the phase-1 tableau (n structural columns, m artificial columns,
    rhs; rows negated where rhs < 0) is the integer rows with 1 on the
    artificial diagonal, pivoted fraction-free
    (Edmonds 1967; Bareiss 1968): a pivot p at (r, s) keeps row r and sets
    a_ij <- (p·a_ij - a_is·a_rj) // d for every other row, then d <- p, where
    d is the previous pivot (initially 1).  The division is exact, since
    every entry is a minor of the scaled input matrix; when p = d = 1 the
    step skips the scaling and is a_ij - a_is·a_rj (see ``_pivot_row``).
    Row i then stands for the rational row a_i / a_i[basis[i]], with a
    positive denominator d, so signs and ratios read straight off the integers.
    Pivoting uses Bland's rule, with the ratio test done by
    cross-multiplication and ties broken by the smaller basis index, so the
    run always terminates and takes the same pivots as the same simplex run
    over Fractions.  The per-cell work runs
    in C: the phase-1 objective is the negated column sums of the equality
    rows, by ``map`` over ``zip``, before the artificial block is inserted
    into each row in place, and the unit step is one ``map``.  A basic
    value whose row holds 1 at its basic column is an integer and comes out
    as a one-argument Fraction; any other is the quotient of the two entries.
    """
    n = nonneg_vars
    for coeffs, _ in equalities:
        if len(coeffs) != n:
            raise InputError(f"equality has {len(coeffs)} coefficients, expected {n}")
    m = len(equalities)
    if m == 0:
        return [Fraction(0)] * n
    rows = _integer_rows(equalities)
    # the equality rows with rhs >= 0
    tab = [ints if ints[-1] >= 0 else list(map(neg, ints)) for ints in rows]
    # phase-1 objective: minimize the sum of artificials.  Its reduced-cost
    # row (over the same denominator as an untouched row) is the negated
    # column sum on structural columns and the rhs, and 0 on artificials.
    obj = list(map(neg, map(sum, zip(*tab))))
    obj[n:n] = [0] * m
    # tableau rows: n structural columns, m artificial columns, rhs
    for i, ints in enumerate(tab):
        art = [0] * m
        art[i] = 1
        ints[n:n] = art
    basis = [n + i for i in range(m)]

    d = 1
    while True:
        # Bland's rule: the first column with a negative reduced cost enters; none left, done
        for enter in range(n + m):
            if obj[enter] < 0:
                break
        else:
            break
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is not None:
                    # ratio row[-1] / a against the best so far, lb / la, cross-multiplied
                    here, best = row[-1] * la, lb * a
                    if not (here < best or (here == best and basis[i] < basis[leave])):
                        continue
                leave, la, lb = i, a, row[-1]
        if leave is None:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise InputError("unbounded phase-1 LP; inconsistent input")
        prow = tab[leave]
        p = prow[enter]
        for i in range(m):
            if i != leave:
                tab[i] = _pivot_row(tab[i], prow, p, d, enter)
        obj = _pivot_row(obj, prow, p, d, enter)
        d = p
        basis[leave] = enter

    # the attained phase-1 objective value is -obj[-1] over a positive denominator
    if obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            row = tab[i]
            x[bj] = Fraction(row[-1]) if row[bj] == 1 else Fraction(row[-1], row[bj])
    return x


def _pivot_row(row: list[int], prow: list[int], p: int, d: int, enter: int) -> list[int]:
    """One fraction-free elimination step of row against pivot row prow:
    (p·x - f·y) // d for each entry x of row and y of prow, where f is the
    row's entry in the entering column.

    When p = d = 1 and f = ±1, as in every step of the type-A LPs that
    ``fk`` runs that changes its row, there is no scaling, and the step runs
    in C: x - y for f = 1 and x + y for f = -1, through ``map`` over the two
    rows.  Any other nonzero f takes the general line.  A row with f = 0
    comes back as it is (the same list) when p = d, and as p·x // d
    otherwise.
    """
    f = row[enter]
    if f:
        if p == d == 1:
            if f == 1:
                return list(map(sub, row, prow))
            if f == -1:
                return list(map(add, row, prow))
        return [(p * x - f * y) // d for x, y in zip(row, prow)]
    if p == d:
        return row
    return [p * x // d for x in row]


# ---------------------------------------------------------------------------
# linear systems, on the same fraction-free step


def _reduce(rows: list[list[int]], ncols: int) -> tuple[list[tuple[int, int]], int]:
    """Reduce the first ncols columns of integer rows fraction-free, in place:
    Gauss-Jordan by ``_pivot_row`` steps, swapping up the first row with a
    nonzero entry in each column.

    Returns the (row, column) of every pivot, in column order, and the last
    pivot d.  Each pivot row then holds d at its own pivot column and 0 at
    the others', so the rows over d are the reduced row echelon form.
    """
    pivots: list[tuple[int, int]] = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        rows[:] = [row if i == r else _pivot_row(row, rows[r], p, d, c) for i, row in enumerate(rows)]
        d = p
        pivots.append((r, c))
    return pivots, d


def nullspace(rows: Sequence[Sequence]) -> list[Vector]:
    """Basis of {x : row·x = 0 for every row}, one vector per free column.

    The rows are scaled to integers (``_integer_rows``) and reduced by
    ``_reduce``.
    """
    if not rows:
        raise InputError("nullspace needs at least one row to fix the dimension")
    n = len(rows[0])
    a = _integer_rows([(row, 0) for row in rows])
    pivots, d = _reduce(a, n)
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for fc in (c for c in range(n) if c not in pivot_cols):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for pr, pc in pivots:
            v[pc] = Fraction(-a[pr][fc], d)
        basis.append(tuple(v))
    return basis


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """Solve rows·x = rhs exactly.  Returns one solution or None if inconsistent.

    Free variables are set to 0.  That solution is -v[:-1] for the vector v of
    ``nullspace`` of the augmented rows [row | rhs] that belongs to the rhs
    column, the last; that column is free, so v exists, iff the system is
    consistent.
    """
    if not rows:
        return []
    basis = nullspace([(*row, b) for row, b in zip(rows, rhs)])
    if not basis or basis[-1][-1] != 1:
        return None
    return [-x for x in basis[-1][:-1]]


# ---------------------------------------------------------------------------
# cone queries


def _check_dim(vectors: Iterable[Vector], dim: int) -> None:
    for v in vectors:
        if len(v) != dim:
            raise InputError(f"dimension mismatch: expected {dim}, got {len(v)}")


def cone_member(v: Vector, generators: Sequence[Vector]) -> Optional[list[Fraction]]:
    """Nonnegative-combination coefficients expressing v over generators, or None.

    The zero vector is always a member (empty combination).
    """
    _check_dim(generators, len(v))
    if not generators:
        return [] if is_zero(v) else None
    eqs = [(tuple(g[i] for g in generators), v[i]) for i in range(len(v))]
    return lp_feasible(eqs, len(generators))


class ConeWitness(NamedTuple):
    """Certificate of a nonzero point common to two rational cones."""

    coefficients_a: tuple[Fraction, ...]
    coefficients_b: tuple[Fraction, ...]
    point: Vector

    def verify(self, gens_a: Sequence[Vector], gens_b: Sequence[Vector]) -> bool:
        """Whether the coefficients are nonnegative and combine gens_a and gens_b
        into the same nonzero point.  A witness of another shape than the
        generators (a coefficient per generator, the point's dimension) is false."""
        dim = len(self.point)
        if len(self.coefficients_a) != len(gens_a) or len(self.coefficients_b) != len(gens_b):
            return False
        if any(len(g) != dim for g in chain(gens_a, gens_b)):
            return False
        if is_zero(self.point):
            return False
        if any(c < 0 for c in self.coefficients_a) or any(c < 0 for c in self.coefficients_b):
            return False
        # one dot per coordinate of the point, not per row of zip(*gens): a side with no
        # generators then sums to the zero point, which differs from a nonzero point
        sides = ((self.coefficients_a, gens_a), (self.coefficients_b, gens_b))
        return all(dot(cs, [g[i] for g in gens]) == x for cs, gens in sides for i, x in enumerate(self.point))

    def to_json(self) -> dict:
        return {
            "coefficients_a": format_vector(self.coefficients_a),
            "coefficients_b": format_vector(self.coefficients_b),
            "point": format_vector(self.point),
        }


def cone_witness(
    gens_a: Sequence[Vector], gens_b: Sequence[Vector], k: int, sign: int
) -> Optional[ConeWitness]:
    """A point common to cone(gens_a) and cone(gens_b) whose coordinate k is
    sign (+1 or -1), with the coefficients that give it on each side, or None
    when there is no such point.

    One feasibility LP: balance rows saying that the a-combination minus the
    b-combination is 0, and one normalisation row fixing coordinate k of the
    a-combination at sign.  The witness is the simplex's basic solution.

    k and sign are read by ``parse_integer``, so a float or a bool is an input
    error, as are a sign other than 1 and -1 and (when both sides have
    generators) a k outside range(dim).
    """
    k, sign = parse_integer(k), parse_integer(sign)
    if sign not in (1, -1):
        raise InputError(f"sign must be 1 or -1, got {sign!r}")
    if not gens_a or not gens_b:
        return None
    dim = len(gens_a[0])
    if k not in range(dim):
        raise InputError(f"coordinate {k!r} is outside range({dim})")
    _check_dim(gens_a, dim)
    _check_dim(gens_b, dim)
    na, nb = len(gens_a), len(gens_b)
    # sum of a-coefficients times gens_a minus b-coefficients times gens_b is 0: column j of
    # the generators, the b-side negated, is balance row j
    cols = list(zip(*gens_a, *(map(neg, g) for g in gens_b)))
    rows = [(col, 0) for col in cols] + [(cols[k][:na] + (0,) * nb, sign)]
    sol = lp_feasible(rows, na + nb)
    if sol is None:
        return None
    ca = tuple(sol[:na])
    cb = tuple(sol[na:])
    # a basic solution has at most dim + 1 nonzero coefficients; their sum is taken in
    # integers over D, the lcm of their denominators, and divided by D once per coordinate
    terms = [(c, g) for c, g in zip(ca, gens_a) if c]
    den = lcm(*(c.denominator for c, _ in terms))
    ints = [c.numerator * (den // c.denominator) for c, _ in terms]
    sums = [sum(map(mul, ints, col)) for col in zip(*(g for _, g in terms))]
    point = tuple(map(Fraction, sums)) if den == 1 else tuple(Fraction(s, den) for s in sums)
    return ConeWitness(ca, cb, point)


def cones_intersect_trivially(
    gens_a: Sequence[Vector], gens_b: Sequence[Vector]
) -> tuple[bool, Optional[ConeWitness]]:
    """Decide whether cone(gens_a) and cone(gens_b) meet only at 0.

    The integer-monoid form of this condition reduces to the rational-cone
    form: clearing denominators maps any nonzero rational common point to a
    nonzero integer one, and conversely integer points are rational, so the
    two conditions coincide and an LP over Q decides both.

    A nonzero common point has a nonzero coordinate, and cones are invariant
    under positive scaling, so we may normalize that coordinate to +-1.  We
    therefore run ``cone_witness`` for each (coordinate, sign) pair in turn
    instead of normalizing the coefficient sum; the latter can be satisfied
    by a combination summing to the zero point when gens_a positively spans
    a line, which would yield a wrong verdict.
    """
    for k in range(len(gens_a[0]) if gens_a else 0):
        for sign in (1, -1):
            witness = cone_witness(gens_a, gens_b, k, sign)
            if witness is not None:
                return False, witness
    return True, None
