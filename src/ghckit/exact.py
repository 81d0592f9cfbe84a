"""Exact rational arithmetic, linear algebra and rational-cone geometry.

The interface is ``fractions.Fraction``; no floating point is used anywhere.
Numbers enter as text by one rule: ``parse_rational`` and ``parse_integer``
take no exponent notation and no "_" digit separators.  ``parse_rational``
reads plain "p" and "p/q" (a sign and decimal digits) by ``int`` alone, with
no pattern compiled, and any other text by ``Fraction``, to the same value
or input error.  ``parse_integer`` is also the one rule for the library's
integer arguments (so a float or a bool is an input error),
``parse_nonnegative`` that rule for a count or a bound, and ``cone_witness``
reads its k and sign by it.  Numbers leave by one rule too: ``format_rational``
writes a rational as text, and ``within_text_limit`` checks an int that a
document holds as a number; past the interpreter's limit on integer text
(``sys.get_int_max_str_digits()``), where ``str`` and ``json`` raise
ValueError, each is an input error that names the bound.
Vectors are plain tuples of Fractions, which keeps them hashable and
immutable, so all operations are pure and safe for concurrent use.  ``vec``
reads a vector's entries: a Fraction or an int (not a bool) as it is, text by
``parse_rational``, and anything else, a float among them, as an input error.

Arguments given from outside meet two more rules, each with one
implementation here.  The collection rule, ``_iterate``: a number, None or one
text where a collection belongs is an input error (a text would otherwise be
read a character at a time).  ``vec``, ``lp_feasible``'s equalities, the root
subsets of ``rootsys`` and the collections of ``mathieu`` are read by it.  The
length rule, ``_check_dim``: every vector of a collection, read by the
collection rule, has one length, given or that of the first, and a vector with
no length is an input error.  The cone queries, ``fk.is_primal``'s toral part
and ``shadow.support_shape``'s base points are checked by it.  A cell of a
linear system is read by ``_cell``, the one place where a cell that is not a
rational is an input error, and an error message shows a value given from
outside by ``_shown``, so that no message fails on an int past the limit on
integer text.
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
``shadow`` give them) reach the simplex with no Fraction built on the way:
``_integer_rows`` tells all-int rows by one reduction in C, the type of the
sum of every cell, and reads them as they are.  A solution or point entry
over denominator 1 is an integer, taken from a table of shared Fractions
(``_SMALL``, -8 .. 8, which holds nearly every such entry of a type-A LP)
or built as a one-argument Fraction past it.

``cone_witness`` is the one LP behind the two-cone test: it asks for a
common point whose coordinate k is +1 or -1 and returns it as a
``ConeWitness``, whose point it sums in integers over one denominator (the
lcm of the nonzero coefficients' denominators, 1 on every type-A LP) and
turns into one Fraction per coordinate, from the shared table where it can.
A coordinate outside the cones' dimension, or a sign other than +1 and -1,
is an input error.  ``cone_witness`` reads its arguments and hands them to
``_cone_witness``, the LP itself, which ``fk`` calls on the integer rows it
builds, so that the census does not read its own rows again.
``ConeWitness.verify`` checks each side one coordinate at a time, by one
``dot`` of the coefficients with that coordinate of the generators.
``cones_intersect_trivially`` is the general test, that LP for every
(coordinate, sign) pair in turn; ``fk`` picks the one pair to ask for by
graph reachability and calls ``_cone_witness`` once.

``_Record`` is the library's one frozen record, with a generated constructor:
``ConeWitness`` here and every record of ``rootsys``, ``shadow``, ``fk``,
``principal``, ``mathieu`` and ``cli`` are built on it.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul, neg, sub

from .errors import InputError

Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# the frozen record


class _Record:
    """A frozen record, the one base of every ghckit record, with views built on
    first use and stored on it.  Its fields are the class annotations, in order
    (``_fields``).  A subclass that writes no ``__init__`` gets the one a person
    would write by hand: ``__init_subclass__`` runs one ``exec`` of ``def
    __init__(self, <fields>):`` with one ``_set(self, "<field>", <field>)`` per
    field, where ``_set`` is ``object.__setattr__``, which the frozen
    ``__setattr__`` does not stop (``namedtuple`` builds its ``__new__`` the
    same way).  So the fields are taken by position or by keyword, and a
    missing or an extra one is a TypeError.
    Equality and hashing compare the fields alone, of records of the same
    class, so a stored view changes neither, and a record equals no tuple (nor
    has a length, or unpacks); ``_replace`` builds a new record, with no views,
    from the fields; assigning or deleting an attribute is an AttributeError.
    That is what ``dataclass(frozen=True)`` gave, without importing
    ``dataclasses``, which costs every fresh interpreter about 10 ms, most of
    it in ``inspect``, or ``typing``, which ``NamedTuple`` would bring."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        if "__init__" not in vars(cls):
            namespace = {"_set": object.__setattr__}
            body = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
            exec(f"def __init__(self, {', '.join(cls._fields)}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def _replace(self, **changes):
        unknown = changes.keys() - self._fields
        if unknown:
            raise TypeError(f"{type(self).__qualname__} has no fields {sorted(unknown)}")
        return type(self)(*(changes.get(f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# vector helpers


def vec(coords: Iterable) -> Vector:
    """coords as a Vector: a Fraction entry as it is (so vec on a Vector converts
    nothing), an int (not a bool) as its Fraction, and text by ``parse_rational``;
    any other entry, a float among them, is an input error, and so is coords
    given as one text, which would otherwise be read a character at a time, or
    as anything that is not iterable, such as a number or None (``_iterate``)."""
    return tuple(c if type(c) is Fraction else _entry(c) for c in _iterate(coords, "a vector is a sequence of entries"))


def _iterate(values, what: str):
    """The collection rule: an iterator over values given from outside where a
    collection belongs.  Values that are not iterable, such as a number or None,
    are an input error, and so are values given as one text, which would
    otherwise be read a character at a time; the message is what, then the
    values."""
    if isinstance(values, str):
        raise InputError(f"{what}, not the text {values!r}")
    try:
        return iter(values)
    except TypeError:
        raise InputError(f"{what}, not {_shown(values)}") from None


def _shown(value, text=repr) -> str:
    """text(value), repr by default, for an error message; a value whose text would
    hold an int past the interpreter's limit on integer text, where ``str`` and
    ``repr`` raise ValueError, is shown by its type, so no message fails to build."""
    try:
        return text(value)
    except ValueError:
        return f"<{type(value).__name__} past the limit on integer text>"


def _entry(c) -> Fraction:
    """One rational by ``vec``'s entry rule, which ``principal`` reads its targets by."""
    if type(c) is Fraction:
        return c
    if isinstance(c, str):
        return parse_rational(c)
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return Fraction(c)
    raise InputError(f"not a rational: {_shown(c)}")


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
    """Serialize as "p" or "p/q" (lowest terms, positive denominator), by the output
    rule of ``within_text_limit``."""
    if type(q) is not Fraction:
        q = Fraction(q)
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise _past_text_limit() from None


def within_text_limit(n: int) -> int:
    """n, after the one output rule for numbers: an integer whose decimal text would
    pass the interpreter's limit on integer text (``sys.get_int_max_str_digits()``, 0
    for none), which ``str`` and ``json`` enforce by a ValueError, is an input error
    that names the bound.  For an int that a document holds as a number."""
    try:
        str(n)
    except ValueError:
        raise _past_text_limit() from None
    return n


def _past_text_limit() -> InputError:
    return InputError(f"a number to be written has more than {sys.get_int_max_str_digits()} decimal digits, "
                      "the interpreter's limit on integer text (sys.get_int_max_str_digits())")


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
    raise InputError(f"expected an integer, got {_shown(value)}")


def parse_nonnegative(value, name: str) -> int:
    """``parse_integer``, then the rule that the integer is not negative."""
    n = parse_integer(value)
    if n < 0:
        raise InputError(f"{name} must be a nonnegative integer, got {_shown(n)}")
    return n


def format_vector(v: Vector) -> list[str]:
    return [format_rational(c) for c in v]


# ---------------------------------------------------------------------------
# LP feasibility: two-phase simplex, Bland's anti-cycling rule


# the Fractions -8 .. 8, shared: the LP's integer basic values and a witness point's
# coordinates are nearly all small, and a shared Fraction costs a tuple index, not a
# Fraction construction; _ZERO is also the identity by which cone_witness drops zeros
_SMALL = tuple(Fraction(i) for i in range(-8, 9))
_ZERO = _SMALL[8]


def _fraction(v) -> Fraction:
    """The rational v as a Fraction: the shared one from _SMALL for an int in -8 .. 8."""
    return _SMALL[v + 8] if type(v) is int and -8 <= v <= 8 else Fraction(v)


def _integer_rows(equalities: Iterable[tuple[Sequence, object]]) -> list[list[int]]:
    """The rows [coeffs..., rhs] as integers: all-int input is read as it is, and
    any other rationals are scaled by the lcm of their denominators.  An
    equation that is not a pair of a sequence and a number is an input error.

    All-int is one reduction in C: a sum of ints (bools and int subclasses
    among them) is an int, a Fraction, a float or a Decimal makes the sum
    something else, text or None raises ``TypeError``, and a float beside an
    int past its range (``OverflowError``) or a signalling Decimal raises an
    ``ArithmeticError``; each of those takes the per-cell path, ``_cell``."""
    try:
        rows = [[*coeffs, rhs] for coeffs, rhs in equalities]
    except (TypeError, ValueError):
        raise InputError("an equation is a pair (coefficients, rhs) of a sequence and a number") from None
    try:
        if type(sum(map(sum, rows))) is int:
            return rows
    except (TypeError, ArithmeticError):
        pass
    rows = [list(map(_cell, row)) for row in rows]
    scale = lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in rows]


def _cell(c) -> int | Fraction:
    """One cell of a linear system: an int (a bool among them) or a Fraction as it
    is, text by ``parse_rational`` (so "1e999999999" is not expanded into a
    billion-digit integer), anything else as ``Fraction`` reads it.  The one place
    where a cell that is not a rational (None, a list, "x", a float nan or inf) is
    an input error."""
    if isinstance(c, str):
        return parse_rational(c)
    try:
        return c if isinstance(c, (int, Fraction)) else Fraction(c)
    except (TypeError, ValueError, ArithmeticError):
        raise InputError(f"not a rational: {_shown(c)}") from None


def lp_feasible(
    equalities: Sequence[tuple[Sequence[Fraction], Fraction]], nonneg_vars: int
) -> list[Fraction] | None:
    """Decide feasibility of {x >= 0, coeffs·x = rhs for each equality}.

    Coefficients are rationals (int, Fraction, or anything Fraction accepts),
    and the result is an exact rational solution as a list of Fractions, or
    None when infeasible.  The equalities are a collection (``_iterate``) of
    pairs (coefficients, rhs), and nonneg_vars is a count
    (``parse_nonnegative``, so a bool or a text is an input error).  All-int
    input is read directly, told from any other by one reduction
    (``_integer_rows``: the sum of every cell is an int only then); any other
    input is scaled to integer rows first, and both go through the same
    tableau, whose rows are then checked against nonneg_vars.

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
    as the shared Fraction of ``_SMALL`` for 0 .. 8 (every nonbasic value is
    the shared zero) and as a one-argument Fraction above; any other is the
    quotient of the two entries.
    """
    n = parse_nonnegative(nonneg_vars, "nonneg_vars")
    rows = _integer_rows(_iterate(equalities, "equalities must be a collection"))
    for ints in rows:
        if len(ints) != n + 1:
            raise InputError(f"equality has {len(ints) - 1} coefficients, expected {n}")
    m = len(rows)
    if m == 0:
        try:
            return [_ZERO] * n
        except (OverflowError, MemoryError):  # with no equation, nothing bounds n but memory
            raise InputError(f"nonneg_vars {_shown(n)} is more than a list can hold") from None
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
    x = [_ZERO] * n
    for i, bj in enumerate(basis):
        if bj < n:
            row = tab[i]
            x[bj] = _fraction(row[-1]) if row[bj] == 1 else Fraction(row[-1], row[bj])
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


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
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


def _check_dim(vectors: Iterable, dim: int | None, message="dimension mismatch: expected {dim}, got {got}") -> list:
    """The length rule: the collection vectors, read once by ``_iterate``, as a
    list, after checking that every vector has the length dim, or, for dim None,
    the length of the first.  A vector of another length is an input error,
    with message formatted by dim and got, the length found, and so is a vector
    with no length."""
    vectors = list(_iterate(vectors, "vectors must be a collection"))
    try:
        for v in vectors:
            if dim is not None and len(v) != dim:
                raise InputError(message.format(dim=dim, got=len(v)))
            dim = len(v)
    except TypeError:
        raise InputError(f"a vector is a sequence of entries, not {_shown(v)}") from None
    return vectors


def cone_member(v: Vector, generators: Sequence[Vector]) -> list[Fraction] | None:
    """Nonnegative-combination coefficients expressing v over generators, or None.

    The zero vector is always a member (empty combination).  v and the
    generators are checked by one length rule, ``_check_dim``, v first.
    """
    v, *generators = _check_dim(chain((v,), _iterate(generators, "generators must be a collection")), None)
    if not generators:
        return [] if is_zero(v) else None
    eqs = [(tuple(g[i] for g in generators), v[i]) for i in range(len(v))]
    return lp_feasible(eqs, len(generators))


class ConeWitness(_Record):
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
) -> ConeWitness | None:
    """A point common to cone(gens_a) and cone(gens_b) whose coordinate k is
    sign (+1 or -1), with the coefficients that give it on each side, or None
    when there is no such point (also when a side has no generators).

    Both generator lists, each a collection (``_iterate``), are checked by one
    length rule, ``_check_dim``, which names the first vector whose length
    differs from that of the first a-generator, and every cell is read by the
    one cell rule, ``_cell``.  k and sign are read by ``parse_integer``, so a
    float or a bool is an input error, as are a sign other than 1 and -1 and
    (when both sides have generators) a k outside range(dim).  The LP is
    ``_cone_witness``.
    """
    k, sign = parse_integer(k), parse_integer(sign)
    if sign not in (1, -1):
        raise InputError(f"sign must be 1 or -1, got {_shown(sign)}")
    gens_a, gens_b = (list(_iterate(gens, "generators must be a collection")) for gens in (gens_a, gens_b))
    _check_dim(chain(gens_a, gens_b), None)
    if not gens_a or not gens_b:
        return None
    dim = len(gens_a[0])
    if k not in range(dim):
        raise InputError(f"coordinate {_shown(k)} is outside range({dim})")
    return _cone_witness([list(map(_cell, g)) for g in gens_a], [list(map(_cell, g)) for g in gens_b], k, sign)


def _cone_witness(gens_a: Sequence[Sequence], gens_b: Sequence[Sequence], k: int, sign: int) -> ConeWitness | None:
    """``cone_witness`` on generators already read: two nonempty lists of rows of
    one length, of ints and Fractions, with k in range and sign 1 or -1.  The
    entry of a caller that builds its rows so, as ``fk.theorem8_finite_type``
    does on the census hot path.

    One feasibility LP: balance rows saying that the a-combination minus the
    b-combination is 0, and one normalisation row fixing coordinate k of the
    a-combination at sign.  The witness is the simplex's basic solution.  The
    point is summed over the nonzero a-coefficients, the zeros dropped by
    identity with the shared zero that ``lp_feasible`` gives every nonbasic
    value, and its integer coordinates come from the same shared table.
    """
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
    # (a zero that is not the shared one gets through, and adds nothing over denominator 1)
    terms = [(c, g) for c, g in zip(ca, gens_a) if c is not _ZERO]
    den = lcm(*(c.denominator for c, _ in terms))
    ints = [c.numerator * (den // c.denominator) for c, _ in terms]
    sums = [sum(map(mul, ints, col)) for col in zip(*(g for _, g in terms))]
    point = tuple(map(_fraction, sums)) if den == 1 else tuple(Fraction(s, den) for s in sums)
    return ConeWitness(ca, cb, point)


def cones_intersect_trivially(
    gens_a: Sequence[Vector], gens_b: Sequence[Vector]
) -> tuple[bool, ConeWitness | None]:
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
