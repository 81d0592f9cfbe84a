"""Exact rational arithmetic, linear algebra and rational-cone geometry.

The interface is ``fractions.Fraction``; no floating point is used anywhere.
Vectors are plain tuples of Fractions, which keeps them hashable and
immutable, so all operations are pure and safe for concurrent use.
Elimination in ``solve_linear`` and ``nullspace`` runs over Fractions.  The
LP behind the cone queries does not: ``lp_feasible`` reads integer input as
it is and scales any other input by the lcm of its denominators, keeps the
tableau as an integer matrix whose rows share one denominator up to that
scale, pivots it fraction-free with Bland's rule, and turns back to
Fractions only for the solution.  The cone queries pass their generators
through unchanged, so integer generators (as ``fk`` and ``shadow`` give
them) reach the simplex with no Fraction built on the way.

``cone_witness`` is the one LP behind the two-cone test: it asks for a
common point whose coordinate k is +1 or -1 and returns it as a
``ConeWitness``.  ``cones_intersect_trivially`` is the general test, that LP
for every (coordinate, sign) pair in turn; ``fk`` picks the one pair to ask
for by graph reachability and calls ``cone_witness`` once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import InputError

Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers


def vec(coords: Iterable) -> Vector:
    # a Fraction entry is kept as it is, so vec on a Vector converts nothing
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def vzero(dim: int) -> Vector:
    return (Fraction(0),) * dim


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * x for x in a)


def dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


def format_rational(q: Fraction) -> str:
    """Serialize as "p" or "p/q" (lowest terms, positive denominator)."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    # no exponent notation: Fraction would expand "1e999999999" into a billion-digit integer
    if re.search(r"[\d.][eE]", s):
        raise InputError(f"not a rational: {s!r} (exponent notation is not accepted)")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"not a rational: {s!r}") from e


def format_vector(v: Vector) -> list[str]:
    return [format_rational(c) for c in v]


def parse_vector(items: Sequence) -> Vector:
    return tuple(parse_rational(str(c)) for c in items)


# ---------------------------------------------------------------------------
# exact Gaussian elimination


def _rref(a: list[list[Fraction]], ncols: int) -> list[tuple[int, int]]:
    """Reduce the first ncols columns of a to reduced row echelon form, in place.

    Returns the (row, column) of every pivot, in column order.
    """
    m = len(a)
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, c))
        r += 1
    return pivots


def solve_linear(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve rows·x = rhs exactly.  Returns one solution or None if inconsistent.

    Free variables are set to 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = _rref(a, n)
    if any(a[i][n] != 0 for i in range(len(pivots), m)):
        return None
    x = [Fraction(0)] * n
    for pr, pc in pivots:
        x[pc] = a[pr][n]
    return x


def nullspace(rows: Sequence[Vector]) -> list[Vector]:
    """Basis of {x : row·x = 0 for every row}."""
    if not rows:
        raise InputError("nullspace needs at least one row to fix the dimension")
    n = len(rows[0])
    a = [list(row) for row in rows]
    pivots = _rref(a, n)
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for fc in (c for c in range(n) if c not in pivot_cols):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for pr, pc in pivots:
            v[pc] = -a[pr][fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# LP feasibility: two-phase simplex, Bland's anti-cycling rule


def _integer_rows(equalities: Sequence[tuple[Sequence, object]]) -> tuple[list[list[int]], int]:
    """The rows [coeffs..., rhs] as integers, and the factor L they were scaled by.

    All-int input is read as it is (L = 1); any other rationals are scaled by
    the lcm L of their denominators.
    """
    rows = [[*coeffs, rhs] for coeffs, rhs in equalities]
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows, 1
    rows = [[c if isinstance(c, (int, Fraction)) else Fraction(c) for c in row] for row in rows]
    scale = lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in rows], scale


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
    rhs; rows negated where rhs < 0) is the integer rows with L on the
    artificial diagonal, pivoted fraction-free
    (Edmonds 1967; Bareiss 1968): a pivot p at (r, s) keeps row r and sets
    a_ij <- (p·a_ij - a_is·a_rj) // d for every other row, then d <- p, where
    d is the previous pivot (initially 1).  The division is exact, since
    every entry is a minor of the scaled input matrix.  Row i then stands
    for the rational row a_i / a_i[basis[i]], with a positive denominator
    (d, or d·L while the row still has its own artificial basic), so signs
    and ratios read straight off the integers.  Pivoting uses Bland's rule,
    with the ratio test done by cross-multiplication and ties broken by the
    smaller basis index, so the run always terminates and takes the same
    pivots as the same simplex run over Fractions.
    """
    n = nonneg_vars
    for coeffs, _ in equalities:
        if len(coeffs) != n:
            raise InputError(f"equality has {len(coeffs)} coefficients, expected {n}")
    m = len(equalities)
    if m == 0:
        return [Fraction(0)] * n
    rows, scale = _integer_rows(equalities)
    # tableau rows: n structural columns, m artificial columns, rhs; rhs >= 0
    tab: list[list[int]] = []
    for i, ints in enumerate(rows):
        if ints[-1] < 0:
            ints = [-x for x in ints]
        art = [0] * m
        art[i] = scale
        tab.append(ints[:n] + art + ints[n:])
    basis = [n + i for i in range(m)]
    # phase-1 objective: minimize the sum of artificials.  Its reduced-cost
    # row (over the same denominator as an untouched row) is the negated
    # column sum on structural columns and the rhs, and 0 on artificials.
    obj = [-sum(col) for col in zip(*tab)]
    for i in range(m):
        obj[n + i] = 0

    d = 1
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio tab[i][-1] / a against the best so far, cross-multiplied
                here = tab[i][-1] * tab[leave][enter]
                best = tab[leave][-1] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
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
            x[bj] = Fraction(tab[i][-1], tab[i][bj])
    return x


def _pivot_row(row: list[int], prow: list[int], p: int, d: int, enter: int) -> list[int]:
    """One fraction-free elimination step of row against pivot row prow."""
    f = row[enter]
    if f:
        return [(p * x - f * y) // d for x, y in zip(row, prow)]
    if p == d:
        return row
    return [p * x // d for x in row]


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


@dataclass(frozen=True)
class ConeWitness:
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
        pa = vzero(dim)
        for c, g in zip(self.coefficients_a, gens_a, strict=True):
            pa = vadd(pa, vscale(c, g))
        pb = vzero(dim)
        for c, g in zip(self.coefficients_b, gens_b, strict=True):
            pb = vadd(pb, vscale(c, g))
        return pa == self.point and pb == self.point

    def to_json(self) -> dict:
        return {
            "coefficients_a": [format_rational(c) for c in self.coefficients_a],
            "coefficients_b": [format_rational(c) for c in self.coefficients_b],
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
    """
    if not gens_a or not gens_b:
        return None
    dim = len(gens_a[0])
    _check_dim(gens_a, dim)
    _check_dim(gens_b, dim)
    na, nb = len(gens_a), len(gens_b)
    # sum of a-coefficients times gens_a minus b-coefficients times gens_b is 0
    balance = [(tuple(g[j] for g in gens_a) + tuple(-g[j] for g in gens_b), 0) for j in range(dim)]
    norm = tuple(g[k] for g in gens_a) + (0,) * nb
    sol = lp_feasible(balance + [(norm, sign)], na + nb)
    if sol is None:
        return None
    ca = tuple(sol[:na])
    cb = tuple(sol[na:])
    # a basic solution has at most dim + 1 nonzero coefficients
    terms = [(c, g) for c, g in zip(ca, gens_a) if c]
    point = tuple(sum(c * g[j] for c, g in terms) for j in range(dim))
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
