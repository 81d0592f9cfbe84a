"""Exact rational arithmetic, linear algebra and rational-cone geometry.

Everything here works over ``fractions.Fraction``; no floating point is used
anywhere.  Vectors are plain tuples of Fractions, which keeps them hashable
and immutable, so all operations are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError

Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers


def vec(coords: Iterable) -> Vector:
    return tuple(Fraction(c) for c in coords)


def vzero(dim: int) -> Vector:
    return (Fraction(0),) * dim


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


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


def in_span(v: Vector, gens: Sequence[Vector]) -> bool:
    """True iff v is a linear (not necessarily nonnegative) combination of gens."""
    if is_zero(v):
        return True
    if not gens:
        return False
    rows = [[g[i] for g in gens] for i in range(len(v))]
    return solve_linear(rows, list(v)) is not None


# ---------------------------------------------------------------------------
# LP feasibility: two-phase simplex, Bland's anti-cycling rule


def lp_feasible(
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
        if is_zero(self.point):
            return False
        if any(c < 0 for c in self.coefficients_a) or any(c < 0 for c in self.coefficients_b):
            return False
        dim = len(self.point)
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
    therefore run one feasibility LP per (coordinate, sign) pair instead of
    normalizing the coefficient sum; the latter can be satisfied by a
    combination summing to the zero point when gens_a positively spans a
    line, which would yield a wrong verdict.
    """
    if not gens_a or not gens_b:
        return True, None
    dim = len(gens_a[0])
    _check_dim(gens_a, dim)
    _check_dim(gens_b, dim)
    na, nb = len(gens_a), len(gens_b)
    for k in range(dim):
        for sign in (Fraction(1), Fraction(-1)):
            eqs: list[tuple[tuple[Fraction, ...], Fraction]] = []
            for j in range(dim):
                row = tuple(g[j] for g in gens_a) + tuple(-g[j] for g in gens_b)
                eqs.append((row, Fraction(0)))
            norm = tuple(g[k] for g in gens_a) + (Fraction(0),) * nb
            eqs.append((norm, sign))
            sol = lp_feasible(eqs, na + nb)
            if sol is not None:
                ca = tuple(sol[:na])
                cb = tuple(sol[na:])
                point = vzero(dim)
                for c, g in zip(ca, gens_a):
                    point = vadd(point, vscale(c, g))
                return False, ConeWitness(ca, cb, point)
    return True, None
