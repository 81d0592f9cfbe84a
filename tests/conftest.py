import os
import random
from fractions import Fraction
from operator import add
from typing import Optional, Sequence

import pytest
from hypothesis import settings

from ghckit import rootsys
from ghckit.errors import InputError
from ghckit.exact import Vector
from ghckit.rootsys import bits

# HYPOTHESIS_PROFILE=ci: a fixed example sequence, and ten times the default
# number of examples for tests that do not set their own (the differential
# LP test among them)
settings.register_profile("ci", derandomize=True, max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


# the 34 types of acceptance criterion 1: A1-A8, B, C and D of rank 2-8, E6-E8, F4, G2
ALL_TYPES = sorted(
    [("A", n) for n in range(1, 9)]
    + [(s, n) for s in "BCD" for n in range(2, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


# the Fraction views of a RootSystem, each built on first use from its integer tables
VIEWS = ("_index", "all_roots", "fundamental_weights", "positive_roots", "simple_roots")


def V(*coords):
    return tuple(Fraction(c) for c in coords)


def neg(v):
    return tuple(-c for c in v)


@pytest.fixture(scope="session")
def a1():
    return rootsys.build("A", 1)


@pytest.fixture(scope="session")
def a2():
    return rootsys.build("A", 2)


@pytest.fixture(scope="session")
def a3():
    return rootsys.build("A", 3)


@pytest.fixture(scope="session")
def c2():
    return rootsys.build("C", 2)


# the dense root-sum table of each type that a test has read, by (series, rank)
_SUM_TABLES = {}


def sum_table(rs):
    """The dense root-sum table of rs: entry [i][j] is the index of all_roots[i] + all_roots[j],
    or -1 when that sum is not a root.  A reference that reads only the Fraction root vectors,
    no table of the library: every root lies in Z/2, so each sum is taken exactly on the
    doubled vectors, as integers (Fraction additions would cost 20 times as much).  Built
    once per type, on first read."""
    key = rs.series, rs.rank
    if key not in _SUM_TABLES:
        doubled = [tuple(2 * x for x in a) for a in rs.all_roots]
        assert all(x.denominator == 1 for a in doubled for x in a)
        rows = [tuple(x.numerator for x in a) for a in doubled]
        index = {a: i for i, a in enumerate(rows)}
        _SUM_TABLES[key] = tuple(tuple(index.get(tuple(map(add, a, b)), -1) for b in rows) for a in rows)
    return _SUM_TABLES[key]


def mask_closure(rs, mask):
    """The closed subset that a mask generates, through the reference sum table."""
    table = sum_table(rs)
    while True:
        grown = mask
        for i in bits(mask):
            row = table[i]
            for j in bits(mask):
                if row[j] >= 0:
                    grown |= 1 << row[j]
        if grown == mask:
            return mask
        mask = grown


def seeded_closures(rs):
    """The positive, empty and full masks, then the closures of 40 seeded random sets of 1-6 roots."""
    rng = random.Random(11)
    n = len(rs.all_roots)
    masks = [rs.positive_mask, 0, rs.full_mask]
    return masks + [mask_closure(rs, rs.index_mask(rng.sample(range(n), rng.randint(1, 6)))) for _ in range(40)]


# reference solvers by Gauss-Jordan elimination over Fractions, independent of the
# library's one fraction-free elimination step, exact._pivot_row


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
