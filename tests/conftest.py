import os
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import settings

from ghckit import rootsys
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
