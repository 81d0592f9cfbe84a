import os
from fractions import Fraction

import pytest
from hypothesis import settings

from ghckit import rootsys

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
