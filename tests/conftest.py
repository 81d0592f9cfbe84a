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
