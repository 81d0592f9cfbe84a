"""Metamorphic tests: the Weyl group of A_n is S_{n+1}, acting on roots by
permuting epsilon-coordinates.  It maps closed subsets to closed subsets, so
the Theorem 8 verdict must be constant on each orbit, the shadow classes
must map along with the subset, and ``census --dedup`` must keep exactly one
subset per orbit.  The longest element w0 is the coordinate reversal, which
swaps the positive system with its negative, so the verdict's invariance
under it is the stability under the choice of Borel that the ``fk`` module
docstring claims.

Orbits are computed here from permuted vectors only, independently of the
root tables that ``fk.census_rows`` uses, and of its orbit walk under
``RootSystem.reflections``.
"""

import itertools
import random

import pytest

from ghckit import fk, rootsys, shadow
from ghckit.shadow import RootSubalgebra, closed_subsets

CLASSES = ("I", "F", "plus", "minus", "gamma_generators")


def act(p, roots):
    return frozenset(tuple(a[j] for j in p) for a in roots)


def index_tuple(rs, roots):
    return tuple(sorted(rs.root_index(a) for a in roots))


def least_in_orbit(rs, roots, perms):
    return min(index_tuple(rs, act(p, roots)) for p in perms)


def verdict(rs, roots):
    return fk.theorem8_finite_type(rs, RootSubalgebra(rs, roots)).finite_type


def classes(rs, roots):
    sd = shadow.shadow(rs, RootSubalgebra(rs, roots))
    return {c: getattr(sd, c) for c in CLASSES}


def check_census_orbits(rs, perms, subsets, verdicts):
    """Each census --dedup row is the least index tuple of its orbit, so no two
    rows share an orbit, and the least tuple of each given subset's orbit is a row."""
    rows = list(fk.census_rows(rs, dedup=True))
    reps = [tuple(r["subalgebra"]) for r in rows]
    assert len(set(reps)) == len(reps)
    for row, rep in zip(rows, reps):
        roots = frozenset(rs.all_roots[i] for i in rep)
        assert least_in_orbit(rs, roots, perms) == rep
        if roots in verdicts:
            assert row["finite_type"] == verdicts[roots]
    for roots in subsets:
        assert least_in_orbit(rs, roots, perms) in set(reps)
    return reps


def test_a3_exhaustive():
    rs = rootsys.build("A", 3)
    perms = list(itertools.permutations(range(4)))
    subsets = list(closed_subsets(rs))
    verdicts = {s: verdict(rs, s) for s in subsets}
    shadows = {s: classes(rs, s) for s in subsets}
    for p in perms:
        for s in subsets:
            image = act(p, s)
            assert verdicts[image] == verdicts[s]
            assert shadows[image] == {c: act(p, part) for c, part in shadows[s].items()}
    reps = check_census_orbits(rs, perms, subsets, verdicts)
    orbits = {min(index_tuple(rs, act(p, s)) for p in perms) for s in subsets}
    assert reps == sorted(orbits, key=lambda t: (len(t), t))


def test_a4_sample():
    rs = rootsys.build("A", 4)
    perms = list(itertools.permutations(range(5)))
    rng = random.Random(20260)
    subsets = rng.sample(list(closed_subsets(rs)), 50)
    verdicts = {}
    for s in subsets:
        verdicts[s] = verdict(rs, s)
        cl = classes(rs, s)
        for p in rng.sample(perms, 2):
            image = act(p, s)
            assert verdict(rs, image) == verdicts[s]
            assert classes(rs, image) == {c: act(p, part) for c, part in cl.items()}
    check_census_orbits(rs, perms, subsets, verdicts)


@pytest.mark.parametrize("n", [2, 3])
def test_w0_reverses_positive_system(n):
    rs = rootsys.build("A", n)
    w0 = tuple(reversed(range(n + 1)))
    assert act(w0, rs.positive_roots) == frozenset(rs.all_roots[len(rs.positive_roots):])
