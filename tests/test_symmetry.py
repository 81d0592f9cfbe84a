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
``RootSystem.reflections``: each permutation's action on root indices is read
once, from the permuted Fraction vectors, and subsets are then acted on as masks.
"""

import itertools
import random

import pytest

from ghckit import fk, rootsys, shadow
from ghckit.rootsys import bits
from ghckit.shadow import RootSubalgebra, closed_masks

# each shadow class by the mask attribute behind its frozenset view
CLASSES = {"I": "i_mask", "F": "f_mask", "plus": "plus_mask", "minus": "minus_mask", "gamma_generators": "gamma_mask"}


def permuted(p, a):
    return tuple(a[j] for j in p)


def index_action(rs, p):
    """The permutation p of the epsilon-coordinates on root indices: entry r is the
    index of the permuted all_roots[r], looked up by its vector."""
    return tuple(rs.root_index(permuted(p, a)) for a in rs.all_roots)


def act(pi, mask):
    return sum(1 << pi[r] for r in bits(mask))


def least_in_orbit(mask, actions):
    return min(tuple(bits(act(pi, mask))) for pi in actions)


def verdict(rs, mask):
    return fk.theorem8_finite_type(rs, RootSubalgebra(rs, mask)).finite_type


def classes(rs, mask):
    sd = shadow.shadow(rs, RootSubalgebra(rs, mask))
    return {c: getattr(sd, attr) for c, attr in CLASSES.items()}


def check_census_orbits(rs, actions, subsets, verdicts):
    """Each census --dedup row is the least index tuple of its orbit, so no two
    rows share an orbit, and the least tuple of each given subset's orbit is a row."""
    rows = list(fk.census_rows(rs, dedup=True))
    reps = [tuple(r["subalgebra"]) for r in rows]
    assert len(set(reps)) == len(reps)
    for row, rep in zip(rows, reps):
        mask = rs.index_mask(rep)
        assert least_in_orbit(mask, actions) == rep
        if mask in verdicts:
            assert row["finite_type"] == verdicts[mask]
    for mask in subsets:
        assert least_in_orbit(mask, actions) in set(reps)
    return reps


def test_a3_exhaustive():
    rs = rootsys.build("A", 3)
    actions = [index_action(rs, p) for p in itertools.permutations(range(4))]
    subsets = list(closed_masks(rs))
    verdicts = {s: verdict(rs, s) for s in subsets}
    shadows = {s: classes(rs, s) for s in subsets}
    for pi in actions:
        for s in subsets:
            image = act(pi, s)
            assert verdicts[image] == verdicts[s]
            assert shadows[image] == {c: act(pi, part) for c, part in shadows[s].items()}
    reps = check_census_orbits(rs, actions, subsets, verdicts)
    orbits = {least_in_orbit(s, actions) for s in subsets}
    assert reps == sorted(orbits, key=lambda t: (len(t), t))


def test_a4_sample():
    rs = rootsys.build("A", 4)
    actions = [index_action(rs, p) for p in itertools.permutations(range(5))]
    rng = random.Random(20260)
    subsets = rng.sample(list(closed_masks(rs)), 50)
    verdicts = {}
    for s in subsets:
        verdicts[s] = verdict(rs, s)
        cl = classes(rs, s)
        for pi in rng.sample(actions, 2):
            image = act(pi, s)
            assert verdict(rs, image) == verdicts[s]
            assert classes(rs, image) == {c: act(pi, part) for c, part in cl.items()}
    check_census_orbits(rs, actions, subsets, verdicts)


@pytest.mark.parametrize("n", [2, 3])
def test_w0_reverses_positive_system(n):
    rs = rootsys.build("A", n)
    w0 = tuple(reversed(range(n + 1)))
    assert frozenset(permuted(w0, a) for a in rs.positive_roots) == frozenset(rs.all_roots[len(rs.positive_roots):])
