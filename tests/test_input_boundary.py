"""The library's one input boundary: every public entry point, given any argument
built from ints, bools, floats, text, None, Fractions, a 5,000-digit int, lists of
these and frozensets and dicts of the scalars among them, returns or raises a
GhckitError, never a TypeError, an AttributeError, a KeyError or the ValueError of
an int past the interpreter's limit on integer text.

The record arguments (the root system, the principal data, the shadow
decomposition and the coherent-family descriptor) are held valid; every other
argument is drawn."""

import signal
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghckit import exact, fk, mathieu, principal, rootsys, shadow
from ghckit.errors import GhckitError, InputError

A2 = rootsys.build("A", 2)
PD = principal.PrincipalData.build(A2)
SD = shadow.shadow(A2, shadow.RootSubalgebra(A2, []))
DESCRIPTOR = mathieu.CoherentFamilyDescriptor.from_weight(["5/2", "1/2"])

HUGE = 10**4999  # 5,000 digits, past the default limit of 4,300 on integer text


class Huge:
    """HUGE or -HUGE, drawn as this stand-in, whose repr hypothesis can print."""

    def __init__(self, sign):
        self.sign = sign

    def __repr__(self):
        return "HUGE" if self.sign > 0 else "-HUGE"


def resolve(value):
    """value with each stand-in replaced by its int."""
    if isinstance(value, Huge):
        return value.sign * HUGE
    if isinstance(value, frozenset):
        return frozenset(map(resolve, value))
    if isinstance(value, dict):
        return {resolve(k): resolve(v) for k, v in value.items()}
    return [resolve(v) for v in value] if isinstance(value, list) else value


SCALARS = st.one_of(
    st.integers(-8, 8),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["A", "C", "D", "3", "-1", "1/2", "x", "1e9"]),
    st.none(),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.sampled_from([Huge(1), Huge(-1)]),
)
# scalars, and lists of them nested up to three deep, so that a pair, a vector of
# rationals or a list of vectors is drawn as well as a list of numbers; and frozensets
# and dicts of scalars, which have a length but no order, at every depth
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.frozensets(SCALARS, max_size=4)
    | st.dictionaries(SCALARS, SCALARS, max_size=4),
    max_leaves=12,
)

ENTRY_POINTS = {
    "build": (rootsys.build, 2),
    "is_integral": (lambda lam: rootsys.is_integral(A2, lam), 1),
    "is_dominant": (lambda lam: rootsys.is_dominant(A2, lam), 1),
    "is_regular_integral": (lambda lam: rootsys.is_regular_integral(A2, lam), 1),
    "weyl_dim": (lambda lam: rootsys.weyl_dim(A2, lam), 1),
    "lambda_h": (PD.lambda_h, 1),
    "ktype_series": (lambda lam, max_m: principal.ktype_series(PD, lam, max_m), 2),
    "a1_multiplicity": (lambda m, lam: principal.a1_multiplicity(PD, m, lam), 2),
    "minimal_ktype": (lambda lam: principal.minimal_ktype(PD, lam), 1),
    "euler_rhs": (lambda m, lam: principal.euler_rhs(PD, m, lam), 2),
    "find_nonintegral_weight": (lambda target: principal.find_nonintegral_weight(PD, target), 1),
    "partition_P": (principal.partition_P, 2),
    "cuspidal_exists": (mathieu.cuspidal_exists, 1),
    "sp_bounded": (mathieu.sp_bounded, 1),
    "sp_equivalent": (mathieu.sp_equivalent, 2),
    "sp_fiber_irreducible": (mathieu.sp_fiber_irreducible, 1),
    "sp_degree": (mathieu.sp_degree, 1),
    "sl_degree": (mathieu.sl_degree, 2),
    "from_weight": (mathieu.CoherentFamilyDescriptor.from_weight, 1),
    "degree_constancy_check": (lambda points: mathieu.degree_constancy_check(DESCRIPTOR, points), 1),
    "describe": (mathieu.describe, 3),
    "RootSubalgebra": (lambda roots: shadow.RootSubalgebra(A2, roots), 1),
    "from_indices": (lambda indices: shadow.RootSubalgebra.from_indices(A2, indices), 1),
    "is_primal": (lambda k_roots, toral: fk.is_primal(A2, k_roots, toral), 2),
    "support_shape": (lambda base, radius: shadow.support_shape(SD, base, radius), 2),
    "lp_feasible": (exact.lp_feasible, 2),
    "cone_member": (exact.cone_member, 2),
    "cone_witness": (exact.cone_witness, 4),
    "cones_intersect_trivially": (exact.cones_intersect_trivially, 2),
    "nullspace": (exact.nullspace, 1),
    "solve_linear": (exact.solve_linear, 2),
    "is_root": (A2.is_root, 1),
    "roots_of": (A2.roots_of, 1),
    "closed_mask": (lambda mask: shadow.closed_mask(A2, mask), 1),
    "sums": (A2.sums, 2),
}


@settings(deadline=None)  # a 5,000-digit int in an LP or a Weyl product can outlast the default
@given(name=st.sampled_from(sorted(ENTRY_POINTS)), data=st.data())
def test_every_entry_point_returns_or_raises_a_ghckit_error(name, data):
    fn, arity = ENTRY_POINTS[name]
    args = [resolve(data.draw(VALUES, label=f"argument {i}")) for i in range(arity)]
    try:
        fn(*args)
    except GhckitError:
        pass


B3 = rootsys.build("B", 3)


@pytest.mark.parametrize("mask", [-1, True, B3.full_mask + 1, Fraction(1)], ids=repr)
def test_a_bad_mask_is_an_input_error_before_any_walk(mask):
    # closed_mask and sums walk the set bits of a mask, of which a negative int never runs
    # out, so each rejects a bad mask before its walk; the alarm turns a hang into a failure
    def hang(signum, frame):
        raise AssertionError(f"the walk of mask {mask!r} did not stop")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for call in (lambda: shadow.closed_mask(B3, mask), lambda: B3.sums(mask, 1), lambda: B3.sums(1, mask)):
            with pytest.raises(InputError, match="^root mask "):
                call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_5000_digit_int_is_past_the_limit_on_integer_text():
    # what makes it worth drawing: no message can show its digits
    assert 0 < sys.get_int_max_str_digits() < 5000
    with pytest.raises(ValueError):
        str(HUGE)
