"""Executable predicates and degree formulas for bounded-multiplicity
highest weight modules: complete for sp(2n), partial for sl(n+1).

The sp(2n) degree goes through the companion D_n system: the weight is
shifted by (1, ..., 1) and fed to the Weyl dimension formula, then divided
by 2^(n-1).  Divisibility is asserted at runtime; a failure would signal a
realization bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import rootsys
from .errors import InputError, InternalError, RegularIntegralCase
from .exact import Vector, format_rational, parse_rational, vec


def cuspidal_exists(components: Sequence[tuple[str, int]]) -> bool:
    """True iff every simple component is of type A or C (after normalizing
    low-rank coincidences such as B2 = C2)."""
    aliases = rootsys.LOW_RANK_ALIASES
    return all(aliases.get((s, r), (s, r))[0] in ("A", "C") for s, r in components)


def sp_bounded(x: Sequence) -> bool:
    """Bounded-multiplicity test for an infinite dimensional sp(2n) highest
    weight module: all entries in Z + 1/2, strictly decreasing down to the
    absolute value of the last."""
    xs = vec(x)
    if not xs:
        raise InputError("weight must have at least one entry")
    # in lowest terms, Z + 1/2 is exactly the denominator 2
    if any(c.denominator != 2 for c in xs):
        return False
    for a, b in zip(xs, xs[1:-1]):
        if not a > b:
            return False
    if len(xs) >= 2 and not xs[-2] > abs(xs[-1]):
        return False
    return True


def sp_equivalent(x: Sequence, y: Sequence) -> bool:
    """Two bounded weights head the same coherent family iff they agree
    except possibly for the sign of the last entry."""
    xs, ys = vec(x), vec(y)
    if not (sp_bounded(xs) and sp_bounded(ys)):
        raise InputError("both weights must satisfy the bounded-multiplicity test")
    return xs[:-1] == ys[:-1] and (xs[-1] == ys[-1] or xs[-1] == -ys[-1])


def sp_fiber_irreducible(eta: Sequence) -> bool:
    """Fiber irreducibility over the weight-lattice torus: reducible exactly
    when some coordinate falls in Z + 1/2."""
    return all(c.denominator != 2 for c in vec(eta))


def sp_degree(x: Sequence) -> int:
    """Degree of the coherent family headed by x, via the companion D_n."""
    xs = vec(x)
    if not sp_bounded(xs):
        raise InputError("weight fails the bounded-multiplicity test")
    n = len(xs)
    if n < 2:
        raise InputError("need rank >= 2 for the companion system")
    dn = rootsys.build("D", n)
    shifted = tuple(c + 1 for c in xs)
    dim = rootsys.weyl_dim(dn, shifted)
    d, rem = divmod(dim, 2 ** (n - 1))
    if rem:
        raise InternalError(f"dimension {dim} not divisible by 2^{n - 1}")
    return d


def sl_degree(x: Sequence, full_weight: Optional[Sequence] = None) -> int:
    """Degree for the special-linear case: the dimension of the companion
    gl(n) module with highest weight x.

    Callers must themselves assert the bounded-multiplicity hypothesis,
    whose explicit weight description is out of scope here.  When
    full_weight (the ambient highest weight) has regular integral
    infinitesimal character, the degree is an alternating sum with no
    closed form at this granularity and RegularIntegralCase is raised.
    """
    xs = vec(x)
    n = len(xs)
    if n < 1:
        raise InputError("weight must have at least one entry")
    if full_weight is not None:
        amb = vec(full_weight)
        an = rootsys.build("A", len(amb) - 1)
        if rootsys.is_regular_integral(an, amb):
            raise RegularIntegralCase(
                "regular integral infinitesimal character: degree is an alternating sum"
            )
    if n == 1:
        return 1
    an1 = rootsys.build("A", n - 1)
    return rootsys.weyl_dim(an1, xs)


@dataclass(frozen=True)
class CoherentFamilyDescriptor:
    """sp(2n) coherent family: class representative, degree, companion system."""

    rank: int
    representative: Vector
    degree: int

    @classmethod
    def from_weight(cls, x: Sequence) -> "CoherentFamilyDescriptor":
        xs = vec(x)
        return cls(rank=len(xs), representative=xs, degree=sp_degree(xs))

    def same_family(self, other: "CoherentFamilyDescriptor") -> bool:
        return self.rank == other.rank and sp_equivalent(self.representative, other.representative)

    def to_json(self) -> dict:
        return {
            "bounded": True,
            "degree": self.degree,
            "class_rep": [format_rational(c) for c in self.representative],
            "companion": {"series": "D", "rank": self.rank},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CoherentFamilyDescriptor":
        rep = vec(parse_rational(c) for c in doc["class_rep"])
        d = cls.from_weight(rep)
        if d.degree != int(doc["degree"]):
            raise InputError(
                f"stored degree {doc['degree']} disagrees with recomputed {d.degree}"
            )
        return d


def degree_constancy_check(
    descriptor: CoherentFamilyDescriptor, sample_points: Sequence[Sequence]
) -> bool:
    """Guard for serialization round-trips: the stored degree must match a
    recomputation at the representative and at every sampled class member."""
    if sp_degree(descriptor.representative) != descriptor.degree:
        return False
    for p in sample_points:
        if not sp_equivalent(descriptor.representative, p):
            return False
        if sp_degree(p) != descriptor.degree:
            return False
    return True
