"""Executable predicates and degree formulas for bounded-multiplicity
highest weight modules: complete for sp(2n), partial for sl(n+1).

The sp(2n) degree is the dimension of the companion D_n module of highest
weight x + (1, ..., 1), divided by 2^(n-1).  ``_numerators`` reads a weight
once, in one loop.  A bounded entry is c_i/2, so the doubled x + 1 + rho is
L_i = c_i + 2(n - i), and the degree is the D_n Weyl product
prod (L_i^2 - L_j^2) over the pairs i < j, over ``rho_product``, 4 per pair
and 2^(n-1), all in integers.  Divisibility is asserted at runtime; a failure
would signal a realization bug, not bad input.  A weight is a sequence read by
``exact.vec``: its entries are Fractions, ints or rational text, and nothing
else; a weight given as one text is an input error.

``describe`` builds the document of the ``mathieu`` command.  A weight read
beside x (``eta``, or the ``equiv`` of ``sp_equivalent``) must have the length
of x, by the library's one length rule, ``exact._check_dim``.  The components
of ``cuspidal_exists`` and the sample points of ``degree_constancy_check`` are
collections, read by ``exact._iterate``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, starmap
from math import prod
from operator import sub

from . import rootsys
from .errors import InputError, InternalError, RegularIntegralCase
from .exact import Vector, _check_dim, _iterate, _Record, _shown, format_vector, vec, within_text_limit


def cuspidal_exists(components: Sequence[tuple[str, int]]) -> bool:
    """True iff every simple component, a pair (series, rank), is of type A or C
    (after normalizing low-rank coincidences such as B2 = C2).  A component that
    is not such a pair is an input error."""
    aliases = rootsys.LOW_RANK_ALIASES
    components = _iterate(components, "components must be a collection")
    try:
        return all(aliases.get((s, r), (s, r))[0] in ("A", "C") for s, r in components)
    except (TypeError, ValueError):  # a component that is no pair, or holds a value that cannot be hashed
        raise InputError("a simple component is a pair (series, rank), such as ('A', 2)") from None


def sp_bounded(x: Sequence) -> bool:
    """Bounded-multiplicity test for an infinite dimensional sp(2n) highest
    weight module: all entries in Z + 1/2, strictly decreasing down to the
    absolute value of the last."""
    return _numerators(vec(x)) is not None


def _numerators(xs: Vector) -> list[int] | None:
    """The numerators of a weight already read by ``vec`` that passes the bounded
    test, or None if it fails it.  In lowest terms, Z + 1/2 is exactly the
    denominator 2, and then the numerators compare as the entries do; every entry
    but the last is positive, so each must exceed the size of the next."""
    if not xs:
        raise InputError("weight must have at least one entry")
    nums = []
    for c in xs:
        p, q = c.as_integer_ratio()
        if q != 2 or nums and nums[-1] <= abs(p):
            return None
        nums.append(p)
    return nums


def sp_equivalent(x: Sequence, y: Sequence) -> bool:
    """Two bounded weights head the same coherent family iff they agree
    except possibly for the sign of the last entry.  A y whose length is not
    x's is an ``InputError``, as is a weight that fails the bounded test."""
    xs, ys = vec(x), vec(y)
    _check_dim((xs, ys), None, "equiv dimension does not match x")
    if (a := _numerators(xs)) is None or (b := _numerators(ys)) is None:
        raise InputError("both weights must satisfy the bounded-multiplicity test")
    return a[:-1] == b[:-1] and abs(a[-1]) == abs(b[-1])


def sp_fiber_irreducible(eta: Sequence) -> bool:
    """Fiber irreducibility over the weight-lattice torus: reducible exactly
    when some coordinate falls in Z + 1/2."""
    return all(c.denominator != 2 for c in vec(eta))


def sp_degree(x: Sequence) -> int:
    """Degree of the coherent family headed by x, via the companion D_n."""
    return _degree(vec(x))


def _degree(xs: Vector) -> int:
    """``sp_degree`` on a weight already read by ``vec``."""
    nums = _numerators(xs)
    if nums is None:
        raise InputError("weight fails the bounded-multiplicity test")
    n = len(nums)
    if n < 2:
        raise InputError("need rank >= 2 for the companion system")
    # the rank cap, and the denominator of the Weyl product
    dn = rootsys.build("D", n)
    # L_i = c_i + 2(n - i) is x + 1 + rho doubled, and a pair i < j gives (L_i^2 - L_j^2) / 4
    squares = [(c + k) ** 2 for c, k in zip(nums, range(2 * n, 0, -2))]
    num, den = prod(starmap(sub, combinations(squares, 2))), dn.rho_product << (n * n - 1)
    d, rem = divmod(num, den)
    if rem:
        raise InternalError(f"D{n} Weyl product {_shown(num, str)} is not divisible by {den}")
    return d


def sl_degree(x: Sequence, full_weight: Sequence | None = None) -> int:
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


class CoherentFamilyDescriptor(_Record):
    """sp(2n) coherent family: stores the class representative and the degree;
    ``rank``, the n of the companion D_n, is a view, the representative's length."""

    representative: Vector
    degree: int

    rank = property(lambda self: len(self.representative))

    @classmethod
    def from_weight(cls, x: Sequence) -> "CoherentFamilyDescriptor":
        xs = vec(x)
        return cls(xs, _degree(xs))

    def same_family(self, other: "CoherentFamilyDescriptor") -> bool:
        return self.rank == other.rank and sp_equivalent(self.representative, other.representative)

    def to_json(self) -> dict:
        return {
            "bounded": True,
            "degree": within_text_limit(self.degree),
            "class_rep": format_vector(self.representative),
            "companion": {"series": "D", "rank": self.rank},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CoherentFamilyDescriptor":
        rep, degree = (doc.get("class_rep"), doc.get("degree")) if isinstance(doc, dict) else (None, None)
        # type(degree) is int, since isinstance(True, int) holds; a float is no degree either
        if not isinstance(rep, list) or not all(isinstance(c, str) for c in rep) or type(degree) is not int:
            raise InputError("a descriptor document needs a class_rep list of strings and an int degree")
        # bounded and companion may be left out; given, they say what to_json writes: 1 is not true, and
        # rank 2.0 is not 2
        n = len(rep)
        bounded, companion = doc.get("bounded", True), doc.get("companion", {"series": "D", "rank": n})
        if bounded is not True or companion != {"series": "D", "rank": n} or type(companion["rank"]) is not int:
            raise InputError(f"a descriptor document of rank {n} says bounded true and companion D{n}")
        d = cls.from_weight(rep)
        if d.degree != degree:
            raise InputError(f"stored degree {_shown(degree)} disagrees with recomputed {_shown(d.degree)}")
        return d


def degree_constancy_check(
    descriptor: CoherentFamilyDescriptor, sample_points: Sequence[Sequence]
) -> bool:
    """Guard for serialization round-trips: the stored degree must match a
    recomputation at the representative and at every sampled class member.  A
    sample point that is not bounded, or whose length is not the
    representative's, is an ``InputError`` (from ``sp_equivalent``), and so are
    sample points that are not a collection."""
    if sp_degree(descriptor.representative) != descriptor.degree:
        return False
    for p in _iterate(sample_points, "sample points must be a collection"):
        if not sp_equivalent(descriptor.representative, p):
            return False
        if sp_degree(p) != descriptor.degree:
            return False
    return True


def describe(x: Sequence, eta: Sequence | None = None, equiv: Sequence | None = None) -> dict:
    """The document of the ``mathieu`` command.  It says whether x is bounded, and
    holds x's coherent-family descriptor if so, or else x as ``class_rep``; with
    eta, whether the fiber over eta is irreducible; with equiv, whether equiv
    heads the family of x.  eta and equiv must have the length of x."""
    xs = vec(x)
    if eta is not None:
        eta = vec(eta)
        _check_dim((xs, eta), None, "eta dimension does not match x")
    # equiv before x's descriptor, so that a wrong equiv length is reported first
    doc: dict = {} if equiv is None else {"equivalent": sp_equivalent(xs, equiv)}
    doc["bounded"] = _numerators(xs) is not None
    if doc["bounded"]:
        doc.update(CoherentFamilyDescriptor.from_weight(xs).to_json())
    else:
        doc["class_rep"] = format_vector(xs)
    if eta is not None:
        doc["fiber_irreducible"] = sp_fiber_irreducible(eta)
    return doc
