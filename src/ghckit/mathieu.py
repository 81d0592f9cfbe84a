"""Executable predicates and degree formulas for bounded-multiplicity
highest weight modules: complete for sp(2n), partial for sl(n+1).

The sp(2n) degree goes through the companion D_n system: the weight is
shifted by (1, ..., 1) and fed to the Weyl dimension formula, then divided
by 2^(n-1).  A bounded weight has every entry over the denominator 2, so
the shifted weight is the integer row of the numerators plus 2, over 2,
which goes to the row-level ``rootsys._weyl_dim`` with no Fraction built.
Divisibility is asserted at runtime; a failure would signal a realization
bug, not bad input.  A weight is a sequence read by ``exact.vec``: its
entries are Fractions, ints or rational text, and nothing else; a weight
given as one text is an input error.

``describe`` builds the document of the ``mathieu`` command.  A weight read
beside x (``eta``, or the ``equiv`` of ``sp_equivalent``) must have the length
of x, by the library's one length rule, ``exact._check_dim``.  The components
of ``cuspidal_exists`` and the sample points of ``degree_constancy_check`` are
collections, read by ``exact._iterate``.
"""

from __future__ import annotations

from collections.abc import Sequence

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
    return _bounded(vec(x))


def _bounded(xs: Vector) -> bool:
    """``sp_bounded`` on a weight already read by ``vec``."""
    if not xs:
        raise InputError("weight must have at least one entry")
    # in lowest terms, Z + 1/2 is exactly the denominator 2, and then the numerators
    # compare as the entries do
    if any(c.denominator != 2 for c in xs):
        return False
    nums = [c.numerator for c in xs]
    if any(a <= b for a, b in zip(nums, nums[1:-1])):
        return False
    return len(nums) < 2 or nums[-2] > abs(nums[-1])


def sp_equivalent(x: Sequence, y: Sequence) -> bool:
    """Two bounded weights head the same coherent family iff they agree
    except possibly for the sign of the last entry.  A y whose length is not
    x's is an ``InputError``, as is a weight that fails the bounded test."""
    xs, ys = vec(x), vec(y)
    _check_dim((xs, ys), None, "equiv dimension does not match x")
    if not (_bounded(xs) and _bounded(ys)):
        raise InputError("both weights must satisfy the bounded-multiplicity test")
    return xs[:-1] == ys[:-1] and (xs[-1] == ys[-1] or xs[-1] == -ys[-1])


def sp_fiber_irreducible(eta: Sequence) -> bool:
    """Fiber irreducibility over the weight-lattice torus: reducible exactly
    when some coordinate falls in Z + 1/2."""
    return all(c.denominator != 2 for c in vec(eta))


def sp_degree(x: Sequence) -> int:
    """Degree of the coherent family headed by x, via the companion D_n."""
    xs = vec(x)
    if not _bounded(xs):
        raise InputError("weight fails the bounded-multiplicity test")
    n = len(xs)
    if n < 2:
        raise InputError("need rank >= 2 for the companion system")
    dn = rootsys.build("D", n)
    # every entry is c/2 with c odd, so x + (1, ..., 1) is the integer row of c + 2 over 2
    dim = rootsys._weyl_dim(dn, [c.numerator + 2 for c in xs], 2)
    d, rem = divmod(dim, 2 ** (n - 1))
    if rem:
        raise InternalError(f"dimension {dim} not divisible by 2^{n - 1}")
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
    """sp(2n) coherent family: class representative, degree, companion system."""

    rank: int
    representative: Vector
    degree: int

    @classmethod
    def from_weight(cls, x: Sequence) -> "CoherentFamilyDescriptor":
        xs = vec(x)
        return cls(len(xs), xs, sp_degree(xs))

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
    doc["bounded"] = _bounded(xs)
    if doc["bounded"]:
        doc.update(CoherentFamilyDescriptor.from_weight(xs).to_json())
    else:
        doc["class_rep"] = format_vector(xs)
    if eta is not None:
        doc["fiber_irreducible"] = sp_fiber_irreducible(eta)
    return doc
