"""Principal sl(2) spectral data and k-type multiplicity series.

The semisimple generator h of a principal sl(2) pairs with every root as
twice its height, so all spectral data reduces to the positive-root height
distribution: the exponents are its dual partition, and the h-spectrum of
the big nilradical is the multiset {2*height}.  Multiplicities of the
sl(2)-types in the first derived-functor module come from a difference of
two restricted partition counts.

``PrincipalData.build`` runs once per RootSystem object and keeps the shared
result on it, with read-only multisets; k-type series read one partition
table per PrincipalData, grown by ``kperp_table``.  ``partition_P``,
``a1_multiplicity`` and ``euler_rhs`` build their own tables on purpose: they
are the independent counts that the series is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import sub
from types import MappingProxyType

from .errors import InputError, InternalError
from .exact import Vector, dot, format_rational, vadd, vscale, vsub
from .rootsys import RootSystem, height_distribution, is_integral


def principal_h(rs: RootSystem) -> Vector:
    """The h-element of a principal sl(2): the unique vector in the root
    span pairing to 2 with every simple root (identified with a Cartan
    element through the invariant form).  That is 2 rho^vee, the sum of
    2a/(a,a) over the positive roots a, computed on doubled roots."""
    doubled = rs.doubled_roots
    norms = [sum(x * x for x in a) for a in doubled[: len(rs.positive_roots)]]  # 4(a,a)
    scale = lcm(*norms)
    # scale * h = sum of (4 scale / norm) * doubled root, in integers
    weights = [4 * scale // n for n in norms]
    total = [sum(w * a[k] for w, a in zip(weights, doubled)) for k in range(rs.ambient_dim)]
    # (a, h) = (2a . total) / (2 scale) must be twice the height of a
    for a, c in zip(doubled, rs._coords):
        if sum(x * y for x, y in zip(a, total)) != 4 * scale * sum(c):
            raise InternalError("h does not pair with roots by twice the height")
    return tuple(Fraction(x, scale) for x in total)


def exponents(rs: RootSystem) -> list[int]:
    """Dual partition of the positive-root height distribution, ascending."""
    dist = height_distribution(rs)
    counts = [dist.get(hh, 0) for hh in range(1, max(dist) + 1)]
    out = [sum(1 for c in counts if c >= j) for j in range(1, counts[0] + 1)]
    return sorted(out)


@dataclass(frozen=True)
class PrincipalData:
    rs: RootSystem
    h_element: Vector
    h_norm: Fraction  # (h, h)
    exponents: tuple[int, ...]
    nbar_multiset: MappingProxyType
    nbar_kperp_multiset: MappingProxyType

    @classmethod
    def build(cls, rs: RootSystem) -> "PrincipalData":
        # built and checked once per RootSystem object and stored on it, as its
        # cached tables are: an equal but distinct one gets its own, none is hashed
        if "_principal" in vars(rs):
            return vars(rs)["_principal"]
        if rs.rank < 2:
            raise InputError("principal sl(2) machinery needs rank >= 2")
        h = principal_h(rs)
        nbar = {2 * height: count for height, count in height_distribution(rs).items()}
        if nbar.get(2, 0) < 1:
            raise InternalError("no eigenvalue-2 line to carve the sl(2) raising vector from")
        kperp = dict(nbar)
        kperp[2] -= 1
        if kperp[2] == 0:
            del kperp[2]
        exps = tuple(exponents(rs))
        if sum(2 * e + 1 for e in exps) != len(rs.all_roots) + rs.rank:
            raise InternalError("exponents do not add up to dim g")
        return vars(rs).setdefault("_principal", cls(
            rs=rs,
            h_element=h,
            h_norm=dot(h, h),
            exponents=exps,
            nbar_multiset=MappingProxyType(nbar),
            nbar_kperp_multiset=MappingProxyType(kperp),
        ))

    def lambda_h(self, lam: Vector) -> Fraction:
        return dot(lam, self.h_element)

    def kperp_table(self, top: int) -> list[int]:
        """The partition table of nbar_kperp_multiset through at least q^top, kept
        on the object; the DP cannot grow in place, so a larger top rebuilds it.
        A table is replaced, never changed, so a caller's stays whole under threads."""
        table = vars(self).get("_kperp_table", [])
        if len(table) <= top:
            table = vars(self)["_kperp_table"] = _partition_table(self.nbar_kperp_multiset, top)
        return table


def _partition_table(multiset: dict, top: int) -> list[int]:
    """Coefficients of q^0 .. q^top in prod (1 - q^part)^(-mult)."""
    for part in multiset:
        if part <= 0:
            raise InputError(f"parts must be positive, got {part}")
    dp = [0] * (top + 1)
    dp[0] = 1
    for part, mult in sorted(multiset.items()):
        for _ in range(mult):
            for i in range(part, top + 1):
                dp[i] += dp[i - part]
    return dp


def _table_entry(table: list[int], target: int) -> int:
    """table[target], or 0 for a negative target."""
    return table[target] if target >= 0 else 0


def partition_P(multiset: dict, target) -> int:
    """Coefficient of q^target in prod (1 - q^part)^(-mult).

    Negative, non-integral or otherwise unreachable targets give 0: no
    monomial of the symmetric algebra has such an h-weight.
    """
    t = Fraction(target)
    n = int(t) if t.denominator == 1 else -1
    return _table_entry(_partition_table(multiset, max(0, n)), n)


def a1_multiplicity(pd: PrincipalData, m: int, lam: Vector) -> int:
    """Multiplicity of the (m+1)-dimensional sl(2)-type in the first
    derived-functor module attached to a non-integral weight."""
    if m < 0 or int(m) != m:
        raise InputError("m must be a nonnegative integer")
    if is_integral(pd.rs, lam):
        raise InputError("lambda must be non-integral")
    lh = pd.lambda_h(lam)
    val = partition_P(pd.nbar_kperp_multiset, m - lh + 2) - partition_P(
        pd.nbar_kperp_multiset, -m - lh
    )
    if val < 0:
        raise InternalError(f"negative multiplicity {val} for m={m}")
    return val


def minimal_ktype(pd: PrincipalData, lam: Vector) -> int:
    """Smallest m with nonzero multiplicity; the series bottoms out at
    lambda(h) - 2 with multiplicity exactly 1."""
    lh = pd.lambda_h(lam)
    n = lh - 2
    if n < 0 or n.denominator != 1:
        raise InputError("lambda(h) - 2 must be a nonnegative integer")
    if is_integral(pd.rs, lam):
        raise InputError("lambda must be non-integral")
    # the multiplicity at m is P(m - n) - P(-m - lambda(h)), and both targets
    # are negative for m < n; at m = n it is P(0) = 1
    return int(n)


def euler_rhs(pd: PrincipalData, m: int, lam: Vector) -> int:
    """Independent Euler-characteristic evaluation of the same multiplicity.

    Alternating sum over the exterior powers of k/t (t-weights {0}, {2,-2},
    {0}) tensored with the (m+1)-dimensional type (t-weights m, m-2, ..,
    -m), counted against the full nilradical partition function shifted by
    lambda(h).  All terms are read from one partition table up to the
    largest target, m + 2 - lambda(h).
    """
    if m < 0:
        raise InputError("m must be a nonnegative integer")
    lh = pd.lambda_h(lam)
    if lh.denominator != 1:
        return 0  # every target w - lambda(h) is non-integral
    n = int(lh)
    table = _partition_table(pd.nbar_multiset, max(0, m + 2 - n))
    return sum(
        2 * _table_entry(table, w - n) - _table_entry(table, w + 2 - n) - _table_entry(table, w - 2 - n)
        for w in range(-m, m + 1, 2)
    )


def vanishing_degree(pd: PrincipalData) -> int:
    """Only cohomological degrees 0, 1, 2 can survive: dim k - dim t = 2."""
    return 2


@dataclass(frozen=True)
class KTypeSeries:
    lambda_h: Fraction
    entries: dict
    truncation: int

    def to_json(self) -> dict:
        return {
            "lambda_h": format_rational(self.lambda_h),
            "series": {str(m): mult for m, mult in sorted(self.entries.items())},
            "truncation": self.truncation,
        }


def ktype_series(pd: PrincipalData, lam: Vector, max_m: int) -> KTypeSeries:
    """a1_multiplicity for m = 0 .. max_m, read from pd's k-perp partition
    table, which reaches the largest target, max_m - lambda(h) + 2."""
    if max_m < 0:
        raise InputError("max_m must be nonnegative")
    if is_integral(pd.rs, lam):
        raise InputError("lambda must be non-integral")
    lh = pd.lambda_h(lam)
    # a non-integral lambda(h) makes every target non-integral
    values = [0] * (max_m + 1)
    if lh.denominator == 1:
        n = int(lh)
        table = pd.kperp_table(max(0, max_m - n + 2))
        # m = 0 .. max_m reads table[m - n + 2] less table[-m - n], each 0 at a negative index:
        # zeros then a slice, less a reversed head then zeros
        values = list(map(sub, [0] * min(max(0, n - 2), max_m + 1) + table[max(0, 2 - n) : max(0, max_m - n + 3)],
                          table[max(0, -n - max_m) : max(0, 1 - n)][::-1] + [0] * (max_m + 1)))
        if min(values) < 0:
            m = next(m for m, val in enumerate(values) if val < 0)
            raise InternalError(f"negative multiplicity {values[m]} for m={m}")
    return KTypeSeries(lambda_h=lh, entries=dict(enumerate(values)), truncation=max_m)


def find_nonintegral_weight(pd: PrincipalData, target) -> Vector:
    """Deterministically pick a non-integral weight with the given value on h.

    Starts from the multiple of h realizing the target and, if that happens
    to be integral, perturbs along a direction of the root span orthogonal
    to h by small odd-denominator steps.
    """
    rs = pd.rs
    t = Fraction(target)
    base = vscale(t / pd.h_norm, pd.h_element)
    if not is_integral(rs, base):
        return base
    # directions inside the simple-root span, orthogonal to h: h pairs to 2
    # with every simple root, so a_j - a_0 for j >= 1
    for a in rs.simple_roots[1:]:
        for den in (3, 5, 7, 11, 13):
            lam = vadd(base, vscale(Fraction(1, den), vsub(a, rs.simple_roots[0])))
            if not is_integral(rs, lam):
                return lam
    raise InternalError("could not find a non-integral weight with the requested h-value")
