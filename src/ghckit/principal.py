"""Principal sl(2) spectral data and k-type multiplicity series.

The semisimple generator h of a principal sl(2) pairs with every root as
twice its height, so all spectral data reduces to the positive-root height
distribution: the exponents are its dual partition, and the h-spectrum of
the big nilradical is the multiset {2*height}.  Multiplicities of the
sl(2)-types in the first derived-functor module come from a difference of
two restricted partition counts.

``PrincipalData.build`` runs once per RootSystem object and keeps the shared
result on it, with read-only multisets and h stored once, as an integer row
over one denominator (``h_row``, ``h_den``); the Fraction ``h_element`` is a
view built on first use.  K-type series read one partition table per
PrincipalData, grown by ``kperp_table``.  ``partition_P``,
``a1_multiplicity`` and ``euler_rhs`` build their own tables on purpose: they
are the independent counts that the series is checked against.

A weight enters as the (integer row, denominator) pair of
``rootsys._weight_row``, which also checks its length, so ``lambda_h`` is one
integer dot and one Fraction.  ``ktype_series``, ``minimal_ktype`` and
``a1_multiplicity`` read a non-integral weight once, through
``_nonintegral_lambda_h``, which gives lambda(h) as an integer pair (num,
den) with den positive; ``ktype_series`` bounds it and reads its table index
on those integers (|num| > MAX_M den, num % den, num // den) and builds the
one Fraction of ``KTypeSeries.lambda_h`` at the end.
``find_nonintegral_weight`` steps over integer rows and builds its Fraction
weight once, at the end.

The k-type series owns its rules: the bound ``MAX_M`` on max_m and on
|lambda(h)|, which keeps the partition table an explicit input error rather
than a memory exhaustion, and the minimal k-type lambda(h) - 2
(``KTypeSeries.minimal_ktype``).  Its integer arguments, max_m and the m of
``a1_multiplicity`` and ``euler_rhs``, are read by ``exact.parse_nonnegative``,
so a bool, a float or a negative number is an input error.  The rational
targets of ``partition_P`` and ``find_nonintegral_weight`` are read by
``exact.vec``'s entry rule, so there a bool, a float, exponent notation or a
"_" separator is an input error.

Every partition table, the series' and the independent counts' alike, is
built by ``_partition_table`` under one rule: its multiset is a mapping
(``collections.abc.Mapping``), its parts are positive and its
multiplicities nonnegative, each read by ``exact.parse_integer``, and it
reaches no further than ``TABLE_TOP`` = q^(2 MAX_M + 2), the largest table a
series within ``MAX_M`` reads, so a large target or m is an input error too.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import sub
from types import MappingProxyType

from .errors import InputError, InternalError
from .exact import Vector, _entry, _Record, _shown, format_rational, parse_integer, parse_nonnegative
from .rootsys import RootSystem, _dot, _integral, _weight_row, height_distribution

# bound on a k-type series' max_m and |lambda(h)|: the slowest series within
# it, E8 with max_m = MAX_M and lambda(h) = -MAX_M, takes about 0.2 s (Python 3.11,
# one core of a 2-core x86-64 VM)
MAX_M = 10_000
# bound on the top of a partition table: q^(2 MAX_M + 2), the largest that a k-type
# series within MAX_M reads (max_m - lambda(h) + 2)
TABLE_TOP = 2 * MAX_M + 2


def principal_h(rs: RootSystem) -> Vector:
    """The h-element of a principal sl(2): the unique vector in the root
    span pairing to 2 with every simple root (identified with a Cartan
    element through the invariant form).  That is 2 rho^vee, the sum of
    2a/(a,a) over the positive roots a, computed on doubled roots."""
    doubled = rs.doubled_roots
    norms = [_dot(a, a) for a in doubled[: len(doubled) // 2]]  # 4(a,a), positive a
    scale = lcm(*norms)
    # scale * h = sum of (4 scale / norm) * doubled root, in integers
    weights = [4 * scale // n for n in norms]
    total = [_dot(weights, col) for col in zip(*doubled[: len(weights)])]
    # (a, h) = (2a . total) / (2 scale) must be twice the height of a
    for a, c in zip(doubled, rs._coords):
        if _dot(a, total) != 4 * scale * sum(c):
            raise InternalError("h does not pair with roots by twice the height")
    return tuple(Fraction(x, scale) for x in total)


def exponents(rs: RootSystem) -> list[int]:
    """Dual partition of the positive-root height distribution, ascending."""
    dist = height_distribution(rs)
    counts = [dist.get(hh, 0) for hh in range(1, max(dist) + 1)]
    out = [sum(1 for c in counts if c >= j) for j in range(1, counts[0] + 1)]
    return sorted(out)


class PrincipalData(_Record):
    rs: RootSystem
    h_row: tuple[int, ...]  # h = h_row / h_den, in integers
    h_den: int
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
        h_row, h_den = _weight_row(rs, principal_h(rs))
        nbar = {2 * height: count for height, count in height_distribution(rs).items()}
        if nbar.get(2, 0) < 1:
            raise InternalError("no eigenvalue-2 line to carve the sl(2) raising vector from")
        kperp = dict(nbar)
        kperp[2] -= 1
        exps = tuple(exponents(rs))
        if sum(2 * e + 1 for e in exps) != len(rs.doubled_roots) + rs.rank:
            raise InternalError("exponents do not add up to dim g")
        return vars(rs).setdefault("_principal", cls(
            rs=rs,
            h_row=tuple(h_row),
            h_den=h_den,
            exponents=exps,
            nbar_multiset=MappingProxyType(nbar),
            nbar_kperp_multiset=MappingProxyType(kperp),
        ))

    @cached_property
    def h_element(self) -> Vector:
        """h as a Fraction vector, built on first use."""
        return tuple(Fraction(x, self.h_den) for x in self.h_row)

    def lambda_h(self, lam: Vector) -> Fraction:
        row, den = _weight_row(self.rs, lam)
        return Fraction(_dot(row, self.h_row), den * self.h_den)

    def kperp_table(self, top: int) -> list[int]:
        """The partition table of nbar_kperp_multiset through at least q^top, kept
        on the object; the DP cannot grow in place, so a larger top rebuilds it.
        A table is replaced, never changed, so a caller's stays whole under threads."""
        table = vars(self).get("_kperp_table", [])
        if len(table) <= top:
            table = vars(self)["_kperp_table"] = _partition_table(self.nbar_kperp_multiset, top)
        return table


def _partition_table(multiset: Mapping, top: int) -> list[int]:
    """Coefficients of q^0 .. q^top in prod (1 - q^part)^(-mult), for a multiset
    that is a mapping, of integer parts that are positive to multiplicities that
    are nonnegative, with top at most TABLE_TOP."""
    if not isinstance(multiset, Mapping):
        raise InputError(f"a multiset is a mapping of parts to multiplicities, not {_shown(multiset)}")
    if top > TABLE_TOP:
        raise InputError(f"a partition table to q^{_shown(top)} exceeds the bound q^{TABLE_TOP}")
    items = sorted((parse_integer(part), parse_nonnegative(mult, "a multiplicity")) for part, mult in multiset.items())
    if items and items[0][0] <= 0:
        raise InputError(f"parts must be positive, got {_shown(items[0][0])}")
    dp = [0] * (top + 1)
    dp[0] = 1
    for part, mult in items:
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
    monomial of the symmetric algebra has such an h-weight.  A target above
    TABLE_TOP is an input error, and so is one that ``exact.vec`` would not
    take as an entry: a float, a bool, exponent notation or a "_" separator.
    """
    t = _entry(target)
    n = int(t) if t.denominator == 1 else -1
    return _table_entry(_partition_table(multiset, max(0, n)), n)


def _nonintegral_lambda_h(pd: PrincipalData, lam: Vector) -> tuple[int, int]:
    """lambda(h) = num / den, with den positive, for a weight lam that must be
    non-integral, read by one ``_weight_row``: its row decides integrality and
    gives lambda(h)."""
    row, den = _weight_row(pd.rs, lam)
    if _integral(pd.rs, row, den):
        raise InputError("lambda must be non-integral")
    return _dot(row, pd.h_row), den * pd.h_den


def _minimal_ktype(lh: Fraction) -> int | None:
    """The minimal k-type at lambda(h) = lh: lh - 2 when that is a nonnegative
    integer, else None.  The multiplicity at m is P(m - lh + 2) - P(-m - lh),
    and both targets are negative for m < lh - 2; at m = lh - 2 it is P(0) = 1.
    A non-integral lh makes every target non-integral, so every entry 0."""
    return int(lh) - 2 if lh >= 2 and lh.denominator == 1 else None


def a1_multiplicity(pd: PrincipalData, m: int, lam: Vector) -> int:
    """Multiplicity of the (m+1)-dimensional sl(2)-type in the first
    derived-functor module attached to a non-integral weight."""
    m = parse_nonnegative(m, "m")
    lh = Fraction(*_nonintegral_lambda_h(pd, lam))
    val = partition_P(pd.nbar_kperp_multiset, m - lh + 2) - partition_P(
        pd.nbar_kperp_multiset, -m - lh
    )
    if val < 0:
        raise InternalError(f"negative multiplicity {val} for m={m}")
    return val


def minimal_ktype(pd: PrincipalData, lam: Vector) -> int:
    """Smallest m with nonzero multiplicity; the series bottoms out at
    lambda(h) - 2 with multiplicity exactly 1 (see ``_minimal_ktype``)."""
    n = _minimal_ktype(Fraction(*_nonintegral_lambda_h(pd, lam)))
    if n is None:
        raise InputError("lambda(h) - 2 must be a nonnegative integer")
    return n


def euler_rhs(pd: PrincipalData, m: int, lam: Vector) -> int:
    """Independent Euler-characteristic evaluation of the same multiplicity.

    Alternating sum over the exterior powers of k/t (t-weights {0}, {2,-2},
    {0}) tensored with the (m+1)-dimensional type (t-weights m, m-2, ..,
    -m), counted against the full nilradical partition function shifted by
    lambda(h).  All terms are read from one partition table up to the
    largest target, m + 2 - lambda(h).
    """
    m = parse_nonnegative(m, "m")
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


class KTypeSeries(_Record):
    lambda_h: Fraction
    entries: dict
    truncation: int

    @property
    def minimal_ktype(self) -> int | None:
        """The smallest m with nonzero multiplicity, lambda(h) - 2, when that is a
        nonnegative integer (also above the truncation); None otherwise."""
        return _minimal_ktype(self.lambda_h)

    def to_json(self) -> dict:
        return {
            "lambda_h": format_rational(self.lambda_h),
            "series": {str(m): mult for m, mult in sorted(self.entries.items())},
            "truncation": self.truncation,
        }


def ktype_series(pd: PrincipalData, lam: Vector, max_m: int) -> KTypeSeries:
    """a1_multiplicity for m = 0 .. max_m, read from pd's k-perp partition
    table, which reaches the largest target, max_m - lambda(h) + 2; both
    max_m and |lambda(h)| are bounded by MAX_M."""
    max_m = parse_nonnegative(max_m, "max_m")
    if max_m > MAX_M:
        raise InputError(f"max_m {_shown(max_m)} exceeds the bound {MAX_M}")
    num, den = _nonintegral_lambda_h(pd, lam)
    if abs(num) > MAX_M * den:
        raise InputError(f"lambda(h) = {format_rational(Fraction(num, den))} is outside the bound +-{MAX_M}")
    # a non-integral lambda(h) makes every target non-integral
    values = [0] * (max_m + 1)
    if num % den == 0:
        n = num // den
        table = pd.kperp_table(max(0, max_m - n + 2))
        # m = 0 .. max_m reads table[m - n + 2] less table[-m - n], each 0 at a negative index:
        # zeros then a slice, less a reversed head then zeros
        values = list(map(sub, [0] * min(max(0, n - 2), max_m + 1) + table[max(0, 2 - n) : max(0, max_m - n + 3)],
                          table[max(0, -n - max_m) : max(0, 1 - n)][::-1] + [0] * (max_m + 1)))
        if min(values) < 0:
            m = next(m for m, val in enumerate(values) if val < 0)
            raise InternalError(f"negative multiplicity {values[m]} for m={m}")
    return KTypeSeries(Fraction(num, den), dict(enumerate(values)), max_m)


def find_nonintegral_weight(pd: PrincipalData, target) -> Vector:
    """Deterministically pick a non-integral weight with the given value on h.

    Starts from the multiple of h realizing the target and, if that happens
    to be integral, perturbs along a direction of the root span orthogonal
    to h by small odd-denominator steps.  The target is read by ``exact.vec``'s
    entry rule.
    """
    # an int (not a bool or a subclass) is read as it is: it is its own numerator, over 1
    rs, h, t = pd.rs, pd.h_row, target if type(target) is int else _entry(target)
    # base = t h / (h, h) = row / den, with h = h_row / h_den
    row, den = [t.numerator * pd.h_den * x for x in h], t.denominator * _dot(h, h)
    if not _integral(rs, row, den):
        return tuple(Fraction(x, den) for x in row)
    # directions inside the simple-root span, orthogonal to h: h pairs to 2 with every
    # simple root, so a_j - a_0 for j >= 1; with the doubled roots b_j = 2 a_j,
    # base + (a_j - a_0) / k = (2k row + den (b_j - b_0)) / (2k den)
    for b in rs._simple_doubled[1:]:
        for k in (3, 5, 7, 11, 13):
            lam = [2 * k * x + den * (y - z) for x, y, z in zip(row, b, rs._simple_doubled[0])]
            if not _integral(rs, lam, 2 * k * den):
                return tuple(Fraction(x, 2 * k * den) for x in lam)
    raise InternalError("could not find a non-integral weight with the requested h-value")
