"""Finite root systems in exact epsilon-coordinates.

Classical series are realized in the usual coordinate ambients (A_n inside
an (n+1)-dimensional space with sum-zero roots, C_n with simple roots
e1-e2, ..., e_{n-1}-e_n, 2e_n); exceptional types use the standard
coordinate simple roots and everything is generated by reflection closure.
``root_count`` reads the one table of simple types and their root counts.

The simple roots are written as doubled integer rows, so that every root is
an integer row too.  A ``RootSystem`` stores only integer tables: the Cartan
matrix, the doubled roots ``doubled_roots``, their simple-root coordinates and
the doubled simple roots, all from a reflection closure on integer
simple-root coordinates.  The Fraction ``all_roots``, ``positive_roots``,
``simple_roots``, ``fundamental_weights`` (by a fraction-free inverse of the
Cartan matrix, ``exact._reduce``) and the root index behind ``root_index``
are views built on first use, for the JSON boundary and the public
Fraction API; equality and hashing compare the integer tables.
``RootSystem.sum_partners``, the one table of root sums, lists the pairs
(j, k) with root i + root j = root k by root index in the canonical order
(see ``build``) for closed-subset code, where a root subset is a bitmask
with bit i for ``all_roots[i]`` (``mask_of``, ``roots_of``, ``full_mask``);
only ``positive_mask`` and ``negated`` know that the positive roots come
first.  ``sums(a, b)``, the one image of root sums, reads that table for the
mask of the roots x + y with x in mask a and y in mask b.  ``roots_of``
builds the frozenset view of a mask from a table, built on first use, that
holds the frozenset of each of the 64 values of each chunk of six root
indices: it starts from the stored set of the first chunk that the mask
meets and merges in that of each later one, so no root is hashed again.
``vector_order`` lists the root indices as the root vectors sort.

A weight enters through ``_weight_row``, once per call: it checks the length
against ``ambient_dim`` and writes the weight as an integer row over one
positive denominator.  ``_simple_pairings`` pairs that row with the doubled
simple roots into integer (numerator, denominator) pairs, and the predicates
and ``weyl_dim`` decide on them by ``%`` and ``//``; a Fraction is built only
for an error message.  The pairings with the other positive coroots come from
one kernel, ``_coroot_pairings``, along the chain ``coroot_chain``, built on
first use from ``coroot_coords`` (the positive coroots over the simple
coroots): ordered by coroot height, every positive coroot that is not simple
is an earlier one plus a simple coroot, so its pairing is one integer
addition.  ``rho_product``, the product of the coroot heights, is the cached
denominator of the Weyl product.  Public surfaces (root vectors, weights,
JSON) stay Fraction epsilon-vectors.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import InputError, InternalError
from .exact import Vector, _reduce, dot, format_vector, parse_integer, vscale

DEFAULT_MAX_RANK = 8
# GHC_MAX_RANK may raise the cap this far: C32 and D32, the slowest rank-32 builds, take
# about 0.9 s (Python 3.11, one core of a 2-core x86-64 VM), and D48 already takes 3 s
MAX_RANK_CEILING = 32

# the simple types and their numbers of roots: a classical series counts its roots by
# a formula from its least rank on, an exceptional one lists its ranks; root_count reads it
_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) if n >= 1 else None,
    "B": lambda n: 2 * n * n if n >= 1 else None,
    "C": lambda n: 2 * n * n if n >= 1 else None,
    "D": lambda n: 2 * n * (n - 1) if n >= 2 else None,
    "E": {6: 72, 7: 126, 8: 240}.get,
    "F": {4: 48}.get,
    "G": {2: 12}.get,
}

# low-rank coincidences, each mapped to the one name the library reports:
# A1 = B1 = C1, C2 = B2, A3 = D3
LOW_RANK_ALIASES = {("B", 1): ("A", 1), ("C", 1): ("A", 1), ("B", 2): ("C", 2), ("D", 3): ("A", 3)}

_F = Fraction


def bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, a nonnegative integer, ascending:
    one scan of its binary digits, lowest first."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b, strict=True))


def max_rank() -> int:
    """The rank cap: DEFAULT_MAX_RANK, or GHC_MAX_RANK read as the CLI reads an
    integer (``exact.parse_integer``: no "_" separators), from 0 to the ceiling."""
    env = os.environ.get("GHC_MAX_RANK")
    if env is not None:
        try:
            cap = parse_integer(env)
        except InputError as e:
            raise InputError(f"GHC_MAX_RANK must be an integer, got {env!r}") from e
        if cap < 0:
            raise InputError(f"GHC_MAX_RANK {cap} is negative")
        if cap > MAX_RANK_CEILING:
            raise InputError(f"GHC_MAX_RANK {cap} exceeds the ceiling {MAX_RANK_CEILING}")
        return cap
    return DEFAULT_MAX_RANK


def _simple_roots(series: str, rank: int) -> tuple[list[tuple[int, ...]], int]:
    """The simple roots doubled, so that they are integer rows, and the ambient dimension."""
    n = rank
    if series in ("A", "B", "C", "D"):
        dim = n + 1 if series == "A" else n
        # e1-e2, ..., e_{dim-1}-e_dim: all n simple roots of A, the first n-1 of B, C and D
        chain = [tuple(2 * ((j == i) - (j == i + 1)) for j in range(dim)) for i in range(dim - 1)]
        if series == "A":
            return chain, dim
        # then e_n (B), 2e_n (C) or e_{n-1}+e_n (D)
        last = {"B": (2,), "C": (4,), "D": (2, 2)}[series]
        return chain + [(0,) * (n - len(last)) + last], n
    if series == "G":
        return [(2, -2, 0), (-4, 2, 2)], 3
    if series == "F":
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)], 4
    if series == "E":
        a1 = (1, -1, -1, -1, -1, -1, -1, 1)
        a2 = (2, 2, 0, 0, 0, 0, 0, 0)
        chain = [tuple(2 * ((j == i + 1) - (j == i)) for j in range(8)) for i in range(6)]  # e_{i+2}-e_{i+1}
        return ([a1, a2] + chain)[:rank], 8
    raise InputError(f"unknown series {series!r}")


def root_count(series: str, rank: int) -> int | None:
    """The number of roots of the simple type (series, rank), or None when there is no such type."""
    # a series that is not a string names no type, and one such as a list cannot be hashed
    count = _ROOT_COUNTS.get(series) if isinstance(series, str) else None
    return count(rank) if count else None


@dataclass(frozen=True)
class RootSystem:
    series: str
    rank: int
    ambient_dim: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    doubled_roots: tuple[tuple[int, ...], ...]  # 2 * all_roots[i] as integers, by root index
    _coords: tuple[tuple[int, ...], ...]  # integer simple-root coordinates of all_roots[i], by root index
    _simple_doubled: tuple[tuple[int, ...], ...]  # 2 * simple_roots[i]

    # -- Fraction views, built on first use -------------------------------

    @cached_property
    def all_roots(self) -> tuple[Vector, ...]:
        return tuple(tuple(_F(x, 2) for x in a) for a in self.doubled_roots)

    @cached_property
    def positive_roots(self) -> tuple[Vector, ...]:
        return self.all_roots[: len(self.doubled_roots) // 2]

    @cached_property
    def simple_roots(self) -> tuple[Vector, ...]:
        return tuple(tuple(_F(x, 2) for x in a) for a in self._simple_doubled)

    @cached_property
    def fundamental_weights(self) -> tuple[Vector, ...]:
        # <w_i, a_j^vee> = delta_ij within the simple span, so w_i = sum_j x_ij a_j with x
        # the inverse Cartan matrix.  [C | 1] reduces fraction-free to [d 1 | d x], d = det C,
        # and no row is swapped, so row i stays w_i's: C is a Gram matrix times a positive
        # diagonal, so every leading minor, and with it every pivot, is positive.  The sum
        # runs over the doubled simple roots, so w_i is that row over 2d
        r = self.rank
        aug = [[*row, *(int(j == i) for j in range(r))] for i, row in enumerate(self.cartan_matrix)]
        _, d = _reduce(aug, r)
        return tuple(tuple(_F(sum(map(mul, row[r:], col)), 2 * d) for col in zip(*self._simple_doubled)) for row in aug)

    @cached_property
    def _index(self) -> dict[Vector, int]:
        return {r: i for i, r in enumerate(self.all_roots)}

    # -- pairings ---------------------------------------------------------

    def pairing(self, lam: Vector, alpha: Vector) -> Fraction:
        """<lam, alpha^vee> = 2(lam,alpha)/(alpha,alpha)."""
        return 2 * dot(lam, alpha) / dot(alpha, alpha)

    def coroot(self, alpha: Vector) -> Vector:
        return vscale(_F(2) / dot(alpha, alpha), alpha)

    # -- root bookkeeping -------------------------------------------------

    def root_index(self, alpha: Vector) -> int:
        try:
            return self._index[alpha]
        except KeyError:
            raise InputError(f"{alpha} is not a root of {self.series}{self.rank}") from None

    def is_root(self, alpha: Vector) -> bool:
        return alpha in self._index

    def mask_of(self, roots: Iterable[Vector]) -> int:
        """The mask of a set of roots; raises InputError for a vector that is not a root."""
        return self.index_mask(map(self.root_index, roots))

    def index_mask(self, indices: Iterable) -> int:
        """The mask of root indices given from outside, each read by ``parse_integer``
        (so neither a float nor a bool is an index); raises InputError for a bad index."""
        mask = 0
        for i in indices:
            try:
                k = parse_integer(i)
            except InputError as e:
                raise InputError(f"root index {i!r} is not an integer") from e
            if not 0 <= k < len(self.doubled_roots):
                raise InputError(f"root index {i} out of range")
            mask |= 1 << k
        return mask

    def roots_of(self, mask: int) -> frozenset[Vector]:
        """The frozenset of the roots of a mask from 0 to ``full_mask``."""
        if not 0 <= mask <= self.full_mask:
            raise InputError(f"root mask {mask} is out of range for {self.series}{self.rank}")
        # a set merge reuses the hash stored with each entry, so no Fraction is hashed;
        # the first chunk the mask meets gives its stored set as it is
        roots = frozenset()
        for t in self._chunk_sets:
            if mask & 63:
                roots = roots | t[mask & 63] if roots else t[mask & 63]
            mask >>= 6
        return roots

    @cached_property
    def _chunk_sets(self) -> tuple[tuple[frozenset[Vector], ...], ...]:
        """For each chunk of six root indices, from 6c on, the frozenset of the roots
        of each 6-bit value: entry v holds all_roots[6c + b] for each set bit b of v.
        A last chunk of r < 6 roots has the 2**r entries a mask can select."""
        table = []
        for c in range(0, len(self.all_roots), 6):
            sets = [frozenset()]
            for a in self.all_roots[c : c + 6]:
                # the entries with this root's bit set: the earlier ones, each with the root added
                single = frozenset((a,))
                sets += [s | single for s in sets]
            table.append(tuple(sets))
        return tuple(table)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.doubled_roots)) - 1

    @cached_property
    def positive_mask(self) -> int:
        """The positive roots come first in all_roots: the low half of the bits."""
        return (1 << len(self.doubled_roots) // 2) - 1

    def negated(self, mask: int) -> int:
        """The mask of the negated roots: all_roots[i + |positive|] is -all_roots[i]."""
        half = len(self.doubled_roots) // 2
        return mask >> half | (mask & self.positive_mask) << half

    def simple_coordinates(self, alpha: Vector) -> tuple[int, ...]:
        """Coefficients of alpha over the simple roots."""
        return self._coords[self.root_index(alpha)]

    def height(self, alpha: Vector) -> int:
        return sum(self.simple_coordinates(alpha))

    @cached_property
    def sum_partners(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """sum_partners[i] lists every (j, k) with all_roots[i] + all_roots[j] = all_roots[k],
        j ascending: the one table of root sums.  Built on first use: only closed-subset
        code needs it."""
        # coordinates c as one integer sum_j c_j * 64**j: codes add as the vectors
        # do, and stay distinct since no coordinate of a root exceeds 6 in size
        codes = [sum(x << 6 * j for j, x in enumerate(c)) for c in self._coords]
        index = {code: i for i, code in enumerate(codes)}
        return tuple(
            tuple((j, k) for j, b in enumerate(codes) if (k := index.get(a + b)) is not None) for a in codes
        )

    def sums(self, a: int, b: int) -> int:
        """The mask of the roots x + y with x in mask a and y in mask b, read from the
        ``sum_partners`` rows of a's roots, one row per root of a."""
        out = 0
        for i in bits(a):
            for j, k in self.sum_partners[i]:
                if b >> j & 1:
                    out |= 1 << k
        return out

    @cached_property
    def vector_order(self) -> tuple[int, ...]:
        """The root indices in the order in which the root vectors sort.  Sorting
        the rows of ``doubled_roots`` gives it with no Fraction compare."""
        return tuple(sorted(range(len(self.doubled_roots)), key=self.doubled_roots.__getitem__))

    @cached_property
    def coroot_coords(self) -> tuple[tuple[int, ...], ...]:
        """The coroot of positive_roots[i] over the simple coroots: c_j |a_j|^2 / |a|^2
        for a = sum_j c_j a_j.  Built on first use."""
        positive = zip(self._coords, self.doubled_roots[: len(self.doubled_roots) // 2])
        return tuple(tuple(cj * nj // _dot(a, a) for cj, nj in zip(c, self._simple_norms)) for c, a in positive)

    @cached_property
    def coroot_chain(self) -> tuple[tuple[int, int], ...]:
        """The positive coroots that are not simple, by coroot height, each as (p, j):
        coroot p plus the simple coroot a_j^vee.  Positions 0 .. rank-1 are the simple
        coroots by index, and entry k is position rank + k, so p always comes earlier.
        Every positive coroot that is not simple is a positive coroot of height one
        less plus a simple coroot (Humphreys, Lie algebras, 10.2, in the dual system).
        Coroot order is not root order: in B2 with a1 long, the root a1 + a2 comes
        first, but its coroot 2a1^vee + a2^vee follows a1^vee + a2^vee, the coroot of
        a1 + 2a2.  Built on first use."""
        r = self.rank
        order = [tuple(int(j == i) for j in range(r)) for i in range(r)]
        order += sorted((c for c in self.coroot_coords if sum(c) > 1), key=sum)
        position = {c: k for k, c in enumerate(order)}
        # for each coroot c that is not simple, the first j for which c - a_j^vee is a positive coroot
        return tuple(
            next((position[d], j) for j in range(r) if (d := c[:j] + (c[j] - 1,) + c[j + 1 :]) in position)
            for c in order[r:]
        )

    @cached_property
    def rho_product(self) -> int:
        """prod <rho, b^vee> over the positive coroots b^vee: the product of their heights."""
        return prod(map(sum, self.coroot_coords))

    @cached_property
    def _simple_norms(self) -> tuple[int, ...]:
        """|2a|^2 for each simple root a."""
        return tuple(_dot(a, a) for a in self._simple_doubled)

    def rho(self) -> Vector:
        # the doubled positive roots sum to 4 rho
        return tuple(_F(sum(x), 4) for x in zip(*self.doubled_roots[: len(self.doubled_roots) // 2]))

    def to_json(self) -> dict:
        return {
            "series": self.series,
            "rank": self.rank,
            "roots": [format_vector(r) for r in self.all_roots],
            "simple_roots": [format_vector(r) for r in self.simple_roots],
            "positive_roots": [format_vector(r) for r in self.positive_roots],
            "cartan_matrix": [list(row) for row in self.cartan_matrix],
        }


def build(series: str, rank: int) -> RootSystem:
    """Construct the root system by reflection closure from the simple roots.

    Root ordering is canonical: positive roots sorted by (height, coords),
    then the negatives in the matching order; this ordering backs the root
    indices used on all JSON surfaces.
    """
    if root_count(series, rank) is None:
        raise InputError(f"invalid simple type ({series},{rank})")
    cap = max_rank()
    if rank > cap:
        raise InputError(f"rank {rank} exceeds the configured bound {cap}")
    return _construct(series, rank)


@lru_cache(maxsize=None)
def _construct(series: str, rank: int) -> RootSystem:
    # epsilon-coordinates, doubled so that they are integers; the Cartan entry
    # <a_i, a_j^vee> = 2(a_i, a_j)/(a_j, a_j) is the same ratio on doubled roots
    doubled, dim = _simple_roots(series, rank)
    cartan = tuple(tuple(2 * _dot(a, b) // _dot(b, b) for b in doubled) for a in doubled)
    # reflection closure on integer simple-root coordinates c:
    # s_i(b) = b - <b, a_i^vee> a_i, with <b, a_i^vee> = sum_j c_j cartan[j][i]
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    seen = set(units)
    frontier = units
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                p = sum(cj * row[i] for cj, row in zip(c, cartan))
                if p:
                    refl = c[:i] + (c[i] - p,) + c[i + 1:]
                    if refl not in seen:
                        seen.add(refl)
                        nxt.append(refl)
        frontier = nxt

    # sorting on doubled epsilon-coordinates orders roots as their Fraction coordinates do
    positive = sorted(
        (sum(c), tuple(sum(cj * a[k] for cj, a in zip(c, doubled)) for k in range(dim)), c)
        for c in seen
        if min(c) >= 0
    )
    # the positive roots, then their negatives in the same order
    _, doubled_roots, coords = zip(*positive)
    doubled_roots += tuple(tuple(-x for x in a) for a in doubled_roots)
    coords += tuple(tuple(-x for x in c) for c in coords)

    count = root_count(series, rank)
    if len(doubled_roots) != count:
        raise InternalError(f"{series}{rank}: generated {len(doubled_roots)} roots, expected {count}")
    return RootSystem(series, rank, dim, cartan, doubled_roots, coords, tuple(doubled))


# ---------------------------------------------------------------------------
# weight predicates


def _weight_row(rs: RootSystem, lam: Vector) -> tuple[list[int], int]:
    """lam as an integer row and a positive denominator, lam = row / den: the one
    entry point of a weight, which also checks its length."""
    if len(lam) != rs.ambient_dim:
        raise InputError("weight dimension does not match the ambient space")
    den = lcm(*(x.denominator for x in lam))
    return [x.numerator * (den // x.denominator) for x in lam], den


def _simple_pairings(rs: RootSystem, row: Sequence[int], den: int) -> list[tuple[int, int]]:
    """<lam, a^vee> = 4(row, 2a) / (den |2a|^2) for each simple root a, as an
    integer (numerator, positive denominator) pair, for lam = row / den."""
    return [(4 * sum(map(mul, row, a)), den * n) for a, n in zip(rs._simple_doubled, rs._simple_norms)]


def _integral(rs: RootSystem, row: Sequence[int], den: int) -> bool:
    """Whether lam = row / den pairs with every coroot in the integers."""
    return all(p % q == 0 for p, q in _simple_pairings(rs, row, den))


def is_integral(rs: RootSystem, lam: Vector) -> bool:
    return _integral(rs, *_weight_row(rs, lam))


def is_dominant(rs: RootSystem, lam: Vector) -> bool:
    return all(p >= 0 for p, _ in _simple_pairings(rs, *_weight_row(rs, lam)))


def _coroot_pairings(rs: RootSystem, shifted: Sequence[int]) -> list[int]:
    """<mu, b^vee> for every positive coroot b^vee, in ``coroot_chain`` positions, from
    the integer pairings ``shifted`` of mu with the simple coroots: one addition each."""
    out = list(shifted)
    append = out.append
    for p, j in rs.coroot_chain:
        append(out[p] + shifted[j])
    return out


def is_regular_integral(rs: RootSystem, lam: Vector) -> bool:
    """True iff <lam+rho, alpha^vee> is a nonzero integer for every positive root."""
    # <rho, a^vee> = 1 on the simple roots, and integral pairings there are integral everywhere
    pairings = _simple_pairings(rs, *_weight_row(rs, lam))
    return all(p % q == 0 for p, q in pairings) and all(_coroot_pairings(rs, [p // q + 1 for p, q in pairings]))


def weyl_dim(rs: RootSystem, lam: Vector) -> int:
    """Dimension of the irreducible module with highest weight lam.

    Half-integer epsilon-coordinates are fine as long as every coroot
    pairing is a nonnegative integer.  The product prod <lam+rho, b^vee> over
    the positive coroots is read along ``coroot_chain``, one integer addition
    per coroot that is not simple, and divided by the cached ``rho_product``.
    """
    pairings = _simple_pairings(rs, *_weight_row(rs, lam))
    for i, (p, q) in enumerate(pairings):
        if p < 0 or p % q:
            raise InputError(f"weight is not dominant integral: pairing {_F(p, q)} on {rs.simple_roots[i]}")
    num, den = prod(_coroot_pairings(rs, [p // q + 1 for p, q in pairings])), rs.rho_product
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise InternalError(f"Weyl product gave a non-positive-integer value {_F(num, den)}")
    return dim


def height_distribution(rs: RootSystem) -> dict[int, int]:
    return dict(sorted(Counter(h for h in map(sum, rs._coords) if h > 0).items()))
