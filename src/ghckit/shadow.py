"""Shadow decompositions of a root system induced by a root subalgebra.

A root subalgebra is a closed subset of roots (the Cartan subalgebra is
always implicitly included).  Its complement generates a monoid Gamma, and
each root is classified by whether it and its negative lie in the cone over
Gamma's generators.  The roots in that cone are exactly the closure of
Gamma under root sums, so membership needs no LP (``shadow`` holds the
proof).

Root subsets are bitmasks over the canonical root order, and closure goes
through ``RootSystem.sum_partners``, the one table of root sums, by one of
two kernels.  ``shadow`` closes Gamma, which holds most of the roots, by
testing the roots outside it (``_close_from_outside``); the enumeration of
closed subsets (``closed_masks``) walks each exclude chain in one loop and
closes each include branch, a small closed set plus one root, by walking the
partners of the roots that join, on the table's rows as bits, built once per
call, until the first excluded root (``_close`` is the same walk on index
pairs, run to the end).  ``closed_mask`` reads each pair of members once,
from the later one's partners.  ``closed_mask``, ``_close_from_outside`` and
``RootSystem.sums`` walk only the set bits of their mask, lowest first, and
build no ``bits()`` list; ``closed_mask`` and ``sums`` read their masks by
``RootSystem._root_mask``, the one mask rule, as a negative int has no last
bit.  A decomposition stores Gamma's mask and one fact per root, whether it
lies in the cone (the cone mask, Gamma-bar); the four class masks are views
of the cone mask and its negation, and its JSON reads their bits.  Frozensets of Fraction epsilon-vectors are views built
only for results: ``RootSubalgebra.roots``, the parts of a decomposition,
``parabolic_pm``, ``fernando_fk`` and ``closed_subsets``.  A support shape
grows only from newly reached points, in doubled integer coordinates, up to
``MAX_SUPPORT_POINTS`` points; more is an input error.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import InputError
from .exact import Vector, _check_dim, _Record, _shown, parse_nonnegative, vec
from .rootsys import RootSystem, bits

# bound on the points support_shape builds, counted as base points times gamma-sums: from one
# base point, the A4 Cartan (20 generators) passes it at radius 9, after about 0.2 s, and
# radius 8 (15,421 points) takes 0.35 s (Python 3.11, one core of a 2-core x86-64 VM)
MAX_SUPPORT_POINTS = 20_000


def closed_mask(rs: RootSystem, mask: int) -> bool:
    """True iff every sum of two roots of the mask that is a root is in the mask, an
    int read by ``RootSystem._root_mask``.  Each unordered pair is read once: from each
    member q, the partners j < q, which ``sum_partners[q]`` lists first.  The walk
    visits only the members, lowest first, by the step ``low = rest & -rest``."""
    partners = rs.sum_partners
    rest = rs._root_mask(mask)
    while rest:
        low = rest & -rest
        q = low.bit_length() - 1
        for j, k in partners[q]:
            if j > q:
                break
            if mask >> j & 1 and not mask >> k & 1:
                return False
        rest ^= low
    return True


def _close(rs: RootSystem, mask: int, queue: list[int]) -> int:
    """The closure of mask under sums that are roots, where every sum of two roots
    of mask outside the queue is already in mask; the queue is consumed.  The walk
    visits the partners of every root that joins, so it suits a small closed mask
    and one more root.  ``closed_masks`` runs the same walk inline."""
    partners = rs.sum_partners
    while queue:
        for j, k in partners[queue.pop()]:
            if mask >> j & 1 and not mask >> k & 1:
                mask |= 1 << k
                queue.append(k)
    return mask


def _close_from_outside(rs: RootSystem, mask: int) -> int:
    """The closure of mask under sums that are roots, found by testing the roots
    outside it: k joins when k = m + (-j) for some (j, m) in ``sum_partners[k]``
    with m and -j in mask.  Each round walks the set bits of the roots outside and
    costs their partners, so it suits a mask that holds most of the roots, as Gamma does."""
    partners = rs.sum_partners
    while True:
        neg = rs.negated(mask)
        grown = mask
        rest = rs.full_mask & ~mask
        while rest:
            low = rest & -rest
            for j, m in partners[low.bit_length() - 1]:
                if neg >> j & 1 and mask >> m & 1:
                    grown |= low
                    break
            rest ^= low
        if grown == mask:
            return mask
        mask = grown


def is_closed(rs: RootSystem, roots: Iterable[Vector]) -> bool:
    """``closed_mask`` for a set of roots; a vector that is not a root is an input error."""
    return closed_mask(rs, rs.mask_of(roots))


class RootSubalgebra(_Record):
    """A closed subset of roots, held as a bitmask over ``rs.all_roots``;
    ``roots`` is its frozenset of vectors, built on first use."""

    rs: RootSystem
    mask: int

    def __init__(self, rs: RootSystem, roots: Iterable[Vector] | int):
        """roots: the subset's roots (a non-root is an input error), or its mask, an int
        (not a bool)."""
        # closed_mask reads an int mask by RootSystem._root_mask
        mask = roots if type(roots) is int else rs.mask_of(roots)
        if not closed_mask(rs, mask):
            raise InputError("root subset is not closed under addition")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_indices(cls, rs: RootSystem, indices: Iterable[int]) -> "RootSubalgebra":
        return cls(rs, rs.index_mask(indices))

    @cached_property
    def roots(self) -> frozenset[Vector]:
        return self.rs.roots_of(self.mask)


class ShadowDecomposition(_Record):
    """Stores Gamma's mask and the cone mask, Gamma-bar, over ``rs.all_roots``; the
    class masks are views of the cone mask and its negation, and ``I``, ``F``,
    ``plus``, ``minus`` and ``gamma_generators`` their frozensets, built on first use."""

    rs: RootSystem
    gamma_mask: int
    cone_mask: int

    # a root is in I if it and its negative are in the cone, in F if neither is, in plus
    # if only its negative is and in minus if only it is
    i_mask = property(lambda self: self.cone_mask & self.rs.negated(self.cone_mask))
    f_mask = property(lambda self: self.rs.full_mask & ~(self.cone_mask | self.rs.negated(self.cone_mask)))
    plus_mask = property(lambda self: self.rs.negated(self.cone_mask) & ~self.cone_mask)
    minus_mask = property(lambda self: self.cone_mask & ~self.rs.negated(self.cone_mask))
    I = cached_property(lambda self: self.rs.roots_of(self.i_mask))
    F = cached_property(lambda self: self.rs.roots_of(self.f_mask))
    plus = cached_property(lambda self: self.rs.roots_of(self.plus_mask))
    minus = cached_property(lambda self: self.rs.roots_of(self.minus_mask))
    gamma_generators = cached_property(lambda self: self.rs.roots_of(self.gamma_mask))
    # the masks of p_M (I + F + plus) and of the Fernando-Kac subalgebra (F + plus)
    pm_mask = property(lambda self: self.rs.full_mask & ~self.minus_mask)
    fernando_fk_mask = property(lambda self: self.rs.full_mask & ~self.cone_mask)

    def to_json(self) -> dict:
        return {
            "I": bits(self.i_mask),
            "F": bits(self.f_mask),
            "plus": bits(self.plus_mask),
            "minus": bits(self.minus_mask),
            "gamma_generators": bits(self.gamma_mask),
        }


def _require_over(rs: RootSystem, l: RootSubalgebra) -> None:
    """InputError unless l is a ``RootSubalgebra`` of rs: over the same object, or a
    system of the same type."""
    if not isinstance(l, RootSubalgebra):
        raise InputError(f"expected a RootSubalgebra, got {_shown(l)}")
    if l.rs is not rs and (l.rs.series, l.rs.rank) != (rs.series, rs.rank):
        raise InputError(f"the subalgebra belongs to {l.rs.series}{l.rs.rank}, not to {rs.series}{rs.rank}")


def shadow(rs: RootSystem, fk: RootSubalgebra) -> ShadowDecomposition:
    """Four-way classification of every root against the cone over Gamma, stored
    as the cone mask, the roots in that cone.

    Gamma is the complement of the closed subset S, and the roots in its cone
    are Gamma-bar, the closure of Gamma under root sums, which comes from
    testing the roots outside Gamma, usually the fewer (``_close_from_outside``).
    The cone is closed under addition, so Gamma-bar lies in it; that it holds
    no other root rests on one standard fact: for roots a != b with (a, b) > 0,
    a - b is a root (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 9.4).  Build Gamma-bar in rounds: Gamma_0 = Gamma, and Gamma_{n+1}
    adds every root x + y with x, y in Gamma_n.  Let T be the roots outside
    Gamma-bar, a subset of S.

    Step A: T is closed.  By induction on n, no a, b in T have a + b in Gamma_n.
    For n = 0, a + b lies in S, as S is closed.  For n > 0, let d = a + b lie in
    Gamma_n but not in Gamma_{n-1}, so d = x + y with x, y in Gamma_{n-1}.  Since
    (d, d) = (a, d) + (b, d) > 0, say (a, d) > 0, and then say (a, x) > 0.  As x is
    in Gamma-bar, a != x, so a - x is a root.  It lies in T, or a = (a - x) + x
    would lie in Gamma-bar; but then (a - x) + b = y lies in Gamma_{n-1}, which the
    induction rules out.

    Step B: if B and its complement T are both closed, the roots in cone(B)
    are B.  With B = Gamma-bar, and cone(Gamma-bar) = cone(Gamma), this is the
    claim.  Let B^s = B & -B, B^u = B - B^s and T^s = T & -T, so that the roots
    are the disjoint union of B^s, B^u, -B^u and T^s, and T = T^s | -B^u.
    B^s is orthogonal to T^s: for b in B^s and c in T^s with (b, c) < 0 (use -c
    if it is > 0), b + c is a root; in B it would put c = (b + c) + (-b) in B, in
    T it would put b = (b + c) + (-c) in T.  P = B | T^s is closed (a root b + c
    with b in B and c in T^s lies in B, or b = (b + c) + (-c) would lie in T), and
    P | -P holds every root, so P is parabolic (Bourbaki, Lie Groups and Lie
    Algebras, ch. VI 1.7, Prop. 20) with Levi part B^s | T^s and nilradical B^u.
    So phi = sum B^u, which is 2 rho_P, is 0 on B^s | T^s, > 0 on B^u and < 0 on
    -B^u.  A root t of T in cone(B) has phi(t) >= 0, so t is in T^s and
    phi(t) = 0; then every generator with a positive coefficient lies in B^s,
    and t lies in the span of B^s, to which it is orthogonal: (t, t) = 0, which
    no root has.
    """
    _require_over(rs, fk)
    gamma_mask = rs.full_mask & ~fk.mask
    return ShadowDecomposition(rs, gamma_mask, _close_from_outside(rs, gamma_mask))


def parabolic_pm(sd: ShadowDecomposition) -> frozenset[Vector]:
    """Root set of the parabolic attached to the decomposition: I + F + plus."""
    return sd.rs.roots_of(sd.pm_mask)


def fernando_fk(sd: ShadowDecomposition) -> frozenset[Vector]:
    """Root set of the Fernando-Kac subalgebra of a finite-h-type module
    with this shadow: F + plus."""
    return sd.rs.roots_of(sd.fernando_fk_mask)


def support_shape(
    sd: ShadowDecomposition,
    base_points: Sequence[Vector],
    truncation_radius: int,
) -> frozenset[Vector]:
    """Truncated support: base points shifted by Gamma-sums of total
    coefficient at most truncation_radius, an integer read by
    ``exact.parse_nonnegative`` (a bool, a float or a negative number is an
    input error).  The base points are checked by the length rule,
    ``exact._check_dim``, and each is read by ``exact.vec``."""
    truncation_radius = parse_nonnegative(truncation_radius, "truncation radius")
    rs = sd.rs
    base_points = [vec(b) for b in _check_dim(base_points, rs.ambient_dim, "base points must have dimension {dim}")]
    # the shifts are doubled, so that they are integer tuples: roots lie in Z/2
    gamma = [rs.doubled_roots[i] for i in bits(sd.gamma_mask)]
    zero = (0,) * rs.ambient_dim
    shifts = {zero}
    # a point reached in fewer steps already had its shifts by gamma added, so only new points grow
    frontier = {zero}
    for _ in range(truncation_radius):
        frontier = {tuple(map(add, s, g)) for s in frontier for g in gamma} - shifts
        if not frontier:
            break
        shifts |= frontier
        if len(shifts) * max(len(base_points), 1) > MAX_SUPPORT_POINTS:
            raise InputError(f"support shape exceeds {MAX_SUPPORT_POINTS} points; lower the radius")
    return frozenset(
        tuple(x + Fraction(y, 2) for x, y in zip(b, s, strict=True)) for b in base_points for s in shifts
    )


def closed_masks(rs: RootSystem) -> Iterator[int]:
    """The mask of every closed subset of the root set, in a deterministic order.

    Depth-first over the canonical root ordering: each root is either
    excluded outright or included together with everything its closure
    forces; branches that would need an excluded root are pruned.  A popped
    branch walks its exclude chain in one loop: at each root not yet chosen it
    closes the include branch, as ``_close`` does, and pushes it if it
    survives, then excludes the root and goes on; at the end of the chain it
    yields chosen.  The closure stops at the first excluded root it would add:
    chosen never meets excluded and closures only grow, so this prunes as a
    full closure would.  The last-pushed include branch is popped first, so
    the order is that of a stack holding each exclude branch above its
    include branch.
    """
    n = len(rs.doubled_roots)
    # sum_partners as bits, once per call: root q + root j = root k is (1 << j, 1 << k) in row q
    rows = [tuple((1 << j, 1 << k) for j, k in row) for row in rs.sum_partners]
    # (next root to decide, chosen, excluded)
    stack = [(0, 0, 0)]
    while stack:
        start, chosen, excluded = stack.pop()
        for i in range(start, n):
            bit = 1 << i
            if chosen & bit:
                continue
            c, queue = chosen | bit, [i]
            while queue:
                for jb, kb in rows[queue.pop()]:
                    if c & jb and not c & kb:
                        if excluded & kb:
                            break
                        c |= kb
                        queue.append(kb.bit_length() - 1)
                else:
                    continue
                break  # the closure met an excluded root: the include branch is pruned
            else:
                stack.append((i + 1, c, excluded))
            excluded |= bit
        yield chosen


def closed_subsets(rs: RootSystem) -> Iterator[frozenset[Vector]]:
    """Every closed subset of the root set as a frozenset, in the order of ``closed_masks``."""
    return map(rs.roots_of, closed_masks(rs))
