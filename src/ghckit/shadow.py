"""Shadow decompositions of a root system induced by a root subalgebra.

A root subalgebra is a closed subset of roots (the Cartan subalgebra is
always implicitly included).  Its complement generates a monoid Gamma, and
each root is classified by whether it and its negative lie in the cone over
Gamma's generators.  The cone is closed under addition, so the generators
and the closure of the members under root sums are members without an LP.
A chain of integer functionals proves the other roots outside the cone, and
a rational LP decides only a root that the chain leaves (see ``shadow``).

Root subsets are bitmasks over the canonical root order, and closure goes
through the sum table.  A decomposition holds the masks of its parts, and
its JSON reads their bits; frozensets of Fraction epsilon-vectors are views
built only for results: ``RootSubalgebra.roots``, the parts of a
decomposition, ``parabolic_pm``, ``fernando_fk`` and ``closed_subsets``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .errors import InputError
from .exact import Vector, cone_member
from .rootsys import RootSystem, bits

# bound on the points support_shape builds, counted as base points times gamma-sums: from one
# base point, the A4 Cartan (20 generators) passes it at radius 9, after about 0.2 s, and
# radius 8 (15,421 points) takes 0.35 s (Python 3.11, one core of a 2-core x86-64 VM)
MAX_SUPPORT_POINTS = 20_000


def closed_mask(rs: RootSystem, mask: int) -> bool:
    """True iff every sum of two roots of the mask that is a root is in the mask."""
    members = bits(mask)
    table = rs.sum_table
    for i in members:
        row = table[i]
        for j in members:
            k = row[j]
            if k >= 0 and not mask >> k & 1:
                return False
    return True


def _close(rs: RootSystem, mask: int, queue: list[int], stop: int = 0) -> int:
    """The closure of mask under sums that are roots, where every sum of two roots
    of mask outside the queue is already in mask; the queue is consumed.  It is -1
    as soon as a root of stop would be added (roots of stop already in mask are kept)."""
    partners = rs.sum_partners
    while queue:
        for j, k in partners[queue.pop()]:
            if mask >> j & 1 and not mask >> k & 1:
                if stop >> k & 1:
                    return -1
                mask |= 1 << k
                queue.append(k)
    return mask


def is_closed(rs: RootSystem, roots: Iterable[Vector]) -> bool:
    """``closed_mask`` for a set of roots; a vector that is not a root is an input error."""
    return closed_mask(rs, rs.mask_of(roots))


@dataclass(frozen=True, init=False)
class RootSubalgebra:
    """A closed subset of roots, held as a bitmask over ``rs.all_roots``;
    ``roots`` is its frozenset of vectors, built on first use."""

    rs: RootSystem
    mask: int

    def __init__(self, rs: RootSystem, roots: Iterable[Vector] | int):
        """roots: the subset's roots (a non-root is an input error), or its mask."""
        mask = roots if isinstance(roots, int) else rs.mask_of(roots)
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


@dataclass(frozen=True)
class ShadowDecomposition:
    """The four classes of roots and the generators of Gamma, as masks over
    ``rs.all_roots``; ``I``, ``F``, ``plus``, ``minus`` and ``gamma_generators``
    are their frozensets of vectors, built on first use."""

    rs: RootSystem
    i_mask: int
    f_mask: int
    plus_mask: int
    minus_mask: int
    gamma_mask: int

    I = cached_property(lambda self: self.rs.roots_of(self.i_mask))
    F = cached_property(lambda self: self.rs.roots_of(self.f_mask))
    plus = cached_property(lambda self: self.rs.roots_of(self.plus_mask))
    minus = cached_property(lambda self: self.rs.roots_of(self.minus_mask))
    gamma_generators = cached_property(lambda self: self.rs.roots_of(self.gamma_mask))
    # the masks of p_M (I + F + plus) and of the Fernando-Kac subalgebra (F + plus)
    pm_mask = property(lambda self: self.i_mask | self.f_mask | self.plus_mask)
    fernando_fk_mask = property(lambda self: self.f_mask | self.plus_mask)

    def to_json(self) -> dict:
        return {
            "I": bits(self.i_mask),
            "F": bits(self.f_mask),
            "plus": bits(self.plus_mask),
            "minus": bits(self.minus_mask),
            "gamma_generators": bits(self.gamma_mask),
        }


def _require_over(rs: RootSystem, l: RootSubalgebra) -> None:
    """InputError unless l is a subalgebra of rs: the same object, or a system of the same type."""
    if l.rs is not rs and (l.rs.series, l.rs.rank) != (rs.series, rs.rank):
        raise InputError(f"the subalgebra belongs to {l.rs.series}{l.rs.rank}, not to {rs.series}{rs.rank}")


def shadow(rs: RootSystem, fk: RootSubalgebra) -> ShadowDecomposition:
    """Four-way classification of every root against the cone over Gamma.

    Gamma-bar, the closure of Gamma under root sums, is in the cone.  A chain
    of integer functionals on the doubled roots proves the roots outside it
    outside the cone: live_0 is every root, phi_k the sum of the members in
    live_k (half of members minus non-members, live_k being symmetric), and
    live_{k+1} the roots of live_k where phi_k is 0.  Let phi_k >= 0 on the
    live generators, and t = sum c_g g, c_g > 0, with the support in live_k
    (as for k = 0).  Then phi_k(t) >= 0, and phi_k(t) = 0 only if the support
    lies in live_{k+1}.  So a live root with phi_k < 0 is outside and one with
    phi_k = 0 stays live.  With no live generator every live root is outside;
    where phi_k is 0, a live t with (t, g) <= 0 on every live generator is,
    by y = -t.  Any other root, and every live one once phi_k < 0 on a
    generator, gets a ``cone_member`` LP: no tested closed subset leaves one,
    but that none does is not proved, so the LP stays as the fallback.
    """
    _require_over(rs, fk)
    gamma_mask = rs.full_mask & ~fk.mask
    # the roots in the cone: the cone is closed under addition, so the generators and every
    # root that is a sum of two members are members without an LP
    inside = _close(rs, gamma_mask, bits(gamma_mask))
    undecided = rs.full_mask & ~inside & ~_certified_outside(rs, gamma_mask, inside)
    # membership is the same for v over gamma and 2v over 2 gamma, and the doubled roots are integers
    doubled = rs.doubled_roots
    for i in bits(undecided):
        if not inside >> i & 1 and cone_member(doubled[i], [doubled[g] for g in bits(gamma_mask)]) is not None:
            inside = _close(rs, inside | 1 << i, [i])
    neg = rs.negated(inside)  # the roots whose negatives are in the cone
    return ShadowDecomposition(
        rs,
        i_mask=inside & neg,
        f_mask=rs.full_mask & ~(inside | neg),
        plus_mask=neg & ~inside,
        minus_mask=inside & ~neg,
        gamma_mask=gamma_mask,
    )


def _certified_outside(rs: RootSystem, gamma_mask: int, inside: int) -> int:
    """The mask of the roots outside the mask inside (cone members over gamma_mask,
    which they include) that the functional chain of ``shadow`` proves outside the cone."""
    doubled = rs.doubled_roots
    live, todo, outside = rs.full_mask, rs.full_mask & ~inside, 0
    while todo:
        gens = gamma_mask & live
        phi = [sum(col) for col in zip(*[doubled[i] for i in bits(inside & live)])]
        # phi is a sum of live roots, so it is 0 on live only if it is 0; with no live
        # generator, every live root passes the test below
        if not any(phi):
            rows = [doubled[g] for g in bits(gens)]
            return outside | sum(1 << t for t in bits(todo) if all(sum(map(mul, doubled[t], g)) <= 0 for g in rows))
        negative = zero = 0
        for i in bits(live):
            value = sum(map(mul, phi, doubled[i]))
            if value < 0:
                negative |= 1 << i
            elif not value:
                zero |= 1 << i
        if negative & gens:
            return outside
        outside |= todo & negative
        live, todo = zero, todo & zero
    return outside


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
    coefficient at most truncation_radius."""
    if truncation_radius < 0:
        raise InputError("truncation radius must be nonnegative")
    rs = sd.rs
    if any(len(b) != rs.ambient_dim for b in base_points):
        raise InputError(f"base points must have dimension {rs.ambient_dim}")
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
    forces; branches that would need an excluded root are pruned.  The
    closure stops at the first excluded root it would add: chosen never meets
    excluded and closures only grow, so this prunes as a full closure would.
    """
    n = len(rs.all_roots)
    # (next root to decide, chosen, excluded); the exclude branch is pushed
    # last so that it is explored first
    stack = [(0, 0, 0)]
    while stack:
        i, chosen, excluded = stack.pop()
        while i < n and chosen >> i & 1:
            i += 1
        if i == n:
            yield chosen
            continue
        c = _close(rs, chosen | 1 << i, [i], excluded)
        if c >= 0:
            stack.append((i + 1, c, excluded))
        stack.append((i + 1, chosen, excluded | 1 << i))


def closed_subsets(rs: RootSystem) -> Iterator[frozenset[Vector]]:
    """Every closed subset of the root set as a frozenset, in the order of ``closed_masks``."""
    return map(rs.roots_of, closed_masks(rs))
