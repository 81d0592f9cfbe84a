"""Shadow decompositions of a root system induced by a root subalgebra.

A root subalgebra is a closed subset of roots (the Cartan subalgebra is
always implicitly included).  Its complement generates a monoid Gamma, and
each root is classified by two cone-membership queries against Gamma's
generators.  Cone membership over Q+ is used directly: the R+-span in the
defining conditions is decided exactly by rational LP.

``is_closed`` and ``closed_subsets`` work on integer bitmasks over the
canonical root order and add roots through the sum table; what they take and
return stays frozensets of Fraction epsilon-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InputError
from .exact import Vector, cone_member, vadd, vneg, vzero
from .rootsys import RootSystem


def is_closed(rs: RootSystem, roots: frozenset[Vector]) -> bool:
    """True iff every sum of two of the roots that is a root is among them.
    Raises InputError for a vector that is not a root of rs."""
    members = [rs.root_index(a) for a in roots]
    mask = 0
    for i in members:
        mask |= 1 << i
    table = rs.sum_table
    for i in members:
        row = table[i]
        for j in members:
            k = row[j]
            if k >= 0 and not mask >> k & 1:
                return False
    return True


@dataclass(frozen=True)
class RootSubalgebra:
    """A closed subset of roots, together with the ambient root system."""

    rs: RootSystem
    roots: frozenset[Vector]

    @classmethod
    def from_indices(cls, rs: RootSystem, indices: Iterable[int]) -> "RootSubalgebra":
        return cls(rs, frozenset(rs.roots_from_indices(indices)))

    def __post_init__(self):
        # is_closed looks up every vector with root_index, which rejects non-roots
        if not is_closed(self.rs, self.roots):
            raise InputError("root subset is not closed under addition")

    def indices(self) -> list[int]:
        return sorted(self.rs.root_index(a) for a in self.roots)


@dataclass(frozen=True)
class ShadowDecomposition:
    rs: RootSystem
    I: frozenset[Vector]
    F: frozenset[Vector]
    plus: frozenset[Vector]
    minus: frozenset[Vector]
    gamma_generators: frozenset[Vector]

    def to_json(self) -> dict:
        idx = self.rs.root_index
        return {
            "I": sorted(idx(a) for a in self.I),
            "F": sorted(idx(a) for a in self.F),
            "plus": sorted(idx(a) for a in self.plus),
            "minus": sorted(idx(a) for a in self.minus),
            "gamma_generators": sorted(idx(a) for a in self.gamma_generators),
        }


def shadow(rs: RootSystem, fk: RootSubalgebra) -> ShadowDecomposition:
    """Four-way classification of every root against the cone over Gamma."""
    gamma = sorted(set(rs.all_roots) - fk.roots)
    parts: dict[str, set[Vector]] = {"I": set(), "F": set(), "plus": set(), "minus": set()}
    in_cone: dict[Vector, bool] = {}

    def member(a: Vector) -> bool:
        if a not in in_cone:
            # roots that are themselves generators are members for free
            in_cone[a] = (a not in fk.roots) or cone_member(a, gamma) is not None
        return in_cone[a]

    for a in rs.all_roots:
        pos, neg = member(a), member(vneg(a))
        if pos and neg:
            parts["I"].add(a)
        elif not pos and not neg:
            parts["F"].add(a)
        elif neg:
            parts["plus"].add(a)
        else:
            parts["minus"].add(a)
    return ShadowDecomposition(
        rs=rs,
        I=frozenset(parts["I"]),
        F=frozenset(parts["F"]),
        plus=frozenset(parts["plus"]),
        minus=frozenset(parts["minus"]),
        gamma_generators=frozenset(gamma),
    )


def parabolic_pm(sd: ShadowDecomposition) -> frozenset[Vector]:
    """Root set of the parabolic attached to the decomposition: I + F + plus."""
    return sd.I | sd.F | sd.plus


def fernando_fk(sd: ShadowDecomposition) -> frozenset[Vector]:
    """Root set of the Fernando-Kac subalgebra of a finite-h-type module
    with this shadow: F + plus."""
    return sd.F | sd.plus


def support_shape(
    sd: ShadowDecomposition,
    base_points: Sequence[Vector],
    truncation_radius: int,
) -> frozenset[Vector]:
    """Truncated support: base points shifted by Gamma-sums of total
    coefficient at most truncation_radius."""
    if truncation_radius < 0:
        raise InputError("truncation radius must be nonnegative")
    gamma = sorted(sd.gamma_generators)
    dim = sd.rs.ambient_dim
    shifts = {vzero(dim)}
    frontier = {vzero(dim)}
    for _ in range(truncation_radius):
        frontier = {vadd(s, g) for s in frontier for g in gamma}
        shifts |= frontier
    return frozenset(vadd(b, s) for b in base_points for s in shifts)


def closed_subsets(rs: RootSystem) -> Iterator[frozenset[Vector]]:
    """Enumerate every closed subset of the root set, in a deterministic order.

    Depth-first over the canonical root ordering: each root is either
    excluded outright or included together with everything its closure
    forces; branches that would need an excluded root are pruned.  Subsets
    are bitmasks over root indices until they are yielded.
    """
    roots = rs.all_roots
    n = len(roots)
    # partners[a]: every (b, a + b) with a + b a root
    partners = [[(b, k) for b, k in enumerate(row) if k >= 0] for row in rs.sum_table]

    def closure(mask: int, added: int) -> int:
        mask |= 1 << added
        queue = [added]
        while queue:
            for b, k in partners[queue.pop()]:
                if mask >> b & 1 and not mask >> k & 1:
                    mask |= 1 << k
                    queue.append(k)
        return mask

    # (next root to decide, chosen, excluded); the exclude branch is pushed
    # last so that it is explored first
    stack = [(0, 0, 0)]
    while stack:
        i, chosen, excluded = stack.pop()
        while i < n and chosen >> i & 1:
            i += 1
        if i == n:
            # copied from a set, a frozenset gets a table sized to its contents
            yield frozenset({r for j, r in enumerate(roots) if chosen >> j & 1})
            continue
        c = closure(chosen, i)
        if not c & excluded:
            stack.append((i + 1, c, excluded))
        stack.append((i + 1, chosen, excluded | 1 << i))
