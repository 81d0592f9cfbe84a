"""Finite-type and primality criteria for root subalgebras.

The central test for type A works through singular weights: for a root
subalgebra l = k + n, the cones generated by the singular weights of g/l and
of n must meet only at zero.  The weights are type-A roots e_u - e_v, so
``theorem8_finite_type`` decides this by reachability on a graph over the
epsilon-coordinates, and runs one LP, for the witness, only when the cones
do meet: ``exact._cone_witness`` on the integer rows it builds, which hands
them to the pivot loop, ``exact._simplex``, with no reading.  The solvable
case has an independent characterization through parabolic nilradicals,
which the test suite plays against the cone test exhaustively on small
systems.

The Borel fixed for singular-vector weights is the standard positive system
of the realization; the others are its Weyl conjugates, so the verdict is
stable under this choice iff it is constant on Weyl orbits, which
``tests/test_symmetry.py`` checks on A3 and A4.  Root subsets are bitmasks,
as in ``shadow``: the reductive part of l is ``l & negated(l)``, and the
simple roots of k and the singular weights are each one mask expression over
``RootSystem.sums``, the one image of root sums.  Primality compares integer
ranks by ``exact._reduce``: the toral rows must lie in h and span k's coroots,
and the verdict is whether they span all of h; the default toral part is h,
read from the doubled simple roots.

``census_rows`` is the census of type-A root subalgebras: the Theorem 8
verdict of every closed subset of A_n for n up to ``CENSUS_MAX_RANK``.  With
dedup it keeps one subset per Weyl orbit, the first in its order, and walks
each orbit on masks under the simple reflections ``RootSystem.reflections``,
the library's one Weyl action.  ``_type_a_roots`` sorts the type-A root rows
itself, into the column order of the Theorem 8 LP; ``theorem8_finite_type``
reads both sides' LP rows and the node masks of its graph H in one pass over it.

Type recognition splits the simple roots of k into components by ``_reach``
on the integer ``doubled_roots`` and reads each one's type off its rank,
number of roots and number of long roots, checked against
``rootsys.root_count``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from functools import cached_property
from operator import or_

from .errors import InputError, InternalError, UnsupportedTypeError
from .exact import ConeWitness, Vector, _check_dim, _cone_witness, _Record, _reduce
from .rootsys import LOW_RANK_ALIASES, RootSystem, _dot, _weight_row, bits, root_count
from .shadow import RootSubalgebra, _require_over, closed_mask, closed_masks

CENSUS_MAX_RANK = 4


class LeviDecomposition(_Record):
    """Stores the masks of the reductive part k and the nilradical part n over
    ``rs.all_roots``; ``k_roots`` and ``n_roots`` are their frozensets, built on first use."""

    rs: RootSystem
    k_mask: int
    n_mask: int

    k_roots = cached_property(lambda self: self.rs.roots_of(self.k_mask))
    n_roots = cached_property(lambda self: self.rs.roots_of(self.n_mask))


def reductive_mask(l: RootSubalgebra) -> int:
    """The mask of the reductive part of l: the roots of l whose negatives are in l."""
    return l.mask & l.rs.negated(l.mask)


def levi_decompose(l: RootSubalgebra) -> LeviDecomposition:
    """Split a closed root subset into its reductive part (the symmetric
    roots) and the nilradical part (the rest)."""
    k = reductive_mask(l)
    return LeviDecomposition(l.rs, k, l.mask & ~k)


def _symmetric_closed(rs: RootSystem, roots: frozenset[Vector] | int, name: str) -> int:
    """The mask of a root subset given from outside, as roots or a mask, which must be
    closed (``RootSubalgebra`` checks that) and symmetric."""
    mask = RootSubalgebra(rs, roots).mask
    if rs.negated(mask) != mask:
        raise InputError(f"{name} must be symmetric")
    return mask


class SingularWeightData(_Record):
    """The singular weights of a module as a mask over ``rs.all_roots``;
    ``singular_weights`` is their frozenset of vectors, built on first use."""

    rs: RootSystem
    mask: int

    @cached_property
    def singular_weights(self) -> frozenset[Vector]:
        return self.rs.roots_of(self.mask)


def _k_simple(rs: RootSystem, k: int) -> int:
    """The mask of the simple roots of k+, for the mask k of a symmetric closed
    subset: the roots of k+ that are not the sum of two roots of k+."""
    kpos = k & rs.positive_mask
    return kpos & ~rs.sums(kpos, kpos)


def _singular(rs: RootSystem, simple_k: int, module: int) -> int:
    """The mask of the roots of a module (a mask) that no simple root of k, given
    by the mask simple_k from ``_k_simple``, maps into the module: a simple root b
    moves w to a weight m iff w = m - b."""
    return module & ~rs.sums(rs.negated(simple_k), module)


def singular_weights(
    rs: RootSystem, k_roots: frozenset[Vector], module_weights: frozenset[Vector]
) -> SingularWeightData:
    """Weights of the singular vectors in a multiplicity-free h-weight module of roots.

    A weight is singular when no simple raising operator of k maps it to
    another weight of the module; simple roots suffice since they generate
    the nilpotent part of k intersected with the Borel.
    """
    k = _symmetric_closed(rs, k_roots, "k_roots")
    return SingularWeightData(rs, _singular(rs, _k_simple(rs, k), rs.mask_of(module_weights)))


class FiniteTypeVerdict(_Record):
    """Stores the witness, None for finite type, and the singular weights of both
    sides; ``finite_type`` is a view, whether the witness is None."""

    witness: ConeWitness | None
    singular_g_mod_l: SingularWeightData
    singular_n: SingularWeightData

    finite_type = property(lambda self: self.witness is None)

    def to_json(self) -> dict:
        return {
            "finite_type": self.finite_type,
            "witness": self.witness.to_json() if self.witness else None,
        }


def theorem8_finite_type(rs: RootSystem, l: RootSubalgebra) -> FiniteTypeVerdict:
    """Cone criterion for finite type, defined for the special-linear family:
    l is of finite type iff the cones of the singular weights of g/l (the
    a-side) and of n (the b-side) meet only at 0.

    The weights are roots e_u - e_v, so the test is decided on a graph H with
    one node per epsilon-coordinate, an edge u -> v for each a-root e_u - e_v
    and an edge v -> u for each b-root e_u - e_v.  A common point is a
    combination of a-roots equal to one of b-roots, that is a circulation on
    H, and the point's coordinate k is the flow leaving k on a-edges minus
    the flow entering k on a-edges.  A circulation splits into simple
    cycles, which pass k at most once.  So a common point with coordinate k
    positive exists iff some cycle leaves k on an a-edge and enters it on a
    b-edge: iff there are a = e_k - e_y and b = e_k - e_z with z reachable
    from y in H without passing k (y = z allowed, the empty path).  One with
    coordinate k negative exists iff there are a = e_x - e_k and
    b = e_z - e_k with x reachable from z in H without passing k.  Seen from
    the other side, by Farkas the LP of ``exact.cone_witness`` for (k, s) is
    infeasible iff there is a potential p with p·a >= s·a[k] for every a-root
    and p·b <= 0 for every b-root.  Each is a bound on a difference
    p_u - p_v, and such a system is feasible iff its graph has no positive cycle
    (Schrijver, Theory of Linear and Integer Programming, 1986, ch. 7 and
    19; Cormen et al., Introduction to Algorithms, 24.4).

    A finite-type verdict therefore runs no LP.  Otherwise the one LP for
    the first such (k, sign) in ``exact.cones_intersect_trivially``'s loop
    order gives the witness that loop would give; the LP finding no point
    there is an ``InternalError``.
    """
    _require_over(rs, l)
    if rs.series != "A":
        raise UnsupportedTypeError("the cone finite-type test is only available for type A")
    # k = l & -l is symmetric, and closed as l and -l are, as _k_simple needs
    k = reductive_mask(l)
    simple_k = _k_simple(rs, k)
    sg = _singular(rs, simple_k, rs.full_mask & ~l.mask)
    sn = _singular(rs, simple_k, l.mask & ~k)
    # the LP rows of each side and H's node masks, in one pass over the table: sg and sn
    # are disjoint; an a-root e_u - e_v is the edge u -> v of H, a b-root the edge v -> u
    rows_a, rows_b = [], []
    dim = rs.ambient_dim
    out_a, in_a, out_b, in_b = [0] * dim, [0] * dim, [0] * dim, [0] * dim
    for i, row, (u, v) in _type_a_roots(rs):
        if sg >> i & 1:
            rows_a.append(row)
            out_a[u] |= 1 << v
            in_a[v] |= 1 << u
        elif sn >> i & 1:
            rows_b.append(row)
            out_b[v] |= 1 << u
            in_b[u] |= 1 << v
    pair = _first_feasible_pair(out_a, in_a, out_b, in_b)
    witness = None
    if pair is not None:
        witness = _cone_witness(rows_a, rows_b, *pair)
        if witness is None:
            raise InternalError(f"the cone LP finds no common point at (k, sign) = {pair}, which H reaches")
    return FiniteTypeVerdict(witness, SingularWeightData(rs, sg), SingularWeightData(rs, sn))


def _type_a_roots(rs: RootSystem) -> tuple[tuple[int, tuple[int, ...], tuple[int, int]], ...]:
    """(i, row, (u, v)) for each root index i, in the order in which the rows
    sort: the root as an integer tuple equal to its epsilon-vector, which is
    e_u - e_v.  Type A roots are integral, so halving ``doubled_roots`` is
    exact.  That order is the LP column order of ``theorem8_finite_type``, on
    which its witness depends.  Built once per RootSystem object and stored on
    it, as ``PrincipalData`` is."""
    table = vars(rs).get("_type_a_roots")
    if table is None:
        rows = sorted((tuple(x // 2 for x in a), i) for i, a in enumerate(rs.doubled_roots))
        table = vars(rs).setdefault("_type_a_roots", tuple((i, r, (r.index(1), r.index(-1))) for r, i in rows))
    return table


def _first_feasible_pair(
    out_a: Sequence[int], in_a: Sequence[int], out_b: Sequence[int], in_b: Sequence[int]
) -> tuple[int, int] | None:
    """The first (k, sign), coordinates in order and +1 before -1, for which the
    cones of the type-A roots e_u - e_v of the two sides share a point with
    coordinate k equal to sign; None when they meet only at 0.  The rule is the
    reachability one of ``theorem8_finite_type``, on bitmasks of nodes: the sides
    come as H's node masks, out_a[u] and in_a[v] holding v and u for each a-root
    e_u - e_v, and out_b[v] and in_b[u] holding u and v for each b-root."""
    succ = list(map(or_, out_a, out_b))  # the edges of H, as successor masks
    for k in range(len(succ)):
        # +1: from the y of a = e_k - e_y to the z of b = e_k - e_z
        start, goal = out_a[k], in_b[k]
        if start and goal and _reach(succ, start, 1 << k, goal) & goal:
            return k, 1
        # -1: from the z of b = e_z - e_k to the x of a = e_x - e_k
        start, goal = out_b[k], in_a[k]
        if start and goal and _reach(succ, start, 1 << k, goal) & goal:
            return k, -1
    return None


def _reach(succ: Sequence[int] | Mapping[int, int], start: int, avoid: int, stop: int = 0) -> int:
    """The mask of the nodes reachable from the nodes of start (start included)
    along the successor masks succ, indexed by node, through no node of avoid,
    or those seen by the first breadth-first step that reaches a node of stop."""
    seen = frontier = start
    while frontier and not seen & stop:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= succ[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen & ~avoid
        seen |= frontier
    return seen


def census_rows(rs: RootSystem, dedup: bool = False) -> Iterator[dict]:
    """Classify every closed root subset (Cartan implicit) of a type A system of
    rank at most ``CENSUS_MAX_RANK``: one row per subset, by size and then by sorted
    indices, with its Levi split and its Theorem 8 verdict.  With dedup, one row per
    Weyl orbit: the subset whose sorted indices come first.  The first subset of an
    orbit in this order is that one, since W keeps closed subsets closed, and its
    orbit, walked under ``rs.reflections``, goes into the set of masks to skip."""
    if rs.series != "A":
        raise UnsupportedTypeError("census runs over the special-linear family only")
    if rs.rank > CENSUS_MAX_RANK:
        raise InputError(f"census rank bound is {CENSUS_MAX_RANK}")
    seen = set()
    for mask in sorted(closed_masks(rs), key=lambda m: (m.bit_count(), bits(m))):
        if mask in seen:
            continue
        orbit = {mask} if dedup else set()
        while orbit:
            seen |= orbit
            orbit = {sum(1 << s[i] for i in bits(m)) for m in orbit for s in rs.reflections} - seen
        sub = RootSubalgebra(rs, mask)
        levi = levi_decompose(sub)
        yield {
            "subalgebra": bits(mask),
            "levi": {"k_roots": bits(levi.k_mask), "n_roots": bits(levi.n_mask)},
            **theorem8_finite_type(rs, sub).to_json(),
        }


def theorem6_solvable_finite_type(rs: RootSystem, l: RootSubalgebra) -> bool:
    """Finite-type test for solvable root subalgebras (reductive part = Cartan):
    the nilpotent roots must form the nilradical of a parabolic whose
    components are all of type A or C.

    The parabolic is m ∪ n, for m the roots outside n ∪ -n, and one closedness test
    covers both parts: n ∩ -n is empty, so m = (m ∪ n) ∩ -(m ∪ n), which is
    closed whenever m ∪ n is, as the intersection of two closed sets."""
    _require_over(rs, l)
    n = l.mask
    if reductive_mask(l):
        raise InputError("subalgebra is not solvable: its reductive part has roots")
    m = rs.full_mask & ~(n | rs.negated(n))
    if not closed_mask(rs, m | n):
        return False
    return all(series in ("A", "C") for series, _ in _components(rs, m))


# ---------------------------------------------------------------------------
# subsystem type recognition


def recognize_type(rs: RootSystem, subset: frozenset[Vector]) -> list[tuple[str, int]]:
    """Identify the simple components of a symmetric closed root subset,
    sorted lexicographically.  Rank-2 BC systems normalize to C2."""
    return _components(rs, _symmetric_closed(rs, subset, "subset"))


def _components(rs: RootSystem, mask: int) -> list[tuple[str, int]]:
    d = rs.doubled_roots
    simple = _k_simple(rs, mask)
    # the simple roots each root of k is not orthogonal to; on the simple roots these are the
    # edges of a graph whose connected components, peeled off by _reach, are k's components
    succ = {i: sum(1 << b for b in bits(simple) if _dot(d[i], d[b])) for i in bits(mask)}
    comps: list[int] = []
    while simple:
        comps.append(_reach(succ, simple & -simple, 0))
        simple &= ~comps[-1]
    # a root of k is in the span of one component, whose simple roots are a basis of that span, so
    # being nonzero it pairs nonzero with one of them; every other component is orthogonal to it
    norms: list[list[int]] = [[] for _ in comps]
    for i in bits(mask):
        norms[next(j for j, comp in enumerate(comps) if succ[i] & comp)].append(_dot(d[i], d[i]))
    return sorted(_simple_type(c.bit_count(), len(n), n.count(max(n))) for c, n in zip(comps, norms))


def _simple_type(rank: int, roots: int, long_roots: int) -> tuple[str, int]:
    """The simple type with this rank, number of roots and number of long roots
    (roots of maximal length), under the name ``LOW_RANK_ALIASES`` reports."""
    if long_roots == roots:
        # one root length: A, D and E differ in size
        series = next((s for s in "ADE" if root_count(s, rank) == roots), None)
    elif roots in (12, 48) and 2 * long_roots == roots:
        # the two-length exceptional systems, half of their roots long
        series = "G" if roots == 12 else "F"
    else:
        # B_n has 2n(n-1) long roots and C_n has 2n; at n = 2 both have 4, and B2 is reported as C2
        series = {2 * rank * (rank - 1): "B", 2 * rank: "C"}.get(long_roots)
    name = LOW_RANK_ALIASES.get((series, rank), (series, rank))
    if series is None or root_count(*name) != roots:
        raise InternalError(f"no simple type of rank {rank} has {roots} roots, {long_roots} of them long")
    return name


# ---------------------------------------------------------------------------
# primality


def is_primal(
    rs: RootSystem,
    k_roots: frozenset[Vector] | int,
    toral_part: Sequence[Vector] | None = None,
) -> bool:
    """Test whether the reductive subalgebra spanned by k_roots root spaces (the
    roots or their mask) and the given toral subspace has centralizer equal to its
    center.  The toral vectors must lie in the Cartan subalgebra h, the span of
    the roots; the default toral part (None) is h itself.  A toral part given is
    a collection of vectors checked by the length rule, ``exact._check_dim``."""
    k = _symmetric_closed(rs, k_roots, "k_roots")
    if toral_part is not None:
        toral_part = _check_dim(toral_part, rs.ambient_dim, "toral vectors must have dimension {dim}")
    # each toral vector times its own denominator: integer rows with the same span; h is
    # spanned by the doubled simple roots
    rows = list(rs._simple_doubled) if toral_part is None else [_weight_row(rs, t)[0] for t in toral_part]

    def rank(extra: Sequence[Sequence[int]]) -> int:
        """The rank of the toral rows with the rows extra added."""
        return len(_reduce(rows + list(extra), rs.ambient_dim)[0])

    # h = span(simple roots of g) has dimension rs.rank, which the toral rows leave as it is
    # iff they lie in h; the ambient space is bigger than h for A_n, G2, E6 and E7
    if rank(rs._simple_doubled) != rs.rank:
        raise InputError("toral vectors must lie in the span of the roots")
    # the simple roots of k span its roots, and their coroots, positive multiples of the
    # (doubled) roots, span its coroots; the rank of the toral rows alone is taken once
    if rank([rs.doubled_roots[i] for i in bits(_k_simple(rs, k))]) != (toral_rank := rank(())):
        raise InputError("toral part must contain the coroots of k_roots")
    # C(k) = Z(k) needs the torus centralizing k inside the toral part.  The Cartan
    # subspace h is the orthogonal sum of span(coroots of k) and that torus, and the
    # coroots are in the toral span by the check above, so the torus is in it iff all of
    # h is, that is iff the toral rows, which lie in h, span a space of its dimension.
    # Then nothing outside k + t centralizes it: a root g, in h, pairs nonzero with some
    # toral row, as (g, g) != 0, so C(k + t) lies in C(h) = h, which lies in k + t
    return toral_rank == rs.rank


def prop3_covered(series: str, rank: int) -> bool:
    """Where "reductive root subalgebra implies finite type" is established:
    everywhere except B_n for n >= 3 and F4."""
    if series == "B" and rank >= 3:
        return False
    if series == "F" and rank == 4:
        return False
    return True
