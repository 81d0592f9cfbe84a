"""Finite-type and primality criteria for root subalgebras.

The central test for type A works through singular weights: for a root
subalgebra l = k + n, the cones generated by the singular weights of g/l and
of n must meet only at zero.  The solvable case has an independent
characterization through parabolic nilradicals, which the test suite plays
against the cone test exhaustively on small systems.

The Borel fixed for singular-vector weights is the standard positive system
of the realization.  The verdict is checked to be stable under this choice
on small instances by the tests, but a single choice is pinned for
determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InputError, InternalError, UnsupportedTypeError
from .exact import ConeWitness, Vector, cones_intersect_trivially, dot, in_span, nullspace, vadd, vneg, vzero
from .rootsys import LOW_RANK_ALIASES, RootSystem, _simple_roots, cartan_of
from .shadow import RootSubalgebra, is_closed


@dataclass(frozen=True)
class LeviDecomposition:
    k_roots: frozenset[Vector]
    n_roots: frozenset[Vector]


def levi_decompose(l: RootSubalgebra) -> LeviDecomposition:
    """Split a closed root subset into its reductive part (the symmetric
    roots) and the nilradical part (the rest)."""
    k = frozenset(a for a in l.roots if vneg(a) in l.roots)
    return LeviDecomposition(k_roots=k, n_roots=l.roots - k)


@dataclass(frozen=True)
class SingularWeightData:
    module_weights: frozenset[Vector]
    singular_weights: frozenset[Vector]


def _k_simple_roots(rs: RootSystem, k_roots: frozenset[Vector]) -> list[Vector]:
    pos = set(rs.positive_roots)
    kpos = [a for a in k_roots if a in pos]
    kset = set(kpos)
    out = []
    for a in kpos:
        if not any(rs.is_root(vadd(a, vneg(b))) and vadd(a, vneg(b)) in kset for b in kpos if b != a):
            # a = b + c with b, c in k+ iff a - b lands in k+ for some b
            out.append(a)
    return sorted(out)


def singular_weights(
    rs: RootSystem, k_roots: frozenset[Vector], module_weights: frozenset[Vector]
) -> SingularWeightData:
    """Weights of the singular vectors in a multiplicity-free h-weight module.

    A weight is singular when no simple raising operator of k maps it to
    another weight of the module; simple roots suffice since they generate
    the nilpotent part of k intersected with the Borel.
    """
    if any(vneg(a) not in k_roots for a in k_roots):
        raise InputError("k_roots must be symmetric")
    if not is_closed(rs, k_roots):
        raise InputError("k_roots must be closed")
    simple_k = _k_simple_roots(rs, k_roots)
    singular = frozenset(
        w for w in module_weights if all(vadd(w, b) not in module_weights for b in simple_k)
    )
    return SingularWeightData(module_weights=frozenset(module_weights), singular_weights=singular)


@dataclass(frozen=True)
class FiniteTypeVerdict:
    finite_type: bool
    witness: Optional[ConeWitness]
    singular_g_mod_l: SingularWeightData
    singular_n: SingularWeightData

    def to_json(self) -> dict:
        return {
            "finite_type": self.finite_type,
            "witness": self.witness.to_json() if self.witness else None,
        }


def theorem8_finite_type(rs: RootSystem, l: RootSubalgebra) -> FiniteTypeVerdict:
    """Cone criterion for finite type, defined for the special-linear family."""
    if rs.series != "A":
        raise UnsupportedTypeError("the cone finite-type test is only available for type A")
    ld = levi_decompose(l)
    g_mod_l = frozenset(rs.all_roots) - l.roots
    sg = singular_weights(rs, ld.k_roots, g_mod_l)
    sn = singular_weights(rs, ld.k_roots, ld.n_roots)
    trivial, witness = cones_intersect_trivially(
        sorted(sg.singular_weights), sorted(sn.singular_weights)
    )
    return FiniteTypeVerdict(
        finite_type=trivial, witness=witness, singular_g_mod_l=sg, singular_n=sn
    )


def theorem6_solvable_finite_type(rs: RootSystem, l: RootSubalgebra) -> bool:
    """Finite-type test for solvable root subalgebras (reductive part = Cartan):
    the nilpotent roots must form the nilradical of a parabolic whose
    components are all of type A or C."""
    ld = levi_decompose(l)
    if ld.k_roots:
        raise InputError("subalgebra is not solvable: its reductive part has roots")
    n = ld.n_roots
    m = frozenset(rs.all_roots) - n - frozenset(vneg(a) for a in n)
    if not is_closed(rs, m):
        return False
    if not is_closed(rs, m | n):
        return False
    components = recognize_type(rs, m)
    return all(series in ("A", "C") for series, _ in components)


# ---------------------------------------------------------------------------
# subsystem type recognition


def _candidates(rank: int) -> list[tuple[str, int]]:
    # canonical names only: the low-rank coincidences are reported under the
    # names that LOW_RANK_ALIASES maps them to
    cands = [("A", rank), ("B", rank), ("C", rank)]
    if rank >= 3:
        cands.append(("D", rank))
    if rank == 2:
        cands.append(("G", 2))
    if rank == 4:
        cands.append(("F", 4))
    if rank in (6, 7, 8):
        cands.append(("E", rank))
    return [c for c in cands if c not in LOW_RANK_ALIASES]


def _matrices_match(a, b) -> bool:
    n = len(a)
    if len(b) != n:
        return False

    def rec(perm: list[int], used: set[int]) -> bool:
        i = len(perm)
        if i == n:
            return True
        for j in range(n):
            if j in used:
                continue
            if a[i][i] != b[j][j]:
                continue
            ok = all(
                a[i][k2] == b[j][perm[k2]] and a[k2][i] == b[perm[k2]][j]
                for k2 in range(i)
            )
            if ok:
                perm.append(j)
                used.add(j)
                if rec(perm, used):
                    return True
                perm.pop()
                used.remove(j)
        return False

    return rec([], set())


def recognize_type(rs: RootSystem, subset: frozenset[Vector]) -> list[tuple[str, int]]:
    """Identify the simple components of a symmetric closed root subset,
    sorted lexicographically.  Rank-2 BC systems normalize to C2."""
    if any(vneg(a) not in subset for a in subset):
        raise InputError("subset must be symmetric")
    if not is_closed(rs, subset):
        raise InputError("subset must be closed")
    simple = _k_simple_roots(rs, subset)
    # split the simple system into connected components by non-orthogonality
    comps: list[list[Vector]] = []
    remaining = list(simple)
    while remaining:
        comp = [remaining.pop(0)]
        grew = True
        while grew:
            grew = False
            for r in list(remaining):
                if any(dot(r, c) != 0 for c in comp):
                    comp.append(r)
                    remaining.remove(r)
                    grew = True
        comps.append(comp)
    out = []
    for comp in comps:
        cm = cartan_of(comp)
        hit = next(
            (c for c in _candidates(len(comp)) if _matrices_match(cm, cartan_of(_simple_roots(*c)[0]))),
            None,
        )
        if hit is None:
            raise InternalError(f"unrecognized Cartan matrix {cm}")
        out.append(hit)
    return sorted(out)


# ---------------------------------------------------------------------------
# primality


def is_primal(
    rs: RootSystem,
    k_roots: frozenset[Vector],
    toral_part: Sequence[Vector],
) -> bool:
    """Test whether the reductive subalgebra spanned by k_roots root spaces
    and the given toral subspace has centralizer equal to its center."""
    if any(vneg(a) not in k_roots for a in k_roots):
        raise InputError("k_roots must be symmetric")
    if not is_closed(rs, k_roots):
        raise InputError("k_roots must be closed")
    toral = [tuple(v) for v in toral_part]
    if any(len(v) != rs.ambient_dim for v in toral):
        raise InputError(f"toral vectors must have dimension {rs.ambient_dim}")
    for a in k_roots:
        if not in_span(rs.coroot(a), toral):
            raise InputError("toral part must contain the coroots of k_roots")

    # Cartan subspace of g = span of the simple roots (sum-zero for type A)
    hspan = rs.simple_roots
    # torus centralizing k_roots, computed in simple-root coordinates
    if k_roots:
        rows = [tuple(dot(b, ai) for ai in hspan) for b in sorted(k_roots)]
        coeff_basis = nullspace(rows)
    else:
        coeff_basis = [
            tuple(1 if j == i else 0 for j in range(len(hspan))) for i in range(len(hspan))
        ]
    centralizing_torus = []
    for c in coeff_basis:
        v = vzero(rs.ambient_dim)
        for ci, ai in zip(c, hspan):
            v = vadd(v, tuple(ci * x for x in ai))
        centralizing_torus.append(v)

    # C(k) = Z(k) needs the centralizing torus inside the toral part ...
    for v in centralizing_torus:
        if not in_span(v, toral):
            return False
    # ... and no root space commuting with all of k
    for g in rs.all_roots:
        if any(dot(g, t) != 0 for t in toral):
            continue
        if all(vadd(g, b) != vzero(rs.ambient_dim) and not rs.is_root(vadd(g, b)) for b in k_roots):
            return False
    return True


def prop3_covered(series: str, rank: int) -> bool:
    """Where "reductive root subalgebra implies finite type" is established:
    everywhere except B_n for n >= 3 and F4."""
    if series == "B" and rank >= 3:
        return False
    if series == "F" and rank == 4:
        return False
    return True
