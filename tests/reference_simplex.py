"""The Fraction references that the integer simplex is checked against, stdlib only:
``test_exact`` imports them, and so does ``tools/check_cli.py``, which runs where
pytest and hypothesis are not installed."""

from fractions import Fraction
from typing import Optional, Sequence

from ghckit.errors import InputError
from ghckit.exact import ConeWitness, Vector, vadd, vscale, vzero


# ---------------------------------------------------------------------------
# reference: the Fraction two-phase simplex that lp_feasible replaced, kept
# verbatim so the integer tableau can be checked against it pivot for pivot


def reference_lp_feasible(
    equalities: Sequence[tuple[Sequence[Fraction], Fraction]], nonneg_vars: int
) -> Optional[list[Fraction]]:
    """Decide feasibility of {x >= 0, coeffs·x = rhs for each equality}.

    Returns an exact rational solution, or None when infeasible.  Pivoting
    uses Bland's rule, so the run always terminates and the answer is
    deterministic.
    """
    n = nonneg_vars
    for coeffs, _ in equalities:
        if len(coeffs) != n:
            raise InputError(f"equality has {len(coeffs)} coefficients, expected {n}")
    m = len(equalities)
    if m == 0:
        return [Fraction(0)] * n
    # tableau rows: n structural columns, m artificial columns, rhs; b >= 0
    tab: list[list[Fraction]] = []
    for i, (coeffs, rhs) in enumerate(equalities):
        row = [Fraction(c) for c in coeffs] + [Fraction(0)] * m + [Fraction(rhs)]
        if row[-1] < 0:
            row = [-x for x in row]
        row[n + i] = Fraction(1)
        tab.append(row)
    basis = [n + i for i in range(m)]
    # phase-1 objective: minimize the sum of artificials.  Reduced-cost row
    # for the artificial basis is the negated column sum on structural columns.
    obj = [Fraction(0)] * (n + m + 1)
    for j in range(n + m + 1):
        obj[j] = -sum(tab[i][j] for i in range(m))
    for i in range(m):
        obj[n + i] += Fraction(1)

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise InputError("unbounded phase-1 LP; inconsistent input")
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter

    # -obj[-1] is the attained phase-1 objective value
    if -obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = tab[i][-1]
    return x


# ---------------------------------------------------------------------------
# reference: cones_intersect_trivially as it was before integer generators
# were read directly, kept verbatim except that it runs the Fraction simplex
# above, so a whole Fraction pipeline checks the integer one


def reference_cones_intersect_trivially(
    gens_a: Sequence[Vector], gens_b: Sequence[Vector]
) -> tuple[bool, Optional[ConeWitness]]:
    if not gens_a or not gens_b:
        return True, None
    dim = len(gens_a[0])
    na, nb = len(gens_a), len(gens_b)
    # sum of a-coefficients times gens_a minus b-coefficients times gens_b is 0
    balance = [(tuple(g[j] for g in gens_a) + tuple(-g[j] for g in gens_b), 0) for j in range(dim)]
    for k in range(dim):
        norm = tuple(g[k] for g in gens_a) + (0,) * nb
        for sign in (1, -1):
            sol = reference_lp_feasible(balance + [(norm, sign)], na + nb)
            if sol is not None:
                ca = tuple(sol[:na])
                cb = tuple(sol[na:])
                point = vzero(dim)
                for c, g in zip(ca, gens_a):
                    if c:  # a basic solution has at most dim + 1 nonzero coefficients
                        point = vadd(point, vscale(c, g))
                return False, ConeWitness(ca, cb, point)
    return True, None


def outcome(result):
    """A verdict with its witness as JSON, and the Fraction types it must carry."""
    trivial, witness = result
    if witness is None:
        return trivial, None
    fields = (*witness.coefficients_a, *witness.coefficients_b, *witness.point)
    assert all(type(x) is Fraction for x in fields)
    return trivial, witness.to_json()
