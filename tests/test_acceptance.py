"""Acceptance gate: twelve go/no-go checks, one test each.

Every test prints a single PASS/FAIL line (visible with pytest -s) and
enforces its own time budget where one is stated.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

from ghckit import fk, mathieu, principal, rootsys, shadow
from ghckit.exact import cone_member, cones_intersect_trivially
from ghckit.shadow import RootSubalgebra, closed_subsets

F = Fraction


def _report(num, desc, budget=None):
    class Ctx:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.monotonic() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {num:2d}] {status} ({elapsed:.2f}s) {desc}")
            if exc_type is None and budget is not None:
                assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"
            return False

    return Ctx()


ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20, ("A", 5): 30,
    ("A", 6): 42, ("A", 7): 56, ("A", 8): 72,
    ("B", 2): 8, ("B", 3): 18, ("B", 4): 32, ("B", 5): 50, ("B", 6): 72,
    ("B", 7): 98, ("B", 8): 128,
    ("C", 2): 8, ("C", 3): 18, ("C", 4): 32, ("C", 5): 50, ("C", 6): 72,
    ("C", 7): 98, ("C", 8): 128,
    ("D", 2): 4, ("D", 3): 12, ("D", 4): 24, ("D", 5): 40, ("D", 6): 60,
    ("D", 7): 84, ("D", 8): 112,
    ("G", 2): 12, ("F", 4): 48, ("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
}

EXPONENT_TABLE = {
    ("A", 1): [1], ("A", 2): [1, 2], ("A", 3): [1, 2, 3], ("A", 4): [1, 2, 3, 4],
    ("A", 5): [1, 2, 3, 4, 5], ("A", 6): [1, 2, 3, 4, 5, 6],
    ("A", 7): [1, 2, 3, 4, 5, 6, 7], ("A", 8): [1, 2, 3, 4, 5, 6, 7, 8],
    ("B", 2): [1, 3], ("B", 3): [1, 3, 5], ("B", 4): [1, 3, 5, 7],
    ("B", 5): [1, 3, 5, 7, 9], ("B", 6): [1, 3, 5, 7, 9, 11],
    ("B", 7): [1, 3, 5, 7, 9, 11, 13], ("B", 8): [1, 3, 5, 7, 9, 11, 13, 15],
    ("C", 2): [1, 3], ("C", 3): [1, 3, 5], ("C", 4): [1, 3, 5, 7],
    ("C", 5): [1, 3, 5, 7, 9], ("C", 6): [1, 3, 5, 7, 9, 11],
    ("C", 7): [1, 3, 5, 7, 9, 11, 13], ("C", 8): [1, 3, 5, 7, 9, 11, 13, 15],
    ("D", 2): [1, 1], ("D", 3): [1, 2, 3], ("D", 4): [1, 3, 3, 5],
    ("D", 5): [1, 3, 4, 5, 7], ("D", 6): [1, 3, 5, 5, 7, 9],
    ("D", 7): [1, 3, 5, 6, 7, 9, 11], ("D", 8): [1, 3, 5, 7, 7, 9, 11, 13],
    ("G", 2): [1, 5], ("F", 4): [1, 5, 7, 11],
    ("E", 6): [1, 4, 5, 7, 8, 11], ("E", 7): [1, 5, 7, 9, 11, 13, 17],
    ("E", 8): [1, 7, 11, 13, 17, 19, 23, 29],
}

RANK23 = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("G", 2)]
RANK4 = [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)]


def test_criterion_01_root_counts():
    with _report(1, "root-system counts match classical values, rank <= 8", budget=1):
        for key, count in ROOT_COUNTS.items():
            assert len(rootsys.build(*key).all_roots) == count


def test_criterion_02_exponents_oracle():
    with _report(2, "exponents equal the classical table, rank <= 8", budget=1):
        for key, exps in EXPONENT_TABLE.items():
            assert principal.exponents(rootsys.build(*key)) == exps


def test_criterion_03_solvable_agreement():
    with _report(3, "cone test agrees with the solvable closed-form test on A2, A3", budget=60):
        for key in [("A", 2), ("A", 3)]:
            rs = rootsys.build(*key)
            checked = 0
            for roots in closed_subsets(rs):
                sub = RootSubalgebra(rs, roots)
                if fk.levi_decompose(sub).k_roots:
                    continue
                assert (
                    fk.theorem6_solvable_finite_type(rs, sub)
                    == fk.theorem8_finite_type(rs, sub).finite_type
                )
                checked += 1
            assert checked > 0


def test_criterion_04_reductive_finite_type():
    with _report(4, "every reductive root subalgebra of A_n, n <= 3, is finite type", budget=60):
        for rank in (1, 2, 3):
            rs = rootsys.build("A", rank)
            for roots in closed_subsets(rs):
                if roots == frozenset(tuple(-c for c in a) for a in roots):
                    assert fk.theorem8_finite_type(rs, RootSubalgebra(rs, roots)).finite_type


def test_criterion_05_parabolicity():
    with _report(5, "shadow p_M is closed and covers Delta with its negative", budget=60):
        for key in [("A", 2), ("A", 3), ("C", 2)]:
            rs = rootsys.build(*key)
            full = frozenset(rs.all_roots)
            for roots in closed_subsets(rs):
                pm = shadow.parabolic_pm(shadow.shadow(rs, RootSubalgebra(rs, roots)))
                assert shadow.is_closed(rs, pm)
                assert pm | frozenset(tuple(-c for c in a) for a in pm) == full


def test_criterion_06_fernando_round_trip():
    with _report(6, "fernando_fk(shadow(fk)) = fk for all parabolic-type fk"):
        for key in [("A", 2), ("A", 3), ("C", 2)]:
            rs = rootsys.build(*key)
            full = frozenset(rs.all_roots)
            hits = 0
            for roots in closed_subsets(rs):
                if roots | frozenset(tuple(-c for c in a) for a in roots) != full:
                    continue
                sub = RootSubalgebra(rs, roots)
                assert shadow.fernando_fk(shadow.shadow(rs, sub)) == roots
                hits += 1
            assert hits > 0


def test_criterion_07_multiplicity_vs_euler():
    with _report(7, "k-type multiplicity equals minus the Euler sum on the full grid, ranks 2-4", budget=10):
        for key in RANK23 + RANK4:
            pd = principal.PrincipalData.build(rootsys.build(*key))
            for n in range(0, 11):
                lam = principal.find_nonintegral_weight(pd, n + 2)
                for m in range(0, 21):
                    assert principal.a1_multiplicity(pd, m, lam) == -principal.euler_rhs(pd, m, lam)


def test_criterion_08_bottom_of_spectrum():
    with _report(8, "multiplicity 1 at m = lambda(h)-2 and 0 below, same grid"):
        for key in RANK23 + RANK4:
            pd = principal.PrincipalData.build(rootsys.build(*key))
            for n in range(0, 11):
                lam = principal.find_nonintegral_weight(pd, n + 2)
                assert principal.a1_multiplicity(pd, n, lam) == 1
                for m in range(n):
                    assert principal.a1_multiplicity(pd, m, lam) == 0


def test_criterion_09_partition_oracle():
    with _report(9, "partition counts match a polynomial-product oracle up to 40", budget=10):
        import sympy

        q = sympy.symbols("q")
        for key in [("A", 2), ("A", 3), ("C", 2), ("C", 3), ("G", 2)]:
            pd = principal.PrincipalData.build(rootsys.build(*key))
            for ms in (pd.nbar_multiset, pd.nbar_kperp_multiset):
                poly = sympy.Integer(1)
                for part, mult in ms.items():
                    factor = sum(q ** (part * k) for k in range(0, 40 // part + 1))
                    poly = sympy.expand(poly * factor ** mult)
                poly = sympy.Poly(poly, q)
                for target in range(0, 41):
                    assert principal.partition_P(ms, target) == poly.coeff_monomial(q ** target)


def test_criterion_10_sp4_fixtures():
    with _report(10, "sp(4) boundedness/equivalence/fiber verdicts and degrees 5, 6, 9"):
        assert mathieu.sp_bounded([F(3, 2), F(1, 2)])
        assert mathieu.sp_bounded([F(3, 2), F(-1, 2)])
        assert not mathieu.sp_bounded([F(1), F(0)])
        assert not mathieu.sp_bounded([F(1, 2), F(3, 2)])
        assert mathieu.sp_equivalent([F(3, 2), F(1, 2)], [F(3, 2), F(-1, 2)])
        assert not mathieu.sp_equivalent([F(3, 2), F(1, 2)], [F(5, 2), F(1, 2)])
        assert mathieu.sp_fiber_irreducible([F(0), F(0)])
        assert not mathieu.sp_fiber_irreducible([F(1, 2), F(0)])
        assert mathieu.sp_fiber_irreducible([F(1, 3), F(2, 3)])
        assert mathieu.sp_degree([F(3, 2), F(1, 2)]) == 5
        assert mathieu.sp_degree([F(3, 2), F(-1, 2)]) == 6
        assert mathieu.sp_degree([F(5, 2), F(1, 2)]) == 9
        # independent recomputation of the underlying dimensions
        d2 = rootsys.build("D", 2)
        for x, d in [((F(3, 2), F(1, 2)), 5), ((F(3, 2), F(-1, 2)), 6), ((F(5, 2), F(1, 2)), 9)]:
            shifted = (x[0] + 1, x[1] + 1)
            assert rootsys.weyl_dim(d2, shifted) == 2 * d


# --- criterion 11: brute-force oracles on a quarter-integer grid ------------

GRID = [F(k, 4) for k in range(17)]  # 0, 1/4, ..., 4


def _sums(gens, dim):
    out = set()
    for combo in itertools.product(GRID, repeat=len(gens)):
        out.add(tuple(sum(c * g[i] for c, g in zip(combo, gens)) for i in range(dim)))
    return out


def _grid_points(gens):
    """All cone points with grid coefficients (used with few generators)."""
    if not gens:
        return set()
    return _sums(gens, len(gens[0]))


def _brute_member(v, gens):
    """Meet-in-the-middle search for v as a grid combination of the generators."""
    if not gens:
        return all(c == 0 for c in v)
    dim = len(gens[0])
    half = len(gens) // 2
    right = _sums(gens[half:], dim) if gens[half:] else {(F(0),) * dim}
    left = _sums(gens[:half], dim) if gens[:half] else {(F(0),) * dim}
    target = tuple(v)
    return any(tuple(t - p for t, p in zip(target, p_)) in right for p_ in left)


def test_criterion_11_cone_oracle():
    with _report(11, "cone membership and intersection agree with grid search"):
        member_fixtures = [
            ((F(1), F(1)), [(F(1), F(0)), (F(0), F(1))], True),
            ((F(1), F(-1)), [(F(1), F(0)), (F(0), F(1))], False),
            ((F(0), F(0)), [(F(1), F(2))], True),
            ((F(3), F(3)), [(F(1), F(2)), (F(2), F(1))], True),
            ((F(1), F(0)), [(F(1), F(2)), (F(0), F(1))], False),
            ((F(1), F(0), F(0), F(0)), [(F(1), F(1), F(0), F(0)), (F(0), F(-1), F(0), F(0))], True),
            (
                (F(2), F(2), F(2)),
                [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)),
                 (F(1), F(1), F(1)), (F(1), F(1), F(0)), (F(0), F(1), F(1))],
                True,
            ),
        ]
        for v, gens, expect in member_fixtures:
            coeffs = cone_member(v, gens)
            assert (coeffs is not None) is expect
            assert _brute_member(v, gens) is expect
            if coeffs is not None:
                rebuilt = tuple(
                    sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(len(v))
                )
                assert rebuilt == tuple(v)
                assert all(c >= 0 for c in coeffs)

        intersect_fixtures = [
            ([(F(1), F(0))], [(F(0), F(1))], True),
            ([(F(1), F(0)), (F(0), F(1))], [(F(1), F(1))], False),
            ([(F(1), F(0)), (F(-1), F(0))], [(F(0), F(1))], True),
            ([(F(1), F(0)), (F(-1), F(0))], [(F(1), F(0))], False),
            ([(F(1), F(0), F(0)), (F(0), F(1), F(0))], [(F(0), F(0), F(1))], True),
            ([(F(1), F(1), F(0)), (F(0), F(0), F(1))], [(F(1), F(1), F(1))], False),
        ]
        zero2, zero3 = (F(0),) * 2, (F(0),) * 3
        for ga, gb, expect_trivial in intersect_fixtures:
            trivial, witness = cones_intersect_trivially(ga, gb)
            assert trivial is expect_trivial
            zero = zero2 if len(ga[0]) == 2 else zero3
            common = (_grid_points(ga) & _grid_points(gb)) - {zero}
            assert (not common) is expect_trivial
            if witness is not None:
                assert witness.verify(ga, gb)
                assert any(c != 0 for c in witness.point)


def test_criterion_12_cli_contract():
    with _report(12, "CLI byte-determinism and the 0/2/3 exit-code contract"):
        def invoke(argv, stdin=None):
            return subprocess.run(
                [sys.executable, "-m", "ghckit", *argv],
                input=stdin, capture_output=True, text=True,
            )

        commands = [
            ["root-system", "--series", "A", "--rank", "2"],
            ["exponents", "--series", "E", "--rank", "8"],
            ["shadow", "--series", "A", "--rank", "2", "--subalgebra", "0"],
            ["fk-test", "--series", "A", "--rank", "2", "--subalgebra", "0"],
            ["solvable-test", "--series", "A", "--rank", "2", "--subalgebra", "0"],
            ["primal-test", "--series", "A", "--rank", "2", "--k-roots", "0,3"],
            ["mathieu", "--x", "3/2,1/2", "--eta", "0,0", "--equiv", "3/2,-1/2"],
            ["ktype-series", "--series", "A", "--rank", "2", "--lambda", "4/3,0,-4/3"],
            ["census", "--series", "A", "--rank", "2"],
        ]
        for argv in commands:
            a, b = invoke(argv), invoke(argv)
            assert a.returncode == 0, (argv, a.stderr)
            assert a.stdout == b.stdout and a.stdout
            json.loads(a.stdout)

        assert invoke(["exponents", "--series", "G", "--rank", "2"]).returncode == 0
        assert invoke(["fk-test", "--series", "B", "--rank", "2"]).returncode == 3
        assert invoke(
            ["ktype-series", "--series", "A", "--rank", "2", "--lambda", "1,0,-1"]
        ).returncode == 2
