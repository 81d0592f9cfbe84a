import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import ALL_TYPES, V, neg
from ghckit import exact, fk, rootsys, shadow
from ghckit.errors import InputError, InternalError, UnsupportedTypeError
from ghckit.exact import dot, is_zero, nullspace, solve_linear
from ghckit.rootsys import bits
from ghckit.shadow import RootSubalgebra, closed_subsets

A1 = V(1, -1, 0)
A2_ = V(0, 1, -1)
A12 = V(1, 0, -1)

# the types whose symmetric closed subsets are all enumerated
SMALL_TYPES = [("G", 2), ("B", 3), ("C", 3), ("A", 4), ("D", 4)]


def make(rs, roots):
    return RootSubalgebra(rs, frozenset(roots))


class TestLeviDecompose:
    def test_borel(self, a2):
        ld = fk.levi_decompose(make(a2, a2.positive_roots))
        assert not ld.k_roots
        assert ld.n_roots == frozenset(a2.positive_roots)

    def test_full(self, a2):
        ld = fk.levi_decompose(make(a2, a2.all_roots))
        assert ld.k_roots == frozenset(a2.all_roots)
        assert not ld.n_roots

    def test_mixed(self, a2):
        ld = fk.levi_decompose(make(a2, [A1, neg(A1), A2_, A12]))
        assert ld.k_roots == {A1, neg(A1)}
        assert ld.n_roots == {A2_, A12}

    @pytest.mark.parametrize("fixture", ["a2", "a3", "c2"])
    def test_invariants_exhaustive(self, fixture, request):
        rs = request.getfixturevalue(fixture)
        for roots in closed_subsets(rs):
            ld = fk.levi_decompose(RootSubalgebra(rs, roots))
            assert ld.k_roots == {neg(a) for a in ld.k_roots}
            assert not (ld.n_roots & {neg(a) for a in ld.n_roots})
            assert ld.k_roots | ld.n_roots == roots
            assert shadow.is_closed(rs, ld.k_roots)
            for a in ld.k_roots:
                for b in ld.n_roots:
                    s = tuple(x + y for x, y in zip(a, b))
                    if rs.is_root(s):
                        assert s in ld.n_roots


class TestSingularWeights:
    def test_no_k_means_all_singular(self, a2):
        weights = frozenset([A1, A12])
        sw = fk.singular_weights(a2, frozenset(), weights)
        assert sw.singular_weights == weights

    def test_nilradical_example(self, a2):
        sw = fk.singular_weights(a2, frozenset([A1, neg(A1)]), frozenset([A2_, A12]))
        assert sw.singular_weights == {A12}

    def test_g_mod_l_example(self, a2):
        sw = fk.singular_weights(a2, frozenset([A1, neg(A1)]), frozenset([neg(A2_), neg(A12)]))
        assert sw.singular_weights == {neg(A2_)}

    def test_asymmetric_k_rejected(self, a2):
        with pytest.raises(InputError):
            fk.singular_weights(a2, frozenset([A1]), frozenset())

    def test_all_positive_k_roots_equivalent(self, a2, a3, c2):
        # testing against every positive root of k instead of just the simple
        # ones must not change the verdict
        for rs in (a2, a3, c2):
            pos = set(rs.positive_roots)
            for roots in closed_subsets(rs):
                ld = fk.levi_decompose(RootSubalgebra(rs, roots))
                k = ld.k_roots
                for module in (frozenset(rs.all_roots) - roots, ld.n_roots):
                    sw = fk.singular_weights(rs, k, module)
                    kpos = [a for a in k if a in pos]
                    alt = frozenset(
                        w
                        for w in module
                        if all(tuple(x + y for x, y in zip(w, b)) not in module for b in kpos)
                    )
                    assert sw.singular_weights == alt


class TestTheorem8:
    def test_cartan_is_finite_type(self, a2):
        assert fk.theorem8_finite_type(a2, make(a2, [])).finite_type

    def test_single_positive_root_fails(self, a2):
        v = fk.theorem8_finite_type(a2, make(a2, [A1]))
        assert not v.finite_type
        # witness sits on the alpha_1 ray
        assert v.witness is not None
        p = v.witness.point
        assert p[0] == -p[1] and p[2] == 0 and p[0] > 0
        assert v.witness.verify(sorted(v.singular_g_mod_l.singular_weights), sorted(v.singular_n.singular_weights))

    def test_borel_is_finite_type(self, a2):
        assert fk.theorem8_finite_type(a2, make(a2, a2.positive_roots)).finite_type

    def test_non_type_a_rejected(self, c2):
        with pytest.raises(UnsupportedTypeError):
            fk.theorem8_finite_type(c2, make(c2, []))

    def test_subalgebra_of_another_system_rejected(self, a2, a3):
        # the A2 mask read in A3 would give an infinite-type witness
        with pytest.raises(InputError, match="A2, not to A3"):
            fk.theorem8_finite_type(a3, RootSubalgebra.from_indices(a2, [0]))

    def test_singular_weights_match_the_function(self, a3):
        # the verdict holds masks and builds its vector sets on first read
        for roots in closed_subsets(a3):
            ld = fk.levi_decompose(RootSubalgebra(a3, roots))
            v = fk.theorem8_finite_type(a3, RootSubalgebra(a3, roots))
            g_mod_l = frozenset(a3.all_roots) - roots
            assert v.singular_g_mod_l.singular_weights == fk.singular_weights(a3, ld.k_roots, g_mod_l).singular_weights
            assert v.singular_n.singular_weights == fk.singular_weights(a3, ld.k_roots, ld.n_roots).singular_weights
            assert v.singular_n.singular_weights is v.singular_n.singular_weights

    def test_reductive_always_finite_type(self, a2, a3):
        for rs in (a2, a3):
            for roots in closed_subsets(rs):
                if roots == {neg(a) for a in roots}:
                    assert fk.theorem8_finite_type(rs, RootSubalgebra(rs, roots)).finite_type


@st.composite
def type_a_root_pairs(draw):
    """Two lists of type-A roots e_u - e_v, as their ends (u, v), in one dimension;
    a root may be on both sides."""
    dim = draw(st.integers(2, 6))
    ends = st.tuples(st.integers(0, dim - 1), st.integers(1, dim - 1)).map(lambda t: (t[0], (t[0] + t[1]) % dim))
    return dim, draw(st.lists(ends, min_size=1, max_size=8)), draw(st.lists(ends, min_size=1, max_size=8))


def type_a_row(ends, dim):
    u, v = ends
    return tuple((i == u) - (i == v) for i in range(dim))


class TestReachability:
    # the same root on both sides: the cycle k -> 1 -> k needs y = z
    @example((2, [(0, 1)], [(0, 1)]))
    # two lines meeting only at 0, where the path 1 -> 0 -> 2 from y to z passes k = 0
    @example((3, [(0, 1), (1, 0)], [(0, 2), (2, 0)]))
    @given(type_a_root_pairs())
    def test_first_pair_is_the_first_feasible_lp(self, pair):
        dim, ends_a, ends_b = pair
        rows_a = [type_a_row(e, dim) for e in ends_a]
        rows_b = [type_a_row(e, dim) for e in ends_b]
        lp = next(
            ((k, sign) for k in range(dim) for sign in (1, -1) if exact.cone_witness(rows_a, rows_b, k, sign)),
            None,
        )
        assert fk._first_feasible_pair(ends_a, ends_b, dim) == lp

    def test_one_lp_per_infinite_type_verdict_and_none_per_finite_type(self, a3, monkeypatch):
        calls = []
        lp_feasible = exact.lp_feasible

        def counted(*args):
            calls.append(args)
            return lp_feasible(*args)

        monkeypatch.setattr(exact, "lp_feasible", counted)
        verdicts = {True: 0, False: 0}
        for m in shadow.closed_masks(a3):
            calls.clear()
            v = fk.theorem8_finite_type(a3, RootSubalgebra(a3, m))
            assert len(calls) == (0 if v.finite_type else 1), m
            verdicts[v.finite_type] += 1
        assert verdicts == {True: 187, False: 168}

    def test_lp_disagreeing_with_the_graph_is_an_internal_error(self, a2, monkeypatch):
        monkeypatch.setattr(exact, "lp_feasible", lambda *args: None)
        with pytest.raises(InternalError):
            fk.theorem8_finite_type(a2, make(a2, [A1]))


class TestTheorem6:
    def test_cartan(self, a2):
        assert fk.theorem6_solvable_finite_type(a2, make(a2, []))

    def test_single_root_not_nilradical(self, a2):
        assert not fk.theorem6_solvable_finite_type(a2, make(a2, [A1]))

    def test_siegel_parabolic_nilradical(self, c2):
        sub = make(c2, [V(2, 0), V(0, 2), V(1, 1)])
        assert fk.theorem6_solvable_finite_type(c2, sub)

    def test_non_solvable_rejected(self, a2):
        with pytest.raises(InputError):
            fk.theorem6_solvable_finite_type(a2, make(a2, [A1, neg(A1)]))

    def test_subalgebra_of_another_system_rejected(self, a2, a3):
        with pytest.raises(InputError, match="A2, not to A3"):
            fk.theorem6_solvable_finite_type(a3, RootSubalgebra.from_indices(a2, [0]))

    def test_agrees_with_theorem8(self, a2, a3):
        for rs in (a2, a3):
            for roots in closed_subsets(rs):
                sub = RootSubalgebra(rs, roots)
                if not fk.levi_decompose(sub).k_roots:
                    assert (
                        fk.theorem6_solvable_finite_type(rs, sub)
                        == fk.theorem8_finite_type(rs, sub).finite_type
                    )

    def test_agrees_with_theorem8_on_every_solvable_subset_of_a4(self):
        a4 = rootsys.build("A", 4)
        solvable = [m for m in shadow.closed_masks(a4) if not fk.reductive_mask(RootSubalgebra(a4, m))]
        assert len(solvable) == 4231
        for m in solvable:
            sub = RootSubalgebra(a4, m)
            theorem8 = fk.theorem8_finite_type(a4, sub).finite_type
            assert fk.theorem6_solvable_finite_type(a4, sub) == theorem8, m


class TestRecognizeType:
    def test_empty(self, a2):
        assert fk.recognize_type(a2, frozenset()) == []

    def test_full_systems(self, a2, a3, c2):
        assert fk.recognize_type(a2, frozenset(a2.all_roots)) == [("A", 2)]
        assert fk.recognize_type(a3, frozenset(a3.all_roots)) == [("A", 3)]
        assert fk.recognize_type(c2, frozenset(c2.all_roots)) == [("C", 2)]

    def test_c2_long_roots(self, c2):
        sub = frozenset([V(2, 0), V(0, 2), neg(V(2, 0)), neg(V(0, 2))])
        assert fk.recognize_type(c2, sub) == [("A", 1), ("A", 1)]

    def test_b2_normalizes_to_c2(self):
        from ghckit import rootsys

        b2 = rootsys.build("B", 2)
        assert fk.recognize_type(b2, frozenset(b2.all_roots)) == [("C", 2)]

    def test_levi_of_a3(self, a3):
        e = [V(1, -1, 0, 0), V(0, 0, 1, -1)]
        sub = frozenset(e) | frozenset(neg(a) for a in e)
        assert fk.recognize_type(a3, sub) == [("A", 1), ("A", 1)]


def reference_cartan(simple):
    """The Cartan matrix of a list of simple roots, in Fraction arithmetic."""
    gram = [[dot(a, b) for b in simple] for a in simple]
    return tuple(tuple(int(2 * g / gram[j][j]) for j, g in enumerate(row)) for row in gram)


def reference_candidates(rank):
    """Every simple type of this rank under its canonical name (see LOW_RANK_ALIASES)."""
    cands = [("A", rank), ("B", rank), ("C", rank)]
    if rank >= 3:
        cands.append(("D", rank))
    if rank == 2:
        cands.append(("G", 2))
    if rank == 4:
        cands.append(("F", 4))
    if rank in (6, 7, 8):
        cands.append(("E", rank))
    return [c for c in cands if c not in rootsys.LOW_RANK_ALIASES]


def reference_matrices_match(a, b):
    """True iff the Cartan matrices a and b agree up to a permutation of the simple roots."""
    n = len(a)
    if len(b) != n:
        return False

    def rec(perm, used):
        i = len(perm)
        if i == n:
            return True
        for j in range(n):
            if j in used or a[i][i] != b[j][j]:
                continue
            if all(a[i][k] == b[j][perm[k]] and a[k][i] == b[perm[k]][j] for k in range(i)):
                perm.append(j)
                used.add(j)
                if rec(perm, used):
                    return True
                perm.pop()
                used.remove(j)
        return False

    return rec([], set())


def reference_components(rs, mask):
    """Component types as they were found before the root-count lookup: a Cartan-matrix
    isomorphism test against every simple type of the component's rank."""
    comps = []
    for r in (rs.all_roots[i] for i in fk._k_simple(rs, mask)):
        joined = [r]
        for comp in [c for c in comps if any(dot(r, x) != 0 for x in c)]:
            comps.remove(comp)
            joined += comp
        comps.append(joined)
    out = []
    for comp in comps:
        cm = reference_cartan(comp)
        out.append(next(
            c for c in reference_candidates(len(comp))
            if reference_matrices_match(cm, reference_cartan(rootsys._simple_roots(*c)[0]))
        ))
    return sorted(out)


def symmetric_closed_masks(rs):
    """Every symmetric closed subset: each is reached from a smaller one by closing it with one more pair +-a."""
    seen, frontier = {0}, [0]
    while frontier:
        grown = []
        for m in frontier:
            for i in bits(rs.positive_mask & ~m):
                pair = [i, i + len(rs.positive_roots)]
                c = shadow._close(rs, m | 1 << pair[0] | 1 << pair[1], pair)
                if c not in seen:
                    seen.add(c)
                    grown.append(c)
        frontier = grown
    return sorted(seen)


def levi_masks(rs, drop_sizes=None):
    """The Levi subsystem of each set of simple roots, or of those that leave out drop_sizes of them."""
    out = []
    for chosen in range(1 << rs.rank):
        if drop_sizes is None or rs.rank - bin(chosen).count("1") in drop_sizes:
            out.append(rs.index_mask(
                i for i, a in enumerate(rs.all_roots) if all(chosen >> j & 1 for j, c in enumerate(rs.simple_coordinates(a)) if c)
            ))
    return out


def seeded_symmetric_closures(rs, count, seed):
    rng = random.Random(seed)
    masks = []
    for _ in range(count):
        start = rs.index_mask(rng.sample(range(len(rs.all_roots)), rng.randint(1, 4)))
        start |= rs.negated(start)
        masks.append(shadow._close(rs, start, bits(start)))
    return masks


def type_id(key):
    return f"{key[0]}{key[1]}"


def assert_components_match(rs, masks):
    for mask in masks:
        assert fk._components(rs, mask) == reference_components(rs, mask), (rs.series, rs.rank, mask)


class TestRecognizeTypeAgainstReference:
    """The root-count lookup against the Cartan-matrix matcher it replaced."""

    def test_full_systems(self):
        for key in ALL_TYPES:
            rs = rootsys.build(*key)
            assert fk.recognize_type(rs, frozenset(rs.all_roots)) == reference_components(rs, rs.full_mask)

    def test_every_symmetric_closed_subset(self):
        masks = {key: symmetric_closed_masks(rootsys.build(*key)) for key in SMALL_TYPES}
        assert sum(map(len, masks.values())) == 201
        for key, ms in masks.items():
            assert_components_match(rootsys.build(*key), ms)

    @pytest.mark.parametrize("key", [key for key in ALL_TYPES if key[1] <= 6], ids=type_id)
    def test_every_levi(self, key):
        rs = rootsys.build(*key)
        assert_components_match(rs, levi_masks(rs))

    @pytest.mark.parametrize("key", [("F", 4), ("E", 6), ("E", 7), ("E", 8), ("B", 8), ("C", 8), ("D", 8)], ids=type_id)
    def test_seeded_closures(self, key):
        rs = rootsys.build(*key)
        assert_components_match(rs, seeded_symmetric_closures(rs, 40, seed=10))

    def test_rank_10_full_systems_and_maximal_levis(self, monkeypatch):
        monkeypatch.setenv("GHC_MAX_RANK", "10")
        for series in "BCD":
            rs = rootsys.build(series, 10)
            assert_components_match(rs, [rs.full_mask] + levi_masks(rs, drop_sizes={1}))

    @pytest.mark.parametrize("triple", [(3, 18, 7), (4, 10, 10), (2, 12, 5), (4, 48, 12), (1, 4, 2)])
    def test_impossible_triple(self, triple):
        with pytest.raises(InternalError):
            fk._simple_type(*triple)


def reference_in_span(v, gens):
    """True iff v is a linear (not necessarily nonnegative) combination of gens."""
    if is_zero(v):
        return True
    if not gens:
        return False
    rows = [[g[i] for g in gens] for i in range(len(v))]
    return solve_linear(rows, list(v)) is not None


def reference_is_primal(rs, k_roots, toral_part):
    """is_primal as it was before the toral basis was reduced once: one
    ``solve_linear`` per coroot and per torus vector."""
    k = rs.mask_of(k_roots)
    toral = [tuple(v) for v in toral_part]
    for a in k_roots:
        if not reference_in_span(rs.coroot(a), toral):
            raise InputError("toral part must contain the coroots of k_roots")
    hspan = rs.simple_roots
    torus = hspan
    if k_roots:
        rows = [tuple(dot(b, ai) for ai in hspan) for b in sorted(k_roots)]
        torus = [
            tuple(sum(c * a[j] for c, a in zip(cs, hspan)) for j in range(rs.ambient_dim))
            for cs in nullspace(rows)
        ]
    if not all(reference_in_span(v, toral) for v in torus):
        return False
    negated_k = rs.negated(k)
    for g, row in enumerate(rs.sum_table):
        if any(dot(rs.all_roots[g], t) != 0 for t in toral):
            continue
        if not negated_k >> g & 1 and all(row[b] < 0 for b in bits(k)):
            return False
    return True


def primal_outcome(fn, rs, k_roots, toral):
    try:
        return fn(rs, k_roots, toral)
    except InputError as e:
        return str(e)


class TestIsPrimal:
    @pytest.mark.parametrize("key", ALL_TYPES)
    def test_matches_reference(self, key):
        rs = rootsys.build(*key)
        a = rs.simple_roots[-1]
        simple = list(rs.simple_roots)
        cases = [
            (frozenset(rs.all_roots), simple),
            (frozenset(rs.all_roots), simple[1:]),
            (frozenset([a, neg(a)]), simple),
            (frozenset([a, neg(a)]), [rs.coroot(a)]),
            (frozenset([a, neg(a)]), [rs.coroot(rs.simple_roots[0])]),
            (frozenset(), []),
        ]
        for k_roots, toral in cases:
            want = primal_outcome(reference_is_primal, rs, k_roots, toral)
            assert primal_outcome(fk.is_primal, rs, k_roots, toral) == want

    @pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
    def test_simple_root_torus_matches_all_roots(self, key):
        # is_primal tests the simple roots of g against the toral span, where the reference
        # builds the torus centralizing all the roots of k; on every symmetric closed subset,
        # the verdict and the error text, with the coroot and torus checks failing and passing
        rs = rootsys.build(*key)
        simple = list(rs.simple_roots)
        for mask in shadow.closed_masks(rs):
            if rs.negated(mask) != mask:
                continue
            k_roots = rs.roots_of(mask)
            coroots = [rs.coroot(rs.all_roots[i]) for i in fk._k_simple(rs, mask)]
            # the torus in ambient coordinates; a zero row stands for an empty k
            rows = [tuple(dot(b, a) for a in simple) for b in sorted(k_roots)] or [(0,) * rs.rank]
            ambient = [tuple(sum(c * a[j] for c, a in zip(cs, simple)) for j in range(rs.ambient_dim))
                       for cs in nullspace(rows)]
            for toral in (simple, simple[1:], coroots, coroots + ambient, coroots + ambient[1:]):
                want = primal_outcome(reference_is_primal, rs, k_roots, toral)
                assert primal_outcome(fk.is_primal, rs, k_roots, toral) == want, (key, bits(mask), toral)

    def test_full_cartan_always_primal(self, a2, a3, c2):
        for rs in (a2, a3, c2):
            toral = list(rs.simple_roots)
            for roots in closed_subsets(rs):
                if roots == {neg(a) for a in roots}:
                    assert fk.is_primal(rs, roots, toral)

    def test_small_torus_not_primal(self, a2):
        kr = frozenset([A1, neg(A1)])
        assert not fk.is_primal(a2, kr, [a2.coroot(A1)])

    def test_full_torus_primal(self, a2):
        kr = frozenset([A1, neg(A1)])
        assert fk.is_primal(a2, kr, list(a2.simple_roots))

    def test_missing_coroot_rejected(self, a2):
        with pytest.raises(InputError):
            fk.is_primal(a2, frozenset([A1, neg(A1)]), [a2.coroot(A2_)])


class TestProp3:
    @pytest.mark.parametrize(
        "series,rank,covered",
        [("A", 5, True), ("B", 3, False), ("B", 2, True), ("F", 4, False),
         ("C", 4, True), ("D", 5, True), ("E", 8, True), ("G", 2, True), ("B", 8, False)],
    )
    def test_table(self, series, rank, covered):
        assert fk.prop3_covered(series, rank) is covered
