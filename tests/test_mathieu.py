import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from ghckit import mathieu, rootsys
from ghckit.errors import InputError, RegularIntegralCase

F = Fraction
H = F(1, 2)


class TestCuspidalExists:
    def test_type_a(self):
        assert mathieu.cuspidal_exists([("A", 2)])

    def test_b2_normalized(self):
        assert mathieu.cuspidal_exists([("B", 2)])

    def test_d_component_fails(self):
        assert not mathieu.cuspidal_exists([("A", 1), ("D", 4)])

    def test_mixed(self):
        assert mathieu.cuspidal_exists([("A", 3), ("C", 2), ("B", 1)])
        assert not mathieu.cuspidal_exists([("B", 3)])


class TestSpBounded:
    def test_table(self):
        assert mathieu.sp_bounded([F(3, 2), F(1, 2)])
        assert not mathieu.sp_bounded([F(1, 2), F(3, 2)])  # ordering
        assert not mathieu.sp_bounded([1, 0])  # half-integrality
        assert mathieu.sp_bounded([F(3, 2), F(-1, 2)])
        assert not mathieu.sp_bounded([F(1, 2), F(1, 2)])

    def test_rank_three(self):
        assert mathieu.sp_bounded([F(5, 2), F(3, 2), F(-1, 2)])
        assert not mathieu.sp_bounded([F(5, 2), F(1, 2), F(3, 2)])

    @pytest.mark.parametrize("x, match", [
        (["1e9999"], "^not a rational: "), (["5/2", "3_0/2"], "^not a rational: "),
        ([F(5, 2), 0.5], "^not a rational: "), ([True], "^not a rational: "),
        ("31", "^a vector is a sequence of entries, not the text '31'$"),
    ])
    def test_entries_follow_the_text_rule(self, x, match):
        # each was read before: "1e9999" as a 10,000-digit integer, "3_0" as 30, 0.5 and True as
        # numbers, and the text "31" a character at a time, as (3, 1)
        with pytest.raises(InputError, match=match):
            mathieu.sp_bounded(x)

    @given(
        st.tuples(
            st.lists(
                st.builds(lambda k: F(2 * k + 1, 2), st.integers(-5, 4))
                | st.builds(F, st.integers(-9, 9), st.sampled_from([1, 3, 4])),
                min_size=1,
                max_size=6,
            ),
            st.booleans(),
        ).map(lambda drawn: sorted(drawn[0], reverse=True) if drawn[1] else drawn[0])
    )
    # an equal pair ahead of the last entry, and a last entry larger in size than the one before
    @example([F(5, 2), F(5, 2), F(1, 2)])
    @example([F(5, 2), F(1, 2), F(-3, 2)])
    @settings(deadline=None, max_examples=120)
    def test_matches_fraction_comparisons(self, xs):
        # small entries, often sorted down: equal neighbours, negative last entries of
        # either size and entries off Z + 1/2 all come up
        def reference(xs):
            if any(c.denominator != 2 for c in xs):
                return False
            if any(not a > b for a, b in zip(xs, xs[1:-1])):
                return False
            return len(xs) < 2 or xs[-2] > abs(xs[-1])

        assert mathieu.sp_bounded(xs) == reference(xs)


class TestSpEquivalent:
    def test_sign_flip(self):
        assert mathieu.sp_equivalent([F(3, 2), F(1, 2)], [F(3, 2), F(-1, 2)])

    def test_reflexive(self):
        assert mathieu.sp_equivalent([F(3, 2), F(1, 2)], [F(3, 2), F(1, 2)])

    def test_different_head(self):
        assert not mathieu.sp_equivalent([F(3, 2), F(1, 2)], [F(5, 2), F(1, 2)])

    def test_precondition(self):
        with pytest.raises(InputError):
            mathieu.sp_equivalent([1, 0], [F(3, 2), F(1, 2)])

    @pytest.mark.parametrize("y", [[F(3, 2)], [F(3, 2), F(1, 2), F(1, 2)], []])
    def test_length_must_match(self, y):
        # a y of another length is an input error, not a weight of another family
        with pytest.raises(InputError, match="^equiv dimension does not match x$"):
            mathieu.sp_equivalent([F(3, 2), F(1, 2)], y)

    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=4, unique=True))
    @settings(deadline=None)
    def test_equivalence_relation(self, ks):
        entries = sorted((k + H for k in ks), reverse=True)
        x = entries
        y = entries[:-1] + [-entries[-1]]
        z = entries[:-1] + [entries[-1]]
        assert mathieu.sp_equivalent(x, x)
        assert mathieu.sp_equivalent(x, y) == mathieu.sp_equivalent(y, x)
        if mathieu.sp_equivalent(x, y) and mathieu.sp_equivalent(y, z):
            assert mathieu.sp_equivalent(x, z)


class TestSpFiber:
    def test_table(self):
        assert mathieu.sp_fiber_irreducible([0, 0])
        assert not mathieu.sp_fiber_irreducible([H, 0])
        assert mathieu.sp_fiber_irreducible([F(1, 3), F(2, 3)])

    def test_reducible_locus_is_union_of_coordinate_conditions(self):
        grid = [F(0), F(1, 3), H, F(1), F(3, 2)]
        for e1 in grid:
            for e2 in grid:
                expect = not ((e1 - H).denominator == 1 or (e2 - H).denominator == 1)
                assert mathieu.sp_fiber_irreducible([e1, e2]) == expect


class TestSpDegree:
    def test_frozen_fixtures(self):
        # dimensions 10, 12, 18 recomputed from the Weyl product over D2
        assert mathieu.sp_degree([F(3, 2), F(1, 2)]) == 5
        assert mathieu.sp_degree([F(3, 2), F(-1, 2)]) == 6
        assert mathieu.sp_degree([F(5, 2), F(1, 2)]) == 9

    def test_precondition(self):
        with pytest.raises(InputError):
            mathieu.sp_degree([1, 0])

    def test_one_entry_has_no_companion_system(self):
        # (1/2) is bounded, but D1 is no root system
        with pytest.raises(InputError, match="rank >= 2"):
            mathieu.sp_degree([F(1, 2)])

    def test_integrality_grid(self):
        # exhaustive over bounded weights with entries up to 21/2, rank <= 4:
        # the halved dimension must always come out a positive integer
        vals = [k + H for k in range(11)]
        for n in (2, 3, 4):
            for head in combinations(sorted(vals, reverse=True), n - 1):
                tails = [v for v in vals if v < head[-1]]
                for t in tails:
                    for x in (list(head) + [t], list(head) + [-t]):
                        assert mathieu.sp_degree(x) >= 1

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_the_d_n_weyl_product(self, n):
        # a fixed sample of bounded weights, both signs of the last entry, against the D_n
        # Weyl product at x + (1, ..., 1), in Fractions: for l = x + 1 + rho and
        # rho = (n-1, ..., 1, 0), prod over i < j of (l_i^2 - l_j^2) / (rho_i^2 - rho_j^2)
        rng = random.Random(n)
        for _ in range(6):
            tail = [H + rng.randint(0, 3)]
            for _ in range(n - 1):
                tail.append(tail[-1] + rng.randint(1, 4))
            for last in (tail[0], -tail[0]):
                x = tail[:0:-1] + [last]
                rho = range(n - 1, -1, -1)
                l = [c + 1 + r for c, r in zip(x, rho)]
                dim = F(1)
                for i, j in combinations(range(n), 2):
                    dim *= F(l[i] ** 2 - l[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
                assert mathieu.sp_degree(x) == dim / 2 ** (n - 1)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.integers(0, 3), st.booleans(), st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))))
    def test_matches_weyl_dim_of_the_shifted_fraction_weight(self, drawn):
        # the Fraction path the integer row replaced: weyl_dim of x + (1, ..., 1) on D_n, over 2^(n-1)
        k, negative, steps = drawn
        x = [H + k]
        for step in steps:
            x.append(x[-1] + step)
        x = x[:0:-1] + [-x[0] if negative else x[0]]
        n = len(x)
        dim = rootsys.weyl_dim(rootsys.build("D", n), tuple(c + 1 for c in x))
        assert dim % 2 ** (n - 1) == 0 and mathieu.sp_degree(x) == dim // 2 ** (n - 1)


class TestSlDegree:
    def test_trivial_module(self):
        assert mathieu.sl_degree([F(1, 3), F(1, 3)]) == 1

    def test_one_entry_and_none(self):
        assert mathieu.sl_degree([F(1, 3)]) == 1
        with pytest.raises(InputError, match="at least one entry"):
            mathieu.sl_degree([])

    def test_non_dominant_rejected(self):
        with pytest.raises(InputError):
            mathieu.sl_degree([F(0), F(1, 2)])

    def test_non_integral_pairing_rejected(self):
        with pytest.raises(InputError):
            mathieu.sl_degree([F(4, 3), F(1), F(1, 3)])

    def test_regular_integral_flagged(self):
        with pytest.raises(RegularIntegralCase):
            mathieu.sl_degree([1, 0], full_weight=[1, 0, 0])

    def test_nontrivial_dimension(self):
        # gl(2) weight with A1-pairing 2 carries the 3-dimensional module
        assert mathieu.sl_degree([F(7, 3), F(1, 3)]) == 3


class TestDescriptor:
    def test_round_trip(self):
        d = mathieu.CoherentFamilyDescriptor.from_weight([F(3, 2), F(1, 2)])
        assert d.degree == 5
        doc = d.to_json()
        back = mathieu.CoherentFamilyDescriptor.from_json(doc)
        assert back == d

    def test_tampered_degree_rejected(self):
        d = mathieu.CoherentFamilyDescriptor.from_weight([F(3, 2), F(1, 2)])
        doc = d.to_json()
        doc["degree"] = 7
        with pytest.raises(InputError):
            mathieu.CoherentFamilyDescriptor.from_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            ["3/2", "1/2"],
            None,
            {"degree": 5},
            {"class_rep": ["3/2", "1/2"]},
            {"class_rep": 5, "degree": 5},
            {"class_rep": "3/2", "degree": 5},
            {"class_rep": [3, 1], "degree": 5},
            {"class_rep": ["3/2", None], "degree": 5},
            {"class_rep": ["3/2", "1/2"], "degree": "x"},
            {"class_rep": ["3/2", "1/2"], "degree": "5"},
            {"class_rep": ["3/2", "1/2"], "degree": None},
            {"class_rep": ["3/2", "1/2"], "degree": 5.9},
            {"class_rep": ["3/2", "1/2"], "degree": 5.0},
            {"class_rep": ["3/2", "1/2"], "degree": True},
        ],
    )
    def test_malformed_document_rejected(self, doc):
        # every malformed document is an InputError, not a KeyError, TypeError or plain
        # ValueError; a float or bool degree is not read as an int (int(5.9) is the right
        # degree 5, and a bool is an int to isinstance)
        with pytest.raises(InputError):
            mathieu.CoherentFamilyDescriptor.from_json(doc)

    def test_same_family(self):
        d1 = mathieu.CoherentFamilyDescriptor.from_weight([F(3, 2), F(1, 2)])
        d2 = mathieu.CoherentFamilyDescriptor.from_weight([F(3, 2), F(-1, 2)])
        assert d1.same_family(d2)

    def test_degree_constancy(self):
        d = mathieu.CoherentFamilyDescriptor.from_weight([F(3, 2), F(1, 2)])
        assert mathieu.degree_constancy_check(d, [])
        assert not mathieu.degree_constancy_check(d, [[F(3, 2), F(-1, 2)]])
        d2 = mathieu.CoherentFamilyDescriptor.from_weight([F(5, 2), F(1, 2)])
        assert not mathieu.degree_constancy_check(d2, [[F(5, 2), F(-1, 2)]])
        # a stored degree that the representative does not give, and a sample of the same degree 9
        # outside the class
        assert not mathieu.degree_constancy_check(d._replace(degree=7), [])
        assert mathieu.sp_degree([F(7, 2), F(5, 2)]) == d2.degree
        assert not mathieu.degree_constancy_check(d2, [[F(7, 2), F(5, 2)]])

    @pytest.mark.parametrize("point", [[F(3, 2)], [F(5, 2), F(3, 2), F(1, 2)]])
    def test_degree_constancy_sample_of_another_length(self, point):
        d = mathieu.CoherentFamilyDescriptor.from_weight([F(3, 2), F(1, 2)])
        with pytest.raises(InputError, match="^equiv dimension does not match x$"):
            mathieu.degree_constancy_check(d, [[F(3, 2), F(1, 2)], point])


class TestDescribe:
    def test_document(self):
        doc = mathieu.describe([F(3, 2), F(1, 2)], eta=[0, 0], equiv=[F(3, 2), F(-1, 2)])
        assert doc == {
            "bounded": True, "degree": 5, "class_rep": ["3/2", "1/2"], "companion": {"series": "D", "rank": 2},
            "fiber_irreducible": True, "equivalent": True,
        }
        assert mathieu.describe([1, 0]) == {"bounded": False, "class_rep": ["1", "0"]}

    @pytest.mark.parametrize("name", ["eta", "equiv"])
    @pytest.mark.parametrize("other", [[F(1, 2)], [F(5, 2), F(3, 2), F(1, 2)], []])
    def test_length_must_match(self, name, other):
        with pytest.raises(InputError, match=f"^{name} dimension does not match x$"):
            mathieu.describe([F(3, 2), F(1, 2)], **{name: other})

    def test_wrong_equiv_length_reported_before_the_descriptor(self):
        # x = (1/2) has no companion system, and equiv's length is checked first
        with pytest.raises(InputError, match="^equiv dimension does not match x$"):
            mathieu.describe([F(1, 2)], equiv=[F(3, 2), F(1, 2)])
        with pytest.raises(InputError, match="^weight must have at least one entry$"):
            mathieu.describe([], equiv=[])
