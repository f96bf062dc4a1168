import re
from fractions import Fraction

import numpy as np
import pytest

from quasiact import (
    FiniteSubset,
    GroupHandle,
    IntegerFinitaryGroup,
    QuasiAction,
    compose,
    emit_certificate,
    fixpoint_count,
    pair_products,
    similarity_defect,
    verify,
)
from quasiact.constructions import (
    check_support_size, enumerate_finitary_elements, finitary_extension_qa,
)
from quasiact.constructions.finitary import ball_map
from quasiact.errors import DomainError, PreconditionError


class TestEnumeration:
    def test_radius_one_counts(self):
        elems = enumerate_finitary_elements(1)
        # 3 translations x 3! permutations of {-1,0,1}
        assert len(elems) == 18
        assert len(set(elems)) == 18

    def test_radius_two_counts(self):
        assert len(enumerate_finitary_elements(2)) == 5 * 120

    def test_products_stay_in_double_radius(self):
        g = IntegerFinitaryGroup()
        f1 = enumerate_finitary_elements(1)
        f2 = set(enumerate_finitary_elements(2))
        for a in f1:
            for b in f1:
                assert g.mul(a, b) in f2


class TestBallMap:
    def test_pure_translation_is_fixpoint_free(self):
        g = IntegerFinitaryGroup()
        m = ball_map(g.make(1, {}), 21)
        assert m.points().tolist() == [(t + 1) % 21 for t in range(21)]
        assert fixpoint_count(m) == 0

    def test_pure_permutation_moves_only_ball(self):
        g = IntegerFinitaryGroup()
        m = ball_map(g.make(0, {0: 1, 1: 0}), 21)
        moved = {t for t, image in enumerate(m.points().tolist()) if image != t}
        assert moved == {0, 1}

    @pytest.mark.parametrize("modulus", [41, 50])
    def test_matches_the_point_by_point_map(self, modulus):
        # The former per-point walk: a point of the reduced ball B_2 moves by
        # sigma then k, any other point by k alone.
        ball = {a % modulus: a for a in range(-2, 3)}
        for k, moved in enumerate_finitary_elements(2):
            sigma = dict(moved)
            expected = [(sigma.get(ball[t], ball[t]) if t in ball else t) + k for t in range(modulus)]
            assert ball_map((k, moved), modulus).points().tolist() == [x % modulus for x in expected]


@pytest.fixture(scope="module")
def qa():
    return finitary_extension_qa(1, 21, Fraction(20, 21))


class TestQuasiAction:

    def test_support_is_f1_times_f1(self, qa):
        # The identity, F_1 and the products verify reads: 1 lies in F_1,
        # so F_1 * F_1 holds all three, 102 of F_2's 600 elements.
        f = qa.claimed_f
        assert qa.owner.identity in f
        assert set(qa.assignment) == set(pair_products(f, f))
        assert len(qa.assignment) == 102

    def test_maps_are_the_f2_maps_on_the_support(self, qa):
        # Oracle: the maps a support of all of F_2 assigned, restricted to
        # F_1 * F_1.
        f2 = {elem: ball_map(elem, 21) for elem in enumerate_finitary_elements(2)}
        assert qa.assignment == {elem: f2[elem] for elem in qa.assignment}

    def test_exact_multiplicativity_on_f1(self, qa):
        g = qa.owner
        words = list(qa.claimed_f)
        assert len(words) == 18
        for u in words:
            for v in words:
                lhs = compose(qa.assignment[u], qa.assignment[v])
                rhs = qa.assignment[g.mul(u, v)]
                assert similarity_defect(lhs, rhs).disagreements == 0

    def test_injective_on_f2(self):
        assert len({ball_map(elem, 21) for elem in enumerate_finitary_elements(2)}) == 600

    def test_spec_pair(self, qa):
        g = qa.owner
        f = g.make(1, {0: 1, 1: 0})
        h = g.make(-1, {-1: 0, 0: -1})
        lhs = compose(qa.assignment[f], qa.assignment[h])
        assert lhs == qa.assignment[g.mul(f, h)]

    def test_verifies_at_large_epsilon(self, qa):
        report = verify(qa)
        assert report.passed
        assert all(p.defect.disagreements == 0 for p in report.pair_defects)
        assert report.identity_defect.disagreements == 0

    def test_condition_c_honest_at_small_epsilon(self, qa):
        report = verify(qa, epsilon=Fraction(1, 10))
        assert report.a_pass and report.b_pass
        assert not report.c_pass  # pure permutations fix 16 of 21 points


class TestFinitaryAgainstTheAssignment:
    """finitary_extension_qa forms F_n x F_n once and hands its id table and
    the deduplicated ball-map rows to the QuasiAction; the oracle is the
    per-element assignment on pair_products, which multiplies it twice."""

    def test_tables_and_certificate_equal_the_assignment(self, qa):
        g = qa.owner
        f = FiniteSubset(g, enumerate_finitary_elements(1))
        want = QuasiAction(g, 21, {e: ball_map(e, 21) for e in pair_products(f, f)}, f,
                           Fraction(20, 21))
        assert qa.elements == want.elements and qa.keys == want.keys
        assert all(a.dtype == np.int32 and np.array_equal(a, b)
                   for a, b in zip(qa.slot_tables[0], want.slot_tables[0]))
        assert np.array_equal(qa.slot_tables[1], want.slot_tables[1])
        assert np.array_equal(qa._claimed_products, want._claimed_products)
        assert emit_certificate(qa, verify(qa)) == emit_certificate(want, verify(want))

    def test_multiplies_f_times_f_once(self, monkeypatch):
        batches = []
        multiply = GroupHandle._multiply
        monkeypatch.setattr(GroupHandle, "_multiply",
                            lambda self, s, xs, ys: batches.append(len(xs)) or multiply(self, s, xs, ys))
        finitary_extension_qa(1, 21, Fraction(20, 21))
        assert batches == [18 * 18]


class TestPreconditions:
    def test_modulus_bound(self):
        with pytest.raises(PreconditionError):
            finitary_extension_qa(1, 20)
        finitary_extension_qa(1, 21)

    def test_modulus_checked_before_the_ball_maps(self):
        # ball_map would build 2**31 images per element before any map refused them.
        with pytest.raises(DomainError, match="carrier size"):
            finitary_extension_qa(1, 2**31)

    def test_support_checked_before_enumerating(self):
        # |F_n|^2 * modulus images, |F_n| = (2n+1) * (2n+1)!: 600^2 * 5965 fits
        # the int32 bound, 35280^2 * 61 (n = 3) and 600^2 * 5966 do not.
        check_support_size(2, 5965)
        for n, modulus in [(3, 61), (2, 5966)]:
            with pytest.raises(DomainError, match=re.escape(
                    f"F_{n} * F_{n} holds up to ({2 * n + 1} * {2 * n + 1}!)^2 elements of "
                    f"{modulus} images each, more than 2147483647 entries")):
                finitary_extension_qa(n, modulus)

    def test_support_check_stops_at_the_bound(self):
        # A radius far past reach is refused after a few factors, not (2n+1)! of them.
        with pytest.raises(DomainError, match=re.escape("F_1000000000000 * F_1000000000000")):
            check_support_size(10**12, 20 * 10**12 + 1)

    def test_radius_positive(self):
        with pytest.raises(DomainError):
            finitary_extension_qa(0, 21)

