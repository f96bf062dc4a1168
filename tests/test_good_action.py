from fractions import Fraction

import pytest

from quasiact import (
    FiniteMap,
    FiniteSubset,
    IntegerGroup,
    compose,
    cyclic_group,
    double,
    fixpoint_count,
    fixpoint_set,
    identity_map,
    inverse_map,
    similarity_defect,
    symmetrized_square,
    verify,
)
from quasiact.constructions import (
    GoodActionPreconditionError,
    cyclic_quasi_action,
    good_action_upgrade,
    regular_action,
)


def doubled_input_map(phi, e) -> FiniteMap:
    """The input's map on the doubled carrier, for defect measurements."""
    return double(phi.map_for(e))


def perturbed_shift_action(epsilon):
    """Shift action of the integers on 12 points with phi(3) wrong at one
    point; 3 lies outside F~ = {-2..2} for F = {1}, so the damage shows up
    only through condition (a) products, at exactly 1/12 = epsilon/10."""
    phi = cyclic_quasi_action([1], 12, epsilon=epsilon / 10, extra_support=range(-4, 5))
    images = phi.assignment[3].to_list()
    images[0] = 4  # not 3 (the honest value), not 0 (would create a fixpoint)
    return phi.with_map(3, FiniteMap(images))


class TestExactInput:
    def test_doubled_regular_action(self):
        phi = regular_action(cyclic_group(3), epsilon=Fraction(1, 100))
        f = FiniteSubset(phi.owner, range(3))
        psi = good_action_upgrade(phi, f, Fraction(1, 10))
        assert psi.carrier_n == 6
        for g, m in psi.assignment.items():
            assert m == double(phi.assignment[g])
        report = verify(psi, f, Fraction(1, 10), strict=True)
        assert report.passed and report.strict.passed
        assert report.max_defect.disagreements == 0

    def test_involution_stays_involution(self):
        phi = regular_action(cyclic_group(2), epsilon=Fraction(1, 100))
        psi = good_action_upgrade(phi, FiniteSubset(phi.owner, [0, 1]), Fraction(1, 10))
        m = psi.assignment[1]
        assert compose(m, m) == identity_map(4)
        assert fixpoint_count(m) == 0


class TestPerturbedInput:
    eps = Fraction(10, 12)

    def test_precondition_is_tight(self):
        phi = perturbed_shift_action(self.eps)
        tilde = symmetrized_square(FiniteSubset(IntegerGroup(), [1]))
        report = verify(phi, tilde, self.eps / 10)
        assert report.passed
        assert report.max_defect.fraction == Fraction(1, 12)

    def test_output_structure(self):
        phi = perturbed_shift_action(self.eps)
        psi = good_action_upgrade(phi, [1], self.eps)
        assert psi.carrier_n == 24
        assert psi.assignment[0] == identity_map(24)
        for g, m in psi.assignment.items():
            if g == 0:
                continue
            assert m.is_bijection()
            assert fixpoint_count(m) == 0
            assert psi.assignment[-g] == inverse_map(m)

    def test_similarity_to_doubled_input(self):
        phi = perturbed_shift_action(self.eps)
        psi = good_action_upgrade(phi, [1], self.eps)
        for g, m in psi.assignment.items():
            d = similarity_defect(m, doubled_input_map(phi, g))
            assert d.fraction <= 3 * self.eps / 10

    def test_condition_a_and_cprime(self):
        phi = perturbed_shift_action(self.eps)
        psi = good_action_upgrade(phi, [1], self.eps)
        report = verify(psi, [1], self.eps, strict=True)
        assert report.a_pass
        for _, _, d in report.strict.pairwise:
            assert d.fraction > 1 - 8 * self.eps / 10

    def test_product_chain_bound(self):
        phi = perturbed_shift_action(self.eps)
        psi = good_action_upgrade(phi, [1], self.eps)
        for e in (-1, 1):
            for f in (-1, 1):
                d = similarity_defect(
                    compose(psi.assignment[e], psi.assignment[f]),
                    doubled_input_map(phi, e + f),
                )
                assert d.fraction <= 7 * self.eps / 10


class TestMechanicsOnBadInput:
    """A 10-point map with a fixpoint cannot pass the precondition (its
    agreement count alone exceeds any epsilon/10 budget), but the doubling
    mechanics still must produce a fixpoint-free involution."""

    def make_phi(self):
        g = cyclic_group(2)
        # swaps 0-7 in pairs, fixes 8, sends 9 -> 8 (not a bijection)
        images = [1, 0, 3, 2, 5, 4, 7, 6, 8, 8]
        assign = {0: identity_map(10), 1: FiniteMap(images)}
        return (
            g,
            assign[1],
            __import__("quasiact").QuasiAction(
                g, 10, assign, FiniteSubset(g, [0, 1]), Fraction(1, 2)
            ),
        )

    def test_precondition_rejects(self):
        _, _, phi = self.make_phi()
        with pytest.raises(GoodActionPreconditionError) as err:
            good_action_upgrade(phi, [1], Fraction(1, 2))
        assert "(c)" in str(err.value)

    def test_construction_shape(self):
        _, m_e, phi = self.make_phi()
        psi = good_action_upgrade(phi, [1], Fraction(1, 2), check=False)
        out = psi.assignment[1]
        assert out.is_bijection()
        assert fixpoint_count(out) == 0
        assert compose(out, out) == identity_map(20)  # order-2 element
        # equals the doubled input on A_e' = {0..7} doubled
        dm = double(m_e)
        for a in list(range(8)) + list(range(10, 18)):
            assert out(a) == dm(a)
        # copy-swap on the doubled complement {8, 9}
        assert out(8) == 18 and out(18) == 8
        assert out(9) == 19 and out(19) == 9
        assert similarity_defect(out, dm).disagreements == 4


class TestSymmetry:
    def test_rep_choice_is_immaterial(self):
        # psi(e^-1) defined as the inverse must match rebuilding from e^-1's
        # own data; exercised through a non-involutive perturbed element.
        eps = Fraction(10, 12)
        phi = perturbed_shift_action(eps)
        psi = good_action_upgrade(phi, [1], eps)
        from quasiact.constructions.good import _build_good_map

        direct = _build_good_map(phi, 2, -2)
        other = _build_good_map(phi, -2, 2)
        assert inverse_map(direct) == other
        assert psi.assignment[2] in (direct, inverse_map(other))
