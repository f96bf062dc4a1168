from fractions import Fraction

import pytest

from quasiact import (
    FiniteMap,
    FiniteSubset,
    IntegerGroup,
    TableGroup,
    compose,
    cyclic_group,
    emit_certificate,
    fixpoint_count,
    load_certificate,
    shift_map,
    similarity_defect,
    verify,
)
from quasiact.constructions import (
    cyclic_quasi_action,
    direct_product_qa,
    regular_action,
    transport_qa,
)
from quasiact.errors import DomainError, PreconditionError

from test_finmap import fraction, with_map


class TestRegularAction:
    def test_trivial_group(self):
        qa = regular_action(TableGroup([[0]]))
        assert qa.carrier_n == 1
        assert qa.assignment[0].points().tolist() == [0]

    def test_z2(self):
        qa = regular_action(cyclic_group(2))
        assert qa.assignment[0].points().tolist() == [0, 1]
        assert qa.assignment[1].points().tolist() == [1, 0]
        assert fixpoint_count(qa.assignment[1]) == 0

    def test_z6_zero_defects(self):
        qa = regular_action(cyclic_group(6))
        report = verify(qa, epsilon=Fraction(1, 1000))
        assert report.passed
        assert all(p.defect.disagreements == 0 for p in report.pair_defects)
        assert all(
            fixpoint_count(qa.assignment[g]) == 0 for g in range(1, 6)
        )

    def test_infinite_group_rejected(self):
        with pytest.raises(DomainError):
            regular_action(IntegerGroup())


class TestCyclicQuasiAction:
    def test_single_generator_three_cycle(self):
        qa = cyclic_quasi_action([1], 3)
        assert qa.assignment[1].points().tolist() == [1, 2, 0]

    def test_twelve_points_exact(self):
        qa = cyclic_quasi_action([-2, -1, 1, 2], 12)
        report = verify(qa, epsilon=Fraction(1, 100))
        assert report.passed
        assert report.max_defect.disagreements == 0
        for k, m in qa.assignment.items():
            assert (fixpoint_count(m) == 0) == (k != 0)

    def test_modulus_bound_enforced(self):
        # max|F| = 2, so the modulus must exceed 4.
        with pytest.raises(PreconditionError):
            cyclic_quasi_action([-2, -1, 1, 2], 4)
        qa = cyclic_quasi_action([-2, -1, 1, 2], 5)
        assert verify(qa, epsilon=Fraction(1, 100)).passed

    def test_full_wrap_shift_excluded(self):
        # A shift by the modulus itself would fix every point; the modulus
        # precondition keeps every supported shift fixpoint-free.
        qa = cyclic_quasi_action([5], 11)
        assert all(fixpoint_count(m) == 0 for k, m in qa.assignment.items() if k)


class TestDirectProduct:
    def test_single_factor_claims_its_f_and_epsilon(self):
        # One factor is a product like any other: it claims (F_1, epsilon),
        # not the factor's own F and epsilon.
        qa = cyclic_quasi_action([1, -1, 2, -2], 11)
        eps = Fraction(1, 4)
        prod = direct_product_qa([(qa, {1})], eps)
        assert list(prod.claimed_f) == [(1,)] and prod.claimed_epsilon == eps
        assert prod.carrier_n == 11
        mine, factor = verify(prod), verify(qa, {1}, eps)
        assert (mine.a_counts, mine.identity_defect, mine.c_agreements) == (
            factor.a_counts, factor.identity_defect, factor.c_agreements)
        assert mine.passed
        text = emit_certificate(prod, mine)
        loaded, report = load_certificate(text)
        assert report == mine and emit_certificate(loaded, report) == text

    def test_two_regular_factors_exact(self):
        qa1 = regular_action(cyclic_group(2))
        qa2 = regular_action(cyclic_group(3))
        prod = direct_product_qa(
            [
                (qa1, FiniteSubset(qa1.owner, range(2))),
                (qa2, FiniteSubset(qa2.owner, range(3))),
            ],
            Fraction(1, 10),
        )
        assert prod.carrier_n == 6
        report = verify(prod, epsilon=Fraction(1, 100))
        assert report.passed and report.max_defect.disagreements == 0

    def test_b_defect_bounded_by_sum(self):
        def perturbed(points):
            qa = cyclic_quasi_action([1, 2], 10, epsilon=Fraction(1, 5))
            images = qa.assignment[0].points().tolist()
            for p in points:
                images[p] = (p + 5) % 10
            return with_map(qa, 0, FiniteMap(images))

        qa1 = perturbed([0])
        qa2 = perturbed([0, 1])
        d1 = fraction(similarity_defect(qa1.assignment[0], shift_map(10, 0)))
        d2 = fraction(similarity_defect(qa2.assignment[0], shift_map(10, 0)))
        assert (d1, d2) == (Fraction(1, 10), Fraction(1, 5))

        z = IntegerGroup()
        f = FiniteSubset(z, [1, 2])
        prod = direct_product_qa([(qa1, f), (qa2, f)], Fraction(1, 5))
        report = verify(prod, epsilon=Fraction(2, 5))
        assert report.passed
        assert fraction(report.identity_defect) <= d1 + d2

    def test_factor_must_verify(self):
        qa = cyclic_quasi_action([1], 12, epsilon=Fraction(1, 2))
        bad = with_map(qa, 1, shift_map(12, 0))  # identity map breaks (c)
        f = FiniteSubset(qa.owner, [1])
        with pytest.raises(PreconditionError):
            direct_product_qa([(bad, f)], Fraction(1, 10))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            direct_product_qa([], Fraction(1, 10))

    @pytest.mark.parametrize(
        "k,eps", [(2, Fraction(1, 2)), (10, Fraction(1, 10)), (3, Fraction(2, 5))]
    )
    def test_k_epsilon_at_least_one_rejected(self, k, eps):
        qa = regular_action(cyclic_group(2))
        f = FiniteSubset(qa.owner, range(2))
        with pytest.raises(PreconditionError):
            direct_product_qa([(qa, f)] * k, eps)

    def test_claims_k_epsilon(self):
        qa = regular_action(cyclic_group(2))
        f = FiniteSubset(qa.owner, range(2))
        prod = direct_product_qa([(qa, f)] * 3, Fraction(3, 10))
        assert prod.claimed_epsilon == Fraction(9, 10)

    def test_carrier_beyond_int32(self):
        # 2000**3 points: each slot holds 2000 cells, so no image passes
        # int32, and the counts are exact Python ints past 2**31.
        qa = cyclic_quasi_action([1], 2000)
        images = qa.assignment[0].points().tolist()
        images[0] = 1  # the identity element's map moves one point
        qa = with_map(qa, 0, FiniteMap(images))
        prod = direct_product_qa([(qa, qa.claimed_f)] * 3, Fraction(1, 10))
        n = 2000**3
        assert prod.carrier_n == n > 2**31
        one = prod.map_for((0, 0, 0))
        assert fixpoint_count(one) == 1999**3 > 2**31
        report = verify(prod, strict=True)
        assert report.passed and report.identity_defect.disagreements == n - 1999**3
        # The maps of (0, 0, 0) and (1, 1, 1) agree only at (0, 0, 0), sent to (1, 1, 1).
        assert report.strict.pair_counts == (n - 1,) and not report.strict.identity_exact


class TestTransport:
    def test_identity_embedding(self):
        qa = cyclic_quasi_action([-1, 1], 12)
        z = IntegerGroup()
        mapping = {k: k for k in range(-2, 3)}
        out = transport_qa(qa, z, [-1, 1], mapping)
        assert out.carrier_n == qa.carrier_n
        for k in [-2, -1, 0, 1, 2]:
            assert out.assignment[k] == qa.assignment[k]

    def test_even_subgroup_of_integers(self):
        qa = cyclic_quasi_action([-2, 2], 12)
        z = IntegerGroup()
        mapping = {k: k for k in [-4, -2, 0, 2, 4]}
        out = transport_qa(qa, z, [-2, 2], mapping)
        report = verify(out, epsilon=Fraction(1, 100))
        assert report.passed and report.max_defect.disagreements == 0

    def test_unmapped_acts_as_identity_and_breaks_c(self):
        qa = cyclic_quasi_action([-1, 1], 12)
        z = IntegerGroup()
        mapping = {0: 0, 1: 1, 2: 2}  # 5 left out on purpose
        out = transport_qa(qa, z, [1, 5], mapping)
        from quasiact import identity_map

        assert out.assignment[5] == identity_map(12)
        assert not verify(out, epsilon=Fraction(1, 100)).c_pass

    def test_injectivity_required(self):
        qa = cyclic_quasi_action([-1, 1, 2], 12)
        z = IntegerGroup()
        mapping = {0: 0, 1: 1, 5: 1, 2: 2, 6: 2, 10: 2}
        with pytest.raises(PreconditionError):
            transport_qa(qa, z, [1, 5], mapping)
