from fractions import Fraction

import pytest

from quasiact import (
    FiniteSubset,
    IntegerGroup,
    ProductGroup,
    SubgroupHandle,
    TableGroup,
    cyclic_group,
    fixpoint_count,
    verify,
)
from quasiact.constructions import (
    ExtensionData,
    amenable_extension_qa,
    conjugated_normal_subset,
    cyclic_quasi_action,
    integer_folner_interval,
    regular_action,
    transport_qa,
)
from quasiact.errors import (
    GroupMismatchError,
    IncompleteSupportError,
    InvariantViolationError,
    PreconditionError,
)

from test_extension_blocks import folner_expansion


def product_extension(folner_size=20):
    """G = Z x Z/2 with N the finite factor and quotient Z."""
    g = ProductGroup([IntegerGroup(), cyclic_group(2)])
    q = IntegerGroup()
    return g, ExtensionData(
        group=g,
        quotient=q,
        project=lambda x: x[0],
        section=lambda k: (k, 0),
        folner=FiniteSubset(q, range(folner_size)),
    )


class TestExtensionData:
    def test_section_must_split(self):
        g = ProductGroup([IntegerGroup(), cyclic_group(2)])
        q = IntegerGroup()
        with pytest.raises(InvariantViolationError):
            ExtensionData(
                group=g,
                quotient=q,
                project=lambda x: x[0],
                section=lambda k: (k + 1, 0),
                folner=FiniteSubset(q, range(3)),
            )

    def test_projection_must_send_the_identity_to_the_identity(self):
        # The section splits, but N, the projection's kernel, would miss (0, 0).
        g = ProductGroup([IntegerGroup(), cyclic_group(2)])
        q = IntegerGroup()
        with pytest.raises(InvariantViolationError, match="identity to the identity"):
            ExtensionData(
                group=g,
                quotient=q,
                project=lambda x: x[0] + 1,
                section=lambda k: (k - 1, 0),
                folner=FiniteSubset(q, range(3)),
            )

    def test_expansion_interval(self):
        _, ext = product_extension(20)
        f = FiniteSubset(ext.group, [(1, 0), (-1, 0), (0, 1)])
        assert folner_expansion(ext, f) == Fraction(1, 20)

    def test_minimal_interval(self):
        folner = integer_folner_interval([-1, 0, 1], Fraction(1, 20))
        assert len(folner) == 20
        folner2 = integer_folner_interval([3], Fraction(2, 7))
        # 3 / m <= 2/7 first holds at m = 11
        assert len(folner2) == 11

    @pytest.mark.parametrize("k", [2.7, True, "3"])
    def test_interval_input_is_not_truncated(self, k):
        with pytest.raises(GroupMismatchError):
            integer_folner_interval([k], Fraction(1, 2))

    def test_f_of_another_group_is_refused(self):
        _, ext = product_extension(20)
        psi = regular_action(cyclic_group(2), epsilon=Fraction(1, 100))
        other = FiniteSubset(cyclic_group(3), [1, 2])
        for build in (
            lambda: folner_expansion(ext, other),
            lambda: conjugated_normal_subset(ext, other),
            lambda: amenable_extension_qa(psi, ext, other, Fraction(1, 10)),
            lambda: transport_qa(psi, ext.group, other, {}),
            lambda: verify(psi, other),
        ):
            with pytest.raises(GroupMismatchError):
                build()

    def test_conjugated_subset(self):
        g, ext = product_extension(5)
        f = FiniteSubset(g, [(1, 0), (0, 1), (1, 1)])
        h = conjugated_normal_subset(ext, f)
        assert set(h) == {(0, 0), (0, 1)}


class TestDegenerateQuotient:
    def test_whole_group_normal(self):
        g = ProductGroup([IntegerGroup(), cyclic_group(2)])
        triv = TableGroup([[0]])
        ext = ExtensionData(
            group=g,
            quotient=triv,
            project=lambda x: 0,
            section=lambda t: (0, 0),
            folner=FiniteSubset(triv, [0]),
        )
        psi = regular_action(
            SubgroupHandle(g, members=[(0, 0), (0, 1)]), epsilon=Fraction(1, 100)
        )
        f = FiniteSubset(g, [(0, 1)])
        qa = amenable_extension_qa(psi, ext, f, Fraction(1, 10))
        assert qa.carrier_n == psi.carrier_n
        report = verify(qa)
        assert report.passed and report.max_defect.disagreements == 0


class TestIntegerSubgroup:
    def test_even_integers_with_finite_quotient(self):
        z = IntegerGroup()
        even = SubgroupHandle(z, contains_fn=lambda k: k % 2 == 0)
        # shifts of Z/12 pulled back to the even integers k -> k/2
        base = cyclic_quasi_action([-1, 1], 12, epsilon=Fraction(1, 100),
                                   extra_support=range(-4, 5))
        psi = transport_qa(base, even, [-2, 2], {k: k // 2 for k in range(-8, 9, 2)})

        q = cyclic_group(2)
        ext = ExtensionData(
            group=z,
            quotient=q,
            project=lambda k: k % 2,
            section=lambda t: t,
            folner=FiniteSubset(q, [0, 1]),
        )
        f = FiniteSubset(z, [1])
        qa = amenable_extension_qa(psi, ext, f, Fraction(1, 10))
        report = verify(qa)
        assert report.passed
        assert all(p.defect.disagreements == 0 for p in report.pair_defects)


class TestProductFactorExtension:
    def test_three_epsilon_bound(self):
        g, ext = product_extension(20)
        psi = regular_action(
            SubgroupHandle(g, members=[(0, 0), (0, 1)]), epsilon=Fraction(1, 100)
        )
        f = FiniteSubset(g, [(1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1)])
        eps = Fraction(1, 20)
        qa = amenable_extension_qa(psi, ext, f, eps)
        assert qa.claimed_epsilon == 3 * eps
        assert qa.carrier_n == 40
        report = verify(qa)
        assert report.passed

    def test_fixpoint_counts(self):
        g, ext = product_extension(20)
        psi = regular_action(
            SubgroupHandle(g, members=[(0, 0), (0, 1)]), epsilon=Fraction(1, 100)
        )
        f = FiniteSubset(g, [(1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1)])
        eps = Fraction(1, 20)
        qa = amenable_extension_qa(psi, ext, f, eps)
        a_count, b_count = 20, 2
        for e in f:
            count = fixpoint_count(qa.assignment[e])
            assert count <= eps * a_count * b_count
            if ext.project(e) == ext.quotient.identity:
                # inner regular action is fixpoint-free away from 1
                assert count == 0

    def test_expansion_above_epsilon_rejected(self):
        g, ext = product_extension(5)
        psi = regular_action(
            SubgroupHandle(g, members=[(0, 0), (0, 1)]), epsilon=Fraction(1, 100)
        )
        f = FiniteSubset(g, [(1, 0)])
        with pytest.raises(PreconditionError):
            amenable_extension_qa(psi, ext, f, Fraction(1, 10))

    def test_three_epsilon_must_stay_below_one(self):
        g, ext = product_extension(3)
        psi = regular_action(
            SubgroupHandle(g, members=[(0, 0), (0, 1)]), epsilon=Fraction(1, 100)
        )
        f = FiniteSubset(g, [(1, 0)])
        with pytest.raises(PreconditionError):
            amenable_extension_qa(psi, ext, f, Fraction(1, 2))

    def test_inner_group_missing_an_element_of_h(self):
        g, ext = product_extension(20)
        # H = {(0,0), (0,1)}, but psi's group is the trivial subgroup.
        psi = regular_action(SubgroupHandle(g, members=[(0, 0)]), epsilon=Fraction(1, 100))
        f = FiniteSubset(g, [(0, 1)])
        with pytest.raises(PreconditionError, match=r"does not contain all of H.*\(0, 1\)"):
            amenable_extension_qa(psi, ext, f, Fraction(1, 10))

    def test_inner_support_gap_detected(self):
        g, ext = product_extension(20)
        # inner action supported only on the identity: conjugated (0,1) missing
        sub = SubgroupHandle(g, members=[(0, 0), (0, 1)])
        from quasiact import QuasiAction, identity_map

        psi = QuasiAction(
            sub,
            2,
            {(0, 0): identity_map(2)},
            FiniteSubset(sub, [(0, 0)]),
            Fraction(1, 100),
        )
        f = FiniteSubset(g, [(0, 1)])
        with pytest.raises(IncompleteSupportError) as err:
            amenable_extension_qa(psi, ext, f, Fraction(1, 10))
        assert "[0,1]" in str(err.value)
