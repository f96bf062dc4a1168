from fractions import Fraction

import pytest

from quasiact import (
    FiniteSubset,
    FreeProductGroup,
    compose,
    cyclic_group,
    fixpoint_count,
    similarity_defect,
    verify,
)
from quasiact.finmap import identity_like
from quasiact.constructions import (
    build_free_product_action,
    build_partitioned_carrier,
    enumerate_normal_words,
    free_product_qa,
    girth_group_search,
    good_action_upgrade,
    regular_action,
)
from quasiact.errors import PreconditionError

from test_finmap import fraction, with_map


def multiplicativity_case(u, v, group: FreeProductGroup) -> int:
    """Which multiplication case the pair falls in, read off the normal forms.

    1: no cancellation (u ends with a nonidentity right syllable and v starts
       with a nonidentity left syllable); the product map is exact.
    2: both boundary syllables are identities; also exact.
    3: exactly one boundary syllable is the identity; cancellation may occur
       and one collapsed factor carries the approximation.
    """
    h_trivial = u.pairs[-1][1] == group.right.identity
    g_trivial = v.pairs[0][0] == group.left.identity
    return 3 if h_trivial != g_trivial else 2 if h_trivial else 1


@pytest.fixture(scope="module")
def z2_z3_action():
    qa, pc = build_free_product_action(
        cyclic_group(2), cyclic_group(3), [0, 1], [0, 1, 2], 2, Fraction(1, 10), seed=0
    )
    return qa, pc


class TestWordEnumeration:
    def test_counts_for_z2_z3(self):
        fp = FreeProductGroup(cyclic_group(2), cyclic_group(3))
        words = enumerate_normal_words(fp, [0, 1], [0, 1, 2], 2)
        # k=1: 2*3 forms; k=2: interior syllables nontrivial: 2*2*1*3
        assert len(words) == 6 + 12
        assert len({w.pairs for w in words}) == 18
        assert fp.identity in words

    def test_case_classification(self):
        fp = FreeProductGroup(cyclic_group(2), cyclic_group(3))
        ab = fp.word([(1, 1)])
        a_only = fp.word([(1, 0)])
        b_only = fp.word([(0, 1)])
        assert multiplicativity_case(ab, ab, fp) == 1
        assert multiplicativity_case(a_only, b_only, fp) == 2
        assert multiplicativity_case(a_only, ab, fp) == 3
        assert multiplicativity_case(ab, b_only, fp) == 3


class TestSmallEndToEnd:
    def test_z2_z2_syllable_bound_one(self):
        qa, pc = build_free_product_action(
            cyclic_group(2), cyclic_group(2), [0, 1], [0, 1], 1, Fraction(1, 10), seed=0
        )
        fp = qa.owner
        one = qa.assignment[fp.identity]
        assert one.n == pc.size and one == identity_like(one)
        for w in qa.claimed_f:
            if w != fp.identity:
                assert fixpoint_count(qa.assignment[w]) == 0
        assert verify(qa, epsilon=Fraction(1, 10)).a_pass


class TestDeskScale:
    def test_identity_word_is_identity_map(self, z2_z3_action):
        qa, pc = z2_z3_action
        one = qa.assignment[qa.owner.identity]
        assert one.n == pc.size and one == identity_like(one)

    def test_fixpoint_free_on_f(self, z2_z3_action):
        qa, _ = z2_z3_action
        fp = qa.owner
        for w in qa.claimed_f:
            if w != fp.identity:
                assert fixpoint_count(qa.assignment[w]) == 0

    def test_condition_a_with_exact_cases(self, z2_z3_action):
        qa, _ = z2_z3_action
        fp = qa.owner
        words = list(qa.claimed_f)
        exact_cases = 0
        for u in words:
            for v in words:
                case = multiplicativity_case(u, v, fp)
                lhs = compose(qa.assignment[u], qa.assignment[v])
                rhs = qa.assignment[fp.mul(u, v)]
                d = similarity_defect(lhs, rhs)
                assert fraction(d) <= Fraction(1, 10)
                if case in (1, 2):
                    assert d.disagreements == 0
                    exact_cases += 1
        assert exact_cases > 0

    def test_full_verify(self, z2_z3_action):
        qa, _ = z2_z3_action
        report = verify(qa, epsilon=Fraction(1, 10))
        assert report.passed


class TestPreconditions:
    def test_rejects_non_good_factor(self):
        raw = regular_action(cyclic_group(2), epsilon=Fraction(1, 10))
        good = good_action_upgrade(raw, FiniteSubset(raw.owner, [0, 1]), Fraction(1, 10))
        v = girth_group_search(4, 2, order_cap=500, seed=0)
        pc = build_partitioned_carrier(4, 4, 1, v)
        # perturb the good action's identity map: strict check must fail
        from quasiact import FiniteMap

        broken = with_map(good, 0, FiniteMap([1, 0, 2, 3]))
        with pytest.raises(PreconditionError):
            free_product_qa(broken, good, [0, 1], [0, 1], 1, pc, Fraction(1, 10))

    def test_rejects_undersized_carrier(self):
        raw = regular_action(cyclic_group(2), epsilon=Fraction(1, 10))
        good = good_action_upgrade(raw, FiniteSubset(raw.owner, [0, 1]), Fraction(1, 10))
        v = girth_group_search(4, 2, order_cap=500, seed=0)
        pc = build_partitioned_carrier(4, 4, 1, v)
        with pytest.raises(PreconditionError):
            free_product_qa(good, good, [0, 1], [0, 1], 2, pc, Fraction(1, 10))

    def test_rejects_wrong_sizes(self):
        raw2 = regular_action(cyclic_group(2), epsilon=Fraction(1, 10))
        good2 = good_action_upgrade(raw2, FiniteSubset(raw2.owner, [0, 1]), Fraction(1, 10))
        raw3 = regular_action(cyclic_group(3), epsilon=Fraction(1, 10))
        good3 = good_action_upgrade(raw3, FiniteSubset(raw3.owner, range(3)), Fraction(1, 10))
        v = girth_group_search(4, 2, order_cap=500, seed=0)
        pc = build_partitioned_carrier(4, 4, 1, v)
        with pytest.raises(PreconditionError):
            free_product_qa(good2, good3, [0, 1], [0, 1, 2], 1, pc, Fraction(1, 10))
