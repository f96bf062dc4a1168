import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quasiact import (
    FiniteMap,
    FiniteSubset,
    IntegerGroup,
    QuasiAction,
    compose,
    cyclic_group,
    double,
    fixpoint_count,
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
from quasiact.constructions.good import _build_good_map
from quasiact.errors import InvariantViolationError

from test_finmap import fixpoint_set


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


def build_good_map_with_sets(phi, e, e_inv) -> FiniteMap:
    """_build_good_map as it was before it read finmap's fixpoint mask: A_e
    from fixpoint sets and set differences, -1 marking unassigned points.
    Kept as the oracle for the mask version."""
    m_e = phi.map_for(e)
    m_inv = phi.map_for(e_inv)
    n = m_e.n

    fix_e = fixpoint_set(m_e)
    fix_round = fixpoint_set(compose(m_e, m_inv))
    a_e = np.array(sorted(fix_round - fix_e), dtype=np.int64)

    fix_inv = fixpoint_set(m_inv)
    fix_round_inv = fixpoint_set(compose(m_inv, m_e))
    a_einv = np.array(sorted(fix_round_inv - fix_inv), dtype=np.int64)

    if set(np.asarray(m_e.images)[a_e].tolist()) != set(a_einv.tolist()):
        raise InvariantViolationError("A_e . phi(e) != A_{e^-1}")

    images = np.full(2 * n, -1, dtype=np.int64)
    if a_e.size:
        targets = np.asarray(m_e.images, dtype=np.int64)[a_e]
        images[a_e] = targets
        images[a_e + n] = targets + n

    set_e = set(a_e.tolist())
    set_inv = set(a_einv.tolist())
    only_inv = np.array(sorted(set_inv - set_e), dtype=np.int64)
    only_e = np.array(sorted(set_e - set_inv), dtype=np.int64)
    if only_inv.size:
        images[np.concatenate([only_inv, only_inv + n])] = np.concatenate([only_e, only_e + n])

    complement = np.array(sorted(set(range(n)) - set_e - set_inv), dtype=np.int64)
    if complement.size:
        images[complement] = complement + n
        images[complement + n] = complement

    if (images < 0).any():
        raise InvariantViolationError("good map left points unassigned")
    result = FiniteMap(images)
    if not result.is_bijection() or fixpoint_count(result):
        raise InvariantViolationError("good map is not a fixpoint-free bijection")
    return result


def _random_pair(rng: random.Random, n: int, kind: str):
    """(phi(e), phi(e^-1)) as image lists, of the named kind."""
    def bijection():
        return rng.sample(range(n), n)

    def any_map():
        return [rng.randrange(n) for _ in range(n)]

    if kind == "bijections":
        return bijection(), bijection()
    if kind == "perturbed_shifts":
        k = rng.randrange(n)
        m_e = [(a + k) % n for a in range(n)]
        m_inv = [(a - k) % n for a in range(n)]
        for _ in range(rng.randint(1, 3)):
            rng.choice((m_e, m_inv))[rng.randrange(n)] = rng.randrange(n)
        return m_e, m_inv
    if kind == "non_bijective":
        return any_map(), any_map()
    if kind == "exact_inverses":
        m_e = bijection()
        return m_e, np.argsort(m_e).tolist()
    m_e = any_map() if rng.random() < 0.5 else bijection()  # "involutive": e = e^-1
    return m_e, m_e


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:
        return type(exc)


class TestMaskAgainstSetOracle:
    KINDS = ("bijections", "perturbed_shifts", "non_bijective", "exact_inverses", "involutive")

    def test_same_map_or_same_error(self):
        rng = random.Random(0)
        z, c2 = IntegerGroup(), cyclic_group(2)
        for i in range(2500):
            n = rng.randint(1, 30)
            kind = self.KINDS[i % len(self.KINDS)]
            m_e, m_inv = map(FiniteMap, _random_pair(rng, n, kind))
            if kind == "involutive":
                phi = QuasiAction(c2, n, {0: identity_map(n), 1: m_e},
                                  FiniteSubset(c2, []), Fraction(1, 2))
                args = (phi, 1, 1)
            else:
                phi = QuasiAction(z, n, {0: identity_map(n), 1: m_e, -1: m_inv},
                                  FiniteSubset(z, []), Fraction(1, 2))
                args = (phi, 1, -1)
            expected = _outcome(build_good_map_with_sets, *args)
            assert _outcome(_build_good_map, *args) == expected, (kind, m_e, m_inv)


class TestDocumentedClaims:
    """On any input that verifies as an (F~, eps/10)-quasi-action, psi(e) is
    3eps/10-similar to the doubled phi(e) for e in F~, and the maps of
    F union {1} are pairwise (1 - 8eps/10)-different."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(20, 48),
        st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=3),
        st.sampled_from([Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)]),
        st.lists(st.tuples(st.integers(-12, 12), st.integers(0, 47), st.integers(0, 47)),
                 max_size=3),
    )
    def test_similarity_and_difference(self, modulus, f, eps, damage):
        phi = cyclic_quasi_action(f, modulus, eps / 10, extra_support=range(-12, 13))
        for k, point, target in damage:
            images = phi.assignment[k].to_list()
            images[point % modulus] = target % modulus
            phi = phi.with_map(k, FiniteMap(images))
        tilde = symmetrized_square(phi.claimed_f)
        assume(verify(phi, tilde, eps / 10).passed)
        psi = good_action_upgrade(phi, f, eps)
        for e in tilde:
            d = similarity_defect(psi.assignment[e], double(phi.map_for(e)))
            assert d.is_similar(3 * eps / 10), (e, d)
        core = sorted({0, *f})
        for i, a in enumerate(core):
            for b in core[i + 1 :]:
                d = similarity_defect(psi.assignment[a], psi.assignment[b])
                assert d.is_different(1 - 8 * eps / 10), (a, b, d)


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
