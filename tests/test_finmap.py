from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasiact import (
    Defect,
    FiniteMap,
    QuasiAction,
    compose,
    fixpoint_count,
    identity_map,
    inverse_map,
    shift_map,
    similarity_defect,
)
from quasiact.errors import CarrierMismatchError, DomainError


def swap_map(n: int, i: int, j: int) -> FiniteMap:
    """The identity on n points with i and j exchanged."""
    images = np.arange(n)
    images[i], images[j] = j, i
    return FiniteMap(images)


def fixpoint_set(e: FiniteMap) -> frozenset[int]:
    """The fixed points of a dense map (a fibered map has no list of points)."""
    return frozenset(np.flatnonzero(e.points() == np.arange(e.n)).tolist())


def double(e: FiniteMap) -> FiniteMap:
    """Act the same way on two disjoint copies of a dense carrier.

    Points [0,n) are the first copy and [n,2n) the second, so
    double(e) sends a to e(a) and n+a to n + e(a).
    """
    return FiniteMap(np.concatenate([e.points(), e.images + e.n]))


def fraction(d: Defect) -> Fraction:
    """The defect as the exact fraction of the carrier it covers."""
    return Fraction(d.disagreements, d.n)


def with_map(qa: QuasiAction, elem, fmap: FiniteMap) -> QuasiAction:
    """A copy of qa with one assignment replaced (for perturbation studies)."""
    table = dict(qa.assignment)
    table[elem] = fmap
    return QuasiAction(qa.owner, qa.carrier_n, table, qa.claimed_f, qa.claimed_epsilon)


def constant_map(n: int, value: int) -> FiniteMap:
    return FiniteMap(np.full(n, value, dtype=np.int32))


def composition_defect(e: FiniteMap, f: FiniteMap, ef: FiniteMap) -> Defect:
    """similarity_defect(compose(e, f), ef), counted without building the
    composite map: the per-pair count the verify oracle makes."""
    if not e.n == f.n == ef.n:
        raise CarrierMismatchError(f"carrier sizes differ: {e.n}, {f.n}, {ef.n}")
    return Defect(int(np.count_nonzero(f.images[e.images] != ef.images)), e.n)


def compose_oracle(e: FiniteMap, f: FiniteMap) -> list[int]:
    # Pointwise evaluation, kept independent of the array implementation.
    images_e, images_f = e.points().tolist(), f.points().tolist()
    return [images_f[images_e[a]] for a in range(e.n)]


def maps(n_max=8):
    return st.integers(2, n_max).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    ).map(FiniteMap)


def same_size_maps(count, n_max=8):
    def build(n):
        one = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(FiniteMap)
        return st.tuples(*([one] * count))

    return st.integers(2, n_max).flatmap(build)


class TestCompose:
    def test_identity_left(self):
        f = FiniteMap([3, 0, 4, 4, 1])
        assert compose(identity_map(5), f) == f

    def test_order_fixes_convention(self):
        e = constant_map(2, 0)
        f = swap_map(2, 0, 1)
        assert compose(e, f).points().tolist() == [1, 1]
        assert compose(f, e).points().tolist() == [0, 0]

    def test_three_cycle_squared(self):
        e = FiniteMap([1, 2, 0])
        assert compose(e, e).points().tolist() == [2, 0, 1]

    def test_matches_pointwise_oracle(self):
        e = FiniteMap([2, 2, 0, 1, 3])
        f = FiniteMap([4, 0, 1, 1, 2])
        assert compose(e, f).points().tolist() == compose_oracle(e, f)

    def test_size_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            compose(identity_map(3), identity_map(4))

    @given(same_size_maps(3))
    def test_associative(self, efg):
        e, f, g = efg
        assert compose(compose(e, f), g) == compose(e, compose(f, g))


class TestSimilarityDefect:
    def test_equal_maps(self):
        f = FiniteMap([1, 0, 3, 2])
        assert similarity_defect(f, f).disagreements == 0

    def test_fixpoint_free_involution_vs_identity(self):
        inv = FiniteMap([1, 0, 3, 2])
        d = similarity_defect(identity_map(4), inv)
        assert d.disagreements == 4
        assert fraction(d) == 1

    def test_swap_on_ten(self):
        d = similarity_defect(identity_map(10), swap_map(10, 0, 1))
        assert (d.disagreements, d.n) == (2, 10)
        from fractions import Fraction

        assert fraction(d) == Fraction(1, 5)

    def test_size_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            similarity_defect(identity_map(3), identity_map(4))

    @given(same_size_maps(2))
    def test_symmetric(self, ef):
        e, f = ef
        assert similarity_defect(e, f) == similarity_defect(f, e)

    @given(same_size_maps(3))
    def test_triangle_inequality(self, efg):
        e, f, g = efg
        def d(x, y):
            return similarity_defect(x, y).disagreements

        assert d(e, g) <= d(e, f) + d(f, g)

    @given(same_size_maps(3))
    def test_bijection_composition_preserves_counts(self, efg):
        e, f, g = efg
        perm = FiniteMap(np.random.default_rng(e.n).permutation(e.n))
        lhs = similarity_defect(compose(perm, f), compose(perm, g))
        rhs = similarity_defect(f, g)
        assert lhs.disagreements == rhs.disagreements


class TestCompositionDefect:
    @given(same_size_maps(3))
    def test_matches_composite_then_similarity(self, efg):
        e, f, ef = efg
        assert composition_defect(e, f, ef) == similarity_defect(compose(e, f), ef)

    @pytest.mark.parametrize("sizes", [(3, 3, 4), (3, 4, 3), (4, 3, 3)])
    def test_size_mismatch(self, sizes):
        with pytest.raises(CarrierMismatchError):
            composition_defect(*(identity_map(n) for n in sizes))


class TestFixpoints:
    def test_identity(self):
        assert fixpoint_set(identity_map(5)) == frozenset(range(5))

    def test_fixpoint_free_involution(self):
        assert fixpoint_set(FiniteMap([1, 0, 3, 2])) == frozenset()

    def test_partial(self):
        assert fixpoint_set(FiniteMap([0, 2, 1])) == frozenset({0})

    def test_count_matches_set(self):
        m = FiniteMap([0, 1, 1, 3, 0])
        assert fixpoint_count(m) == len(fixpoint_set(m))


class TestDouble:
    def test_identity(self):
        assert double(identity_map(4)) == identity_map(8)

    def test_three_cycle(self):
        d = double(FiniteMap([1, 2, 0]))
        assert d.points().tolist() == [1, 2, 0, 4, 5, 3]
        assert fixpoint_set(d) == frozenset()

    @given(maps())
    def test_fixpoint_count_doubles(self, e):
        assert fixpoint_count(double(e)) == 2 * fixpoint_count(e)

    @given(same_size_maps(2))
    def test_monoid_homomorphism(self, ef):
        e, f = ef
        assert double(compose(e, f)) == compose(double(e), double(f))


class TestHelpers:
    def test_shift_map_wraps(self):
        assert shift_map(5, 7).points().tolist() == [2, 3, 4, 0, 1]
        assert shift_map(5, -1).points().tolist() == [4, 0, 1, 2, 3]

    @pytest.mark.parametrize("build", [lambda n: shift_map(n, 1), identity_map])
    @pytest.mark.parametrize("n", [2**31, 0])
    def test_carrier_size_checked_before_allocating(self, build, n):
        # 2**31 points would take 16 GiB as int64 images before FiniteMap refused them.
        with pytest.raises(DomainError, match="carrier size"):
            build(n)

    def test_inverse_map(self):
        p = FiniteMap([2, 0, 1])
        assert compose(p, inverse_map(p)) == identity_map(3)

    def test_inverse_requires_bijection(self):
        with pytest.raises(DomainError):
            inverse_map(constant_map(3, 0))

    def test_defect_validation(self):
        with pytest.raises(Exception):
            Defect(5, 4)

    def test_images_validated(self):
        with pytest.raises(DomainError):
            FiniteMap([0, 3])

    @pytest.mark.parametrize(
        "images",
        [
            np.array([2**32, 0], dtype=np.int64),
            np.array([2**32 + 1, 0], dtype=np.uint64),
            np.array([-(2**32) + 1, 0], dtype=np.int64),
            [2**32, 0],
            [2**70, 0],
        ],
    )
    def test_images_range_checked_before_int32_cast(self, images):
        with pytest.raises(DomainError):
            FiniteMap(images)

    def test_caller_array_stays_writeable_and_map_fixed(self):
        images = np.arange(3, dtype=np.int32)
        fmap = FiniteMap(images)
        images[0] = 2  # the caller's array is not frozen under it
        assert fmap.points().tolist() == [0, 1, 2]
        view = np.arange(6, dtype=np.int32)[::2] // 2
        shared = FiniteMap(view)
        view[0] = 1
        assert shared.points().tolist() == [0, 1, 2]
        with pytest.raises(ValueError):
            fmap.packed[0] = 1

    def test_read_only_input_is_shared(self):
        raw = np.frombuffer(np.array([1, 0], dtype="<i4").tobytes(), "<i4")
        assert np.shares_memory(FiniteMap(raw).packed, raw)

    def test_non_integer_images_rejected(self):
        with pytest.raises(DomainError):
            FiniteMap(np.array([1.0, 0.0]))
