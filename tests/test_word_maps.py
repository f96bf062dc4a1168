"""The free product's batched word maps against per-word composition.

``free_product_qa`` builds its word maps as slot-table rows: the words'
prefixes one syllable pair per level, each level in two batched
``finmap.after`` calls, the rows deduplicated into one table.  The oracle
is the direct construction it replaced: each factor map lifted to a fibered
map of the cells (``left_map``, ``right_map``), each word's map the
``compose`` of its syllables' maps in order, and the maps handed to
``QuasiAction`` one per element, on the identity, F and F x F.  Both must
give the same elements, slot tables, index and certificate bytes.
"""

from fractions import Fraction
from functools import cache, reduce

import numpy as np
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteMap,
    FiniteSubset,
    FreeProductGroup,
    QuasiAction,
    compose,
    cyclic_group,
    emit_certificate,
    pair_products,
    verify,
)
from quasiact.constructions import (
    build_partitioned_carrier,
    enumerate_normal_words,
    free_product_qa,
    girth_group_search,
    good_action_upgrade,
    regular_action,
)

EPSILON = Fraction(1, 10)


def compose_assignment(phi_g, psi_h, f_left, f_right, n, pc) -> QuasiAction:
    """The action free_product_qa builds, by one reduce(compose, ...) per word."""
    group = FreeProductGroup(phi_g.owner, psi_h.owner)
    fset = FiniteSubset(group, enumerate_normal_words(group, f_left, f_right, n))
    support = {group.identity, *fset, *pair_products(fset, fset)}
    a_size, b_size, fiber = pc.a_size, pc.b_size, pc.v.fiber
    gen = np.array(fiber.generators, dtype=np.int64)[np.array(pc.gen_label)]  # (a, b, x)
    gen_inv = np.argsort(gen, axis=2)
    one = np.broadcast_to(np.arange(fiber.degree), (a_size * b_size, fiber.degree))
    a_idx, b_idx = np.divmod(np.arange(a_size * b_size), b_size)

    @cache
    def left_map(g) -> FiniteMap:  # (a, b) -> (phi(g)(a), b), label 1
        return FiniteMap(phi_g.map_for(g).images[a_idx] * b_size + b_idx, one, fiber)

    @cache
    def right_map(h) -> FiniteMap:  # (a, b) -> (a, b'), label gen(a,b)^-1 gen(a,b')
        b2 = psi_h.map_for(h).images
        labels = np.take_along_axis(gen[:, b2], gen_inv, axis=2)
        return FiniteMap(a_idx * b_size + b2[b_idx], labels.reshape(one.shape), fiber)

    assignment = {
        word: reduce(compose, [m for g, h in word.pairs for m in (left_map(g), right_map(h))])
        for word in sorted(support, key=group.element_key)
    }
    return QuasiAction(group, pc.size, assignment, fset, EPSILON)


@cache
def good_action(order: int) -> QuasiAction:
    """The regular action of C_order upgraded to a good one on all of it."""
    raw = regular_action(cyclic_group(order), epsilon=EPSILON)
    return good_action_upgrade(raw, FiniteSubset(raw.owner, range(order)), EPSILON)


@cache
def carrier(a_size: int, b_size: int, n: int, seed: int):
    v = girth_group_search(max(a_size, b_size), 2 * n, order_cap=2_000_000, seed=seed)
    return build_partitioned_carrier(a_size, b_size, n, v)


@st.composite
def free_products(draw):
    """Two good factor actions (C2*C2, C2*C3 or C3*C3), F subsets of each in
    a drawn order, a syllable bound 1..3 and a carrier from a drawn seed."""
    p, q = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    f_left, f_right = (draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
                       for k in (p, q))
    n = draw(st.integers(1, 3))
    phi, psi = good_action(p), good_action(q)
    return phi, psi, f_left, f_right, n, carrier(phi.carrier_n, psi.carrier_n, n,
                                                 draw(st.integers(0, 2)))


class TestWordMapsAgainstCompose:
    @settings(max_examples=25, deadline=None)
    @given(free_products())
    def test_tables_index_and_certificate_equal_the_composed_maps(self, case):
        phi, psi, f_left, f_right, n, pc = case
        got = free_product_qa(phi, psi, f_left, f_right, n, pc, EPSILON)
        want = compose_assignment(phi, psi, f_left, f_right, n, pc)
        assert got.elements == want.elements and got.keys == want.keys
        assert got.layout == want.layout and got.carrier_n == want.carrier_n == pc.size
        (tables, index), (want_tables, want_index) = got.slot_tables, want.slot_tables
        assert len(tables) == len(want_tables) == 1
        assert tables[0].dtype == want_tables[0].dtype == np.int32
        assert np.array_equal(tables[0], want_tables[0]) and np.array_equal(index, want_index)
        assert np.array_equal(got._claimed_products, want._claimed_products)
        report = verify(got)
        assert report.passed
        assert emit_certificate(got, report) == emit_certificate(want, verify(want))
