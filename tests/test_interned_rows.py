"""Row interning against np.unique, and the actions built from rows against
the same actions built map by map.

``quasiaction._interned`` is the one routine that merges the equal slot rows
of a built action.  Its oracle is ``np.unique(rows, axis=0)``: the same
distinct rows, each row's number among them, and the order of first
appearance, read off np.unique's first indices (np.unique sorts).

The cyclic witness and the amenable extension build their rows as one array
and intern them, with no map per element.  Their oracles hand the same maps
one by one to ``QuasiAction(...)``, which validates each: ``shift_map`` for
the cyclic witness and the scalar block walk (``test_extension_blocks``) for
the extension.  Elements, slot tables, index and certificate bytes must be
equal.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from quasiact import (
    FiniteMap,
    FiniteSubset,
    IntegerGroup,
    QuasiAction,
    SubgroupHandle,
    emit_certificate,
    pair_products,
    shift_map,
    verify,
)
from quasiact.constructions import amenable_extension_qa, cyclic_quasi_action, regular_action
from quasiact.errors import QuasiactError
from quasiact.groups import symmetrize
from quasiact.quasiaction import _interned

from test_extension import product_extension
from test_extension_blocks import (
    integer_subgroup_claim,
    product_factor_claim,
    scalar_amenable_extension_qa,
    symmetric_group_claim,
)


def unique_oracle(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique's distinct rows renumbered in order of first appearance."""
    distinct, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse.ravel()]


def check_interned(rows: np.ndarray) -> None:
    table, index = _interned(rows)
    expected, numbers = unique_oracle(rows)
    assert table.dtype == np.int32 and table.shape == expected.shape
    assert np.array_equal(table, expected) and np.array_equal(index, numbers)
    assert np.array_equal(table[index], rows)
    assert list(dict.fromkeys(index.tolist())) == list(range(len(table)))  # first appearance
    one_by_one, again = _interned(iter(list(rows)))
    assert np.array_equal(one_by_one, table) and np.array_equal(again, index)


@st.composite
def row_stacks(draw):
    """An int32 stack whose rows repeat: picks from a pool of drawn rows."""
    width = draw(st.sampled_from([1, 2, 5, 41, 216]))
    pool = draw(hnp.arrays(np.int32, (draw(st.integers(1, 6)), width),
                           elements=st.integers(-(2**31), 2**31 - 1) | st.integers(0, 2)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return pool[picks]


class TestInternedAgainstUnique:
    @settings(max_examples=150, deadline=None)
    @given(rows=row_stacks())
    def test_drawn_stacks(self, rows):
        check_interned(rows)

    @pytest.mark.parametrize("rows", [
        np.array([[3, 1, 2]], np.int32),  # one row
        np.full((9, 4), 7, np.int32),  # all equal
        np.arange(40, dtype=np.int32).reshape(10, 4)[::-1],  # all distinct, none in sorted order
        np.zeros((5, 0), np.int32),  # rows of no entries are all equal
        np.tile(np.arange(3, dtype=np.int32), (6, 1)) % np.arange(1, 7, dtype=np.int32)[:, None],
    ], ids=["one_row", "all_equal", "all_distinct", "empty_rows", "narrow_mixed"])
    def test_fixed_stacks(self, rows):
        check_interned(rows)

    def test_wide_stack(self):
        # Twelve rows of 200,000 entries, four distinct: the extension's shape
        # at epsilon 1/100,000.
        rng = np.random.default_rng(5)
        pool = rng.integers(0, 200_000, (4, 200_000), dtype=np.int32)
        check_interned(pool[[2, 0, 2, 3, 1, 0, 0, 3, 2, 1, 1, 2]])

    def test_rows_differing_in_one_entry_are_distinct(self):
        rows = np.zeros((3, 1000), np.int32)
        rows[1, 999] = 1
        rows[2, 0] = -1
        check_interned(rows)


def assert_same_action(built: QuasiAction, by_maps: QuasiAction) -> None:
    assert built.elements == by_maps.elements and built.keys == by_maps.keys
    assert built.carrier_n == by_maps.carrier_n and built.layout == by_maps.layout
    (tables, index), (other, other_index) = built.slot_tables, by_maps.slot_tables
    assert len(tables) == len(other)
    for table, expected in zip(tables, other):
        assert table.dtype == np.int32 and not table.flags.writeable
        assert np.array_equal(table, expected)
    assert np.array_equal(index, other_index)
    assert emit_certificate(built, verify(built)) == emit_certificate(by_maps, verify(by_maps))


def cyclic_by_maps(f, modulus, epsilon, extra_support) -> QuasiAction:
    """The cyclic witness, one shift_map per supported integer."""
    z = IntegerGroup()
    fset = FiniteSubset(z, f)
    support = {*symmetrize(fset), *pair_products(fset, fset), *FiniteSubset(z, extra_support)}
    return QuasiAction(z, modulus, {k: shift_map(modulus, k) for k in support}, fset, epsilon)


BIG = st.integers(2**63, 2**80) | st.integers(-(2**80), -(2**63))


@st.composite
def cyclic_cases(draw):
    """F, a modulus past 2 max|k|, and extra support with integers congruent
    to supported ones and integers past int64."""
    f = draw(st.lists(st.integers(-6, 6), max_size=4))
    modulus = draw(st.integers(2 * max(map(abs, f), default=0) + 1, 40))
    extra = draw(st.lists(st.integers(-50, 50) | BIG, max_size=6))
    extra += [k + modulus * draw(st.integers(-3, 3) | BIG) for k in draw(st.lists(
        st.sampled_from([0, *f]), max_size=3))]
    return f, modulus, Fraction(1, draw(st.integers(2, 100))), extra


class TestRowBuiltActionsAgainstMaps:
    @settings(max_examples=80, deadline=None)
    @given(case=cyclic_cases())
    @example(case=([1], 5, Fraction(1, 100), [18446744073709551621]))
    @example(case=([2, -1], 7, Fraction(1, 3), [-(2**63), 2**63 + 3, 2**64 * 7 + 2]))
    def test_cyclic_witness(self, case):
        assert_same_action(cyclic_quasi_action(*case[:3], extra_support=case[3]),
                           cyclic_by_maps(*case))

    @pytest.mark.parametrize("claim", [product_factor_claim(), integer_subgroup_claim(),
                                       symmetric_group_claim()],
                             ids=["product_factor", "integer_subgroup", "s4"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_amenable_extension(self, claim, data):
        psi, ext, f, epsilon = data.draw(claim)
        try:
            built = amenable_extension_qa(psi, ext, f, epsilon)
        except QuasiactError as exc:  # refused by the same check, with the same words
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                scalar_amenable_extension_qa(psi, ext, f, epsilon)
            return
        assert_same_action(built, scalar_amenable_extension_qa(psi, ext, f, epsilon))


def validated_maps(monkeypatch, build) -> int:
    """How many maps FiniteMap(...) validates while build() runs."""
    made = []
    real = FiniteMap.__init__
    monkeypatch.setattr(FiniteMap, "__init__", lambda self, *a: made.append(1) or real(self, *a))
    build()
    monkeypatch.undo()
    return len(made)


def test_the_cyclic_witness_and_the_extension_validate_no_map_per_element(monkeypatch):
    g, ext = product_extension(20)
    psi = regular_action(SubgroupHandle(g, members=[(0, 0), (0, 1)]), epsilon=Fraction(1, 100))
    f = [(1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1)]
    support = range(-30, 30)  # holds the whole symmetrized square of {1, 2}: 60 integers
    assert validated_maps(monkeypatch, lambda: cyclic_quasi_action(
        [1, 2], 9, extra_support=support)) == 0
    assert validated_maps(monkeypatch, lambda: amenable_extension_qa(
        psi, ext, f, Fraction(1, 20))) == 0
    # The map-by-map build validates one map per supported element.
    assert validated_maps(monkeypatch, lambda: cyclic_by_maps(
        [1, 2], 9, Fraction(1, 100), support)) == 60
