"""Verify on count columns, the loader that keys each element once, and the
group batches behind the regular action and the cyclic table.

``_slot_counts`` counts in int64 when the carrier has fewer than 2**63
points (no count and no partial product over the slots can exceed the
carrier, so none wraps) and in object columns of Python ints otherwise.  The
object-dtype counting it replaced, with a per-row ``math.prod`` over the
slots, is kept here as the oracle: under it ``verify`` must write the same
reports, strict and plain, on dense, fibered and multi-slot actions.

The loader parses the assignment's keys as one joined JSON list and keeps
that parse only when every element's canonical key is its stated key; any
other certificate takes the per-key path, which names the first key that is
not JSON alone as before (a key that is JSON but not canonical is refused by
the acceptance rule, at its path).  ``regular_action`` reads its maps from one batch of products;
``regular_by_loop``, its old loop of checked products, is the oracle.
"""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    IntegerGroup,
    ProductGroup,
    QuasiAction,
    SubgroupHandle,
    TableGroup,
    cyclic_group,
    emit_certificate,
    load_certificate,
    verify,
)
from quasiact import quasiaction
from quasiact.constructions import cyclic_quasi_action, direct_product_qa, regular_action
from quasiact.errors import DomainError, IncompleteSupportError
from quasiact.finmap import FiniteMap, after, count_dtype, differs, identity_map
from quasiact.groups import _row_codes, _unique
from quasiact.util import canonical_json

import test_fibered
from test_product_slots import S3, fibered_factors, outcome, repeating_actions, same_action

from certificate_tables import assignment, encode, rehash, table_maps
from test_quasiaction import epsilons, near_regular_actions, random_actions


def object_agreements(e, x, y) -> list[int]:
    """finmap.agreements as it was: per-slot Python ints, math.prod per row."""
    per_slot = []
    for s, a, b in zip(e.slots, x, y):
        counts = np.count_nonzero(differs(a, b), axis=-1).tolist()
        per_slot.append([s.per_cell * (s.images.size - c) for c in counts])
    return [math.prod(t) for t in zip(*per_slot)]


def object_agreements_measure(slot, rows) -> list[int]:
    """quasiaction._agreements as it was, on object_agreements: the slot's
    table read as maps, m the first."""
    table = table_maps(slot[1], *slot[0].layout)
    m = table[0]
    step = max(1, quasiaction.POINTS // m.packed.size)
    out = []
    for i in range(0, len(rows), step):
        used, at = np.unique(rows[i : i + step], return_inverse=True)
        stacked = np.stack([table[j].packed for j in used.tolist()])
        x, y, *z = (m.rows(stacked[c]) for c in at.reshape(-1, rows.shape[1]).T)
        out += object_agreements(m, after(x, y), z[0]) if z else object_agreements(m, x, y)
    return out


def object_slot_counts(qa, columns, measure) -> np.ndarray:
    """quasiaction._slot_counts as it was: an object column whatever the
    carrier, each slot's distinct rows found by np.unique."""
    tables, index = qa.slot_tables
    rows = index[np.stack(columns)]
    total = np.ones(rows.shape[1], dtype=object)
    for s, (t, layout) in enumerate(zip(tables, qa.layout)):
        _, code = np.unique(_row_codes(rows[..., s], itertools.repeat(len(t))),
                            return_inverse=True)
        first = np.empty(code.max(initial=-1) + 1, np.intp)
        first[code] = np.arange(len(code))
        total *= np.array(measure((identity_map(*layout), t), rows[:, first, s].T),
                          dtype=object)[code]
    return total


def object_verify(qa, f=None, epsilon=None, strict=False):
    """verify counted by the object-dtype oracle, from no memoised count."""
    qa._counts.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quasiaction, "_slot_counts", object_slot_counts)
        mp.setattr(quasiaction, "_agreements", object_agreements_measure)
        report = verify(qa, f, epsilon, strict)
    qa._counts.clear()
    return report


def python_ints(report) -> bool:
    """Every count a report holds is a Python int and every flag a bool or None."""
    counts = [*report.a_counts, *report.c_agreements, report.identity_defect.disagreements]
    flags = []
    if report.strict is not None:
        s = report.strict
        counts += s.pair_counts
        flags = [s.identity_exact, *s.bijective, *s.fixpoint_free, *s.inverse_exact]
    return (all(type(c) is int for c in counts)
            and all(x is None or type(x) is bool for x in flags))


def actions():
    """Dense (random and near-regular), fibered and multi-slot actions."""
    return st.one_of(random_actions(), near_regular_actions(),
                     fibered_factors().map(lambda drawn: drawn[0]), repeating_actions())


class TestInt64CountsAgainstObjectOracle:
    @settings(max_examples=80, deadline=None)
    @given(actions(), epsilons, st.booleans(), st.data())
    def test_reports_equal_the_object_dtype_reports(self, qa, epsilon, strict, data):
        f = data.draw(st.none() | st.sets(st.sampled_from(sorted(qa.assignment, key=repr)),
                                          max_size=4))
        expected = outcome(object_verify, qa, f, epsilon, strict)
        got = outcome(verify, qa, f, epsilon, strict)
        assert got == expected  # a report with its in-memory keys, or the same refusal
        assert isinstance(got, str) or python_ints(got[2])

    def test_the_dtype_comes_from_the_carrier_alone(self):
        assert count_dtype(2**63 - 1) is np.int64 and count_dtype(2**63) is object
        small = cyclic_quasi_action([1, -1], 7, Fraction(1, 10))
        ids = small._ids(small.elements)
        counts = quasiaction._slot_counts(small, [ids, ids], quasiaction._agreements)
        assert counts.dtype == np.int64 and counts.tolist() == [7] * len(ids)
        big = test_fibered.TestCountsPastInt64().shift_action(21)
        ids = big._ids(big.elements)
        counts = quasiaction._slot_counts(big, [ids, ids], quasiaction._agreements)
        assert counts.dtype == object and counts.tolist() == [big.carrier_n] * len(ids)

    @pytest.mark.parametrize("degree", [20, 21])
    def test_past_int64_the_oracle_agrees(self, degree):
        qa = test_fibered.TestCountsPastInt64().shift_action(degree)
        for strict in (False, True):
            report = verify(qa, strict=strict)
            assert report == object_verify(qa, strict=strict) and python_ints(report)


class TestUniqueAgainstNumpy:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-50, 50), max_size=40), st.integers(0, 3), st.data())
    def test_marked_and_sorted_paths_give_np_unique(self, values, spread, data):
        # spread scales the values so that both paths run: a range below four
        # times the count is marked, a wider one sorted.
        arr = np.array(values, np.int64) * 10**spread * 7
        if spread == 3 and arr.size:
            arr[data.draw(st.integers(0, arr.size - 1))] = 2**62 - 1
        distinct, at, first = _unique(arr)
        expected, inverse = np.unique(arr, return_inverse=True)
        assert distinct == expected.tolist() and all(type(v) is int for v in distinct)
        assert np.array_equal(at, inverse.ravel())
        assert np.array_equal(arr[first], expected)


def product_certificate() -> dict:
    """The product of two integer shift actions (Z x Z), as a document."""
    factors = [cyclic_quasi_action([1, -1], m, Fraction(1, 10)) for m in (7, 5)]
    qa = direct_product_qa([(f, f.claimed_f) for f in factors], Fraction(1, 10))
    return json.loads(emit_certificate(qa, verify(qa)))


def respelled(doc: dict, old: list, new: list) -> str:
    """doc with the run of assignment keys old replaced, in place, by the
    keys new (each taking a map of the run)."""
    items = list(assignment(doc).items())
    at = [k for k, _ in items].index(old[0])
    assert [k for k, _ in items[at : at + len(old)]] == old
    values = [v for _, v in items[at : at + len(old)]]
    values += values[-1:] * (len(new) - len(values))
    items[at : at + len(old)] = zip(new, values)
    doc["assignment"]["keys"] = [k for k, _ in items]  # in place, perhaps out of key order
    doc["assignment"]["index"] = encode([v for _, v in items], 5)
    rehash(doc["assignment"], "index")
    return json.dumps(doc)


NOT_JSON = "field 'assignment': element key {!r} is not JSON: JSONDecodeError: "


class TestLoaderKeysEachElementOnce:
    @pytest.mark.parametrize("old,new,message", [
        # "[0" and "0]" join into one element: one fewer than the keys.
        (["[0,0]"], ["[0", "0]"],
         NOT_JSON.format("[0") + "Expecting ',' delimiter: line 1 column 3 (char 2)"),
        # The joined parse gives as many elements as keys, with the
        # boundaries shifted: [0,0] and [0,1] from "[0" and "0],[0,1]".
        (["[0,0]", "[0,1]"], ["[0", "0],[0,1]"],
         NOT_JSON.format("[0") + "Expecting ',' delimiter: line 1 column 3 (char 2)"),
        # A key with a top-level comma holds two elements.
        (["[0,0]", "[0,1]"], ["[0,0],[0,1]"],
         NOT_JSON.format("[0,0],[0,1]") + "Extra data: line 1 column 6 (char 5)"),
        (["[0,0]"], ["1,2"], NOT_JSON.format("1,2") + "Extra data: line 1 column 2 (char 1)"),
        # Both at once, again as many elements as keys.
        (["[0,0]", "[0,1]", "[0,2]"], ["[0", "0]", "[0,1],[0,2]"],
         NOT_JSON.format("[0") + "Expecting ',' delimiter: line 1 column 3 (char 2)"),
    ], ids=["split", "split_and_merge", "comma", "integer_comma", "comma_and_split"])
    def test_a_shifted_boundary_is_refused_as_before(self, old, new, message):
        text = respelled(product_certificate(), old, new)
        with pytest.raises(DomainError) as exc:
            load_certificate(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("where", ["F"])
    def test_a_key_missing_from_the_assignment_is_named(self, where):
        doc = product_certificate()
        keys = doc[where]
        keys.append("[9,9]")
        keys.sort()  # F stays in key order
        with pytest.raises(IncompleteSupportError) as exc:
            load_certificate(json.dumps(doc))
        assert str(exc.value) == "no map assigned for element [9,9] (needed for (F, epsilon))"

    def test_a_canonical_certificate_parses_its_keys_once(self, monkeypatch):
        text = canonical_json(product_certificate()) + "\n"  # as emit_certificate writes it
        parsed, keyed = [], []
        parse, keys_many = quasiaction.parse_json, ProductGroup._keys_many
        monkeypatch.setattr(quasiaction, "parse_json", lambda t, what: parsed.append(what)
                            or parse(t, what))
        monkeypatch.setattr(ProductGroup, "_keys_many", lambda self, xs: keyed.append(len(xs))
                            or keys_many(self, xs))
        qa, report = load_certificate(text)
        assert parsed == ["certificate", "keys"]  # F's keys are looked up in the assignment's
        assert keyed.count(len(qa.elements)) == 1  # _set reuses the checked keys
        assert emit_certificate(qa, report) == emit_certificate(*load_certificate(text))


def regular_by_loop(group, f=None, epsilon=Fraction(1, 100)) -> QuasiAction:
    """regular_action as it was: each image a checked product and a lookup."""
    elements = list(group.elements())
    index = {x: i for i, x in enumerate(elements)}
    assignment = {g: FiniteMap([index[group.mul(x, g)] for x in elements]) for g in elements}
    return QuasiAction(group, len(elements), assignment, elements if f is None else f, epsilon)


Z_TIMES_C2 = ProductGroup([IntegerGroup(), cyclic_group(2)])


class TestRegularActionFromOneBatch:
    @pytest.mark.parametrize("group", [
        cyclic_group(1), cyclic_group(7), cyclic_group(60), TableGroup(S3),
        ProductGroup([cyclic_group(2), TableGroup(S3)]),
    ], ids=["c1", "c7", "c60", "s3", "c2xs3"])
    def test_maps_and_certificate_equal_the_loop(self, group):
        qa, oracle = regular_action(group), regular_by_loop(group)
        same_action(qa, oracle)
        assert verify(qa, strict=True) == verify(oracle, strict=True)

    @pytest.mark.parametrize("group", [
        SubgroupHandle(Z_TIMES_C2, members=[(0, 0), (0, 1)]),
        SubgroupHandle(cyclic_group(6), members=[0, 2, 4]),
    ], ids=["normal_c2", "c6_evens"])
    def test_subgroup_handles_equal_the_loop(self, group):
        qa, oracle = regular_action(group), regular_by_loop(group)
        assert qa.elements == oracle.elements and qa.assignment == oracle.assignment
        assert verify(qa, strict=True) == verify(oracle, strict=True)

    def test_a_set_not_closed_under_products_is_refused(self):
        with pytest.raises(DomainError, match="image out of range"):
            regular_action(SubgroupHandle(cyclic_group(6), members=[0, 1]))


class TestCyclicTableMemory:
    def test_peak_stays_under_one_and_a_half_tables(self):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            g = cyclic_group(2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g._table.nbytes == 2000 * 2000 * 8
        assert peak < 1.5 * g._table.nbytes

    def test_light_check_over_several_row_blocks(self):
        n = 600  # 436 rows per block: two blocks of rows, and of the reached set
        table = np.add.outer(np.arange(n), np.arange(n)) % n
        assert TableGroup(table.tolist()).order == n
        table[n - 1, [2, 3]] = table[n - 1, [3, 2]]  # rows stay permutations
        g = TableGroup.__new__(TableGroup)
        g._table, g._order = table, n
        with pytest.raises(DomainError, match="not associative"):
            g._check_associativity()  # (598 * 1) * 2 = 2, 598 * (1 * 2) = 1
