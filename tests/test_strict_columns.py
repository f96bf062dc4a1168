"""Strict verify on stacked slot tables, the stored report compared in
canonical form, and the assignment read as one index array.

``verify --strict`` measures fixpoints, bijectivity and exact inverses per
slot on stacked table entries, in chunks of ``POINTS``, as it measures
condition (a).  The strict count it replaced, one ``fixpoint_count``,
``FiniteMap.is_bijection`` and ``y == inverse_map(x)`` call per distinct
slot map (``each_count_strict``), is kept here as the oracle, on dense,
fibered and multi-slot actions.

The loader's acceptance rule compares the stored report's summaries (each
count array's deciding value and its position, each flag array's first
failure) and the rest with the report it writes, by JSON path; the compare
by type and value at every level that the format 9 loader made is the
oracle.  It reads the assignment as one index payload and names the first
index past its table's size.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteSubset,
    IntegerGroup,
    QuasiAction,
    cyclic_group,
    emit_certificate,
    load_certificate,
    verify,
)
from quasiact import quasiaction
from quasiact.constructions import cyclic_quasi_action, direct_product_qa
from quasiact.errors import (DomainError, IncompleteSupportError, InvariantViolationError,
                             QuasiactError)
from quasiact.finmap import Fiber, FiniteMap, fixpoint_count, identity_like, inverse_map
from quasiact.groups import GroupHandle
from quasiact.quasiaction import StrictChecks, _slot_counts, report_to_json
from quasiact.util import canonical_json

import test_fibered
from dense_carrier import cayley_closure
from test_count_columns import actions, python_ints
from test_product_slots import SMALL_FIBERS, outcome, slot_product_qa

from certificate_tables import assignment, set_assignment, table_maps
from test_quasiaction import epsilons, random_actions


def each(fact):
    """The measure verify used: fact(x, ...) of each row's slot maps, one
    call per row, on the slot's (layout map, table)."""
    def measure(slot, rows):
        m, table = slot
        maps = table_maps(table, *m.layout)
        return [fact(*map(maps.__getitem__, r)) for r in rows.tolist()]
    return measure


def each_count_strict(qa, fset, eps) -> StrictChecks:
    """_count_strict as it was: fixpoints, bijectivity and exact inverses by
    one fixpoint_count, is_bijection and inverse_map call per distinct slot
    map, and inverses by the base loop of _inv."""
    g, n = qa.owner, qa.carrier_n
    inverse = GroupHandle._inverse_ids(g, qa.elements)
    f_ids, one = qa._ids(fset), qa.ids[g.identity]
    missing = f_ids[inverse[f_ids] < 0]
    if missing.size:
        raise IncompleteSupportError(g.element_key(g._inv(qa.elements[missing[0]])),
                                     "strict mode needs F^-1 in the support")
    others = np.delete(np.arange(len(qa.elements)), one)
    fixed = _slot_counts(qa, [np.append(one, others)], each(fixpoint_count))
    bijective = _slot_counts(qa, [others], each(FiniteMap.is_bijection))
    paired = inverse[others] >= 0
    inverse_exact = iter(_slot_counts(
        qa, [others[paired], inverse[others[paired]]],
        each(lambda x, y: x.is_bijection() and y == inverse_map(x))).astype(bool).tolist())
    o = np.array(sorted({*f_ids.tolist(), one}), np.intp)
    left, right = np.triu_indices(len(o), 1)
    return StrictChecks(
        n, eps, bool(fixed[0] == n), tuple(bijective.astype(bool).tolist()),
        tuple((fixed[1:] == 0).tolist()),
        tuple(next(inverse_exact) if p else None for p in paired.tolist()),
        tuple((n - _slot_counts(qa, [o[left], o[right]], quasiaction._agreements)).tolist()),
        tuple(qa.keys[qa.elements[i]] for i in o.tolist()),
    )


def each_verify(qa, f=None, epsilon=None, strict=False):
    """verify with the per-map measures, from no memoised count."""
    qa._counts.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quasiaction, "_fixpoints", each(fixpoint_count))
        mp.setattr(quasiaction, "_count_strict", each_count_strict)
        report = verify(qa, f, epsilon, strict)
    qa._counts.clear()
    return report


def fresh_verify(qa, f=None, epsilon=None, strict=False):
    qa._counts.clear()
    return verify(qa, f, epsilon, strict)


@st.composite
def random_fibered_actions(draw):
    """C_order on cells x V with arbitrary maps: cell images a permutation
    or any list, labels any elements of V, and some maps replaced by the
    exact inverse of their inverse element's map."""
    gens = draw(st.sampled_from(SMALL_FIBERS))
    elements = cayley_closure(gens, 100)[0]
    fiber = Fiber(gens)
    cells, order = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cell_maps = st.permutations(range(cells)) | st.lists(
        st.integers(0, cells - 1), min_size=cells, max_size=cells)
    labels = st.lists(st.sampled_from(elements), min_size=cells, max_size=cells)
    assign = {k: FiniteMap(np.array(draw(cell_maps)), np.array(draw(labels)), fiber)
              for k in range(order)}
    for k in range(1, order):
        if assign[k].is_bijection() and draw(st.booleans()):
            assign[-k % order] = inverse_map(assign[k])
    g = cyclic_group(order)
    return QuasiAction(g, cells * fiber.order, assign, FiniteSubset(g, range(order)),
                       Fraction(1, 10))


def strict_actions():
    """Dense, fibered and multi-slot actions, exact and arbitrary, and
    products of arbitrary factors."""
    arbitrary = random_actions() | random_fibered_actions()
    return actions() | random_fibered_actions() | st.lists(
        arbitrary, min_size=2, max_size=2).map(slot_product_qa)


class TestStrictMeasuresAgainstPerMapOracle:
    @settings(max_examples=120, deadline=None)
    @given(strict_actions(), epsilons, st.booleans(), st.data())
    def test_reports_equal_the_per_map_reports(self, qa, epsilon, strict, data):
        f = data.draw(st.none() | st.sets(st.sampled_from(sorted(qa.assignment, key=repr)),
                                          max_size=4))
        expected = outcome(each_verify, qa, f, epsilon, strict)
        got = outcome(fresh_verify, qa, f, epsilon, strict)
        assert got == expected  # a report with its in-memory keys, or the same refusal
        assert isinstance(got, str) or python_ints(got[2])

    @pytest.mark.parametrize("points", [1, 40, 100])
    @settings(max_examples=30, deadline=None)
    @given(qa=strict_actions())
    def test_rows_over_several_chunks(self, qa, points):
        # POINTS at or below a few table widths: chunks of one or a few rows.
        expected = outcome(each_verify, qa, None, None, True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quasiaction, "POINTS", points)
            assert outcome(fresh_verify, qa, None, None, True) == expected

    @pytest.mark.parametrize("degree", [20, 21])
    def test_past_int64_the_oracle_agrees(self, degree):
        qa = test_fibered.TestCountsPastInt64().shift_action(degree)
        report = fresh_verify(qa, strict=True)
        assert report == each_verify(qa, strict=True) and python_ints(report)


# C4 on 3 cells x S3; 1 and 3 are each other's inverses, 2 its own.
S3_FIBER = Fiber(((1, 0, 2), (0, 2, 1)))
CYCLE = FiniteMap(np.array([1, 2, 0]), np.array([(1, 0, 2), (0, 2, 1), (2, 0, 1)]), S3_FIBER)
IDENTITY = identity_like(CYCLE)


def c4_action(one, three, two=IDENTITY) -> QuasiAction:
    g = cyclic_group(4)
    maps = {0: IDENTITY, 1: one, 2: two, 3: three}
    return QuasiAction(g, 18, maps, FiniteSubset(g, [0, 1, 3]), Fraction(1, 10))


def with_cells(m: FiniteMap, images, labels=None) -> FiniteMap:
    s = m.slots[0]
    return FiniteMap(np.array(images), s.labels if labels is None else np.array(labels), s.fiber)


class TestStrictCases:
    """Each case against the oracle and against the flags it must give,
    in key order: 1, 2, 3 (the identity 0 has none)."""

    def check(self, qa, bijective, inverse_exact, points=quasiaction.POINTS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quasiaction, "POINTS", points)
            s = fresh_verify(qa, strict=True).strict
        assert s == each_verify(qa, strict=True).strict
        assert (s.bijective, s.inverse_exact) == (bijective, inverse_exact)

    def test_exact_inverses(self):
        qa = c4_action(CYCLE, inverse_map(CYCLE))
        self.check(qa, (True, True, True), (True, True, True))

    def test_a_non_bijective_map(self):
        squashed = with_cells(CYCLE, [1, 1, 0])
        self.check(c4_action(squashed, inverse_map(CYCLE)), (False, True, True),
                   (False, True, False))

    def test_cells_inverse_and_one_label_wrong(self):
        inv = inverse_map(CYCLE)
        labels = inv.slots[0].labels.copy()
        labels[2] = labels[2][[1, 0, 2]]
        wrong = with_cells(inv, inv.slots[0].images, labels)
        self.check(c4_action(CYCLE, wrong), (True, True, True), (False, True, False))

    def test_labels_inverse_and_two_cells_swapped(self):
        inv = inverse_map(CYCLE)
        swapped = with_cells(inv, inv.slots[0].images[[1, 0, 2]])
        self.check(c4_action(CYCLE, swapped), (True, True, True), (False, True, False))

    def test_an_unsupported_inverse(self):
        # 3 is supported, but its inverse -3 is not; F = {0, 1, -1}.
        z, inv = IntegerGroup(), inverse_map(CYCLE)
        maps = {0: IDENTITY, 1: CYCLE, -1: inv, 2: CYCLE, -2: inv, 3: CYCLE}
        qa = QuasiAction(z, 18, maps, FiniteSubset(z, [0, 1, -1]), Fraction(1, 10))
        # In key order: -1, -2, 1, 2, 3.
        self.check(qa, (True,) * 5, (True, True, True, True, None))

    @pytest.mark.parametrize("points", [1, 24, 40])
    def test_a_table_over_several_chunks(self, points):
        # Width 12 (3 cells, 3 labels each): one, two or three rows a chunk.
        inv = inverse_map(CYCLE)
        qa = c4_action(CYCLE, with_cells(inv, inv.slots[0].images[[1, 0, 2]]), CYCLE)
        self.check(qa, (True, True, True), (False, False, False), points)


def strict_certificate() -> str:
    """The product of two integer shift actions (Z x Z), strict."""
    factors = [cyclic_quasi_action([1, -1], m, Fraction(1, 10)) for m in (7, 5)]
    qa = direct_product_qa([(f, f.claimed_f) for f in factors], Fraction(1, 10))
    return emit_certificate(qa, verify(qa, strict=True))


def old_same_report(stored, fresh) -> bool:
    """The compare the format 9 loader made: the same keys, values and types
    at every level, so 0 is not false."""
    if type(fresh) is dict:
        return (type(stored) is dict and stored.keys() == fresh.keys()
                and all(old_same_report(stored[k], v) for k, v in fresh.items()))
    return type(stored) is type(fresh) and stored == fresh


def refusal(text: str):
    """load_certificate's error as (type, message), or None if it loads."""
    try:
        load_certificate(text)
    except QuasiactError as exc:
        return type(exc), str(exc)
    return None


def refused_at(text: str, path: str) -> bool:
    """load_certificate refuses text by the acceptance rule, at path or below it."""
    error = refusal(text)
    return error is not None and error[0] is InvariantViolationError and (
        error[1].startswith(f"certificate field {path!r}")
        or error[1].startswith(f"certificate field '{path}."))


def edit_report(doc: dict, edit: str) -> None:
    report, strict = doc["report"], doc["report"]["strict"]
    if edit == "false_for_0":
        assert report["condition_a"]["max"] == 0
        report["condition_a"]["max"] = False
    elif edit == "1_for_true":
        assert strict["identity_exact"] is True
        strict["identity_exact"] = 1
    elif edit == "float_count":
        strict["pairwise"]["min"] = float(strict["pairwise"]["min"])
    elif edit == "off_by_one":
        report["condition_c"]["max"] += 1
    elif edit == "extra_key":
        report["note"] = 0
    elif edit == "extra_strict_key":
        strict["note"] = []
    elif edit == "missing_key":
        del report["max_defect"]
    elif edit == "missing_strict_key":
        del strict["pairwise"]
    elif edit == "list_for_summary":
        report["condition_c"] = list(report["condition_c"].values())
    elif edit == "strict_dict_for_flag":
        strict["inverse_exact"] = {"0": strict["inverse_exact"]}
    elif edit == "string_for_count":
        report["condition_a"]["max"] = "0"
    elif edit == "list_for_flag":
        strict["passed"] = [True]
    elif edit == "false_for_position":
        assert report["condition_a"]["at"] == 0
        report["condition_a"]["at"] = False
    elif edit == "float_position":
        strict["pairwise"]["at"] = 0.0
    elif edit == "moved_position":
        report["condition_c"]["at"] += 1
    elif edit == "missing_summary_key":
        del report["condition_a"]["at"]
    elif edit == "extra_summary_key":
        report["condition_c"]["min"] = 0
    elif edit == "false_for_null":
        assert strict["fixpoint_free"] is None
        strict["fixpoint_free"] = False
    elif edit == "f_restated":  # format 9's copy of F in the report
        report["f"] = doc["F"]
    elif edit == "keys_reversed":  # the same report, its members in another order
        doc["report"] = dict(reversed(report.items()), strict=dict(reversed(strict.items())))


EDITS = ["false_for_0", "1_for_true", "float_count", "off_by_one", "extra_key",
         "extra_strict_key", "missing_key", "missing_strict_key", "list_for_summary",
         "strict_dict_for_flag", "string_for_count", "list_for_flag", "false_for_position",
         "float_position", "moved_position", "missing_summary_key", "extra_summary_key",
         "false_for_null", "f_restated"]


class TestReportCompare:
    def test_the_certificate_loads_and_reemits_byte_for_byte(self):
        text = strict_certificate()
        assert emit_certificate(*load_certificate(text)) == text

    @pytest.mark.parametrize("edit", [None, "keys_reversed", *EDITS])
    def test_an_edited_report_is_refused_as_before(self, edit):
        # The canonical JSON of the stored report equals the fresh one's
        # exactly when the format 9 compare holds.  The loader refuses every
        # edit, and the same report with its members in another order, by
        # the acceptance rule at a path in the report.
        original = strict_certificate()
        fresh = report_to_json(load_certificate(original)[1])
        doc = json.loads(original)
        if edit is not None:
            edit_report(doc, edit)
        text = json.dumps(doc, separators=(",", ":")) + "\n"  # in the document's own key order
        stored = json.loads(text)["report"]
        kept = edit in (None, "keys_reversed")
        assert (canonical_json(stored) == canonical_json(fresh)) is old_same_report(stored, fresh)
        assert old_same_report(stored, fresh) is kept
        assert refusal(text) is None if edit is None else refused_at(text, "report")

    def test_counts_past_int64_compare_exactly(self):
        qa = test_fibered.TestCountsPastInt64().shift_action(21)
        text = emit_certificate(qa, verify(qa, strict=True))
        assert emit_certificate(*load_certificate(text)) == text
        doc = json.loads(text)
        doc["report"]["condition_a"]["max"] -= 1  # n - 1: exact only as a Python int
        assert refusal(json.dumps(doc)) == (
            InvariantViolationError, f"certificate field 'report.condition_a.max' states "
                                     f"{qa.carrier_n - 1}, where format 13 writes {qa.carrier_n}")


def product_document() -> dict:
    return json.loads(strict_certificate())


class TestIndexArray:
    """The (elements, slots) index payload, 25 rows of two uint8 indices into
    tables of 5 rows: each index is range-checked against its slot's table,
    and the first bad one, in row-major order, is named."""

    @pytest.mark.parametrize("key,slot,value", [
        ("[-1,-1]", 0, 5), ("[-1,-1]", 1, 5), ("[1,1]", 0, 5), ("[1,1]", 1, 5),
        ("[1,1]", 1, 6), ("[1,1]", 0, 255), ("[2,2]", 1, 5), ("[2,2]", 0, 9),
    ], ids=["first_row_slot_0", "first_row_slot_1", "slot_0", "table_size", "past_table_size",
            "uint8_max", "last_row", "last_row_slot_0"])
    def test_a_bad_value_is_named(self, key, slot, value):
        doc = product_document()
        values = assignment(doc)
        values[key][slot] = value
        set_assignment(doc, values)
        row = sorted(values).index(key)
        assert refusal(json.dumps(doc)) == (
            DomainError, f"field 'assignment': assignment index: {value} at [{row}, {slot}] "
                         "is not below 5")

    def test_the_first_bad_value_is_named(self):
        doc = product_document()
        values = assignment(doc)
        values["[0,0]"] = [0, 9]
        values["[1,1]"] = [7, 0]
        set_assignment(doc, values)
        assert refusal(json.dumps(doc)) == (
            DomainError, f"field 'assignment': assignment index: 9 at "
                         f"[{sorted(values).index('[0,0]')}, 1] is not below 5")

    def test_a_canonical_certificate_loads_its_index_payload(self):
        text = strict_certificate()
        qa, report = load_certificate(text)
        assert emit_certificate(qa, report) == text
        assert qa.slot_tables[1].dtype == np.intp
        assert qa.slot_tables[1].tolist() == list(assignment(json.loads(text)).values())

    def test_an_element_stated_twice_is_refused_by_its_key(self):
        # "[0, 0]" is the identity "[0,0]" respelled, as an extra key with another row.
        doc = product_document()
        values = assignment(doc)
        values["[0, 0]"] = values["[1,1]"]
        set_assignment(doc, values)
        i = doc["assignment"]["extra_keys"].index("[0, 0]")
        assert refusal(json.dumps(doc)) == (
            DomainError, f"field 'assignment': extra_keys[{i}] '[0, 0]' names the identity, '[0,0]'")
