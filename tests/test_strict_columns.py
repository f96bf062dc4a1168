"""Strict verify on stacked slot tables, the stored report compared as
count lists, and the assignment read as one index array.

``verify --strict`` measures fixpoints, bijectivity and exact inverses per
slot on stacked table entries, in chunks of ``POINTS``, as it measures
condition (a).  The strict count it replaced, one ``fixpoint_count``,
``FiniteMap.is_bijection`` and ``y == inverse_map(x)`` call per distinct
slot map (``each_count_strict``), is kept here as the oracle, on dense,
fibered and multi-slot actions.

The loader compares the stored report's count, flag and key lists entry by
entry with a type check, and the rest as canonical JSON; the canonical
JSON of the whole report, which it compared before, is the oracle.  It
reads the assignment as one index array when every value is a list of
in-range Python ints; anything else goes value by value through
``_indices_from_json``, which names the first bad value as before.
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
from quasiact.quasiaction import StrictChecks, _slot_counts
from quasiact.util import canonical_json

import test_fibered
from dense_carrier import cayley_closure
from test_count_columns import actions, python_ints
from test_product_slots import SMALL_FIBERS, outcome, slot_product_qa
from test_quasiaction import epsilons, random_actions


def each(fact):
    """The measure verify used: fact(x, ...) of each row's slot maps, one
    call per row."""
    return lambda table, rows: [fact(*map(table.__getitem__, r)) for r in rows.tolist()]


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
    fiber = Fiber(gens, len(elements))
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
S3_FIBER = Fiber(((1, 0, 2), (0, 2, 1)), 6)
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
    """The compare the loader made before: the whole report as canonical JSON."""
    return canonical_json(stored) == canonical_json(fresh)


def refusal(text: str, same_report=None):
    """load_certificate's error as (type, message), or None if it loads."""
    with pytest.MonkeyPatch.context() as mp:
        if same_report is not None:
            mp.setattr(quasiaction, "_same_report", same_report)
        try:
            load_certificate(text)
        except QuasiactError as exc:
            return type(exc), str(exc)
    return None


DIFFERS = (InvariantViolationError,
           "the stored report differs from the one verify measures on the stored maps")


def edit_report(doc: dict, edit: str) -> None:
    report, strict = doc["report"], doc["report"]["strict"]
    if edit == "false_for_0":
        assert report["condition_a"][0] == 0
        report["condition_a"][0] = False
    elif edit == "1_for_true":
        assert strict["bijective"][3] is True
        strict["bijective"][3] = 1
    elif edit == "float_count":
        strict["pairwise"][2] = float(strict["pairwise"][2])
    elif edit == "off_by_one":
        report["condition_c"][1] += 1
    elif edit == "extra_key":
        report["note"] = 0
    elif edit == "extra_strict_key":
        strict["note"] = []
    elif edit == "missing_key":
        del report["max_defect"]
    elif edit == "missing_strict_key":
        del strict["pairwise"]
    elif edit == "dict_for_list":
        report["condition_c"] = dict(enumerate(report["condition_c"]))
    elif edit == "strict_dict_for_list":
        strict["inverse_exact"] = {"0": strict["inverse_exact"]}
    elif edit == "string_for_count":
        report["condition_a"][5] = "0"
    elif edit == "list_for_flag":
        strict["passed"] = [True]


EDITS = ["false_for_0", "1_for_true", "float_count", "off_by_one", "extra_key",
         "extra_strict_key", "missing_key", "missing_strict_key", "dict_for_list",
         "strict_dict_for_list", "string_for_count", "list_for_flag"]


class TestReportCompare:
    def test_the_certificate_loads_and_reemits_byte_for_byte(self):
        text = strict_certificate()
        assert emit_certificate(*load_certificate(text)) == text

    @pytest.mark.parametrize("edit", EDITS)
    def test_an_edited_report_is_refused_as_before(self, edit):
        doc = json.loads(strict_certificate())
        edit_report(doc, edit)
        text = json.dumps(doc)
        assert refusal(text) == refusal(text, old_same_report) == DIFFERS

    def test_counts_past_int64_compare_exactly(self):
        qa = test_fibered.TestCountsPastInt64().shift_action(21)
        text = emit_certificate(qa, verify(qa, strict=True))
        assert emit_certificate(*load_certificate(text)) == text
        doc = json.loads(text)
        doc["report"]["condition_a"][-1] -= 1  # n - 1: exact only as a Python int
        assert refusal(json.dumps(doc)) == DIFFERS


def product_document() -> dict:
    return json.loads(strict_certificate())


def per_entry_refusal(doc: dict):
    """The first bad assignment value as the per-entry reader names it."""
    tables = [s["maps"] for s in doc["slots"]]
    try:
        for value in doc["assignment"].values():
            quasiaction._indices_from_json(value, tables)
    except DomainError as exc:
        return DomainError, f"field 'assignment': {exc}"
    return None


class TestIndexArray:
    @pytest.mark.parametrize("value,message", [
        ([0, True], "expected an integer, got True"),
        ([1.0, 0], "expected an integer, got 1.0"),
        ([0, 2**64], "map indices [0, 18446744073709551616] are not all below their "
                     "tables' sizes [5, 5]"),
        ([-1, 0], "map indices [-1, 0] are not all below their tables' sizes [5, 5]"),
        ([0, 5], "map indices [0, 5] are not all below their tables' sizes [5, 5]"),
        ([0, 1, 2], "expected an array of 2 entries, got [0, 1, 2]"),
        ({"0": 0}, "expected an array of 2 entries, got {'0': 0}"),
        (3, "expected an array of 2 entries, got 3"),
    ], ids=["true", "float", "past_int64", "negative", "table_size", "row_length",
            "object", "int"])
    def test_a_bad_value_is_named_as_before(self, value, message):
        doc = product_document()
        doc["assignment"]["[1,1]"] = value
        expected = (DomainError, f"field 'assignment': {message}")
        assert per_entry_refusal(doc) == expected
        assert refusal(json.dumps(doc)) == expected

    def test_the_first_bad_value_is_named(self):
        doc = product_document()
        doc["assignment"]["[0,0]"] = [0, 9]
        doc["assignment"]["[1,1]"] = [True, 0]
        assert refusal(json.dumps(doc)) == per_entry_refusal(doc) == (
            DomainError, "field 'assignment': map indices [0, 9] are not all below their "
                         "tables' sizes [5, 5]")

    def test_a_canonical_certificate_reads_no_value_alone(self, monkeypatch):
        text = strict_certificate()
        calls = []
        monkeypatch.setattr(quasiaction, "_indices_from_json",
                            lambda *args: calls.append(args) or [0, 0])
        qa, report = load_certificate(text)
        assert calls == [] and emit_certificate(qa, report) == text
        assert qa.slot_tables[1].dtype == np.intp

    def test_an_element_stated_twice_is_refused_by_its_key(self):
        # "[0, 0]" is "[0,0]" respelled, with another row.
        doc = product_document()
        doc["assignment"]["[0, 0]"] = doc["assignment"]["[1,1]"]
        assert refusal(json.dumps(doc)) == (
            InvariantViolationError,
            "element key '[0, 0]' is not its element's canonical key '[0,0]'")
