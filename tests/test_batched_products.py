"""Batched group products against the scalar ``_mul`` loop.

``GroupHandle._mul_many`` multiplies parallel element lists in one call, and
``ProductGroup`` does so coordinatewise, each distinct pair of coordinates
once.  ``QuasiAction._products`` builds the F x F table from it as element
ids.  The scalar loop ``[g._mul(e, f) for e in F for f in F]`` stays the
oracle for both, and for the element a missing product is reported by.
"""

import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteSubset,
    FreeProductGroup,
    IntegerFinitaryGroup,
    IntegerGroup,
    ProductGroup,
    QuasiAction,
    SubgroupHandle,
    TableGroup,
    cyclic_group,
    emit_certificate,
    load_certificate,
    pair_products,
    verify,
)
from quasiact import quasiaction
from quasiact.constructions import regular_action
from quasiact.errors import DomainError, IncompleteSupportError, InvariantViolationError
from quasiact.util import canonical_json

from test_product_slots import S3, outcome, repeating_actions

FREE = FreeProductGroup(cyclic_group(2), cyclic_group(3))
FINITARY = IntegerFinitaryGroup()


def free_words():
    pairs = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=1, max_size=3)
    return pairs.map(FREE.word)


@st.composite
def finitary_elements(draw):
    moved = draw(st.permutations(range(-2, 3)))
    return FINITARY.make(draw(st.integers(-3, 3)), dict(zip(range(-2, 3), moved)))


# (handle, a strategy for its elements), one row per kind of handle.
HANDLES = [
    (IntegerGroup(), st.integers(-50, 50)),
    (TableGroup(S3), st.integers(0, 5)),
    (cyclic_group(7), st.integers(0, 6)),
    (ProductGroup([IntegerGroup(), ProductGroup([cyclic_group(3), TableGroup(S3)])]),
     st.tuples(st.integers(-4, 4), st.tuples(st.integers(0, 2), st.integers(0, 5)))),
    (SubgroupHandle(cyclic_group(4), members=[0, 2]), st.sampled_from([0, 2])),
    (SubgroupHandle(IntegerGroup(), contains_fn=lambda k: k % 3 == 0),
     st.integers(-10, 10).map(lambda k: 3 * k)),
    (FREE, free_words()),
    (FINITARY, finitary_elements()),
    (ProductGroup([FREE, FINITARY]), st.tuples(free_words(), finitary_elements())),
]
HANDLE_IDS = ["integers", "s3", "c7", "nested_product", "members_subgroup",
              "predicate_subgroup", "free_product", "finitary", "free_x_finitary"]


class TestMulManyAgainstTheScalarLoop:
    @pytest.mark.parametrize("g,elements", HANDLES, ids=HANDLE_IDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_equals_the_loop(self, g, elements, data):
        # A small pool makes repeated operands and coordinate pairs likely.
        pool = data.draw(st.lists(elements, min_size=1, max_size=4))
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                                   max_size=30))
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        assert g._mul_many(xs, ys) == [g._mul(x, y) for x, y in zip(xs, ys)]

    @pytest.mark.parametrize("g,elements", HANDLES, ids=HANDLE_IDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pair_products_equal_the_checked_loop(self, g, elements, data):
        f1, f2 = (FiniteSubset(g, data.draw(st.lists(elements, max_size=5))) for _ in range(2))
        assert pair_products(f1, f2) == FiniteSubset(g, (g.mul(e, f) for e in f1 for f in f2))


def products_by_loop(g, support, fset):
    """The F x F products by the scalar loop, or the key of the first element
    missing from the support: the identity, then F, then the products in
    row-major order."""
    products = [g._mul(e, f) for e in fset for f in fset]
    for elem in itertools.chain([g.identity], fset, products):
        if elem not in support:
            return g.element_key(elem)
    return products


def products_by_ids(qa, fset):
    try:
        return [qa.elements[i] for i in qa._products(fset)]
    except IncompleteSupportError as exc:
        return exc.element_key


class TestIdTableAgainstTheScalarLoop:
    @settings(max_examples=80, deadline=None)
    @given(repeating_actions(), st.data())
    def test_table_on_any_f_equals_the_loop(self, qa, data):
        g = qa.owner
        supported = sorted(qa.assignment)
        outside = [g._mul(e, f) for e in supported for f in supported]  # some are unsupported
        f = data.draw(st.lists(st.sampled_from(supported + outside), max_size=5))
        fset = FiniteSubset(g, f)
        assert products_by_ids(qa, fset) == products_by_loop(g, qa.assignment, fset)

    @settings(max_examples=80, deadline=None)
    @given(repeating_actions(), st.data())
    def test_construction_names_the_first_missing_element(self, qa, data):
        kept = data.draw(st.sets(st.sampled_from(sorted(qa.assignment)), min_size=1))
        f = data.draw(st.lists(st.sampled_from(sorted(qa.assignment)), max_size=4))
        assignment = {e: m for e, m in qa.assignment.items() if e in kept}
        fset = FiniteSubset(qa.owner, f)
        try:
            built = QuasiAction(qa.owner, qa.carrier_n, assignment, fset, Fraction(1, 4))
        except IncompleteSupportError as exc:
            first_missing = exc.element_key
        else:
            first_missing = products_by_ids(built, fset)
        assert first_missing == products_by_loop(qa.owner, assignment, fset)


class TestSlotCodes:
    @settings(max_examples=40, deadline=None)
    @given(repeating_actions(), st.booleans())
    def test_dense_renumbering_before_every_column_changes_no_count(self, qa, strict):
        # CODES = 1 renumbers a slot's codes before each column is added, as
        # tables too large for one int64 code per row would.
        fresh = QuasiAction(qa.owner, qa.carrier_n, qa.assignment, qa.claimed_f, Fraction(1, 4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quasiaction, "CODES", 1)
            renumbered = outcome(verify, qa, None, Fraction(1, 4), strict)
        assert renumbered == outcome(verify, fresh, None, Fraction(1, 4), strict)


class TestCyclicTables:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 300])
    def test_numpy_table_equals_the_json_table(self, n):
        g = cyclic_group(n)
        assert g.describe() == {"kind": "finite",
                                "table": [[(i + j) % n for j in range(n)] for i in range(n)]}
        assert g == TableGroup(g.describe()["table"])
        assert all(type(x) is int for row in g.describe()["table"] for x in row)
        assert g.identity == 0 and [g.inv(x) for x in range(n)] == [-x % n for x in range(n)]

    @pytest.mark.parametrize("entry,message", [
        (True, "expected an integer, got True"),
        (1.0, "expected an integer, got 1.0"),
        ("1", "expected an integer, got '1'"),
        (3, "not square over"),
        (-1, "not square over"),
    ])
    def test_json_entries_are_refused_by_name(self, entry, message):
        table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        table[1][2] = entry
        with pytest.raises(DomainError, match=message):
            TableGroup(table)


class TestLoadedOneSlotTables:
    """A one-slot certificate's table holds its maps: the loader hands it to
    the QuasiAction as it is, once each entry is found used once, in order
    of first use over the sorted keys."""

    @pytest.fixture
    def doc(self):
        qa = regular_action(cyclic_group(4), epsilon=Fraction(1, 10))
        return json.loads(emit_certificate(qa, verify(qa)))

    def test_round_trip(self, doc):
        text = canonical_json(doc) + "\n"
        qa, report = load_certificate(text)
        assert qa.slot_tables[1].tolist() == [[0], [1], [2], [3]]
        assert emit_certificate(qa, report) == text

    @pytest.mark.parametrize("edit", [
        lambda d: d["slots"][0]["maps"].append(d["slots"][0]["maps"][1]),  # unused
        lambda d: d["slots"][0]["maps"].__setitem__(3, d["slots"][0]["maps"][2]),  # repeated
        lambda d: (d["slots"][0]["maps"].reverse(),  # out of first-use order
                   d["assignment"].update({k: [3 - i] for k, [i] in d["assignment"].items()})),
    ], ids=["unused", "repeated", "out_of_order"])
    def test_tables_other_than_the_emitted_ones_are_refused(self, doc, edit):
        edit(doc)
        with pytest.raises(InvariantViolationError, match="each slot map in use once"):
            load_certificate(json.dumps(doc))

    def test_index_out_of_range_is_refused(self, doc):
        doc["assignment"]["2"] = [4]
        with pytest.raises(DomainError, match=re.escape("map indices [4] are not all below")):
            load_certificate(json.dumps(doc))
