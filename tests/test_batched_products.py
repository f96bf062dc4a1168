"""Batched group products against the scalar ``_mul`` loop.

``GroupHandle._multiply`` is the one group batch: it returns the distinct
products of parallel id arrays into a support and each pair's position
among them.  ``ProductGroup`` multiplies coordinatewise, each distinct
pair of coordinates once, ``IntegerGroup`` adds as int64 when no operand
can wrap, and ``TableGroup`` gathers from its table.  ``_product_ids`` and
``_inverse_ids`` look the products and inverses up in the support, and
``_keys_many`` keys it; ``ProductGroup`` keys and inverts per coordinate.
``QuasiAction._products`` builds the F x F table of ids from
``_product_ids``.  The scalar loops (``_mul``, ``_inv``, ``element_key``)
stay the oracle for all of them, and for the element a missing product is
reported by.
"""

import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteSubset,
    FreeProductGroup,
    GroupHandle,
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
from quasiact import groups, quasiaction
from quasiact.constructions import cyclic_quasi_action, direct_product_qa, regular_action
from quasiact.errors import DomainError, IncompleteSupportError, InvariantViolationError
from quasiact.quasiaction import TABLES
from quasiact.util import canonical_json

from test_product_slots import S3, outcome, repeating_actions

from certificate_tables import assignment, set_assignment, set_slot_rows, slot_rows

FREE = FreeProductGroup(cyclic_group(2), cyclic_group(3))
FINITARY = IntegerFinitaryGroup()


def free_words():
    pairs = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=1, max_size=3)
    return pairs.map(FREE.word)


@st.composite
def finitary_elements(draw):
    moved = draw(st.permutations(range(-2, 3)))
    return FINITARY.make(draw(st.integers(-3, 3)), dict(zip(range(-2, 3), moved)))


# Integers around the int64 batches' bound 2**62 and past int64 itself:
# a batch holding one of them takes the scalar loop, exact at any size.
WIDE = [2**62 - 1, 2**62, 2**63 - 1, 2**63, 2**64 + 5]
WIDE_INTEGERS = st.one_of(st.integers(-3, 3), st.sampled_from(WIDE + [-x for x in WIDE]))

# (handle, a strategy for its elements), one row per kind of handle.
HANDLES = [
    (IntegerGroup(), st.integers(-50, 50)),
    (IntegerGroup(), WIDE_INTEGERS),
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
    (ProductGroup([IntegerGroup(), cyclic_group(3)]), st.tuples(WIDE_INTEGERS, st.integers(0, 2))),
]
HANDLE_IDS = ["integers", "wide_integers", "s3", "c7", "nested_product", "members_subgroup",
              "predicate_subgroup", "free_product", "finitary", "free_x_finitary", "wide_x_c3"]


# Products nested two deep, with a free-product factor inside.
NESTED = [
    (ProductGroup([ProductGroup([FREE, cyclic_group(3)]), IntegerGroup()]),
     st.tuples(st.tuples(free_words(), st.integers(0, 2)), st.integers(-3, 3))),
    (ProductGroup([cyclic_group(2), ProductGroup([IntegerGroup(), FREE]), IntegerGroup()]),
     st.tuples(st.integers(0, 1), st.tuples(st.integers(-2, 2), free_words()), st.integers(-2, 2))),
]
NESTED_IDS = ["free_x_c3_x_integers", "c2_x_integers_free_x_integers"]


@st.composite
def supports(draw, g, elements):
    """Distinct elements in any order, drawn from a few elements, their
    products and their inverses: rarely a grid of coordinates, and with some
    products and inverses inside it and some outside."""
    pool = list(dict.fromkeys(draw(st.lists(elements, min_size=1, max_size=4))))
    near = [*pool, *(g._mul(a, b) for a in pool for b in pool), *map(g._inv, pool)]
    return list(dict.fromkeys(draw(st.lists(st.sampled_from(near), min_size=1, max_size=12))))


def position(support, elem) -> int:
    return support.index(elem) if elem in support else -1


def leaf_types(x):
    """x with each leaf replaced by its type: a numpy int is not Python's."""
    return tuple(map(leaf_types, x)) if isinstance(x, tuple) else type(x)


class TestMultiplyAgainstTheScalarLoop:
    """With CODES = 1 a product renumbers its codes before each coordinate
    is added, as a batch too large for one int64 code per row would."""

    @pytest.mark.parametrize("codes", [groups.CODES, 1], ids=["int64_codes", "renumbered"])
    @pytest.mark.parametrize("g,elements", HANDLES + NESTED, ids=HANDLE_IDS + NESTED_IDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_equals_the_loop(self, g, elements, codes, data):
        # A small support with repeats, as pair_products' F1 then F2 may
        # have, makes repeated products and coordinate pairs likely.
        support = data.draw(st.lists(elements, min_size=1, max_size=4))
        at = st.integers(0, len(support) - 1)
        pairs = data.draw(st.lists(st.tuples(at, at), max_size=30))
        xs, ys = (np.array([p[i] for p in pairs], np.intp) for i in (0, 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups, "CODES", codes)
            products, at = g._multiply(support, xs, ys)
        loop = [g._mul(support[x], support[y]) for x, y in pairs]
        assert at.dtype == np.intp and at.shape == (len(pairs),)
        batch = [products[i] for i in at.tolist()]
        assert batch == loop
        assert list(map(leaf_types, batch)) == list(map(leaf_types, loop))  # Python ints
        assert len(set(products)) == len(products) and set(products) == set(loop)

    @pytest.mark.parametrize("g,elements", HANDLES + NESTED, ids=HANDLE_IDS + NESTED_IDS)
    def test_empty_batches(self, g, elements):
        none = np.array([], np.intp)
        products, at = g._multiply([], none, none)
        assert products == [] and g._keys_many([]) == []
        for ids in (at, g._product_ids([], none, none), g._inverse_ids([])):
            assert ids.dtype == np.intp and ids.shape == (0,)

    @pytest.mark.parametrize("g,elements", HANDLES + NESTED, ids=HANDLE_IDS + NESTED_IDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pair_products_equal_the_checked_loop(self, g, elements, data):
        f1, f2 = (FiniteSubset(g, data.draw(st.lists(elements, max_size=5))) for _ in range(2))
        assert pair_products(f1, f2) == FiniteSubset(g, (g.mul(e, f) for e in f1 for f in f2))


class TestIdBatchesAgainstTheScalarLoops:
    """With CODES = 1 a product renumbers its codes before each coordinate
    is added, as a support too large for one int64 code per row would."""

    @pytest.mark.parametrize("codes", [groups.CODES, 1], ids=["int64_codes", "renumbered"])
    @pytest.mark.parametrize("g,elements", HANDLES + NESTED, ids=HANDLE_IDS + NESTED_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batches_equal_the_loops(self, g, elements, codes, data):
        support = data.draw(supports(g, elements))
        at = st.integers(0, len(support) - 1)
        pairs = data.draw(st.lists(st.tuples(at, at), max_size=30))
        xs, ys = (np.array([p[i] for p in pairs], np.intp) for i in (0, 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups, "CODES", codes)
            products, inverses = g._product_ids(support, xs, ys), g._inverse_ids(support)
            keys = g._keys_many(support)
        assert products.dtype == inverses.dtype == np.intp
        assert products.tolist() == [position(support, g._mul(support[x], support[y]))
                                     for x, y in pairs]
        assert inverses.tolist() == [position(support, g._inv(e)) for e in support]
        assert keys == [g.element_key(e) for e in support]


# A free product whose left factor is itself a product, so a key nests lists.
NESTED_FREE = FreeProductGroup(ProductGroup([cyclic_group(3), IntegerGroup()]), cyclic_group(2))


@st.composite
def nested_free_words(draw):
    """Normal forms of NESTED_FREE, among them the identity word and words
    whose first left syllable is the identity."""
    left = st.tuples(st.integers(0, 2), st.integers(-3, 3))
    pairs = draw(st.lists(st.tuples(left, st.integers(0, 1)), min_size=1, max_size=4))
    opening = draw(st.sampled_from([[], [((0, 0), 1)], [((0, 0), 0)]]))
    return NESTED_FREE.word(opening + pairs)


class TestFreeProductKeysAgainstElementKey:
    """FreeProductGroup._keys_many keys each distinct syllable once through
    its factors' _keys_many, with no encode or check_element per word."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(nested_free_words(), max_size=12))
    def test_keys_equal_element_key(self, words):
        words = [NESTED_FREE.identity, NESTED_FREE.word([((0, 0), 1), ((2, -1), 0)]), *words]
        assert words[1].pairs[0][0] == (0, 0)  # opens with an identity left syllable
        want = [NESTED_FREE.element_key(w) for w in words]
        with pytest.MonkeyPatch.context() as mp:
            for name in ("encode", "check_element", "element_key"):
                mp.setattr(FreeProductGroup, name, lambda *a: pytest.fail("a word was keyed alone"))
            assert NESTED_FREE._keys_many(words) == want

    def test_each_distinct_syllable_keyed_once(self):
        keyed = []
        g = FreeProductGroup(cyclic_group(2), cyclic_group(3))
        words = [g.word([(1, 2), (1, 1)]), g.word([(0, 2)]), g.word([(1, 1)])]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TableGroup, "_keys_many", lambda self, xs: keyed.append(list(xs)) or
                       list(map(str, xs)))
            assert g._keys_many(words) == [g.element_key(w) for w in words]
        assert keyed == [[1, 0], [2, 1]]


class TestInverseIdsAgainstTheBaseLoop:
    """ProductGroup inverts each distinct coordinate value once; the base
    GroupHandle._inverse_ids, one _inv per element, is the oracle."""

    @pytest.mark.parametrize("g,elements", HANDLES + NESTED, ids=HANDLE_IDS + NESTED_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_equals_the_base_loop(self, g, elements, data):
        support = data.draw(supports(g, elements))
        got = g._inverse_ids(support)
        assert got.dtype == np.intp
        assert got.tolist() == GroupHandle._inverse_ids(g, support).tolist()

    def test_unsupported_inverses_are_minus_one(self):
        g = ProductGroup([IntegerGroup(), cyclic_group(3)])
        support = [(0, 0), (2**64, 1), (-2**64, 2), (2**63, 1), (5, 0), (-5, 0)]
        expected = [0, 2, 1, -1, 5, 4]  # (2**63, 1)'s inverse (-2**63, 2) is unsupported
        assert g._inverse_ids(support).tolist() == expected
        assert GroupHandle._inverse_ids(g, support).tolist() == expected


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


class TestProductSupportsThatAreNoGrid:
    @pytest.fixture
    def grid(self):
        """C7 x C5 shifts on the integers: each factor supports -1, 0, 1, 2."""
        factors = [cyclic_quasi_action([1], m, Fraction(1, 10)) for m in (7, 5)]
        return direct_product_qa([(qa, qa.claimed_f) for qa in factors], Fraction(1, 10))

    @pytest.mark.parametrize("removed,first_missing", [
        ([(2, 1), (2, 2)], "[2,1]"),  # (1,0)(1,1), the second product row-major
        ([(2, 2), (2, 0)], "[2,0]"),  # (1,0)(1,0), the first
        ([(2, 2)], "[2,2]"),  # (1,1)(1,1), the last
        ([(1, 1), (2, 2)], "[1,1]"),  # an element of F comes before every product
    ])
    def test_the_first_missing_product_row_major_is_named(self, grid, removed, first_missing):
        g = grid.owner
        assignment = {e: m for e, m in grid.assignment.items() if e not in removed}
        fset = FiniteSubset(g, [(1, 0), (1, 1)])
        assert products_by_loop(g, assignment, fset) == first_missing
        with pytest.raises(IncompleteSupportError) as exc:
            QuasiAction(g, grid.carrier_n, assignment, fset, Fraction(1, 4))
        assert exc.value.element_key == first_missing

    def test_products_outside_a_holed_support_are_minus_one(self, grid):
        g = grid.owner
        support = [e for e in grid.elements if e not in [(2, 1), (0, -1)]]
        xs, ys = np.divmod(np.arange(len(support) ** 2), len(support))
        table = g._product_ids(support, xs, ys).tolist()
        assert table == [position(support, g._mul(support[x], support[y]))
                         for x, y in zip(xs.tolist(), ys.tolist())]
        assert table.count(-1) > 0 and len(set(table) - {-1}) == len(support)


class TestLoaderRefusesNonCanonicalKeys:
    """Every key a certificate states must be its element's element_key:
    another spelling of an element is refused by name, not read as it.  An
    extra key of an element that F gives (the identity, F and F x F's
    products) or that another extra key names is refused as the assignment
    is read, before any slot table; any other key that emission would not
    write, by the acceptance rule at its path."""

    @pytest.fixture
    def doc(self):
        # F = {-1, 1} x {-1, 1} gives 13 of the 25 elements; 12 are extra.
        factors = [cyclic_quasi_action([1, -1], m, Fraction(1, 10)) for m in (7, 5)]
        qa = direct_product_qa([(f, f.claimed_f) for f in factors], Fraction(1, 10))
        return json.loads(emit_certificate(qa, verify(qa)))

    def test_a_second_spelling_of_a_key_is_refused(self, doc, monkeypatch):
        # An extra key "[-1, -1]" beside F's "[-1,-1]", with its own index row.
        values = assignment(doc)
        set_assignment(doc, dict(values, **{"[-1, -1]": values["[1,1]"]}))
        assert doc["assignment"]["extra_keys"][0] == "[-1, -1]"
        monkeypatch.setattr(quasiaction, "_table_from_json", None)  # no slot table is read
        with pytest.raises(DomainError) as exc:
            load_certificate(json.dumps(doc))
        assert str(exc.value) == ("field 'assignment': extra_keys[0] '[-1, -1]' names an element "
                                  "of F, '[-1,-1]'")

    @pytest.mark.parametrize("added,refused,names", [
        ("[0, 0]", "[0, 0]", "the identity, '[0,0]'"),
        ("[-1,-1]", "[-1,-1]", "an element of F, '[-1,-1]'"),
        ("[2,-2]", "[2,-2]", "a product in F x F, '[2,-2]'"),
        ("[2, -2]", "[2, -2]", "a product in F x F, '[2,-2]'"),
        # "[-1, 0]" sorts first and is read; the extra key "[-1,0]" is refused.
        ("[-1, 0]", "[-1,0]", "the element of extra_keys[0], '[-1,0]'"),
    ], ids=["identity", "f", "product", "product_respelled", "extra"])
    def test_a_second_key_of_an_element_is_refused_before_any_table(self, doc, monkeypatch,
                                                                     added, refused, names):
        # The key joins the extra keys in key order; no payload is read.
        extra = doc["assignment"]["extra_keys"]
        extra.append(added)
        extra.sort()
        monkeypatch.setattr(quasiaction, "_table_from_json", None)  # no slot table is read
        with pytest.raises(DomainError) as exc:
            load_certificate(json.dumps(doc))
        assert str(exc.value) == (f"field 'assignment': extra_keys[{extra.index(refused)}] "
                                  f"{refused!r} names {names}")

    def test_an_extra_key_of_a_respelled_f_key_is_refused(self, doc, monkeypatch):
        # F states "[-1, -1]", an extra key "[-1,-1]": one element, by name.
        doc["F"][0] = "[-1, -1]"
        doc["assignment"]["extra_keys"].insert(0, "[-1,-1]")
        monkeypatch.setattr(quasiaction, "_table_from_json", None)  # no slot table is read
        with pytest.raises(DomainError, match=re.escape(
                "field 'assignment': extra_keys[0] '[-1,-1]' names an element of F, '[-1,-1]'")):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("where", ["assignment", "F"])
    def test_a_respelled_key_is_refused(self, doc, where):
        # It would load, and emit other bytes than it was read from.
        if where == "assignment":
            keys = doc["assignment"]["extra_keys"]
            assert keys[0] == "[-1,-2]"
            keys[0] = "[-1, -2]"  # still first in key order
        else:
            keys = doc["F"]
            keys[keys.index("[-1,-1]")] = "[-1, -1]"
        path = "assignment.extra_keys[0]" if where == "assignment" else "F[0]"
        old = "[-1,-2]" if where == "assignment" else "[-1,-1]"
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"certificate field '{path}' states \"{old[:3]}, {old[4:]}\", "
                f"where format 13 writes \"{old}\"")):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("probe", ["swapped", "repeated"])
    def test_f_out_of_key_order_is_refused(self, doc, probe):
        # F[0] and F[1] swapped would load and emit the sorted original;
        # F[0] appended again would load as 25 elements from 26 keys.
        keys = doc["F"]
        first, second = keys[0], keys[1]
        if probe == "swapped":
            keys[0], keys[1] = second, first
            message = f"certificate field 'F[0]' states \"{second}\", where format 13 writes \"{first}\""
        else:
            keys.append(first)
            message = ("certificate field 'F' states [-1,1]\",\"[1,-1]\",\"[1,1]\",\"[-1,-1]\"], "
                       "where format 13 writes [-1,1]\",\"[1,-1]\",\"[1,1]\"]")  # 24 characters around
        with pytest.raises(InvariantViolationError, match=re.escape(message)):
            load_certificate(json.dumps(doc))

    def test_the_canonical_keys_load(self, doc):
        text = canonical_json(doc) + "\n"
        qa, report = load_certificate(text)
        assert emit_certificate(qa, report) == text


class TestSlotCodes:
    @settings(max_examples=40, deadline=None)
    @given(repeating_actions(), st.booleans())
    def test_dense_renumbering_before_every_column_changes_no_count(self, qa, strict):
        # CODES = 1 renumbers a slot's codes before each column is added, as
        # tables too large for one int64 code per row would.
        fresh = QuasiAction(qa.owner, qa.carrier_n, qa.assignment, qa.claimed_f, Fraction(1, 4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups, "CODES", 1)
            renumbered = outcome(verify, qa, None, Fraction(1, 4), strict)
        assert renumbered == outcome(verify, fresh, None, Fraction(1, 4), strict)


def row_codes(rows: list, sizes: list, codes: int) -> tuple[list, list]:
    """_row_codes of rows under CODES = codes, and the length of each batch
    it renumbered."""
    renumbered, unique = [], groups._unique
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "CODES", codes)
        mp.setattr(groups, "_unique", lambda v: renumbered.append(len(v)) or unique(v))
        code = groups._row_codes([np.array(c, np.int64) for c in zip(*rows)], sizes)
    return code.tolist(), renumbered


def renumbering_schedule(rows: list, sizes: list, codes: int) -> tuple[int, int]:
    """How often a row code must be renumbered, and the columns before the
    last renumbering: the code bound is the distinct prefixes there times
    the later sizes, and a renumbering is due when it could pass codes."""
    size, count, last = 1, 0, 0
    for j, n in enumerate(sizes):
        if size > 1 and size * n > codes:
            size, count, last = len({r[:j] for r in rows}), count + 1, j
        size *= n
    return count, last


class TestRowCodes:
    """_row_codes renumbers its codes densely (through _unique) when the next
    column could take them past CODES; the bound it then carries is the
    distinct count, so it renumbers no more often than that bound needs."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_codes_match_tuple_equality_within_the_distinct_bound(self, data):
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
        row = st.tuples(*(st.integers(0, n - 1) for n in sizes))
        pool = data.draw(st.lists(row, min_size=1, max_size=6))  # repeats make few distinct
        rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
        codes = data.draw(st.integers(1, 300))
        code, renumbered = row_codes(rows, sizes, codes)
        for (a, x), (b, y) in itertools.combinations(zip(rows, code), 2):
            assert (x == y) == (a == b)
        count, last = renumbering_schedule(rows, sizes, codes)
        assert renumbered == [len(rows)] * count
        bound = len({r[:last] for r in rows}) * np.prod(sizes[last:], dtype=object)
        assert 0 <= min(code) and max(code) < bound

    def test_a_few_distinct_prefixes_renumber_once(self):
        # 300 rows share two prefixes of three columns: after renumbering
        # them before the fourth column the codes lie below 2 x 10, and the
        # fifth column fits under CODES = 1000 without another renumbering.
        rows = [(p, p, p, i % 10, i // 30) for i in range(300) for p in [i % 2]]
        code, renumbered = row_codes(rows, [10] * 5, 1000)
        assert renumbered == [300] and max(code) < 2 * 10 * 10
        assert len(set(code)) == len(set(rows))


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

    @pytest.mark.parametrize("edit,message", [
        (lambda d: set_slot_rows(d, 0, slot_rows(d, 0)[0][[0, 1, 2, 3, 1]]),
         f"{TABLES}: slot 0 row 4 repeats row 1"),  # unused, and a second row of map "1"
        (lambda d: set_slot_rows(d, 0, slot_rows(d, 0)[0][[0, 1, 2, 2]]),
         f"{TABLES}: slot 0 row 3 repeats row 2"),
        (lambda d: (set_slot_rows(d, 0, slot_rows(d, 0)[0][::-1]),  # out of first-use order
                    set_assignment(d, {k: [3 - i] for k, [i] in assignment(d).items()})),
         "certificate field 'assignment.index' states \"AwIBAA==\", where format 13 writes \"AAECAw==\""),
    ], ids=["unused", "repeated", "out_of_order"])
    def test_tables_other_than_the_emitted_ones_are_refused(self, doc, edit, message):
        edit(doc)
        with pytest.raises(InvariantViolationError, match=re.escape(message)):
            load_certificate(json.dumps(doc))

    def test_index_out_of_range_is_refused(self, doc):
        set_assignment(doc, dict(assignment(doc), **{"2": [4]}))
        with pytest.raises(DomainError, match=re.escape("assignment index: 4 at [2, 0] is not below 4")):
            load_certificate(json.dumps(doc))
