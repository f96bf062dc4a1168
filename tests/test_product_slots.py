"""Direct products as multi-slot maps, against the dense product carrier.

``product_map`` is the dense builder that ``direct_product_qa`` used before
its maps kept one slot per factor: it writes the product of dense maps out
point by point on the row-major product carrier (the last factor varies
fastest).  A fibered factor is first written out with ``densify``.
"""

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteSubset,
    IntegerGroup,
    ProductGroup,
    QuasiAction,
    TableGroup,
    compose,
    cyclic_group,
    emit_certificate,
    fixpoint_count,
    identity_like,
    inverse_map,
    load_certificate,
    similarity_defect,
    verify,
)
from quasiact.cli import main
from quasiact.constructions import (
    ExtensionData,
    amenable_extension_qa,
    build_free_product_action,
    cyclic_quasi_action,
    direct_product_qa,
    free_product_qa,
    good_action_upgrade,
    regular_action,
    transport_qa,
)
from quasiact import quasiaction
from quasiact.errors import (
    DomainError, IncompleteSupportError, InvariantViolationError, PreconditionError,
)
from quasiact.finmap import Fiber, FiniteMap, after, agreements
from quasiact.groups import pair_products, symmetrize
from quasiact.quasiaction import StrictChecks, VerificationReport

from dense_carrier import cayley_closure, densify, densify_action
from test_finmap import with_map

from certificate_tables import (
    assignment, encode, every_count, raw, set_assignment, set_slot_rows, slot_maps,
    slot_rows,
)

EPS = Fraction(1, 4)
S3 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
      [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]
# Small groups V by generators: S3, A4 and Z/5.
SMALL_FIBERS = [((1, 0, 2), (0, 2, 1)), ((1, 2, 0, 3), (0, 2, 3, 1)), ((1, 2, 3, 4, 0),)]


def product_map(maps) -> FiniteMap:
    """The dense one-slot maps acting coordinatewise on the row-major product carrier."""
    sizes = [m.n for m in maps]
    n = math.prod(sizes)
    strides = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
    images = np.zeros(n, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    for size, stride, m in zip(sizes, strides, maps):
        coord = (idx // stride) % size
        images += np.asarray(m.points(), dtype=np.int64)[coord] * stride
    return FiniteMap(images)


def dense_form(fmap: FiniteMap, elements) -> FiniteMap:
    """A multi-slot map on the dense product carrier; a fibered slot is
    densified over V's elements."""
    return product_map([
        densify(FiniteMap(*s), elements) if s.fiber else FiniteMap(s.images) for s in fmap.slots
    ])


def dense_product_qa(factors, epsilon) -> QuasiAction:
    """direct_product_qa's output built on the dense product carrier, from
    dense factors, with no precondition checked."""
    group = ProductGroup([qa.owner for qa, _ in factors])
    assignment = {
        combo: product_map([qa.assignment[g] for (qa, _), g in zip(factors, combo)])
        for combo in itertools.product(*(qa.assignment for qa, _ in factors))
    }
    f = FiniteSubset(group, itertools.product(*(fset for _, fset in factors)))
    n = math.prod(qa.carrier_n for qa, _ in factors)
    return QuasiAction(group, n, assignment, f, epsilon * len(factors))


def same_reports(qa, dense) -> None:
    for strict in (False, True):
        assert every_count(verify(qa, strict=strict)) == every_count(verify(dense, strict=strict))


@st.composite
def cyclic_factors(draw):
    """Shifts on Z/m, m in 12..14, perhaps with one image of one map moved:
    that costs at most 2 points per pair and 1 against the identity, within
    EPS * m, so the factor still verifies but is no longer a bijection."""
    f = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=2, unique=True))
    qa = cyclic_quasi_action(f, draw(st.integers(12, 14)), EPS)
    if draw(st.booleans()):
        elem = draw(st.sampled_from(sorted(qa.assignment)))
        images = qa.assignment[elem].points().tolist()
        images[draw(st.integers(0, qa.carrier_n - 1))] = draw(st.integers(0, qa.carrier_n - 1))
        qa = with_map(qa, elem, FiniteMap(images))
    return qa, qa, None


@st.composite
def regular_factors(draw):
    group = draw(st.sampled_from([cyclic_group(2), cyclic_group(3), TableGroup(S3)]))
    elements = list(group.elements())
    f = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3, unique=True))
    qa = regular_action(group, f, EPS)
    return qa, qa, None


@st.composite
def fibered_factors(draw):
    """Z acting on cells x V by k -> ((c + k) mod m, v * w^k): an exact action
    with fibered maps, its densified twin and V's elements."""
    gens = draw(st.sampled_from(SMALL_FIBERS))
    elements = cayley_closure(gens, 100)[0]
    fiber = Fiber(gens)
    cells = draw(st.integers(3, 4))
    w = elements[draw(st.integers(0, len(elements) - 1))]
    z = IntegerGroup()
    fset = FiniteSubset(z, draw(st.lists(st.sampled_from([-1, 1]), min_size=1, unique=True)))

    def power(k):  # w^k, with v * w = w[v]
        p = tuple(range(fiber.degree))
        for _ in range(abs(k)):
            p = tuple(w[x] for x in p)
        return p if k >= 0 else tuple(np.argsort(p))

    support = {0, *symmetrize(fset), *pair_products(fset, fset)}
    assignment = {
        k: FiniteMap((np.arange(cells) + k) % cells, [power(k)] * cells, fiber) for k in support
    }
    qa = QuasiAction(z, cells * fiber.order, assignment, fset, EPS)
    return qa, densify_action(qa, elements), elements


def factors():
    """2 or 3 factors (qa, its dense form, V's elements or None), at most one fibered."""
    one = st.one_of(cyclic_factors(), regular_factors(), fibered_factors())
    return st.lists(one, min_size=2, max_size=3).filter(
        lambda fs: sum(elements is not None for *_, elements in fs) <= 1
    )


class TestFactoredProductsAgainstDenseProducts:
    @settings(max_examples=200, deadline=None)
    @given(factors())
    def test_reports_equal_the_dense_reports(self, drawn):
        prod = direct_product_qa([(qa, qa.claimed_f) for qa, _, _ in drawn], EPS)
        assert len(prod.layout) == len(drawn)
        dense = dense_product_qa([(d, d.claimed_f) for _, d, _ in drawn], EPS)
        assert prod.carrier_n == dense.carrier_n and prod.claimed_f == dense.claimed_f
        same_reports(prod, dense)

    @settings(max_examples=100, deadline=None)
    @given(factors(), st.data())
    def test_map_operations_equal_the_dense_ones(self, drawn, data):
        prod = direct_product_qa([(qa, qa.claimed_f) for qa, _, _ in drawn], EPS)
        dense = dense_product_qa([(d, d.claimed_f) for _, d, _ in drawn], EPS)
        elements = next((el for *_, el in drawn if el is not None), None)
        e, f = (data.draw(st.sampled_from(sorted(prod.assignment))) for _ in range(2))
        pe, pf, de, df = prod.map_for(e), prod.map_for(f), dense.map_for(e), dense.map_for(f)
        assert dense_form(pe, elements) == de
        assert dense_form(compose(pe, pf), elements) == compose(de, df)
        assert dense_form(identity_like(pe), elements) == identity_like(de)
        assert similarity_defect(pe, pf) == similarity_defect(de, df)
        assert fixpoint_count(pe) == fixpoint_count(de)
        assert pe.is_bijection() == de.is_bijection()
        if pe.is_bijection():
            assert dense_form(inverse_map(pe), elements) == inverse_map(de)
        else:
            with pytest.raises(DomainError):
                inverse_map(pe)

    def test_free_product_factor(self):
        fp, pc = build_free_product_action(
            cyclic_group(2), cyclic_group(2), [0, 1], [0, 1], 1, Fraction(1, 10), seed=0
        )
        c3 = regular_action(cyclic_group(3), epsilon=Fraction(1, 10))
        prod = direct_product_qa([(c3, c3.claimed_f), (fp, fp.claimed_f)], Fraction(1, 10))
        assert [v is None for _, v in prod.layout] == [True, False]
        elements = cayley_closure(pc.v.fiber.generators, pc.v.order + 1)[0]
        dense_fp = densify_action(fp, elements)
        same_reports(prod, dense_product_qa(
            [(c3, c3.claimed_f), (dense_fp, fp.claimed_f)], Fraction(1, 10)))

    def test_products_nest(self):
        a, b, c = (cyclic_quasi_action([1], m, EPS) for m in (5, 6, 7))
        inner = direct_product_qa([(a, a.claimed_f), (b, b.claimed_f)], EPS)
        nested = direct_product_qa([(inner, inner.claimed_f), (c, c.claimed_f)], EPS)
        assert [cells for cells, _ in nested.layout] == [5, 6, 7]
        assert verify(nested).passed

    def test_three_factors_past_10_12_points(self):
        qas = [cyclic_quasi_action([1], m, Fraction(1, 10)) for m in (10007, 10009, 10037)]
        prod = direct_product_qa([(qa, qa.claimed_f) for qa in qas], Fraction(1, 10))
        n = 10007 * 10009 * 10037
        assert prod.carrier_n == n > 10**12
        report = verify(prod, strict=True)
        assert report.passed and report.strict.passed
        assert report.strict.pair_counts == (n,)


class TestDenseOnlyConstructionsRefuseMultiSlotActions:
    @pytest.fixture(scope="class")
    def product(self):
        qa = cyclic_quasi_action([1], 12, Fraction(1, 100),
                                 extra_support=[-4, -3, -2, 2, 3, 4])
        return direct_product_qa([(qa, qa.claimed_f)] * 2, Fraction(1, 100))

    def test_library_calls(self, product):
        f = product.claimed_f
        with pytest.raises(PreconditionError, match="2 slots"):
            good_action_upgrade(product, f, Fraction(1, 10))
        with pytest.raises(PreconditionError, match="2 slots"):
            free_product_qa(product, product, f, f, 1, None, Fraction(1, 10))
        g = cyclic_group(2)
        ext = ExtensionData(
            group=g, quotient=g, project=lambda x: 0,
            section=lambda q: q, folner=FiniteSubset(g, [0]),
        )
        with pytest.raises(PreconditionError, match="2 slots"):
            amenable_extension_qa(product, ext, [0], Fraction(1, 10))

    def test_good_action_request_exits_two(self, tmp_path, capsys):
        cyclic = {"cyclic": {"f": [1], "modulus": 12, "support": [-4, -3, -2, 2, 3, 4]}}
        request = tmp_path / "request.json"
        request.write_text(json.dumps({
            "construct": "good_action", "epsilon": "1/10", "f": [[1, 1]],
            "base": {"product": {"epsilon": "1/100", "factors": [cyclic, cyclic]}},
        }))
        out = tmp_path / "good.json"
        assert main(["construct", "--request", str(request), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "2 slots" in err and "Traceback" not in err
        assert not out.exists()


def with_row(doc: dict, s: int, key: str, images) -> None:
    """Replace the slot s row of map key's slot map by images (dense), hashed again."""
    rows, _ = slot_rows(doc, s)
    rows[assignment(doc)[key][s]] = images
    set_slot_rows(doc, s, rows)


class TestProductCertificates:
    @pytest.fixture(scope="class")
    def certificate(self):
        a, b = cyclic_quasi_action([1, 2], 7, EPS), cyclic_quasi_action([1], 5, EPS)
        prod = direct_product_qa([(a, a.claimed_f), (b, b.claimed_f)], EPS)
        return emit_certificate(prod, verify(prod, strict=True))

    def test_one_table_of_distinct_entries_per_slot(self, certificate):
        doc = json.loads(certificate)
        assert doc["format"] == 13 and "carrier_n" not in doc and doc["report"]["carrier_n"] == 35
        assert [(s["cells"], s["fiber"]) for s in doc["slots"]] == [(7, None), (5, None)]
        # 7 x 4 product maps: shifts by -2..4 mod 7 and by -1..2 mod 5.
        values = assignment(doc)
        # F = {[1,1], [2,1]} gives the identity, F and 3 products; 22 are extra.
        assert len(values) == 28 == 6 + len(doc["assignment"]["extra_keys"])
        assert [s["maps"] for s in doc["slots"]] == [7, 4]
        i, j = values["[1,1]"]
        assert [slot_rows(doc, s)[0][k].tolist() for s, k in enumerate((i, j))] == [
            [1, 2, 3, 4, 5, 6, 0], [1, 2, 3, 4, 0]]
        # Rows are numbered in order of first use over the sorted keys.
        first = [[], []]
        for key in sorted(values):
            for seen, k in zip(first, values[key]):
                seen += [k] * (k not in seen)
        assert first == [list(range(7)), list(range(4))]
        qa, report = load_certificate(certificate)
        assert emit_certificate(qa, report) == certificate

    def test_rehashed_tampered_slot_is_refused(self, certificate):
        doc = json.loads(certificate)
        with_row(doc, 1, "[1,1]", [1, 2, 3, 0, 4])  # still a bijection
        with pytest.raises(InvariantViolationError, match=re.escape("certificate field 'report.")):
            load_certificate(json.dumps(doc))
        with_row(doc, 1, "[1,1]", [1, 2, 3, 4, 5])
        j = assignment(doc)["[1,1]"][1]
        with pytest.raises(DomainError, match=re.escape(f"slot 1 images: 5 at [{j}, 4] is not below 5")):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("edit,error,message", [
        (lambda d: d.update(format=4), DomainError, "certificate format 4 is not read"),
        (lambda d: d.update(format=5), DomainError, "certificate format 5 is not read"),
        (lambda d: d.update(format=6), DomainError, "certificate format 6 is not read"),
        (lambda d: d.update(format=7), DomainError, "certificate format 7 is not read"),
        (lambda d: d.update(slots=[]), DomainError, "at least one slot"),
        (lambda d: d["slots"].reverse(), DomainError, r"assignment index: \d+ at \[\d+, 0\] "
                                                      "is not below 4"),
        (lambda d: d["slots"].pop(), InvariantViolationError,
         "assignment index has 56 bytes, expected 28"),
        (lambda d: d["slots"][0].pop("maps"), DomainError, "missing field 'maps'"),
    ])
    def test_layout_edits_are_refused(self, certificate, edit, error, message):
        doc = json.loads(certificate)
        edit(doc)
        with pytest.raises(error, match=message):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("s,index,message", [
        (0, 7, "assignment index: 7 at [{row}, 0] is not below 7"),
        (1, 4, "assignment index: 4 at [{row}, 1] is not below 4"),
        (1, 255, "assignment index: 255 at [{row}, 1] is not below 4"),
    ])
    def test_bad_index_is_refused_by_name(self, certificate, tmp_path, capsys, s, index, message):
        doc = json.loads(certificate)
        values = assignment(doc)
        values["[1,1]"][s] = index
        set_assignment(doc, values)
        message = message.format(row=sorted(values).index("[1,1]"))
        with pytest.raises(DomainError, match=re.escape(message)):
            load_certificate(json.dumps(doc))
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--qa", str(path), "--epsilon", "1/2"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value,message", [
        ("index", 5, "field 'index': expected a string, got 5"),
        ("index", None, "field 'index': expected a string, got None"),
        ("index", [0, 1], "field 'index': expected a string, got [0, 1]"),
        ("extra_keys", 3, "field 'extra_keys': expected an array, got 3"),
        ("extra_keys", {"[0,0]": [0, 0]}, "field 'extra_keys': expected an array"),
        ("extra_keys", [1], "field 'extra_keys': expected a string, got 1"),
    ])
    def test_assignment_of_other_json_types_is_refused(self, certificate, field, value, message):
        doc = json.loads(certificate)
        doc["assignment"][field] = value
        with pytest.raises(DomainError, match=re.escape(f"field 'assignment': {message}")):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("edit,message", [
        (lambda a: a.update(index=encode(np.frombuffer(raw(a, "index"), "<u1")[:-1], 7)),
         "assignment index has 55 bytes, expected 56"),
        (lambda a: a.update(index=encode([*np.frombuffer(raw(a, "index"), "<u1"), 0], 7)),
         "assignment index has 57 bytes, expected 56"),
        (lambda a: a.update(extra_keys=a["extra_keys"][:-1]),
         "assignment index has 56 bytes, expected 54"),
    ], ids=["short", "long", "one_key_fewer"])
    def test_wrong_number_of_indices_is_refused(self, certificate, edit, message):
        doc = json.loads(certificate)
        edit(doc["assignment"])
        with pytest.raises(InvariantViolationError, match=re.escape(message)):
            load_certificate(json.dumps(doc))

    def test_unused_entry_is_refused(self, certificate):
        doc = json.loads(certificate)
        rows, _ = slot_rows(doc, 1)
        set_slot_rows(doc, 1, np.vstack([rows, [[1, 0, 2, 3, 4]]]))  # a valid map no element uses
        with pytest.raises(InvariantViolationError, match=re.escape(
                "certificate field 'slots[1].images' states BAgMAAQIDBAECAwQAAgMEAAEBAAIDBA==\", "
                "where format 13 writes BAgMAAQIDBAECAwQAAgMEAAE=\"")):
            load_certificate(json.dumps(doc))

    def test_entry_stated_twice_is_refused(self, certificate):
        doc = json.loads(certificate)
        rows, _ = slot_rows(doc, 0)
        set_slot_rows(doc, 0, np.vstack([rows, rows[:1]]))
        values = assignment(doc)
        last = max(k for k in values if values[k][0] == 0)
        values[last][0] = len(rows)  # both copies in use
        set_assignment(doc, values)
        with pytest.raises(InvariantViolationError, match="each slot map once: slot 0 row 7 repeats row 0"):
            load_certificate(json.dumps(doc))

    def test_entries_out_of_first_use_order_are_refused(self, certificate):
        # Swapping two rows and renumbering every map keeps the maps, but
        # not the one numbering emit_certificate writes.
        doc = json.loads(certificate)
        rows, _ = slot_rows(doc, 0)
        set_slot_rows(doc, 0, rows[[1, 0, *range(2, len(rows))]])
        values = assignment(doc)
        for value in values.values():
            value[0] = {0: 1, 1: 0}.get(value[0], value[0])
        set_assignment(doc, values)
        with pytest.raises(InvariantViolationError, match=re.escape(
                "certificate field 'assignment.index' states ")):
            load_certificate(json.dumps(doc))

    def test_deleting_an_unneeded_map_is_refused(self, certificate):
        # The first map in key order is outside F's products, but it is the
        # inverse of [1,1], which the strict report needs.
        doc = json.loads(certificate)
        values = assignment(doc)
        del values[min(values)]
        set_assignment(doc, values)
        with pytest.raises(IncompleteSupportError, match=re.escape(
                "no map assigned for element [-1,-1] (strict mode needs F^-1 in the support)")):
            load_certificate(json.dumps(doc))


def _c2_free_product():
    return build_free_product_action(
        cyclic_group(2), cyclic_group(2), [0, 1], [0, 1], 1, Fraction(1, 10), seed=0)[0]


def _regular_c3():
    return regular_action(cyclic_group(3), epsilon=Fraction(1, 10))


def _product_with_fibered_factor():
    c3, fp = _regular_c3(), _c2_free_product()
    return direct_product_qa([(c3, c3.claimed_f), (fp, fp.claimed_f)], Fraction(1, 10))


@pytest.mark.parametrize("build", [_regular_c3, _c2_free_product, _product_with_fibered_factor],
                         ids=["dense", "fibered", "product"])
@pytest.mark.parametrize("strict", [False, True])
def test_emit_load_emit_is_byte_identical(build, strict):
    qa = build()
    text = emit_certificate(qa, verify(qa, strict=strict))
    loaded, report = load_certificate(text)
    assert emit_certificate(loaded, report) == text
    tables = slot_maps(loaded)
    assert [len(t) for t in tables] == [s["maps"] for s in json.loads(text)["slots"]]
    assert all(loaded.map_for(e) == qa.map_for(e) for e in qa.assignment)


def stacked_verify(qa, f=None, epsilon=None, strict=False) -> VerificationReport:
    """verify as it counted before slot tables: every map's packed row is
    stacked in chunks of max(1, POINTS // width) rows, condition (a) is
    counted per left element against the stacked right maps and their
    products, and the strict facts are derived map by map.  Kept as the
    oracle for the verify that counts each distinct slot map once."""
    g = qa.owner
    fset = qa.claimed_f if f is None else FiniteSubset(g, f)
    eps = qa.claimed_epsilon if epsilon is None else epsilon
    table = [qa.elements[i] for i in qa._products(fset)]  # the products, by id
    one = g.identity
    n = qa.carrier_n
    maps = qa.assignment
    ident = identity_like(maps[one])

    def counts_of(x, y) -> list[int]:  # disagreeing points per row of x against y
        return [n - a for a in agreements(ident, x, y).tolist()]

    def stack(ms):
        return np.stack([m.packed for m in ms])

    def chunks(ms):
        rows = max(1, quasiaction.POINTS // ident.packed.size)
        return [(i, stack(ms[i : i + rows])) for i in range(0, len(ms), rows)]

    keys = {e: g.element_key(e) for e in maps}
    f_elems = list(fset)
    right = chunks([maps[e] for e in f_elems])
    k = len(f_elems)
    a_counts = []
    for i, e in enumerate(f_elems):
        row = table[i * k : (i + 1) * k]
        for start, st_ in right:
            products = stack([maps[p] for p in row[start : start + len(st_)]])
            a_counts += counts_of(after(maps[e].rows(), ident.rows(st_)), ident.rows(products))
    agree = [a for _, s in right for a in agreements(ident, ident.rows(s), ident.rows()).tolist()]

    strict_checks = None
    if strict:
        for e in fset:
            if g._inv(e) not in maps:
                raise IncompleteSupportError(
                    g.element_key(g._inv(e)), "strict mode needs F^-1 in the support"
                )
        others = sorted((e for e in maps if e != one), key=keys.__getitem__)
        bijective = tuple(maps[e].is_bijection() for e in others)
        inverse_exact = tuple(
            bij and maps[g._inv(e)] == inverse_map(maps[e]) if g._inv(e) in maps else None
            for e, bij in zip(others, bijective)
        )
        ordered = sorted({*f_elems, one}, key=keys.__getitem__)
        pair_counts = []
        for i, a in enumerate(ordered):
            for start, st_ in chunks([maps[e] for e in ordered]):  # the rows after row i
                rest = st_[max(0, i + 1 - start) :]
                pair_counts += counts_of(ident.rows(rest), maps[a].rows())
        strict_checks = StrictChecks(
            n, eps, maps[one] == ident, bijective,
            tuple(fixpoint_count(maps[e]) == 0 for e in others), inverse_exact,
            tuple(pair_counts), tuple(keys[e] for e in ordered),
        )

    return VerificationReport(
        carrier_n=n,
        epsilon=eps,
        f_keys=tuple(keys[e] for e in f_elems),
        a_counts=tuple(a_counts),
        identity_defect=similarity_defect(maps[one], ident),
        c_agreements=tuple(c for e, c in zip(f_elems, agree) if e != one),
        product_keys=tuple(map(keys.__getitem__, table)),
        identity_key=keys[one],
        strict=strict_checks,
    )


def slot_product_qa(qas, epsilon=EPS) -> QuasiAction:
    """direct_product_qa's maps and F with no precondition checked, so that
    products nest and perturbed factors combine at any epsilon.  It builds
    every product map (FiniteMap.product) and hands them in one by one, so
    its tables are interned by content: the oracle for direct_product_qa,
    which combines its factors' tables and index rows."""
    group = ProductGroup([qa.owner for qa in qas])
    assignment = {
        combo: FiniteMap.product([qa.assignment[g] for qa, g in zip(qas, combo)])
        for combo in itertools.product(*(qa.assignment for qa in qas))
    }
    f = FiniteSubset(group, itertools.product(*(qa.claimed_f for qa in qas)))
    return QuasiAction(group, math.prod(qa.carrier_n for qa in qas), assignment, f, epsilon)


def same_action(qa, other) -> None:
    """Equal slot tables (entries and index), maps and certificate bytes."""
    assert qa.elements == other.elements and qa.layout == other.layout
    (_, index), (_, other_index) = qa.slot_tables, other.slot_tables
    assert slot_maps(qa) == slot_maps(other) and np.array_equal(index, other_index)
    assert qa.assignment == other.assignment
    assert emit_certificate(qa, verify(qa)) == emit_certificate(other, verify(other))


@st.composite
def repeating_actions(draw):
    """Products whose maps repeat their factors' slot maps: 2 or 3 factors,
    perhaps nested, perhaps transported with identity maps where a partial
    injection is undefined."""
    qas = [qa for qa, _, _ in draw(factors())]
    if len(qas) == 3 and draw(st.booleans()):
        qas = [slot_product_qa(qas[:2]), qas[2]]
    qa = slot_product_qa(qas)
    if draw(st.booleans()):
        core = [*qa.claimed_f, qa.owner.identity]
        mapping = {g: g for g in core if draw(st.booleans())}
        qa = transport_qa(qa, qa.owner, qa.claimed_f, mapping)
    return qa


def outcome(measure, *args):
    """A report's every_count JSON with its in-memory keys, or the error it raised."""
    try:
        r = measure(*args)
    except IncompleteSupportError as exc:
        return str(exc)
    keys = (r.product_keys, r.identity_key, r.strict and r.strict.keys)
    return every_count(r), keys, r


class TestProductTablesAgainstMapBuiltOracle:
    """direct_product_qa combines its factors' tables and index rows; the
    oracle builds each product map and interns it by content."""

    @settings(max_examples=60, deadline=None)
    @given(factors(), st.booleans())
    def test_product_equals_the_map_built_product(self, drawn, nest):
        qas = [qa for qa, _, _ in drawn]
        eps = EPS
        if nest and len(qas) == 3:  # ((a x b) x c): inner claims 2 EPS, outer verifies at 2/5
            inner = direct_product_qa([(qa, qa.claimed_f) for qa in qas[:2]], EPS)
            same_action(inner, slot_product_qa(qas[:2], 2 * EPS))
            oracle = slot_product_qa([slot_product_qa(qas[:2], 2 * EPS), qas[2]], Fraction(4, 5))
            qas, eps = [inner, qas[2]], Fraction(2, 5)
        else:
            oracle = slot_product_qa(qas, EPS * len(qas))
        prod = direct_product_qa([(qa, qa.claimed_f) for qa in qas], eps)
        same_action(prod, oracle)

    def test_fibered_factor_and_nesting(self):
        c3, fp = _regular_c3(), _c2_free_product()
        eps = Fraction(1, 10)
        inner = direct_product_qa([(c3, c3.claimed_f), (fp, fp.claimed_f)], eps)
        same_action(inner, slot_product_qa([c3, fp], 2 * eps))
        nested = direct_product_qa([(inner, inner.claimed_f), (c3, c3.claimed_f)], 2 * eps)
        same_action(nested, slot_product_qa([slot_product_qa([c3, fp], 2 * eps), c3], 4 * eps))


class TestInsertionOrder:
    @settings(max_examples=40, deadline=None)
    @given(repeating_actions(), st.randoms(use_true_random=False))
    def test_any_insertion_order_gives_the_same_action(self, qa, rng):
        items = list(qa.assignment.items())
        rng.shuffle(items)
        same_action(QuasiAction(qa.owner, qa.carrier_n, dict(items), qa.claimed_f,
                                qa.claimed_epsilon), qa)


class TestDistinctSlotVerifyAgainstStackedOracle:
    @pytest.mark.parametrize("rows", [1, None])
    @settings(max_examples=60, deadline=None)
    @given(repeating_actions(), st.integers(1, 9), st.booleans(), st.data())
    def test_reports_equal_the_stacked_reports(self, rows, qa, tenths, strict, data):
        f = data.draw(st.none() | st.sets(st.sampled_from(sorted(qa.assignment)), max_size=4))
        eps = Fraction(tenths, 10)
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(quasiaction, "POINTS", rows)
            assert outcome(verify, qa, f, eps, strict) == outcome(stacked_verify, qa, f, eps, strict)
        tables, index = slot_maps(qa), qa.slot_tables[1]
        assert all(len(t) <= len(qa.assignment) for t in tables)
        assert all(qa.map_for(e) == FiniteMap.product([t[i] for t, i in zip(tables, row)])
                   for e, row in zip(qa.elements, index))

    @settings(max_examples=40, deadline=None)
    @given(repeating_actions(), st.integers(1, 9), st.integers(1, 9), st.booleans(),
           st.booleans())
    def test_memoised_reask_equals_a_fresh_verify(self, qa, first, second, s1, s2):
        try:
            verify(qa, epsilon=Fraction(first, 10), strict=s1)
        except IncompleteSupportError:
            pass
        fresh = QuasiAction(qa.owner, qa.carrier_n, qa.assignment, qa.claimed_f,
                            qa.claimed_epsilon)
        eps = Fraction(second, 10)
        assert outcome(verify, qa, None, eps, s2) == outcome(verify, fresh, None, eps, s2)

    def test_many_pairs_product_counts_each_distinct_slot_triple_once(self, monkeypatch):
        big = [k for i in range(1, 21) for k in (i, -i)]
        a, b = cyclic_quasi_action(big, 83, Fraction(1, 10)), cyclic_quasi_action(
            [1, -1, 2, -2], 11, Fraction(1, 10))
        prod = direct_product_qa([(a, a.claimed_f), (b, b.claimed_f)], Fraction(1, 10))
        assert [len(t) for t in prod.slot_tables[0]] == [81, 9]
        rows = []
        real = quasiaction._agreements
        monkeypatch.setattr(quasiaction, "_agreements",
                            lambda t, r: rows.append(len(r)) or real(t, r))
        report = verify(prod, strict=True)
        assert len(report.a_counts) == 25600 and rows[:2] == [1600, 16]
        assert report.passed and report.strict.passed
