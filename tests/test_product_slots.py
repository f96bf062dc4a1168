"""Direct products as multi-slot maps, against the dense product carrier.

``product_map`` is the dense builder that ``direct_product_qa`` used before
its maps kept one slot per factor: it writes the product of dense maps out
point by point on the row-major product carrier (the last factor varies
fastest).  A fibered factor is first written out with ``densify``.
"""

import base64
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteSubset,
    IntegerGroup,
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
)
from quasiact.errors import DomainError, InvariantViolationError, PreconditionError
from quasiact.finmap import Fiber, FiniteMap
from quasiact.groups import pair_products, symmetrize
from quasiact.quasiaction import report_to_json
from quasiact.util import canonical_json

from dense_carrier import cayley_closure, densify, densify_action
from test_finmap import with_map

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
    from quasiact import ProductGroup

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
        factored = canonical_json(report_to_json(verify(qa, strict=strict)))
        assert factored == canonical_json(report_to_json(verify(dense, strict=strict)))


@st.composite
def cyclic_factors(draw):
    """Shifts on Z/m, m in 12..14, perhaps with one image of one map moved:
    that costs at most 2 points per pair and 1 against the identity, within
    EPS * m, so the factor still verifies but is no longer a bijection."""
    f = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=2, unique=True))
    qa = cyclic_quasi_action(f, draw(st.integers(12, 14)), EPS)
    if draw(st.booleans()):
        elem = draw(st.sampled_from(sorted(qa.assignment)))
        images = qa.assignment[elem].to_list()
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
    fiber = Fiber(gens, len(elements))
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


def rehashed(cells, labels=b"") -> dict:
    raw = np.asarray(cells, "<i4").tobytes()
    return {"cells": base64.b64encode(raw).decode(), "labels": base64.b64encode(labels).decode(),
            "sha256": hashlib.sha256(raw + labels).hexdigest()}


class TestProductCertificates:
    @pytest.fixture(scope="class")
    def certificate(self):
        a, b = cyclic_quasi_action([1, 2], 7, EPS), cyclic_quasi_action([1], 5, EPS)
        prod = direct_product_qa([(a, a.claimed_f), (b, b.claimed_f)], EPS)
        return emit_certificate(prod, verify(prod, strict=True))

    def test_slots_stated_once_and_entries_per_slot(self, certificate):
        doc = json.loads(certificate)
        assert doc["format"] == 5 and doc["carrier_n"] == 35
        assert doc["slots"] == [{"cells": 7, "fiber": None}, {"cells": 5, "fiber": None}]
        entries = doc["assignment"]["[1,1]"]
        assert [np.frombuffer(base64.b64decode(e["cells"]), "<i4").tolist() for e in entries] == [
            [1, 2, 3, 4, 5, 6, 0], [1, 2, 3, 4, 0]]
        qa, report = load_certificate(certificate)
        assert emit_certificate(qa, report) == certificate

    def test_rehashed_tampered_slot_is_refused(self, certificate):
        doc = json.loads(certificate)
        doc["assignment"]["[1,1]"][1] = rehashed([1, 2, 3, 0, 4])  # still a bijection
        with pytest.raises(InvariantViolationError, match="stored report differs"):
            load_certificate(json.dumps(doc))
        doc["assignment"]["[1,1]"][1] = rehashed([1, 2, 3, 4, 5])
        with pytest.raises(DomainError, match="out of range"):
            load_certificate(json.dumps(doc))
        doc["assignment"]["[1,1]"] = doc["assignment"]["[1,1]"][:1]
        with pytest.raises(DomainError, match="2 entries"):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("edit,error,message", [
        (lambda d: d.update(format=4), DomainError, "certificate format 4 is not read"),
        (lambda d: d.update(slots=[]), DomainError, "at least one slot"),
        (lambda d: d["slots"].reverse(), InvariantViolationError, "bytes"),
        (lambda d: d["slots"].pop(), DomainError, "1 entries"),
    ])
    def test_layout_edits_are_refused(self, certificate, edit, error, message):
        doc = json.loads(certificate)
        edit(doc)
        with pytest.raises(error, match=message):
            load_certificate(json.dumps(doc))
