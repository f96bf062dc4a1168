"""Format 11 payloads: each slot's table is one images payload (rows x
cells); a fibered slot adds a labels payload of its distinct labels (label
count x V's degree) and a label_index payload (rows x cells).  Each is in
the narrowest little-endian dtype that holds values below its bound: the
slot's cells for cell images, V's degree for labels and the label count for
the label index: uint8 up to 256, uint16 up to 65,536, else int32.

Two oracles are kept here.  The int32 codec of format 6: for the same
QuasiAction, the tables a format 11 certificate loads to are the maps that
int32 payloads of the same tables decode to.  And the per-entry decoder of
format 7 (certificate_tables.per_entry_tables), which splits each table
into rows and decodes and hashes each row alone: it gives the maps the
table decoder gives, at each dtype edge and on dense, fibered, product and
finitary certificates.
"""

import base64
import functools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteMap, FiniteSubset, QuasiAction, cyclic_group, emit_certificate, load_certificate,
    verify,
)
from quasiact import quasiaction
from quasiact.constructions import (
    build_free_product_action, cyclic_quasi_action, direct_product_qa, finitary_extension_qa,
    regular_action,
)
from quasiact.constructions.girth import fiber_from_json
from quasiact.errors import DomainError, InvariantViolationError
from quasiact.finmap import Fiber

from certificate_tables import (
    dtype_of, per_entry_tables, raw, rehash, set_label_table, set_slot_rows, slot_maps, slot_rows,
    table_maps,
)

DENSE_CELLS = [1, 255, 256, 257, 65_536, 65_537]
FIBER_DEGREES = [2, 8, 256]


def rotations(degree: int, shifts) -> np.ndarray:
    """The rotations x -> x + k mod degree, one row per shift k."""
    return (np.arange(degree) + np.asarray(shifts)[:, None]) % degree


def cyclic_fiber(degree: int) -> Fiber:
    """V = the rotations of 0..degree-1, generated by one degree-cycle."""
    return Fiber((tuple(rotations(degree, [1])[0].tolist()),), degree)


def action(cells: int, fiber: Fiber | None, order: int, seed: int) -> QuasiAction:
    """C_order acting on one slot by random maps, each of which takes the
    largest image cells - 1 (and, over V, labels that are rotations, so lie
    in V and take every value below the degree)."""
    rng = np.random.default_rng(seed)
    g = cyclic_group(order)
    maps = {}
    for k in range(order):
        images = rng.integers(0, cells, cells)
        images[rng.integers(cells)] = cells - 1
        if fiber is None:
            maps[k] = FiniteMap(images)
        else:
            labels = rotations(fiber.degree, rng.integers(0, fiber.degree, cells))
            maps[k] = FiniteMap(images, labels, fiber)
    per_cell = 1 if fiber is None else fiber.order
    return QuasiAction(g, cells * per_cell, maps, FiniteSubset(g, range(order)), Fraction(1, 2))


# One slot per case: dense with cells at each dtype edge, or over V with a
# degree at each dtype edge (and 1 or 257 cells, so uint8 or uint16 images).
SLOTS = [(cells, None) for cells in DENSE_CELLS] + [
    (cells, degree) for degree in FIBER_DEGREES for cells in (1, 257)]


@functools.cache
def certificate(cells: int, degree: int | None) -> str:
    qa = action(cells, degree and cyclic_fiber(degree), 1, 0)
    return emit_certificate(qa, verify(qa))


def int32_decoded(fmap: FiniteMap) -> tuple[list, list]:
    """The format 6 codec: a map's images and labels written as little-endian
    int32, and read back."""
    images, labels = (np.frombuffer(a.astype("<i4").tobytes(), "<i4") for a in fmap.slots[0][:2])
    return images.tolist(), labels.reshape(images.size, -1).tolist()


def with_payloads(doc: dict, **payloads: bytes) -> None:
    """Replace slot 0's named payloads by raw bytes, and hash the slot again."""
    slot = doc["slots"][0]
    slot.update({k: base64.b64encode(r).decode() for k, r in payloads.items()})
    rehash(slot, *(k for k in ("images", "labels", "label_index") if k in slot))


class TestRoundTrip:
    @pytest.mark.parametrize("cells,degree", SLOTS)
    @settings(max_examples=4, deadline=None)
    @given(order=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), strict=st.booleans())
    def test_emit_load_emit_identical(self, cells, degree, order, seed, strict):
        qa = action(cells, degree and cyclic_fiber(degree), order, seed)
        cert = emit_certificate(qa, verify(qa, strict=strict))
        loaded, report = load_certificate(cert)
        assert emit_certificate(loaded, report) == cert
        slot = json.loads(cert)["slots"][0]
        assert len(raw(slot, "images")) == dtype_of(cells).itemsize * cells * slot["maps"]
        if degree is None:
            assert "labels" not in slot and "label_index" not in slot
            return
        count = slot["label_count"]
        assert len(raw(slot, "labels")) == dtype_of(degree).itemsize * degree * count
        assert len(raw(slot, "label_index")) == dtype_of(count).itemsize * cells * slot["maps"]

    @pytest.mark.parametrize("cells,degree", SLOTS)
    @settings(max_examples=4, deadline=None)
    @given(order=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_tables_are_what_int32_payloads_decode_to(self, cells, degree, order, seed):
        qa = action(cells, degree and cyclic_fiber(degree), order, seed)
        cert = emit_certificate(qa, verify(qa))
        [table] = slot_maps(load_certificate(cert)[0])
        [oracle] = slot_maps(qa)
        images, labels = slot_rows(json.loads(cert), 0)
        assert len(table) == len(oracle) == len(images)
        for fmap, expected, row, row_labels in zip(table, oracle, images, labels):
            want_images, want_labels = int32_decoded(expected)
            assert fmap.slots[0].images.tolist() == want_images == row.tolist()
            assert fmap.slots[0].labels.tolist() == want_labels == row_labels.tolist()

    @pytest.mark.parametrize("cells,degree", [(255, None), (65_536, None), (257, 8)])
    def test_int32_payloads_are_refused_by_length(self, cells, degree):
        # Up to 65,536 cells, an int32 images payload is 4 or 2 times too long.
        doc = json.loads(certificate(cells, degree))
        [[fmap]] = slot_maps(action(cells, degree and cyclic_fiber(degree), 1, 0))
        with_payloads(doc, images=fmap.slots[0].images.astype("<i4").tobytes())
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"slot 0 images has {4 * cells} bytes, "
                f"expected {dtype_of(cells).itemsize * cells}")):
            load_certificate(json.dumps(doc))


class TestRefusals:
    """A tampered payload, hashed again, is refused for the reason it breaks."""

    @pytest.mark.parametrize("cells,degree,key", [
        (100, None, "images"), (257, None, "images"), (65_537, None, "images"),
        (257, 8, "images"), (1, 8, "labels"), (257, 256, "labels"), (1, 8, "label_index"),
        (257, 256, "label_index")])
    @pytest.mark.parametrize("items", [-1, 1])
    def test_one_item_short_or_long(self, cells, degree, key, items):
        doc = json.loads(certificate(cells, degree))
        labels = doc["slots"][0].get("label_count", 0)
        bound, count = {"images": (cells, cells), "labels": (degree, labels * (degree or 0)),
                        "label_index": (labels, cells)}[key]
        payload = raw(doc["slots"][0], key)
        size = dtype_of(bound).itemsize
        with_payloads(doc, **{key: payload[:-size] if items < 0 else payload + bytes(size)})
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"slot 0 {key} has {size * (count + items)} bytes, "
                f"expected {size * count}")):
            load_certificate(json.dumps(doc))

    def test_image_at_or_past_the_cells_is_refused_in_its_dtype(self):
        # Byte 200 is a valid uint8 but no cell of a 100-cell slot.
        doc = json.loads(certificate(100, None))
        with_payloads(doc, images=np.asarray([200, *range(1, 100)], "<u1").tobytes())
        with pytest.raises(DomainError, match=re.escape(
                "field 'slots': slot 0 images: 200 at [0, 0] is not below 100")):
            load_certificate(json.dumps(doc))

    def test_negative_int32_image_is_refused(self):
        # Past 65,536 cells images are int32, which holds negative values: one
        # is named, not wrapped into a valid-looking numpy index.
        doc = json.loads(certificate(65_537, None))
        images = slot_rows(doc, 0)[0]
        images[0, 0] = -1
        with_payloads(doc, images=images.astype("<i4").tobytes())
        with pytest.raises(DomainError, match=re.escape(
                "field 'slots': slot 0 images: -1 at [0, 0] is not below 65537")):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("value", [-1, -2**31, 70_000])
    def test_int32_index_outside_its_table_is_refused(self, value):
        # The index is int32 once a table passes 65,536 rows.  Such a
        # certificate states 65,537 distinct maps, so the one payload decoder
        # is given the index alone: tables of 3 and 70,000 rows.
        index = {"index": base64.b64encode(np.asarray([[0, value]], "<i4").tobytes()).decode()}
        rehash(index, "index")
        with pytest.raises(DomainError, match=re.escape(
                f"assignment index: {value} at [0, 1] is not below 70000")):
            quasiaction._payloads_from_json(index, "assignment", index=((1, 2), [3, 70_000]))

    def test_label_at_the_degree_is_refused(self):
        doc = json.loads(certificate(4, 8))
        labels = rotations(8, [0, 1, 2, 3])
        labels[1, 2] = 8
        set_label_table(doc, 0, [[0, 1, 2, 3]], labels, [[0, 1, 2, 3]])
        with pytest.raises(DomainError, match=re.escape(
                "field 'slots': slot 0 labels: 8 at [1, 2] is not below 8")):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("degree", FIBER_DEGREES)  # at 256 the row codes renumber
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), forged=st.integers(1, 5))
    def test_the_smallest_label_outside_v_is_named(self, degree, seed, forged):
        # The loader tests the distinct labels in one batch and names the
        # first in sorted order that is not a rotation, wherever it sits.
        doc = json.loads(certificate(257, degree))
        images, labels = slot_rows(doc, 0)
        rng = np.random.default_rng(seed)
        labels[0, rng.integers(0, 257, forged)] = rng.integers(0, degree, (forged, degree))
        labels[0, rng.integers(0, 257)] = degree - 1  # outside V, and last in sorted order
        outside = [w for w in labels[0].tolist() if w != rotations(degree, [w[0]])[0].tolist()]
        set_slot_rows(doc, 0, images, labels)
        with pytest.raises(InvariantViolationError) as caught:
            load_certificate(json.dumps(doc))
        assert str(caught.value) == (f"field 'slots': slot 0 labels: label {min(outside)} is not "
                                     "in V: a map leaves the carrier")

    def test_label_not_a_permutation_is_not_in_v(self):
        doc = json.loads(certificate(4, 8))
        labels = rotations(8, [0, 1, 2, 3])
        labels[1, 0] = labels[1, 1]
        set_slot_rows(doc, 0, [[0, 1, 2, 3]], labels[None])
        with pytest.raises(InvariantViolationError, match=re.escape(
                "slot 0 labels: label [2, 2, 3, 4, 5, 6, 7, 0] is not in V")):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("cells,degree", SLOTS)
    def test_format_7_is_refused_by_name(self, cells, degree):
        doc = json.loads(certificate(cells, degree))
        # format 8 stored every count, format 9 F and the carrier twice, format
        # 10 one label per cell
        for fmt in (7, 8, 9, 10):
            doc["format"] = fmt
            with pytest.raises(DomainError,
                               match=f"certificate format {fmt} is not read, only format 11"):
                load_certificate(json.dumps(doc))


def table_decoded(doc: dict) -> list[list[FiniteMap]]:
    return [table_maps(table, layout) for layout, table in
            (quasiaction._table_from_json(slot, i) for i, slot in enumerate(doc["slots"]))]


def per_entry_decoded(doc: dict) -> list[list[FiniteMap]]:
    return per_entry_tables(doc, [(None, None) if s["fiber"] is None else fiber_from_json(s["fiber"])
                                  for s in doc["slots"]])


def dense_c4() -> str:
    qa = regular_action(cyclic_group(4), epsilon=Fraction(1, 100))
    return emit_certificate(qa, verify(qa))


def fibered_c2_c3() -> str:
    qa, _ = build_free_product_action(cyclic_group(2), cyclic_group(3), [0, 1], [0, 1], 1,
                                      Fraction(1, 10), seed=0)
    return emit_certificate(qa, verify(qa))


def product_83_11() -> str:
    big = [k for i in range(1, 21) for k in (i, -i)]
    a = cyclic_quasi_action(big, 83, Fraction(1, 10))
    b = cyclic_quasi_action([1, -1, 2, -2], 11, Fraction(1, 10))
    qa = direct_product_qa([(a, a.claimed_f), (b, b.claimed_f)], Fraction(1, 10))
    return emit_certificate(qa, verify(qa))


def finitary_n1() -> str:
    qa = finitary_extension_qa(1, 21, Fraction(20, 21))
    return emit_certificate(qa, verify(qa))


class TestPerEntryOracle:
    @pytest.mark.parametrize("make", [dense_c4, fibered_c2_c3, product_83_11, finitary_n1])
    def test_rows_decoded_alone_are_the_table(self, make):
        doc = json.loads(make())
        tables = table_decoded(doc)
        assert [len(t) for t in tables] == [s["maps"] for s in doc["slots"]]
        assert per_entry_decoded(doc) == tables
        assert tables == slot_maps(load_certificate(make())[0])

    @pytest.mark.parametrize("cells,degree", SLOTS)
    def test_rows_decoded_alone_at_each_dtype_edge(self, cells, degree):
        qa = action(cells, degree and cyclic_fiber(degree), 3, 1)
        doc = json.loads(emit_certificate(qa, verify(qa)))
        assert per_entry_decoded(doc) == table_decoded(doc) == slot_maps(qa)
