"""Format 7 map payloads: each is written in the narrowest little-endian dtype
that holds values below its bound.  The bound is the slot's cells for cell
images and V's degree for labels: uint8 up to 256, uint16 up to 65,536, else
int32.

The int32 codec of format 6 is kept here as the oracle: for the same
QuasiAction, the tables a format 7 certificate loads to are the maps that
int32 payloads of the same tables decode to.
"""

import base64
import functools
import hashlib
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
from quasiact.errors import DomainError, InvariantViolationError
from quasiact.finmap import Fiber

DENSE_CELLS = [1, 255, 256, 257, 65_536, 65_537]
FIBER_DEGREES = [2, 8, 256]


def dtype_of(bound: int) -> np.dtype:
    """The format 7 rule, stated apart from the codec."""
    return np.dtype("<u1" if bound <= 256 else "<u2" if bound <= 65_536 else "<i4")


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


def hashed(cells: bytes, labels: bytes) -> dict:
    """A map entry of the two payloads, with the sha256 of both."""
    return {"cells": base64.b64encode(cells).decode(), "labels": base64.b64encode(labels).decode(),
            "sha256": hashlib.sha256(cells + labels).hexdigest()}


def int32_entry(fmap: FiniteMap) -> dict:
    """The format 6 codec: both payloads as little-endian int32."""
    return hashed(*(a.astype("<i4").tobytes() for a in fmap.slots[0][:2]))


def int32_decoded(entry: dict, degree: int) -> tuple[list, list]:
    images, labels = (np.frombuffer(base64.b64decode(entry[k]), "<i4") for k in ("cells", "labels"))
    return images.tolist(), labels.reshape(images.size, degree).tolist()


def entry(images, labels, cells: int, degree: int) -> dict:
    """A hand-built format 7 entry: images in cells' dtype, labels in degree's."""
    return hashed(np.asarray(images, dtype_of(cells)).tobytes(),
                  np.asarray(labels, dtype_of(degree)).tobytes())


class TestRoundTrip:
    @pytest.mark.parametrize("cells,degree", SLOTS)
    @settings(max_examples=4, deadline=None)
    @given(order=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), strict=st.booleans())
    def test_emit_load_emit_identical(self, cells, degree, order, seed, strict):
        qa = action(cells, degree and cyclic_fiber(degree), order, seed)
        cert = emit_certificate(qa, verify(qa, strict=strict))
        loaded, report = load_certificate(cert)
        assert emit_certificate(loaded, report) == cert
        degree = degree or 0
        for e in json.loads(cert)["slots"][0]["maps"]:
            assert len(base64.b64decode(e["cells"])) == dtype_of(cells).itemsize * cells
            assert (len(base64.b64decode(e["labels"]))
                    == dtype_of(degree).itemsize * cells * degree)

    @pytest.mark.parametrize("cells,degree", SLOTS)
    @settings(max_examples=4, deadline=None)
    @given(order=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_tables_are_what_int32_payloads_decode_to(self, cells, degree, order, seed):
        qa = action(cells, degree and cyclic_fiber(degree), order, seed)
        cert = emit_certificate(qa, verify(qa))
        [table], _ = load_certificate(cert)[0].slot_tables
        [oracle], _ = qa.slot_tables
        written = json.loads(cert)["slots"][0]["maps"]
        assert len(table) == len(oracle) == len(written)
        for fmap, expected, e in zip(table, oracle, written):
            images, labels = int32_decoded(int32_entry(expected), degree or 0)
            assert fmap.slots[0].images.tolist() == images
            assert fmap.slots[0].labels.tolist() == labels
            assert e == entry(images, labels, cells, degree or 0)

    @pytest.mark.parametrize("cells,degree", [(255, None), (65_536, None), (257, 8)])
    def test_int32_payloads_are_refused_by_length(self, cells, degree):
        # Up to 65,536 cells, a format 6 cells payload is 4 or 2 times too long.
        doc = json.loads(certificate(cells, degree))
        [[fmap]], _ = action(cells, degree and cyclic_fiber(degree), 1, 0).slot_tables
        doc["slots"][0]["maps"][0] = int32_entry(fmap)
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"map payload 'cells' has {4 * cells} bytes, "
                f"expected {dtype_of(cells).itemsize * cells}")):
            load_certificate(json.dumps(doc))


class TestRefusals:
    """A tampered payload, hashed again, is refused for the reason it breaks."""

    @pytest.mark.parametrize("cells,degree,key", [
        (100, None, "cells"), (257, None, "cells"), (65_537, None, "cells"),
        (257, 8, "cells"), (1, 8, "labels"), (257, 256, "labels")])
    @pytest.mark.parametrize("items", [-1, 1])
    def test_one_item_short_or_long(self, cells, degree, key, items):
        doc = json.loads(certificate(cells, degree))
        slot = doc["slots"][0]
        bound, count = (cells, cells) if key == "cells" else (degree, cells * degree)
        e = slot["maps"][0]
        raws = {k: base64.b64decode(e[k]) for k in ("cells", "labels")}
        size = dtype_of(bound).itemsize
        raws[key] = raws[key][:-size] if items < 0 else raws[key] + bytes(size)
        slot["maps"][0] = hashed(raws["cells"], raws["labels"])
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"map payload {key!r} has {size * (count + items)} bytes, "
                f"expected {size * count}")):
            load_certificate(json.dumps(doc))

    def test_image_at_or_past_the_cells_is_refused_in_its_dtype(self):
        # Byte 200 is a valid uint8 but no cell of a 100-cell slot.
        doc = json.loads(certificate(100, None))
        images = [200] + list(range(1, 100))
        doc["slots"][0]["maps"][0] = entry(images, [], 100, 0)
        with pytest.raises(DomainError, match="image out of range for carrier size 100"):
            load_certificate(json.dumps(doc))

    def test_label_at_the_degree_is_refused(self):
        doc = json.loads(certificate(4, 8))
        labels = rotations(8, [0, 1, 2, 3])
        labels[0, 0] = 8
        doc["slots"][0]["maps"][0] = entry([0, 1, 2, 3], labels, 4, 8)
        with pytest.raises(DomainError, match="every label must be a permutation of 0..7"):
            load_certificate(json.dumps(doc))

    @pytest.mark.parametrize("cells,degree", SLOTS)
    def test_format_6_is_refused_by_name(self, cells, degree):
        doc = json.loads(certificate(cells, degree))
        doc["format"] = 6
        with pytest.raises(DomainError, match="certificate format 6 is not read, only format 7"):
            load_certificate(json.dumps(doc))
