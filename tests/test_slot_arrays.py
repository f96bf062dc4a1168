"""Slot tables in memory are the rows a certificate stores: per slot one
read-only, C-contiguous int32 array of shape (rows, cells * (1 + degree)),
each row a distinct slot map's cell images followed by its labels.

Checked on a dense C4 action, a fibered C2*C3 action, a multi-slot action
built by QuasiAction from a product's assignment and the many_pairs
extension, each as built and after load_certificate: the arrays' form, their
rows against the emitted certificate's payloads, and a rebuild from
``assignment``.  Loading and verifying builds a number of FiniteMap objects
that does not grow with the table's rows.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from quasiact import (
    FiniteMap, QuasiAction, cyclic_group, emit_certificate, load_certificate, verify,
)
from quasiact.cli import _extension
from quasiact.constructions import (
    build_free_product_action, cyclic_quasi_action, direct_product_qa, finitary_extension_qa,
    regular_action,
)

from certificate_tables import degree_of, slot_rows

C2 = {"kind": "finite", "table": [[0, 1], [1, 0]]}


def dense_c4() -> QuasiAction:
    return regular_action(cyclic_group(4), epsilon=Fraction(1, 100))


def fibered_c2_c3() -> QuasiAction:
    qa, _ = build_free_product_action(cyclic_group(2), cyclic_group(3), [0, 1], [0, 1], 1,
                                      Fraction(1, 10), seed=0)
    return qa


def rebuilt_product() -> QuasiAction:
    """Three slots, the last fibered, built from the product maps one by one."""
    a = cyclic_quasi_action([1, -1, 2, -2], 11, Fraction(1, 10))
    b, c = regular_action(cyclic_group(3), epsilon=Fraction(1, 10)), fibered_c2_c3()
    prod = direct_product_qa([(x, x.claimed_f) for x in (a, b, c)], Fraction(1, 10))
    return QuasiAction(prod.owner, prod.carrier_n, prod.assignment, prod.claimed_f,
                       prod.claimed_epsilon)


def many_pairs_extension() -> QuasiAction:
    return _extension({"epsilon": "1/100", "extension_kind": "product_factor",
                       "quotient": {"kind": "integers"}, "normal": C2,
                       "f": [[1, 0], [-1, 0], [0, 1], [1, 1], [-1, 1]]}, 0)


BUILDS = [dense_c4, fibered_c2_c3, rebuilt_product, many_pairs_extension]


@pytest.fixture(params=[False, True], ids=["built", "loaded"])
def loaded(request):
    return request.param


@pytest.mark.parametrize("build", BUILDS)
class TestSlotTablesAreTheStoredRows:
    def action(self, build, loaded) -> tuple[QuasiAction, str]:
        qa = build()
        text = emit_certificate(qa, verify(qa))
        return (load_certificate(text)[0] if loaded else qa), text

    def test_each_table_is_a_read_only_int32_array(self, build, loaded):
        qa, _ = self.action(build, loaded)
        tables, index = qa.slot_tables
        assert len(tables) == len(qa.layout) == index.shape[1]
        for table, (cells, fiber) in zip(tables, qa.layout):
            degree = 0 if fiber is None else fiber.degree
            assert isinstance(table, np.ndarray) and table.dtype == np.int32
            assert table.ndim == 2 and table.shape[1] == cells * (1 + degree)
            assert not table.flags.writeable and table.flags.c_contiguous
            with pytest.raises(ValueError):
                table[0, 0] = 0
        assert [len(t) for t in tables] == (index.max(axis=0) + 1).tolist()

    def test_rows_are_the_certificate_images_then_labels(self, build, loaded):
        qa, text = self.action(build, loaded)
        doc = json.loads(text)
        for s, (table, slot) in enumerate(zip(qa.slot_tables[0], doc["slots"])):
            images, labels = slot_rows(doc, s)
            rows = np.concatenate([images, labels.reshape(len(labels), -1)], axis=1)
            assert labels.shape[2] == degree_of(slot)
            assert table.shape == rows.shape and np.array_equal(table, rows)

    def test_rebuilding_from_the_assignment_gives_the_same_arrays(self, build, loaded):
        qa, _ = self.action(build, loaded)
        again = QuasiAction(qa.owner, qa.carrier_n, qa.assignment, qa.claimed_f,
                            qa.claimed_epsilon)
        (tables, index), (other, other_index) = qa.slot_tables, again.slot_tables
        assert len(tables) == len(other)
        for table, rebuilt in zip(tables, other):
            assert rebuilt.dtype == np.int32 and not rebuilt.flags.writeable
            assert np.array_equal(table, rebuilt)
        assert np.array_equal(index, other_index)


def maps_built(monkeypatch, text: str) -> int:
    """How many FiniteMap objects load_certificate and a strict verify build:
    every one is packed by FiniteMap._pack, whether built by FiniteMap(...)
    or by FiniteMap._of."""
    built = []
    real = FiniteMap._pack
    monkeypatch.setattr(FiniteMap, "_pack", lambda self, slots: built.append(1) or real(self, slots))
    qa, _ = load_certificate(text)
    verify(qa, strict=True)
    monkeypatch.undo()
    return len(built)


def test_loading_builds_no_map_per_row(monkeypatch):
    small = dense_c4()
    finitary = finitary_extension_qa(1, 21, Fraction(20, 21))
    assert [len(t) for t in finitary.slot_tables[0]] == [102]
    assert [len(t) for t in small.slot_tables[0]] == [4]
    few = maps_built(monkeypatch, emit_certificate(small, verify(small)))
    many = maps_built(monkeypatch, emit_certificate(finitary, verify(finitary)))
    assert many == few <= 6
