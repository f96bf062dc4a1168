"""Format 11 label tables: a fibered slot states its distinct labels once,
sorted, and one index into them per cell.  Byte-identical round trips, one
refusal for each way a table can be wrong, the slot keys the reader refuses,
and format 10's per-cell label decoding kept as the oracle of the tables."""

import base64
import functools
import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from quasiact import (
    FiniteMap, FiniteSubset, QuasiAction, cyclic_group, emit_certificate, load_certificate, verify,
)
from quasiact.cli import main
from quasiact.constructions import build_free_product_action, direct_product_qa, regular_action
from quasiact.errors import DomainError, InvariantViolationError
from quasiact.finmap import Fiber
from quasiact.quasiaction import _table_from_json
from quasiact.util import canonical_json

from certificate_tables import (
    format_10_slot, format_10_table, label_table, raw, set_label_table, set_slot_rows, slot_rows,
)

EPS = Fraction(1, 10)


@functools.cache
def free_product(n: int):
    qa, _ = build_free_product_action(cyclic_group(2), cyclic_group(3), [0, 1], [0, 1], n, EPS,
                                      seed=0, order_cap=2_000_000)
    return qa


@functools.cache
def c2_c3(n: int) -> str:
    qa = free_product(n)
    return emit_certificate(qa, verify(qa))


@functools.cache
def c5_times_c2_c3() -> str:
    """C5's regular action, a dense slot, times C2*C3 at N = 2, a fibered one."""
    c5 = regular_action(cyclic_group(5), epsilon=EPS)
    fp = free_product(2)
    qa = direct_product_qa([(c5, c5.claimed_f), (fp, fp.claimed_f)], EPS)
    return emit_certificate(qa, verify(qa))


CERTIFICATES = {"C2*C3 N=1": lambda: c2_c3(1), "C2*C3 N=2": lambda: c2_c3(2),
                "C2*C3 N=3": lambda: c2_c3(3), "C5 x C2*C3 N=2": c5_times_c2_c3}


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
class TestLabelTables:
    def test_round_trip_is_byte_identical(self, name):
        text = CERTIFICATES[name]()
        assert emit_certificate(*load_certificate(text)) == text

    def test_each_distinct_label_once_sorted_and_used(self, name):
        doc = json.loads(CERTIFICATES[name]())
        for s, slot in enumerate(doc["slots"]):
            if slot["fiber"] is None:
                assert set(slot) == {"cells", "fiber", "maps", "images", "sha256"}
                continue
            table, index = label_table(slot)
            assert table.tolist() == sorted(map(list, set(map(tuple, table.tolist()))))
            assert np.array_equal(np.unique(index), np.arange(slot["label_count"]))
            assert index.shape == (slot["maps"], slot["cells"])
            # one label per cell, as format 10 stated them
            labels = slot_rows(doc, s)[1]
            assert np.array_equal(np.unique(labels.reshape(-1, table.shape[1]), axis=0), table)

    def test_format_10_decoding_gives_the_same_tables(self, name):
        text = CERTIFICATES[name]()
        tables = load_certificate(text)[0].slot_tables[0]
        for i, slot in enumerate(json.loads(text)["slots"]):
            layout, table = _table_from_json(slot, i)
            oracle_layout, oracle = format_10_table(format_10_slot(slot), i)
            assert layout == oracle_layout
            assert table.dtype == oracle.dtype == np.int32
            assert np.array_equal(table, oracle) and np.array_equal(table, tables[i])
            with pytest.raises(InvariantViolationError, match=re.escape(
                    f"slot {i} payload does not match its sha256")):
                format_10_table(dict(format_10_slot(slot), sha256="0" * 64), i)


def test_sizes():
    # Format 10 wrote 9,513 and 21,396 bytes here, one label per cell.
    assert len(c2_c3(2)) <= 5_000
    assert len(c2_c3(3)) <= 13_000


def edited(text: str, edit) -> str:
    """text with edit(doc, images, table, index) applied to slot 0's arrays."""
    doc = json.loads(text)
    slot = doc["slots"][0]
    images = slot_rows(doc, 0)[0]
    table, index = label_table(slot)
    edit(doc, images, table.copy(), index.copy())
    return json.dumps(doc)


def unsorted(doc, images, table, index):
    # labels 0 and 1 trade places, and so do their indices: the same maps
    swap = np.arange(len(table))
    swap[[0, 1]] = [1, 0]
    set_label_table(doc, 0, images, table[swap], swap[index])


def repeated(doc, images, table, index):
    # label 3 stated again as label 4, and one of its cells pointed there
    first = np.argwhere(index == 3)[0]
    index[index > 3] += 1
    index[tuple(first)] = 4
    set_label_table(doc, 0, images, np.insert(table, 4, table[3], axis=0), index)


def unused(doc, images, table, index):
    # a label of V that no cell uses: the first product of two labels that the table lacks
    stated = set(map(tuple, table.tolist()))
    extra = next(p for a in table for b in table if (p := tuple(a[b].tolist())) not in stated)
    set_label_table(doc, 0, images, np.vstack([table, extra]), index)


def past_the_table(doc, images, table, index):
    index[0, 0] = len(table)
    set_label_table(doc, 0, images, table, index)


def cell_labels_edited(label):
    """Cell 0 of row 1 takes label(degree), the table written as the codec would."""
    def edit(doc, images, table, index):
        labels = table[index]
        labels[1, 0] = label(table.shape[1])
        set_slot_rows(doc, 0, images, labels)
    return edit


# V is generated by even permutations, so a transposition lies outside it.
outside_v = cell_labels_edited(lambda d: [1, 0, *range(2, d)])
no_permutation = cell_labels_edited(lambda d: [0, 0, *range(2, d)])

# The acceptance rule refuses a label table that emission would not write: the
# label order shows in the index, a repeated or unused label in the count.
REFUSALS = [
    (unsorted, InvariantViolationError, "certificate field 'slots[0].label_index' states "),
    (repeated, InvariantViolationError,
     "certificate field 'slots[0].label_count' states 45, where format 11 writes {count}"),
    (unused, InvariantViolationError,
     "certificate field 'slots[0].label_count' states 45, where format 11 writes {count}"),
    (past_the_table, DomainError,
     "field 'slots': slot 0 label_index: {count} at [0, 0] is not below {count}"),
    (outside_v, InvariantViolationError,
     "slot 0 labels: label [1, 0, 2, 3, 4, 5] is not in V: a map leaves the carrier"),
    (no_permutation, InvariantViolationError,
     "slot 0 labels: label [0, 0, 2, 3, 4, 5] is not in V: a map leaves the carrier"),
]


@pytest.mark.parametrize("edit,error,message", REFUSALS, ids=[r[0].__name__ for r in REFUSALS])
def test_a_wrong_label_table_is_refused(tmp_path, capsys, edit, error, message):
    text = c2_c3(1)
    slot = json.loads(text)["slots"][0]
    assert slot["fiber"]["degree"] == 6
    message = message.format(count=slot["label_count"])
    bad = edited(text, edit)
    with pytest.raises(error, match=re.escape(message)):
        load_certificate(bad)
    path = tmp_path / "bad.json"
    path.write_text(bad)
    assert main(["verify", "--qa", str(path), "--epsilon", "1/10"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_the_unsorted_edit_keeps_the_maps():
    # Only the order of the table is wrong: the same rows, sorted again, load.
    doc = json.loads(edited(c2_c3(1), unsorted))
    images, labels = slot_rows(doc, 0)
    set_slot_rows(doc, 0, images, labels)
    assert canonical_json(doc) + "\n" == c2_c3(1)


@pytest.mark.parametrize("s,key,value", [
    (1, "note", "x"), (0, "note", None), (0, "labels", ""), (0, "label_count", 0),
    (0, "label_index", ""),
])
def test_a_slot_key_that_is_not_read_is_refused(tmp_path, capsys, s, key, value):
    # Slot 0 of the product is C5's dense slot, slot 1 the free product's
    # fibered one.  The acceptance rule names the key by its path.
    doc = json.loads(c5_times_c2_c3())
    doc["slots"][s][key] = value
    message = f"certificate field 'slots[{s}].{key}' is not written by format 11"
    with pytest.raises(InvariantViolationError, match=re.escape(message)):
        load_certificate(json.dumps(doc))
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--qa", str(path), "--epsilon", "1/5"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_a_key_in_a_slot_fiber_that_is_not_read_is_refused():
    doc = json.loads(c5_times_c2_c3())
    doc["slots"][1]["fiber"]["note"] = 0
    with pytest.raises(InvariantViolationError, match=re.escape(
            "certificate field 'slots[1].fiber.note' is not written by format 11")):
        load_certificate(json.dumps(doc))


def test_a_fibered_slot_states_its_label_count():
    doc = json.loads(c2_c3(1))
    del doc["slots"][0]["label_count"]
    with pytest.raises(DomainError, match="missing field 'label_count'"):
        load_certificate(json.dumps(doc))


def test_the_label_payloads_are_hashed():
    # Each slot's sha256 covers its payloads in written order: a fibered
    # slot's images, labels and label_index, a dense slot's images; the
    # assignment's covers its index.
    for make in CERTIFICATES.values():
        doc = json.loads(make())
        for part in doc["slots"] + [doc["assignment"]]:
            names = (("index",) if "index" in part else ("images",) if part["fiber"] is None
                     else ("images", "labels", "label_index"))
            assert part["sha256"] == hashlib.sha256(b"".join(raw(part, n) for n in names)).hexdigest()
    doc = json.loads(c2_c3(1))
    slot = doc["slots"][0]
    index = bytearray(raw(slot, "label_index"))
    index[0] ^= 1
    slot["label_index"] = base64.b64encode(bytes(index)).decode()
    # The acceptance rule measures the changed maps again: the stored report is the first difference.
    with pytest.raises(InvariantViolationError, match=re.escape(
            "certificate field 'report.condition_a.max' states 0, where format 11 writes 360")):
        load_certificate(json.dumps(doc))


def trivial_fiber_certificate() -> str:
    """C2 swapping two cells, fibered over the trivial V of degree 0."""
    g, fiber = cyclic_group(2), Fiber(((),), 1)
    maps = {k: FiniteMap(images, np.zeros((2, 0), int), fiber)
            for k, images in ((0, [0, 1]), (1, [1, 0]))}
    qa = QuasiAction(g, 2, maps, FiniteSubset(g, [0, 1]), Fraction(1, 2))
    return emit_certificate(qa, verify(qa))


def test_a_fiber_of_degree_0_states_one_empty_label():
    text = trivial_fiber_certificate()
    slot = json.loads(text)["slots"][0]
    assert (slot["label_count"], slot["labels"], raw(slot, "label_index")) == (1, "", bytes(4))
    assert emit_certificate(*load_certificate(text)) == text


def test_more_labels_than_cells_are_refused_before_any_is_read():
    # At degree 0 the labels payload is empty whatever the count, so the
    # count is bounded by the cells before anything of its size is built.
    doc = json.loads(trivial_fiber_certificate())
    doc["slots"][0]["label_count"] = 10**12
    with pytest.raises(InvariantViolationError, match=re.escape(
            f"field 'slots': slot 0 labels: {10**12} labels for 4 cells")):
        load_certificate(json.dumps(doc))
