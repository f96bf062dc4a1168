"""Format 13 certificate documents in the tests: read and rewrite the slot
tables and the assignment as arrays, and two older decoders kept as
oracles of the table decoder: format 10's, which read one label per cell
under one sha256, and format 7's per-entry one.  An action's slot
tables (int32 rows of cell images, then labels) are read as maps through
table_maps alone.  every_count writes a report with every count, as format
8 stored it, for tests that compare two reports in full.

A slot's "images" payload is its (rows, cells) table of cell images.  A
fibered slot adds its "label_count" distinct labels, sorted, as "labels"
(count, degree) and one "label_index" into them per cell (rows, cells).
The assignment's "index" payload is (elements, slots), over the supported
elements in key order: the identity, F and the products of F x F, which F
gives, and the elements of its "extra_keys".  Each payload is little-endian
in the narrowest dtype of its bound; none is hashed.
"""

import base64
import hashlib
import json

import numpy as np

from quasiact.errors import InvariantViolationError
from quasiact.finmap import FiniteMap
from quasiact.groups import group_from_json
from quasiact.util import canonical_json, format_fraction


def dtype_of(bound: int) -> np.dtype:
    """The payload dtype rule, stated apart from the codec."""
    return np.dtype("<u1" if bound <= 256 else "<u2" if bound <= 65_536 else "<i4")


def raw(part: dict, name: str) -> bytes:
    return base64.b64decode(part[name])


def encode(values, bound: int) -> str:
    return base64.b64encode(np.asarray(values, dtype_of(bound)).tobytes()).decode()


def degree_of(slot: dict) -> int:
    return 0 if slot["fiber"] is None else slot["fiber"]["degree"]


def slot_rows(doc: dict, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot s's table as int64 arrays: images (rows, cells), labels (rows,
    cells, degree), each cell's label gathered from the label table."""
    slot = doc["slots"][s]
    cells, degree, rows = slot["cells"], degree_of(slot), slot["maps"]
    images = np.frombuffer(raw(slot, "images"), dtype_of(cells)).reshape(rows, cells)
    if not degree:
        return images.astype(np.int64), np.zeros((rows, cells, 0), np.int64)
    table, index = label_table(slot)
    return images.astype(np.int64), table[index]


def label_table(slot: dict) -> tuple[np.ndarray, np.ndarray]:
    """A fibered slot's label table (count, degree) and its (rows, cells)
    index, as int64 arrays."""
    degree, count = degree_of(slot), slot["label_count"]
    table = np.frombuffer(raw(slot, "labels"), dtype_of(degree)).reshape(count, degree)
    index = np.frombuffer(raw(slot, "label_index"), dtype_of(count))
    return table.astype(np.int64), index.reshape(slot["maps"], -1).astype(np.int64)


def set_label_table(doc: dict, s: int, images, table, index) -> None:
    """Write fibered slot s from images (rows, cells), a label table (count,
    degree) and its index (rows, cells) as given, sorted or not, in the
    slot's dtypes, with its row and label counts."""
    slot = doc["slots"][s]
    images, table = np.asarray(images), np.asarray(table).reshape(-1, degree_of(slot))
    slot.update(maps=len(images), label_count=len(table), images=encode(images, slot["cells"]),
                labels=encode(table, degree_of(slot)), label_index=encode(index, len(table)))


def set_slot_rows(doc: dict, s: int, images, labels=None) -> None:
    """Write slot s's table from images (rows, cells) and labels (rows, cells,
    degree; none when dense) as the codec does: a dense slot's images alone,
    a fibered slot's distinct labels sorted, each cell indexing its own."""
    slot = doc["slots"][s]
    images = np.asarray(images)
    if not degree_of(slot):
        slot.update(maps=len(images), images=encode(images, slot["cells"]))
        return
    labels = np.asarray(labels).reshape(-1, degree_of(slot))
    table, index = np.unique(labels, axis=0, return_inverse=True)
    set_label_table(doc, s, images, table, index.reshape(images.shape))


def format_10_slot(slot: dict) -> dict:
    """Slot as format 10 wrote it: "images", then one label per cell as
    "labels" (rows, cells, degree), one sha256 over both."""
    old = {k: slot[k] for k in ("cells", "fiber", "maps", "images")}
    old["labels"] = encode(slot_rows({"slots": [slot]}, 0)[1], degree_of(slot))
    old["sha256"] = hashlib.sha256(raw(old, "images") + raw(old, "labels")).hexdigest()
    return old


def format_10_table(s: dict, i: int) -> tuple[tuple, np.ndarray]:
    """Format 10's decoder of slot i, kept as the oracle: one sha256 over
    its images and per-cell labels payloads, in that order, every cell's
    label deduplicated and the distinct ones sifted into V in one batch, no
    row stated twice."""
    from quasiact.constructions.girth import fiber_from_json
    from quasiact.quasiaction import TABLES, _payloads_from_json

    if hashlib.sha256(raw(s, "images") + raw(s, "labels")).hexdigest() != s["sha256"]:
        raise InvariantViolationError(f"slot {i} payload does not match its sha256")
    cells, fiber_doc, rows = s["cells"], s["fiber"], s["maps"]
    fiber = None if fiber_doc is None else fiber_from_json(fiber_doc)
    d = 0 if fiber is None else fiber.degree
    images, labels = _payloads_from_json(s, f"slot {i}", images=((rows, cells), cells),
                                         labels=((rows, cells, d), d))
    if d:
        distinct = np.unique(labels.reshape(-1, d), axis=0)
        for w in distinct[~fiber.member(distinct)][:1].tolist():
            raise InvariantViolationError(f"slot {i} labels: label {w} is not in V: "
                                          "a map leaves the carrier")
    packed = np.concatenate([images, labels.reshape(rows, cells * d)], axis=1, dtype=np.int32)
    seen = {}
    for r, row in enumerate(packed):
        if (j := seen.setdefault(row.tobytes(), r)) != r:
            raise InvariantViolationError(f"{TABLES}: slot {i} row {r} repeats row {j}")
    return (cells, fiber), packed


def given_keys(doc: dict) -> set[str]:
    """The keys F gives: the identity's, F's and those of F x F's products,
    each product by the group's scalar mul, F's keys decoded one by one."""
    g = group_from_json(doc["group"])
    f = [g.decode(json.loads(k)) for k in doc["F"]]
    return set(map(g.element_key, [g.identity, *f, *(g.mul(a, b) for a in f for b in f)]))


def assignment(doc: dict) -> dict:
    """The assignment as key -> list of one index per slot, over the keys F
    gives and the extra keys, in key order."""
    a, sizes = doc["assignment"], [s["maps"] for s in doc["slots"]]
    index = np.frombuffer(raw(a, "index"), dtype_of(max(sizes))).reshape(-1, len(sizes))
    return dict(zip(sorted(given_keys(doc) | set(a["extra_keys"])), index.tolist()))


def set_assignment(doc: dict, values: dict) -> None:
    """Write the assignment from key -> indices: the keys F does not give as
    "extra_keys", all rows in key order in the dtype of the largest table,
    its fields in the emitter's order."""
    keys, given = sorted(values), given_keys(doc)
    doc["assignment"] = {"extra_keys": [k for k in keys if k not in given],
                         "index": encode([values[k] for k in keys],
                                         max(s["maps"] for s in doc["slots"]))}


def table_maps(table: np.ndarray, layout: tuple) -> list[FiniteMap]:
    """Each row of a slot table of layout (cells, fiber or None) as its
    one-slot map, built by the public FiniteMap(images, labels, fiber), so
    its range and permutation checks run on every row."""
    cells, fiber = layout
    return [FiniteMap(r[:cells], None if fiber is None else r[cells:].reshape(cells, -1), fiber)
            for r in table]


def slot_maps(qa) -> list[list[FiniteMap]]:
    """Every slot table of qa as its rows' maps (table_maps)."""
    return [table_maps(t, layout) for t, layout in zip(qa.slot_tables[0], qa.layout)]


def per_entry_tables(doc: dict, fibers) -> list[list[FiniteMap]]:
    """Every slot's table decoded row by row, the format 7 way: each row's
    images and per-cell labels split from the slot's table, hashed alone as one
    entry, then decoded and sifted by slot_from_entry.  fibers holds each
    slot's Fiber, or None when dense."""
    tables = []
    for slot, fiber in zip(doc["slots"], fibers):
        cells, degree = slot["cells"], degree_of(slot)
        image_bytes = cells * dtype_of(cells).itemsize
        label_bytes = cells * degree * dtype_of(degree).itemsize
        images, labels = slot_rows(doc, len(tables))
        images = images.astype(dtype_of(cells)).tobytes()
        labels = labels.astype(dtype_of(degree)).tobytes()
        table = []
        for r in range(slot["maps"]):
            row = images[r * image_bytes : (r + 1) * image_bytes]
            row_labels = labels[r * label_bytes : (r + 1) * label_bytes]
            entry = {"cells": base64.b64encode(row).decode(),
                     "labels": base64.b64encode(row_labels).decode(),
                     "sha256": hashlib.sha256(row + row_labels).hexdigest()}
            table.append(slot_from_entry(entry, cells, fiber))
        tables.append(table)
    return tables


def slot_from_entry(entry: dict, cells: int, fiber) -> FiniteMap:
    """Format 7's decoder of one table entry: the length of each payload
    (cells, and as many labels of V's degree, each in the dtype of its
    bound), its hash, then FiniteMap's range and permutation checks, then
    every distinct label sifted into V."""
    if not isinstance(entry, dict) or set(entry) != {"cells", "labels", "sha256"}:
        raise InvariantViolationError("a map entry needs exactly cells, labels and sha256")
    degree = 0 if fiber is None else fiber.degree
    raws, dtypes = [], [dtype_of(b) for b in (cells, degree)]
    for key, count, dtype in zip(("cells", "labels"), (cells, cells * degree), dtypes):
        try:
            raws.append(base64.b64decode(entry[key], validate=True))
        except (TypeError, ValueError) as exc:
            raise InvariantViolationError(f"map payload is not valid base64: {exc}") from None
        if len(raws[-1]) != dtype.itemsize * count:
            raise InvariantViolationError(f"map payload {key!r} has {len(raws[-1])} bytes, "
                                          f"expected {dtype.itemsize * count}")
    if hashlib.sha256(b"".join(raws)).hexdigest() != entry["sha256"]:
        raise InvariantViolationError("map payload does not match its sha256")
    images, labels = map(np.frombuffer, raws, dtypes)
    fmap = FiniteMap(images, labels.reshape(cells, degree), fiber)
    for w in sorted(set(map(tuple, fmap.slots[0].labels.tolist()))) if fiber else ():
        if not fiber.member([w])[0]:
            raise InvariantViolationError(f"label {list(w)} is not in V: a map leaves the carrier")
    return fmap


def every_count(report) -> str:
    """The canonical JSON of a report with every count, flag and verdict:
    format 8's stored report, which formats 9 to 13 summarise.  Two reports give
    the same text iff they agree on every count (a_counts row-major over F,
    c_agreements over F minus the identity, the strict flags over the
    support minus the identity and the pairwise counts over F and the
    identity)."""
    doc = {
        "carrier_n": report.carrier_n,
        "epsilon": format_fraction(report.epsilon),
        "f": report.f_keys,
        "condition_a": report.a_counts,
        "condition_b": report.identity_defect.disagreements,
        "condition_c": report.c_agreements,
        "a_pass": report.a_pass,
        "b_pass": report.b_pass,
        "c_pass": report.c_pass,
        "passed": report.passed,
        "max_defect": str(report.max_defect),
        "strict": None,
    }
    if report.strict is not None:
        s = report.strict
        doc["strict"] = {
            "identity_exact": s.identity_exact,
            "bijective": s.bijective,
            "fixpoint_free": s.fixpoint_free,
            "inverse_exact": s.inverse_exact,
            "pairwise": s.pair_counts,
            "bprime_pass": s.bprime_pass,
            "cprime_pass": s.cprime_pass,
            "passed": s.passed,
        }
    return canonical_json(doc)
