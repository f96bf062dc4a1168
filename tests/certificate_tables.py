"""Format 10 certificate documents in the tests: read and rewrite the slot
tables and the assignment as arrays, each rewrite hashed again, and the
per-entry decoder of format 7 kept as the oracle of the table decoder.
An action's slot tables (int32 rows of cell images, then labels) are read
as maps through table_maps alone.  every_count writes a report with every
count, as format 8 stored it, for tests that compare two reports in full.

A slot's "images" payload is its (rows, cells) table of cell images and
"labels" its (rows, cells, degree) labels, one sha256 over both; the
assignment's "index" payload is (keys, slots), with its own sha256.  Each
payload is little-endian in the narrowest dtype of its bound.
"""

import base64
import hashlib

import numpy as np

from quasiact.errors import InvariantViolationError
from quasiact.finmap import FiniteMap
from quasiact.util import canonical_json, format_fraction


def dtype_of(bound: int) -> np.dtype:
    """The payload dtype rule, stated apart from the codec."""
    return np.dtype("<u1" if bound <= 256 else "<u2" if bound <= 65_536 else "<i4")


def raw(part: dict, name: str) -> bytes:
    return base64.b64decode(part[name])


def rehash(part: dict, *names: str) -> None:
    """Set part's sha256 to the hash of its named payloads' bytes, in order."""
    part["sha256"] = hashlib.sha256(b"".join(raw(part, n) for n in names)).hexdigest()


def encode(values, bound: int) -> str:
    return base64.b64encode(np.asarray(values, dtype_of(bound)).tobytes()).decode()


def degree_of(slot: dict) -> int:
    return 0 if slot["fiber"] is None else slot["fiber"]["degree"]


def slot_rows(doc: dict, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot s's table as int64 arrays: images (rows, cells), labels (rows, cells, degree)."""
    slot = doc["slots"][s]
    cells, degree, rows = slot["cells"], degree_of(slot), slot["maps"]
    images = np.frombuffer(raw(slot, "images"), dtype_of(cells)).reshape(rows, cells)
    labels = np.frombuffer(raw(slot, "labels"), dtype_of(degree)).reshape(rows, cells, degree)
    return images.astype(np.int64), labels.astype(np.int64)


def set_slot_rows(doc: dict, s: int, images, labels=None) -> None:
    """Write slot s's table from images (rows, cells) and labels (rows, cells,
    degree; none when dense) in the slot's dtypes, with its row count and hash."""
    slot = doc["slots"][s]
    images = np.asarray(images)
    labels = np.zeros(images.shape + (0,), int) if labels is None else np.asarray(labels)
    slot.update(maps=len(images), images=encode(images, slot["cells"]),
                labels=encode(labels, degree_of(slot)))
    rehash(slot, "images", "labels")


def assignment(doc: dict) -> dict:
    """The assignment as key -> list of one index per slot."""
    a, sizes = doc["assignment"], [s["maps"] for s in doc["slots"]]
    index = np.frombuffer(raw(a, "index"), dtype_of(max(sizes))).reshape(-1, len(sizes))
    return dict(zip(a["keys"], index.tolist()))


def set_assignment(doc: dict, values: dict) -> None:
    """Write the assignment from key -> indices: the keys in key order, their
    rows in the dtype of the largest table, hashed."""
    keys = sorted(values)
    a = doc["assignment"] = {"keys": keys}
    a["index"] = encode([values[k] for k in keys], max(s["maps"] for s in doc["slots"]))
    rehash(a, "index")


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
    images and labels split from the slot's payloads, hashed alone as one
    entry, then decoded and sifted by slot_from_entry.  fibers holds each
    slot's (Fiber, membership test), or (None, None) when dense."""
    tables = []
    for slot, (fiber, member) in zip(doc["slots"], fibers):
        cells, degree = slot["cells"], degree_of(slot)
        image_bytes = cells * dtype_of(cells).itemsize
        label_bytes = cells * degree * dtype_of(degree).itemsize
        images, labels = raw(slot, "images"), raw(slot, "labels")
        table = []
        for r in range(slot["maps"]):
            row = images[r * image_bytes : (r + 1) * image_bytes]
            row_labels = labels[r * label_bytes : (r + 1) * label_bytes]
            entry = {"cells": base64.b64encode(row).decode(),
                     "labels": base64.b64encode(row_labels).decode(),
                     "sha256": hashlib.sha256(row + row_labels).hexdigest()}
            table.append(slot_from_entry(entry, cells, fiber, member))
        tables.append(table)
    return tables


def slot_from_entry(entry: dict, cells: int, fiber, member) -> FiniteMap:
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
    for w in sorted(set(map(tuple, fmap.slots[0].labels.tolist()))) if member else ():
        if not member([w])[0]:
            raise InvariantViolationError(f"label {list(w)} is not in V: a map leaves the carrier")
    return fmap


def every_count(report) -> str:
    """The canonical JSON of a report with every count, flag and verdict:
    format 8's stored report, which format 10 summarises.  Two reports give
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
