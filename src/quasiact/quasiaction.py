"""Quasi-action data model, the counting verifier, and certificates.

A quasi-action assigns a finite self-map to each group element of a finite
support set.  ``verify`` measures, by exhaustive counting:

  (a) for every ordered pair (e,f) of the checked set F, how far the map of
      e*f is from the composite map of e then f;
  (b) how far the identity element's map is from the identity map;
  (c) for every e in F other than the identity, on how many points its map
      agrees with the identity map (the map must not be (1-eps)-similar to
      the identity, i.e. it must disagree on more than (1-eps)*n points).

Strict mode additionally measures the strengthened conditions: the identity
element maps to the exact identity, every other supported element maps to a
fixpoint-free bijection whose inverse element (when supported) maps to the
exact inverse map, and the maps of distinct elements of F union {1} are
pairwise (1-eps)-different.

Counts are integers and verdicts exact integer comparisons (d*q <= p*n).
Maps are tuples of dense or fibered slots (finmap), and every count goes
through one code path: per cell and slot, then multiplied over the slots.
"""

from __future__ import annotations

import base64
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    IncompleteSupportError,
    InvariantViolationError,
    PreconditionError,
    QuasiactError,
)
from .finmap import Defect, Fiber, FiniteMap, after, agreements, count_dtype, identity_like
from .groups import (
    FiniteSubset, GroupHandle, _decode_int, _decode_ints, _decode_list, _decode_object,
    _decode_str, _field, _row_codes, _unique, group_from_json,
)
from .util import canonical_json, check_epsilon, format_fraction, parse_fraction, parse_json


# verify stacks slot maps in chunks of max(1, POINTS // width) rows, width
# being the int32 entries of one slot map (cells x (1 + V's degree)): about
# 1 MiB per chunk, and one map at a time on large dense carriers.
POINTS = 1 << 18


class QuasiAction:
    """A carrier size plus a finite table of group element -> map, held as
    its slot tables.

    Each supported element has an integer id: its position in key order
    (``elements``; ``ids`` maps back, ``keys`` gives the keys).  The maps
    share one ``layout``: the same cells and fiber (or None) in every slot.
    ``slot_tables`` holds per slot its distinct slot maps (one-slot maps),
    and per id one index per slot, as an (ids, slots) array numbered by
    ``_first_use``: the same maps give the same tables whether they come one
    by one (validated here, interned by content) or as tables
    (``_from_slots``, from a product or a certificate).  ``assignment`` is
    built from the tables on first read.  The keys are validated once (F's
    by FiniteSubset), and the support check builds the claimed F's F x F
    product table of ids, once."""

    def __init__(
        self,
        owner: GroupHandle,
        carrier_n: int,
        assignment: Mapping,
        claimed_f: FiniteSubset | Iterable,
        claimed_epsilon: Fraction,
    ):
        maps, layout = {}, ()
        for elem, fmap in assignment.items():
            owner.check_element(elem)
            if not isinstance(fmap, FiniteMap):
                fmap = FiniteMap(fmap)
            if fmap.n != int(carrier_n):
                raise DomainError(
                    f"map for {owner.element_key(elem)} has carrier {fmap.n}, "
                    f"expected {int(carrier_n)}"
                )
            if maps and fmap.layout != layout:
                raise DomainError("a quasi-action's maps must share one fiber and size per slot")
            layout = fmap.layout
            maps[elem] = fmap
        seen = [{} for _ in layout]  # per slot, a slot map's bytes -> (its number, a map using it)
        index = [[t.setdefault(s.images.tobytes() + s.labels.tobytes(), (len(t), m))[0]
                  for t, s in zip(seen, m.slots)] for m in maps.values()]
        tables = [[m if len(layout) == 1 else FiniteMap._of([m.slots[s]]) for _, m in t.values()]
                  for s, t in enumerate(seen)]
        self._set(owner, carrier_n, layout, tables, maps, index, claimed_f, claimed_epsilon)

    @classmethod
    def _from_slots(cls, *args) -> QuasiAction:
        """The action (owner, carrier_n, layout, tables, elements, index,
        claimed_f, claimed_epsilon[, keys]) whose elements[i] maps by
        tables[s][index[i][s]] in each slot s.  The caller vouches that the
        elements are decoded and distinct (keys, if given, their canonical
        keys), each table holds distinct one-slot maps of its slot's layout,
        and each index is in range."""
        return cls.__new__(cls)._set(*args)

    def _set(self, owner, carrier_n, layout, tables, elements, index, claimed_f,
             claimed_epsilon, keys=None) -> QuasiAction:
        self.owner = owner
        self.carrier_n = int(carrier_n)
        self.claimed_f = FiniteSubset(owner, claimed_f)
        self.claimed_epsilon = check_epsilon(claimed_epsilon)
        self.layout = layout
        elements = list(elements)
        keys = owner._keys_many(elements) if keys is None else keys
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        self.elements = tuple(elements[i] for i in by_key)
        self.keys = {e: keys[i] for e, i in zip(self.elements, by_key)}
        self.ids = {e: i for i, e in enumerate(self.elements)}
        self._claimed_products = self._products(self.claimed_f)
        n = math.prod(cells * (1 if v is None else v.order) for cells, v in layout)
        if n != self.carrier_n:
            raise DomainError(f"the slots' layout has carrier {n}, expected {self.carrier_n}")
        index = np.asarray(index, np.intp).reshape(len(keys), len(layout))[by_key]
        self.slot_tables = _first_use(tables, index)
        self._counts = {}  # verify's reports on the claimed F by strictness, at any epsilon
        return self

    @cached_property
    def assignment(self) -> dict:
        """Element -> map, built from the slot tables on first read."""
        tables, index = self.slot_tables
        maps = ([t[i] for t, i in zip(tables, row)] for row in index.tolist())
        return {e: m[0] if len(m) == 1 else FiniteMap.product(m)
                for e, m in zip(self.elements, maps)}

    def _products(self, fset: FiniteSubset) -> np.ndarray:
        """The ids of the products e*f for e, f in F, row by row, from the
        owner's id-level batch, once the identity, F and each product are
        found supported: the first missing, in that order, is named (only
        that product is built, for its key)."""
        g, f_elems, k = self.owner, list(fset), len(fset)

        def missing(elem):
            return IncompleteSupportError(g.element_key(elem), "needed for (F, epsilon)")

        needed = [g.identity, *f_elems]
        ids = np.fromiter(map(self.ids.get, needed, itertools.repeat(-1)), np.intp, len(needed))
        if ids.min() < 0:
            raise missing(needed[np.argmin(ids)])  # the first -1
        table = g._product_ids(self.elements, np.repeat(ids[1:], k), np.tile(ids[1:], k))
        if table.min(initial=0) < 0:
            e, f = divmod(int(np.argmin(table)), k)
            raise missing(g._mul(f_elems[e], f_elems[f]))
        return table

    def _ids(self, elems: Iterable) -> np.ndarray:
        return np.fromiter(map(self.ids.__getitem__, elems), np.intp)

    def map_for(self, elem) -> FiniteMap:
        try:
            return self.assignment[elem]
        except KeyError:
            raise IncompleteSupportError(self.owner.element_key(elem)) from None


def require_dense(qa: QuasiAction, construction: str) -> None:
    """Refuse a fibered or multi-slot action to a construction that reads
    one dense carrier's images."""
    slots = len(qa.layout)
    if slots > 1 or qa.layout[0][1] is not None:
        kind = f"have {slots} slots (a direct product)" if slots > 1 else "are fibered"
        raise PreconditionError(f"{construction} reads dense carrier images; its maps {kind}")


def _first_use(tables: list, index: np.ndarray) -> tuple[list, np.ndarray]:
    """The canonical slot tables: per slot, the entries in use, in order of
    first use over the rows of ``index`` (the ids, in key order), and the
    index renumbered to match.  Built, product and loaded actions all number
    their tables so, and a certificate must state them so."""
    out, renumbered = [], np.empty_like(index)
    for s, table in enumerate(tables):
        kept = list(dict.fromkeys(index[:, s].tolist()))
        new = np.zeros(len(table), np.intp)
        new[kept] = np.arange(len(kept))
        renumbered[:, s] = new[index[:, s]]
        out.append([table[i] for i in kept])
    return out, renumbered


class PairDefect(NamedTuple):
    """One condition (a) count with its keys: a view for readers, never stored."""

    left_key: str
    right_key: str
    product_key: str
    defect: Defect


@dataclass(frozen=True)
class StrictChecks:
    """Strict-mode counts and flags; the (b')/(c') verdicts are derived from them.

    The flags run over the supported elements other than the identity, sorted
    by key; inverse_exact is None where the inverse is unsupported.  The
    pairwise counts are the row-major upper triangle over F union {1} sorted
    by key, whose keys ``keys`` holds in memory only."""

    carrier_n: int
    epsilon: Fraction
    identity_exact: bool
    bijective: tuple[bool, ...]
    fixpoint_free: tuple[bool, ...]
    inverse_exact: tuple[bool | None, ...]
    pair_counts: tuple[int, ...]
    keys: tuple[str, ...] = field(compare=False, repr=False)

    @cached_property
    def bprime_pass(self) -> bool:
        return (self.identity_exact and all(self.bijective) and all(self.fixpoint_free)
                and False not in self.inverse_exact)

    @cached_property
    def cprime_pass(self) -> bool:
        # (1-eps)-different is monotone in the count: the smallest decides.
        n = self.carrier_n
        return Defect(min(self.pair_counts, default=n), n).is_different(1 - self.epsilon)

    @property
    def passed(self) -> bool:
        return self.bprime_pass and self.cprime_pass

    @cached_property
    def pairwise(self) -> tuple[tuple[str, str, Defect], ...]:
        """(left key, right key, defect) per pair: a view for readers."""
        pairs = itertools.combinations(self.keys, 2)
        n = self.carrier_n
        return tuple((a, b, Defect(c, n)) for (a, b), c in zip(pairs, self.pair_counts))


@dataclass(frozen=True)
class VerificationReport:
    """The counts verify measured; every verdict and max_defect is derived
    from them, so a report cannot state a verdict its counts do not give.

    a_counts holds condition (a) as a k x k row-major table in F order (row
    e, column f), c_agreements condition (c) over F minus the identity, in F
    order.  Counts are Python ints, exact past 2**63: verify counts in
    count_dtype(carrier_n) columns (int64 below 2**63 points, object past
    it) and converts each once.  The keys of the F x F products and of the
    identity are kept in memory only, for the per-pair views; F and the
    group give them, so they are neither stored nor compared."""

    carrier_n: int
    epsilon: Fraction
    f_keys: tuple[str, ...]
    a_counts: tuple[int, ...]
    identity_defect: Defect
    c_agreements: tuple[int, ...]
    product_keys: tuple[str, ...] = field(compare=False, repr=False)
    identity_key: str = field(compare=False, repr=False)
    strict: StrictChecks | None = None

    # Each test is monotone in its count, so one max decides it.
    @cached_property
    def a_pass(self) -> bool:
        return Defect(max(self.a_counts, default=0), self.carrier_n).is_similar(self.epsilon)

    @cached_property
    def b_pass(self) -> bool:
        return self.identity_defect.is_similar(self.epsilon)

    @cached_property
    def c_pass(self) -> bool:
        # (1-eps)-different from the identity: disagreements > (1-eps)*n.
        n = self.carrier_n
        return Defect(n - max(self.c_agreements, default=0), n).is_different(1 - self.epsilon)

    @property
    def passed(self) -> bool:
        return self.a_pass and self.b_pass and self.c_pass

    @cached_property
    def max_defect(self) -> Defect:
        """The largest stored count.  Every count here is out of carrier_n
        (verify measures them so), so comparing counts compares the
        fractions exactly."""
        worst = max(max(self.a_counts, default=0), max(self.c_agreements, default=0))
        return Defect(max(worst, self.identity_defect.disagreements), self.carrier_n)

    @cached_property
    def c_keys(self) -> tuple[str, ...]:
        """The keys of F minus the identity: the elements of c_agreements."""
        return tuple(k for k in self.f_keys if k != self.identity_key)

    # Read-only views for readers, built on first access.
    @cached_property
    def pair_defects(self) -> tuple[PairDefect, ...]:
        pairs = itertools.product(self.f_keys, repeat=2)
        n = self.carrier_n
        return tuple(PairDefect(e, f, p, Defect(c, n))
                     for (e, f), p, c in zip(pairs, self.product_keys, self.a_counts))

    @cached_property
    def identity_agreements(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self.c_keys, self.c_agreements))


def _slot_counts(qa: QuasiAction, columns: list[np.ndarray], measure) -> np.ndarray:
    """Per row of the parallel id arrays ``columns``, the product over the
    slots of measure(slot's table, its distinct rows of indices), at most the
    slot's points (a flag is 0 or 1): per slot one gather of the rows'
    indices, one code per row and one _unique of the codes.  In
    count_dtype(qa.carrier_n) no count or partial product over the slots
    exceeds carrier_n, so int64 cannot wrap; reports get Python ints."""
    tables, index = qa.slot_tables
    ids = np.stack(columns)
    total = np.ones(ids.shape[1], count_dtype(qa.carrier_n))
    for s, t in enumerate(tables):
        rows = index[:, s].take(ids)  # (columns, rows); faster than one 2-d gather
        _, code, first = _unique(_row_codes(rows, itertools.repeat(len(t))))
        total *= np.asarray(measure(t, rows[:, first].T), total.dtype)[code]
    return total


def _stacked(measure, table: list[FiniteMap], rows: np.ndarray) -> np.ndarray:
    """measure(m, x, ...) on the rows (x, ...) of one slot's table, m its
    first entry: batched over chunks of max(1, POINTS // width) rows, each
    stacking the entries it uses once."""
    m = table[0]
    step = max(1, POINTS // m.packed.size)
    out = np.zeros(len(rows), count_dtype(m.n))
    for i in range(0, len(rows), step):
        used, at, _ = _unique(rows[i : i + step].ravel())
        stacked = np.stack([table[j].packed for j in used])
        out[i : i + step] = measure(m, *(m.rows(stacked[c]) for c in at.reshape(-1, rows.shape[1]).T))
    return out


# The _slot_counts measures, per row (x, y) or (x, y, z): the points where x agrees with y,
# or x then y with z; per (x) or (x, y): the points x, or x then y, fixes; per (x): x onto.
_agreements = partial(_stacked, lambda m, x, y, *z: agreements(m, after(x, y), *z) if z
                      else agreements(m, x, y))
_fixpoints = partial(_stacked, lambda m, x, *y: agreements(m, after(x, *y) if y else x,
                                                            identity_like(m).rows()))
_bijective = partial(_stacked, lambda m, x: (np.sort(x[0][0]) == np.arange(m.images.size)).all(-1))


def verify(
    qa: QuasiAction,
    f: FiniteSubset | Iterable | None = None,
    epsilon: Fraction | None = None,
    strict: bool = False,
) -> VerificationReport:
    """Measure conditions (a), (b), (c) of qa on F by exhaustive counting.

    Elements are not validated again, so products and inverses use the
    owner's unchecked ops; the claimed F reuses qa's product table, another
    F gets one per call.  Maps agree at a point iff they agree in every
    slot, so each slot counts each distinct row of its slot maps once
    (qa.slot_tables).  No count depends on epsilon: those on the claimed F
    are kept on qa, and verdicts cross-multiply them exactly."""
    fset = qa.claimed_f if f is None else FiniteSubset(qa.owner, f)
    eps = check_epsilon(qa.claimed_epsilon if epsilon is None else epsilon)
    counts = qa._counts if fset == qa.claimed_f else {}
    if False not in counts:
        table = qa._claimed_products if counts is qa._counts else qa._products(fset)
        counts[False] = _count(qa, fset, table, eps)
    if strict and True not in counts:
        counts[True] = _count_strict(qa, fset, eps)
    return replace(counts[False], epsilon=eps,
                   strict=replace(counts[True], epsilon=eps) if strict else None)


def _count(qa: QuasiAction, fset: FiniteSubset, table: np.ndarray,
           eps: Fraction) -> VerificationReport:
    g, n, keys = qa.owner, qa.carrier_n, qa.keys
    one, f_elems = g.identity, list(fset)
    f_ids, k = qa._ids(f_elems), len(f_elems)
    fixed = _slot_counts(qa, [qa._ids([one, *f_elems])], _fixpoints).tolist()
    key_of = np.array(list(map(keys.__getitem__, qa.elements)), object)
    return VerificationReport(
        carrier_n=n,
        epsilon=eps,
        f_keys=tuple(keys[e] for e in f_elems),
        a_counts=tuple((n - _slot_counts(
            qa, [np.repeat(f_ids, k), np.tile(f_ids, k), table], _agreements)).tolist()),
        identity_defect=Defect(n - fixed[0], n),
        c_agreements=tuple(c for e, c in zip(f_elems, fixed[1:]) if e != one),
        product_keys=tuple(key_of[table].tolist()),
        identity_key=keys[one],
    )


def _count_strict(qa: QuasiAction, fset: FiniteSubset, eps: Fraction) -> StrictChecks:
    """(b') and (c') per distinct slot map, as condition (a).  y is x's inverse iff
    x then y fixes every point (y(x(c)) = c, w_x(c) w_y(x(c)) = 1 on each cell c,
    so x is one-to-one, so onto).  Ids are in key order, so id arrays sort by key."""
    g, n = qa.owner, qa.carrier_n
    inverse = g._inverse_ids(qa.elements)  # each id's inverse's id, or -1
    f_ids, one = qa._ids(fset), qa.ids[g.identity]
    missing = f_ids[inverse[f_ids] < 0]
    if missing.size:
        raise IncompleteSupportError(g.element_key(g._inv(qa.elements[missing[0]])),
                                     "strict mode needs F^-1 in the support")
    others = np.delete(np.arange(len(qa.elements)), one)
    fixed = _slot_counts(qa, [np.append(one, others)], _fixpoints)
    bijective = _slot_counts(qa, [others], _bijective)
    paired = inverse[others] >= 0
    inverse_exact = iter((_slot_counts(
        qa, [others[paired], inverse[others[paired]]], _fixpoints) == n).tolist())
    o = np.array(sorted({*f_ids.tolist(), one}), np.intp)
    left, right = np.triu_indices(len(o), 1)  # row-major, as itertools.combinations
    return StrictChecks(
        n, eps, bool(fixed[0] == n), tuple(bijective.astype(bool).tolist()),
        tuple((fixed[1:] == 0).tolist()),
        tuple(next(inverse_exact) if p else None for p in paired.tolist()),
        tuple((n - _slot_counts(qa, [o[left], o[right]], _agreements)).tolist()),
        tuple(qa.keys[qa.elements[i]] for i in o.tolist()),
    )


def report_to_json(report: VerificationReport) -> dict:
    """The stored form of a report: its count arrays, then for readers the
    verdicts and max_defect derived from them.  It holds no product key and
    no per-pair record: F and the group give both."""
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
    return doc


FORMAT = 7

# hashlib is imported inside the codec functions: it loads OpenSSL, which
# adds about 4 MiB of RSS to every command, including those that never
# read or write a certificate.


def _payload_dtype(bound: int) -> str:
    """The narrowest little-endian dtype of a payload whose values lie below bound."""
    return "<u1" if bound <= 1 << 8 else "<u2" if bound <= 1 << 16 else "<i4"


def _slot_to_json(fmap: FiniteMap) -> dict:
    import hashlib

    # One slot: images (cells,) below cells, labels (cells, degree) below V's
    # degree, as FiniteMap checked, so each narrows to its last axis's dtype.
    raws = [a.astype(_payload_dtype(a.shape[-1])).tobytes() for a in fmap.slots[0][:2]]
    entry = {k: base64.b64encode(r).decode("ascii") for k, r in zip(("cells", "labels"), raws)}
    entry["sha256"] = hashlib.sha256(b"".join(raws)).hexdigest()
    return entry


def _slot_from_json(entry, cells: int, fiber: Fiber | None, member) -> FiniteMap:
    """Decode one table entry, checking the length of each payload (cells,
    and as many labels of V's degree, each in _payload_dtype of its bound)
    and its hash before ranges; then sift every label into V, since one
    outside V would move points off the carrier."""
    import hashlib

    if not isinstance(entry, dict) or set(entry) != {"cells", "labels", "sha256"}:
        raise InvariantViolationError("a map entry needs exactly cells, labels and sha256")
    degree = 0 if fiber is None else fiber.degree
    raws, dtypes = [], [np.dtype(_payload_dtype(b)) for b in (cells, degree)]
    for key, count, dtype in zip(("cells", "labels"), (cells, cells * degree), dtypes):
        try:
            raws.append(base64.b64decode(entry[key], validate=True))
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise InvariantViolationError(f"map payload is not valid base64: {exc}") from None
        if len(raws[-1]) != dtype.itemsize * count:
            raise InvariantViolationError(f"map payload {key!r} has {len(raws[-1])} bytes, "
                                          f"expected {dtype.itemsize * count}")
    if hashlib.sha256(b"".join(raws)).hexdigest() != entry["sha256"]:
        raise InvariantViolationError("map payload does not match its sha256")
    images, labels = map(np.frombuffer, raws, dtypes)
    fmap = FiniteMap(images, labels.reshape(cells, degree), fiber)
    for w in sorted(set(map(tuple, fmap.slots[0].labels.tolist()))) if member else ():
        if not member(w):
            raise InvariantViolationError(f"label {list(w)} is not in V: a map leaves the carrier")
    return fmap


def _table_from_json(s) -> tuple[tuple, list[FiniteMap]]:
    """One slot's layout (cells, fiber) and table: each distinct entry
    decoded, hashed and sifted once."""
    from .constructions.girth import fiber_from_json  # constructions imports this module

    cells = _field(s, "cells", _decode_int)
    fiber = _field(s, "fiber", lambda f: (None, None) if f is None else fiber_from_json(f))
    table = [_slot_from_json(e, cells, *fiber) for e in _field(s, "maps", _decode_list)]
    return (cells, fiber[0]), table


def _indices_from_json(value, tables: list) -> list[int]:
    """One assignment value: a list of one index per slot into its table."""
    at = _decode_ints(value, len(tables))
    if not all(0 <= i < len(t) for i, t in zip(at, tables)):
        raise DomainError(f"map indices {at} are not all below their tables' sizes "
                          f"{[len(t) for t in tables]}")
    return at


def _index_from_json(values: list, tables: list) -> np.ndarray:
    """The assignment's values as one (values, slots) index array if each is a list of
    one Python int (no bool) per slot, in range; else _indices_from_json's, or its error."""
    sizes = [len(t) for t in tables]
    flat = [i for v in values if type(v) is list and len(v) == len(sizes) for i in v]
    if (len(flat) == len(values) * len(sizes) and {*map(type, flat)} <= {int}
            and 0 <= min(flat, default=0) and max(flat, default=0) < 2**63
            and ((index := np.array(flat, np.int64).reshape(-1, len(sizes))) < sizes).all()):
        return index
    return np.array([_indices_from_json(v, tables) for v in values], np.int64)


def emit_certificate(qa: QuasiAction, report: VerificationReport) -> str:
    """Deterministic compact JSON binding the assignment to its measurements
    (format 7).

    "slots" states the carrier once: per slot its cell count, its fiber (V's
    degree, generators and order, or null when dense) and "maps", its table
    of distinct slot maps (QuasiAction.slot_tables).  An entry holds base64
    of the cell images and of the labels (empty when dense), and one sha256
    over both.  Each payload is in the narrowest little-endian dtype of its
    bound (_payload_dtype: uint8 up to 256, uint16 up to 65,536, else
    int32), the bound being the slot's cells for images and V's degree for
    labels.  Every map is a list of one index per slot into that slot's table.
    """
    g = qa.owner
    tables, index = qa.slot_tables
    keys = map(qa.keys.__getitem__, qa.elements)
    doc = {
        "format": FORMAT,
        "group": g.describe(),
        "carrier_n": qa.carrier_n,
        "epsilon": format_fraction(qa.claimed_epsilon),
        "F": [qa.keys[e] for e in qa.claimed_f],
        "slots": [{"cells": cells, "maps": table, "fiber": None if v is None else {
            "degree": v.degree, "generators": v.generators, "order": v.order}}
            for (cells, v), table in zip(qa.layout, tables)],
        "assignment": dict(zip(keys, index.tolist())),
        "report": report_to_json(report),
    }
    return canonical_json(doc, default=_slot_to_json) + "\n"


def _elements_from_keys(g: GroupHandle, keys, known: Mapping) -> dict:
    """Each key's element: known's (key -> element), else the key's JSON decoded."""
    return {k: known[k] if k in known else g.decode(parse_json(k, f"element key {k!r:.60}"))
            for k in map(_decode_str, keys)}


def _assignment_keys(g: GroupHandle, keys: list[str]) -> tuple[dict, list[str] | None]:
    """(_elements_from_keys, keys) from one parse of the joined keys once each
    is its element's canonical key (so it parses alone to that element);
    else (_elements_from_keys, None) by the per-key path, naming any bad key."""
    try:
        elems = [g.decode(x) for x in parse_json("[" + ",".join(keys) + "]", "keys")]
        if len(elems) == len(keys) and g._keys_many(elems) == keys:
            return dict(zip(keys, elems)), keys
    except QuasiactError:  # the per-key path raises it for the key it belongs to
        pass
    return _elements_from_keys(g, keys, {}), None


def _elements_in_key_order(g: GroupHandle, v, known: Mapping) -> dict:
    """_elements_from_keys, refusing the first key not after the one before it."""
    keys = list(map(_decode_str, _decode_list(v)))
    keyed = _elements_from_keys(g, keys, known)
    for before, key in zip(keys, keys[1:]):
        if not before < key:
            raise DomainError(f"key {key!r:.60} does not come after {before!r:.60}: "
                              "each key is stated once, in key order")
    return keyed


def _check_keys(keyed: dict, canonical: Iterable[str]) -> None:
    """Refuse the first stated key of keyed (key -> its element) that is not
    its element's canonical key (element_key): another spelling of an element
    would load as that element."""
    for stated, key in zip(keyed, canonical):
        if stated != key:
            raise InvariantViolationError(
                f"element key {stated!r:.60} is not its element's canonical key {key!r:.60}")


def load_certificate(text: str) -> tuple[QuasiAction, VerificationReport]:
    """Read a format 7 certificate.  Formats 1-6 are refused by name: run
    their request again with ``quasiact construct`` to get format 7.

    Each fibered slot's V is read by girth.fiber_from_json, as a girth
    witness's is, and every label of the slot's table is sifted into V.  The
    tables must be those emit_certificate writes: each entry used, once.
    Every element key (assignment, F, the report's f) must be its element's
    canonical key; the first that is not is refused by name.  F states its
    keys in key order, each once, as emit_certificate writes them.

    The stored report is not parsed.  verify measures the stored maps again
    at the report's own F, epsilon and strictness, and the certificate is
    refused unless that fresh report is exactly the stored one, in value and
    type down to each list entry (so ``1`` is not ``true``); it is returned.
    """
    doc = parse_json(text, "certificate")
    del text  # frees the text now when the caller keeps no reference to it
    fmt = _field(doc, "format", _decode_int, 1)  # format 1 had no "format" key
    if fmt != FORMAT:
        raise DomainError(
            f"certificate format {fmt} is not read, only format {FORMAT}: "
            "run its request again with quasiact construct"
        )
    g = _field(doc, "group", group_from_json)
    carrier_n = _field(doc, "carrier_n", _decode_int)
    # Per slot, its layout and its table of distinct slot maps.
    slots = _field(doc, "slots", lambda v: [_table_from_json(s) for s in _decode_list(v)])
    if not slots:
        raise DomainError("field 'slots': a certificate has at least one slot")
    tables = [t for _, t in slots]
    keyed, keys, index = _field(doc, "assignment", lambda v: (*_assignment_keys(
        g, list(_decode_object(v))), _index_from_json(list(v.values()), tables)))
    f_keyed = _field(doc, "F", lambda v: _elements_in_key_order(g, v, keyed))
    qa = QuasiAction._from_slots(g, carrier_n, tuple(layout for layout, _ in slots), tables,
                                 keyed.values(), index, FiniteSubset(g, f_keyed.values()),
                                 _field(doc, "epsilon", parse_fraction), keys)
    # The assignment's and F's elements are supported, so qa has their
    # canonical keys: each element is keyed once.
    for stated in (keyed, f_keyed):
        _check_keys(stated, map(qa.keys.__getitem__, stated.values()))
    # The tables emit_certificate writes: _first_use kept them as they are,
    # and no entry is stated twice.
    if qa.slot_tables[0] != tables or any(len({m.packed.tobytes() for m in t}) < len(t)
                                          for t in tables):
        raise InvariantViolationError("a slot's table must list each slot map in use once, "
                                      "in order of first use over the sorted keys")
    stored = _field(doc, "report", _decode_object)
    f = _field(stored, "f", lambda v: _elements_from_keys(g, _decode_list(v), keyed))
    _check_keys(f, g._keys_many(list(f.values())))
    epsilon = _field(stored, "epsilon", parse_fraction)
    strict = _field(stored, "strict", lambda v: v is not None)
    del doc  # only the report is kept while verify runs
    report = verify(qa, f.values(), epsilon, strict)
    if not _same_report(stored, report_to_json(report)):
        raise InvariantViolationError(
            "the stored report differs from the one verify measures on the stored maps"
        )
    return qa, report


def _same_report(stored, fresh) -> bool:
    """Whether the decoded stored report is report_to_json's fresh one (tuples as
    lists): the same keys, values and types down to each list entry, so 0 is not false."""
    fresh = list(fresh) if type(fresh) is tuple else fresh
    if type(fresh) is dict:
        return (type(stored) is dict and stored.keys() == fresh.keys()
                and all(_same_report(stored[k], v) for k, v in fresh.items()))
    return type(stored) is type(fresh) and stored == fresh and (
        type(fresh) is not list or list(map(type, stored)) == list(map(type, fresh)))
