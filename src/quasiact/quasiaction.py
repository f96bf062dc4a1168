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

import binascii
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
)
from .finmap import (
    Defect, FiniteMap, after, agreements, check_carrier_size, count_dtype, identity_map,
)
from .groups import (
    FiniteSubset, GroupHandle, _decode_int, _decode_list, _decode_object, _decode_str, _field,
    _row_codes, _unique, group_from_json,
)
from .util import check_epsilon, check_written, chunks, format_fraction, parse_fraction, parse_json


# verify gathers slot table rows in chunks of max(1, POINTS // width) rows,
# width being the int32 entries of one row (cells x (1 + V's degree)): about
# 1 MiB per chunk, and one map at a time on large dense carriers.
POINTS = 1 << 18


class QuasiAction:
    """A carrier size plus a finite table of group element -> map, held as
    its slot tables.

    Each supported element has an integer id: its position in key order
    (``elements``; ``ids`` maps back, ``keys`` gives the keys).  The maps
    share one ``layout``: the same cells and fiber (or None) in every slot.
    ``slot_tables`` holds per slot its distinct slot maps as one read-only
    int32 array, a row per map of its cell images then its labels (rows,
    cells * (1 + V's degree)), the rows a certificate stores; and per id one
    index per slot, as an (ids, slots) array numbered by ``_first_use``: the
    same maps give the same tables whether they come one by one (validated
    here) or as tables (``_from_slots``: rows a construction built, merged by
    ``_interned`` as here, or a product's or certificate's tables).
    ``assignment`` is built from the tables' rows on first read.  The keys
    are validated once (F's by FiniteSubset), and the support check builds
    the claimed F's F x F product table of ids, once (a certificate's loader
    hands in the one it formed)."""

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
                raise DomainError(f"map for {owner.element_key(elem)} has carrier {fmap.n}, "
                                  f"expected {int(carrier_n)}")
            if maps and fmap.layout != layout:
                raise DomainError("a quasi-action's maps must share one fiber and size per slot")
            layout = fmap.layout
            maps[elem] = fmap
        rows = ([m.packed] if len(layout) == 1 else [np.append(s.images, s.labels) for s in m.slots]
                for m in maps.values())  # a one-slot map's packed array is its row
        tables, index = zip(*map(_interned, zip(*rows))) if maps else ((), ())  # per slot
        self._set(owner, layout, tables, maps, np.transpose(index), claimed_f, claimed_epsilon)

    @classmethod
    def _from_slots(cls, *args) -> QuasiAction:
        """The action (owner, layout, tables, elements, index, claimed_f,
        claimed_epsilon[, keys, products]) whose elements[i] maps by
        tables[s][index[i][s]] in each slot s, on the product of the slots'
        sizes.  The caller vouches for the elements decoded and distinct (keys:
        their canonical keys; products: F x F's ids, elements in key order),
        distinct valid int32 rows of each slot's layout (a construction's
        rows, as ``_interned`` merges them) and indices in range."""
        return cls.__new__(cls)._set(*args)

    def _set(self, owner, layout, tables, elements, index, claimed_f, claimed_epsilon,
             keys=None, products=None) -> QuasiAction:
        self.owner = owner
        self.carrier_n = math.prod(cells * (1 if v is None else v.order) for cells, v in layout)
        self.claimed_f = FiniteSubset(owner, claimed_f)
        self.claimed_epsilon = check_epsilon(claimed_epsilon)
        self.layout = layout
        elements = list(elements)
        keys = owner._keys_many(elements) if keys is None else keys
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        self.elements = tuple(elements[i] for i in by_key)
        self.keys = {e: keys[i] for e, i in zip(self.elements, by_key)}
        self.ids = {e: i for i, e in enumerate(self.elements)}
        self._claimed_products = self._products(self.claimed_f) if products is None else products
        index = np.asarray(index, np.intp).reshape(len(keys), len(layout))[by_key]
        self.slot_tables = _first_use(tables, index)
        self._counts = {}  # verify's reports on the claimed F by strictness, at any epsilon
        return self

    @cached_property
    def assignment(self) -> dict:
        """Element -> map, built from the slot tables' rows on first read."""
        tables, index = self.slot_tables
        rows = [[FiniteMap._of([(r[:c], r[c:].reshape(c, -1), v)]) for r in t]
                for t, (c, v) in zip(tables, self.layout)]
        maps = ([t[i] for t, i in zip(rows, row)] for row in index.tolist())
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


def _interned(rows) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, equal when their bytes are, of int32 rows (an array or
    one by one) in order of first appearance as one array, and each row's number."""
    seen = {}  # a row's bytes -> (its number, the row)
    index = [seen.setdefault(r.tobytes(), (len(seen), r))[0] for r in rows]
    return np.stack([r for _, r in seen.values()]), np.array(index, np.intp)


def _first_use(tables: list, index: np.ndarray) -> tuple[list, np.ndarray]:
    """The canonical slot tables: per slot, the rows in use, in order of
    first use over the rows of ``index`` (the ids, in key order), read-only
    (a table already so is kept, not copied), and the index renumbered to
    match.  Built, product and loaded actions all number their tables so, and
    a certificate must state them so."""
    out, renumbered = [], np.empty_like(index)
    for s, table in enumerate(tables):
        kept = list(dict.fromkeys(index[:, s].tolist()))
        new = np.zeros(len(table), np.intp)
        new[kept] = np.arange(len(kept))
        renumbered[:, s] = new[index[:, s]]
        out.append(table if kept == list(range(len(table))) else table[kept])
        out[-1].setflags(write=False)
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
    for s, (t, layout) in enumerate(zip(tables, qa.layout)):
        rows = index[:, s].take(ids)  # (columns, rows); faster than one 2-d gather
        _, code, first = _unique(_row_codes(rows, itertools.repeat(len(t))))
        total *= np.asarray(measure((identity_map(*layout), t), rows[:, first].T), total.dtype)[code]
    return total


def _stacked(measure, slot: tuple[FiniteMap, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """measure(m, x, ...) on the rows (x, ...) of slot (m, table), m the
    identity map of the table's layout: batched over chunks of max(1, POINTS
    // width) rows, each gathering x, ... from the table."""
    m, table = slot
    step = max(1, POINTS // table.shape[1])
    out = np.zeros(len(rows), count_dtype(m.n))
    for i in range(0, len(rows), step):
        out[i : i + step] = measure(m, *(m.rows(table[c]) for c in rows[i : i + step].T))
    return out


# The _slot_counts measures, per row (x, y) or (x, y, z): the points where x agrees with y,
# or x then y with z; per (x) or (x, y): the points x, or x then y, fixes; per (x): x onto.
_agreements = partial(_stacked, lambda m, x, y, *z: agreements(m, after(x, y), *z) if z
                      else agreements(m, x, y))
_fixpoints = partial(_stacked, lambda m, x, *y: agreements(m, after(x, *y) if y else x, m.rows()))
_bijective = partial(_stacked, lambda m, x: (np.sort(x[0][0]) == m.images).all(-1))


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


def _extreme(counts: tuple, pick=max) -> dict | None:
    """A count array's stored summary: its largest (or, pick=min, smallest)
    value and the first position it occurs at, or None when it is empty."""
    return {pick.__name__: (v := pick(counts)), "at": counts.index(v)} if counts else None


def report_to_json(report: VerificationReport) -> dict:
    """The stored form of a report: each condition's deciding count (the
    largest (a) count and agreement, the smallest pairwise count) with its
    first position, each flag array's first failing position (or None), and
    for readers the verdicts and max_defect.  Every count stays in memory:
    the loader measures them all again and compares this form."""
    s = report.strict
    return {
        "carrier_n": report.carrier_n,
        "epsilon": format_fraction(report.epsilon),
        "condition_a": _extreme(report.a_counts),
        "condition_b": report.identity_defect.disagreements,
        "condition_c": _extreme(report.c_agreements),
        "a_pass": report.a_pass, "b_pass": report.b_pass, "c_pass": report.c_pass,
        "passed": report.passed,
        "max_defect": str(report.max_defect),
        "strict": None if s is None else {
            "identity_exact": s.identity_exact,
            **{k: flags.index(False) if False in (flags := getattr(s, k)) else None
               for k in ("bijective", "fixpoint_free", "inverse_exact")},
            "pairwise": _extreme(s.pair_counts, min),
            "bprime_pass": s.bprime_pass, "cprime_pass": s.cprime_pass, "passed": s.passed,
        },
    }


FORMAT = 13
TABLES = "a slot's table states each slot map once"


def _payload_dtype(bound: int) -> str:
    """The narrowest little-endian dtype of a payload whose values lie below bound."""
    return "<u1" if bound <= 1 << 8 else "<u2" if bound <= 1 << 16 else "<i4"


def _payloads_to_json(**parts) -> dict:
    """Each part (values, bound) as the bytes of its values in
    _payload_dtype(bound), a memoryview (of the array itself when it is so
    already) that util.chunks writes as base64."""
    return {k: memoryview(np.ascontiguousarray(a, _payload_dtype(bound)).reshape(-1).view(np.uint8))
            for k, (a, bound) in parts.items()}


def _payloads_from_json(doc, what: str, **parts) -> list[np.ndarray]:
    """The one payload decoder: each part (shape, bound) of doc is base64 of
    a shape array in _payload_dtype of its largest bound.  Checks, part by
    part, its base64 padding and length, then 0 <= value < bound (bound
    broadcast over the last axis), naming the field (what and the part) and
    the first bad value.  The str is decoded in place; the base64 spelling
    is the acceptance rule's (load_certificate)."""
    out = []
    for name, (shape, bound) in parts.items():
        dtype = np.dtype(_payload_dtype(np.max(bound, initial=0)))
        try:
            raw = binascii.a2b_base64(_field(doc, name, _decode_str))
        except ValueError as exc:  # binascii.Error is a ValueError
            raise InvariantViolationError(f"{what} {name} is not valid base64: {exc}") from None
        if (n := len(raw)) != (size := dtype.itemsize * math.prod(shape)):
            raise InvariantViolationError(f"{what} {name} has {n} bytes, expected {size}")
        out.append(values := np.frombuffer(raw, dtype).reshape(shape))
        bound = np.broadcast_to(np.asarray(bound, np.int64), shape)
        # Each column's extremes against its bound (which varies along the last axis
        # only) are cheaper than comparing every value; the search runs on a bad one.
        if values.size and (values.min() < 0 or (values.reshape(-1, shape[-1]).max(0)
                                                 >= bound[(0,) * (len(shape) - 1)]).any()):
            at = tuple(np.argwhere((values < 0) | (values >= bound))[0].tolist())
            raise DomainError(f"{what} {name}: {values[at]} at {list(at)} is not below {bound[at]}")
    return out


def _slot_to_json(layout: tuple, table: np.ndarray) -> dict:
    cells, v = layout
    slot = {"cells": cells, "maps": len(table), "fiber": None if v is None else v.describe()}
    if v is None:
        return {**slot, **_payloads_to_json(images=(table, cells))}
    labels = table[:, cells:].reshape(len(table) * cells, v.degree)
    # Row codes order the labels lexicographically; at degree 0 each is the empty one.
    codes = _row_codes(labels.T.astype(np.int64), itertools.repeat(v.degree))
    distinct, at, first = _unique(np.broadcast_to(codes, len(labels)))
    return {**slot, "label_count": len(distinct), **_payloads_to_json(
        images=(table[:, :cells], cells), labels=(labels[first], v.degree),
        label_index=(at, len(distinct)))}


def _table_from_json(s, i: int) -> tuple[tuple, np.ndarray]:
    """Slot i's layout (cells, fiber) and table, from its "images" payload
    and, when fibered, its "label_count" labels (at most one per cell) and
    one "label_index" into them per cell.  The label table is sifted into V
    in one batch (a label outside V, or no permutation, would move points
    off the carrier); the rows are gathered from it, none stated twice, as
    emission would state it again.  Keys, label order, unused labels, the
    base64 spelling and V's stated degree and order are the acceptance
    rule's (load_certificate)."""
    # constructions imports this module
    from .constructions.girth import _row_hashes, fiber_from_json

    cells = check_carrier_size(_field(s, "cells", _decode_int))
    fiber = _field(s, "fiber", lambda f: None if f is None else fiber_from_json(f))
    rows, what = _field(s, "maps", _decode_int), f"slot {i}"
    if fiber is None:
        [images] = _payloads_from_json(s, what, images=((rows, cells), cells))
        packed = images.astype(np.int32, copy=False)  # int32 images stay in their bytes
    else:
        d, k = fiber.degree, _field(s, "label_count", _decode_int)
        if k > rows * cells:  # each label is used, so by some cell
            raise InvariantViolationError(f"{what} labels: {k} labels for {rows * cells} cells")
        images, labels, index = _payloads_from_json(s, what, images=((rows, cells), cells),
                                                    labels=((k, d), d),
                                                    label_index=((rows, cells), k))
        for w in labels[~fiber.member(labels)][:1].tolist():  # the first in sorted order
            raise InvariantViolationError(f"{what} labels: label {w} is not in V: "
                                          "a map leaves the carrier")
        packed = np.concatenate([images, labels[index].reshape(rows, cells * d)], axis=1,
                                dtype=np.int32)
    # Rows are compared only where their fingerprints meet.
    _, first, inverse = np.unique(_row_hashes(packed), return_index=True, return_inverse=True)
    for r in np.flatnonzero(first[inverse] != np.arange(rows)).tolist():
        for j in np.flatnonzero(inverse[:r] == inverse[r]).tolist():
            if np.array_equal(packed[r], packed[j]):
                raise InvariantViolationError(f"{TABLES}: slot {i} row {r} repeats row {j}")
    packed.setflags(write=False)
    return (cells, fiber), packed


def _support(g: GroupHandle, f: FiniteSubset, extra=()) -> tuple[list, list, np.ndarray]:
    """The supported elements in key order, their keys as _keys_many writes
    them and F's F x F ids, row by row, for _from_slots: the identity, F, one
    _multiply's products over F, then the elements of the (key, element) pairs
    extra (a certificate's "extra_keys"); one naming an earlier one is refused."""
    f_elems, k = list(f), len(f)
    products, at = g._multiply(f_elems, np.repeat(np.arange(k), k), np.tile(np.arange(k), k))
    # Each element -> what it is; the distinct products keep positions 0, 1, ...
    named = {**dict.fromkeys(products, "a product in F x F"),
             **dict.fromkeys(f_elems, "an element of F"), g.identity: "the identity"}
    for j, (key, e) in enumerate(extra):
        if (was := named.setdefault(e, this := f"the element of extra_keys[{j}]")) != this:
            raise DomainError(f"extra_keys[{j}] {key!r:.60} names {was}, {g.element_key(e)!r:.60}")
    keys = g._keys_many(elems := list(named))
    by_key = sorted(range(len(keys)), key=keys.__getitem__)  # np.argsort(by_key): ids
    return [elems[i] for i in by_key], [keys[i] for i in by_key], np.argsort(by_key)[at]


def emit_certificate(qa: QuasiAction, report: VerificationReport) -> str:
    """Deterministic compact JSON binding the assignment to its measurements
    (format 13), each fact once.  Per slot: its cells, its fiber (V's degree,
    generators and order, or null; the slots' sizes give the carrier) and its
    table's rows, as "maps" rows of "images" (rows, cells).  A fibered slot
    states its "label_count" distinct labels once, sorted, as "labels" (count,
    degree), and one "label_index" into them per cell (rows, cells); a dense
    slot states no labels.  "assignment": the "extra_keys" of the elements F
    does not give (the identity, F, F x F), in key order, and the (elements
    in key order, slots) "index" into the tables.  Payloads are base64 of
    little-endian values in _payload_dtype of their bound (cells, V's degree,
    the label count, the largest table); no hash restates them, as the
    loader binds every byte.  "report" is report_to_json's summary of counts
    measured on qa's carrier and claimed F; another is refused by name."""
    return "".join(chunks(_certificate(qa, report))) + "\n"


def _certificate(qa: QuasiAction, report: VerificationReport) -> dict:
    """The document emit_certificate writes, its payloads memoryviews."""
    f_keys = tuple(qa.keys[e] for e in qa.claimed_f)
    for name, other in (("carrier", report.carrier_n != qa.carrier_n),
                        ("F", report.f_keys != f_keys)):
        if other:
            raise DomainError(f"the report was measured on another {name} than the action's")
    tables, index = qa.slot_tables
    extra = np.ones(len(qa.elements), bool)  # the ids F does not give
    extra[np.r_[qa.ids[qa.owner.identity], qa._ids(qa.claimed_f), qa._claimed_products]] = 0
    return {
        "format": FORMAT,
        "group": qa.owner.describe(),
        "epsilon": format_fraction(qa.claimed_epsilon),
        "F": list(f_keys),
        "slots": list(map(_slot_to_json, qa.layout, tables)),
        "assignment": {"extra_keys": [qa.keys[e] for e in itertools.compress(qa.elements, extra)],
                       **_payloads_to_json(index=(index, max(map(len, tables))))},
        "report": report_to_json(report),
    }


def _elements_from_keys(g: GroupHandle, keys) -> list:
    """Each key's element, its JSON decoded."""
    return [g.decode(parse_json(k, f"element key {k!r:.60}"))
            for k in map(_decode_str, _decode_list(keys))]


def load_certificate(text: str) -> tuple[QuasiAction, VerificationReport]:
    """Read a format 13 certificate; formats 1-12 are refused by name (run
    their request again with ``quasiact construct``).  It loads only if its
    text is what emit_certificate writes for the action it states and the
    report verify measures on it again, on the claimed F at the stored
    report's epsilon and strictness (util.check_written names the first
    differing JSON path, or character): the one check of each key's
    spelling and order, each payload's base64 spelling and V's degree and
    order.  Checked before anything is built, as decoding, allocation and
    _from_slots rely on them: the format, each key an element and no extra
    one an element F gives or another extra's (before any table), each
    payload's base64 padding, length and range, the label count, V's
    generators, the labels in V and no row stated twice; the report, with
    every count, is measured again and returned."""
    doc = parse_json(text, "certificate")
    fmt = _field(doc, "format", _decode_int, 1)  # format 1 had no "format" key
    if fmt != FORMAT:
        raise DomainError(
            f"certificate format {fmt} is not read, only format {FORMAT}: "
            "run its request again with quasiact construct"
        )
    g = _field(doc, "group", group_from_json)
    f = _field(doc, "F", lambda v: FiniteSubset(g, _elements_from_keys(g, v)))
    extra = _field(doc, "assignment",
                   lambda a: _field(a, "extra_keys", partial(_elements_from_keys, g)))
    elements, keys, products = _field(doc, "assignment",
                                      lambda a: _support(g, f, zip(a["extra_keys"], extra)))
    # Per slot, its layout and its table of distinct slot maps.
    slots = _field(doc, "slots", lambda v: [_table_from_json(s, i)
                                            for i, s in enumerate(_decode_list(v))])
    if not slots:
        raise DomainError("field 'slots': a certificate has at least one slot")
    layout, tables = zip(*slots)
    index = _field(doc, "assignment", lambda a: _payloads_from_json(
        a, "assignment", index=((len(keys), len(tables)), [len(t) for t in tables]))[0])
    qa = QuasiAction._from_slots(g, layout, list(tables), elements, index, f,
                                 _field(doc, "epsilon", parse_fraction), keys, products)
    stored = _field(doc, "report", _decode_object)
    del doc  # only the report and the text are kept while verify runs
    report = verify(qa, epsilon=_field(stored, "epsilon", parse_fraction),
                    strict=_field(stored, "strict", lambda v: v is not None))
    check_written(text, _certificate(qa, report), "certificate", f"format {FORMAT}")
    return qa, report
