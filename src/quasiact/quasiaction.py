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
Maps are dense or fibered (finmap), and every count goes through one code
path: per cell, |V| points at a time, a dense map being one point per cell.
"""

from __future__ import annotations

import base64
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    IncompleteSupportError,
    InvariantViolationError,
    PreconditionError,
)
from .finmap import (
    Defect,
    Fiber,
    FiniteMap,
    after,
    differs,
    fixpoint_count,
    identity_like,
    inverse_map,
    similarity_defect,
)
from .groups import (
    FiniteSubset, GroupHandle, _decode_int, _decode_ints, _decode_list, _decode_object,
    _decode_str, _field, group_from_json,
)
from .util import canonical_json, check_epsilon, format_fraction, parse_fraction, parse_json


# verify stacks maps in chunks of max(1, POINTS // width) rows, width being
# the int32 entries of one map (n for a dense map): about 1 MiB per chunk,
# and one map at a time on large dense carriers.
POINTS = 1 << 18


class QuasiAction:
    """A carrier size plus a finite table of group element -> map.

    The maps are all dense or all fibered over one Fiber (``fiber``, else
    None).  The assignment's keys are validated here, once (F's by
    FiniteSubset), and the support check builds the claimed F's F x F
    product table, once."""

    def __init__(
        self,
        owner: GroupHandle,
        carrier_n: int,
        assignment: Mapping,
        claimed_f: FiniteSubset | Iterable,
        claimed_epsilon: Fraction,
    ):
        self.owner = owner
        self.carrier_n = int(carrier_n)
        self.claimed_f = FiniteSubset(owner, claimed_f)
        self.claimed_epsilon = check_epsilon(claimed_epsilon)
        table = {}
        self.fiber = None
        for elem, fmap in assignment.items():
            owner.check_element(elem)
            if not isinstance(fmap, FiniteMap):
                fmap = FiniteMap(fmap)
            if fmap.n != self.carrier_n:
                raise DomainError(
                    f"map for {owner.element_key(elem)} has carrier {fmap.n}, "
                    f"expected {self.carrier_n}"
                )
            if table and fmap.fiber != self.fiber:
                raise DomainError("the maps of a quasi-action must share one fiber")
            self.fiber = fmap.fiber
            table[elem] = fmap
        self.assignment = table
        self._claimed_products = self._products(self.claimed_f)

    def _products(self, fset: FiniteSubset) -> list:
        """The products e*f for e, f in F, row by row, once the identity, F and
        each product are found supported; entries are the assignment's keys."""
        g = self.owner
        support = {elem: elem for elem in self.assignment}
        products = (g._mul(e, f) for e in fset for f in fset)
        table = []
        for elem in itertools.chain([g.identity], fset, products):
            if elem not in support:
                raise IncompleteSupportError(g.element_key(elem), "needed for (F, epsilon)")
            table.append(support[elem])
        return table[1 + len(fset) :]

    @property
    def support(self) -> FiniteSubset:
        return FiniteSubset(self.owner, self.assignment.keys())

    def map_for(self, elem) -> FiniteMap:
        try:
            return self.assignment[elem]
        except KeyError:
            raise IncompleteSupportError(self.owner.element_key(elem)) from None

    def with_map(self, elem, fmap: FiniteMap) -> "QuasiAction":
        """A copy with one assignment replaced (for perturbation studies)."""
        table = dict(self.assignment)
        table[elem] = fmap
        return QuasiAction(
            self.owner, self.carrier_n, table, self.claimed_f, self.claimed_epsilon
        )


def require_dense(qa: QuasiAction, construction: str) -> None:
    """Refuse a fibered action to a construction that reads carrier images."""
    if qa.fiber is not None:
        raise PreconditionError(
            f"{construction} reads dense carrier images; this action's maps are fibered"
        )


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
    order.  Counts are Python ints, exact past 2**63.  The keys of the F x F
    products and of the identity are kept in memory only, for the per-pair
    views; F and the group give them, so they are neither stored nor compared."""

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
        worst = max(self.a_counts + self.c_agreements, default=0)
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


def _stack(maps: list[FiniteMap]) -> np.ndarray:
    """The maps' packed images as the rows of one array (a view for a single map)."""
    return maps[0].packed[None] if len(maps) == 1 else np.stack([m.packed for m in maps])


def _chunks(maps: list[FiniteMap], width: int) -> list[tuple[int, np.ndarray]]:
    """(first row, stacked packed images) for runs of max(1, POINTS // width) maps."""
    rows = max(1, POINTS // width)
    return [(i, _stack(maps[i : i + rows])) for i in range(0, len(maps), rows)]


def verify(
    qa: QuasiAction,
    f: FiniteSubset | Iterable | None = None,
    epsilon: Fraction | None = None,
    strict: bool = False,
) -> VerificationReport:
    """Measure conditions (a), (b), (c) of qa on F by exhaustive counting.

    Elements are not validated again, so products and inverses use the
    owner's unchecked ops; the claimed F reuses qa's product table, another
    F gets one per call.  Counts are integer numpy gathers over chunks of
    max(1, POINTS // width) stacked maps, one per cell: a cell's |V| points
    disagree iff its cell images or labels do (one point per cell for dense
    maps).  Verdicts cross-multiply the counts exactly."""
    g = qa.owner
    fset = qa.claimed_f if f is None else FiniteSubset(g, f)
    eps = check_epsilon(qa.claimed_epsilon if epsilon is None else epsilon)
    table = qa._claimed_products if fset == qa.claimed_f else qa._products(fset)

    one = g.identity
    n = qa.carrier_n
    maps = qa.assignment
    ident = identity_like(maps[one])
    cells, degree = ident.labels.shape
    width, per_cell = ident.packed.size, ident.fiber_size

    def split(stack):  # packed rows -> (images, labels)
        return stack[:, :cells], stack[:, cells:].reshape(len(stack), cells, degree)

    def counts_of(x, y) -> list[int]:  # disagreeing points per row of x against y
        # Python ints: |V| times a cell count can pass 2**63.
        return [per_cell * c for c in np.count_nonzero(differs(x, y), axis=-1).tolist()]

    keys = {e: g.element_key(e) for e in maps}
    f_elems = list(fset)
    right = _chunks([maps[e] for e in f_elems], width)

    k = len(f_elems)
    a_counts = []
    for i, e in enumerate(f_elems):
        row = table[i * k : (i + 1) * k]
        for start, stack in right:
            products = _stack([maps[p] for p in row[start : start + len(stack)]])
            a_counts += counts_of(after(maps[e], *split(stack)), split(products))

    unit = (ident.images, ident.labels)
    agree = [n - c for _, s in right for c in counts_of(split(s), unit)]

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
        chunks = _chunks([maps[e] for e in ordered], width)
        pair_counts = []
        for i, a in enumerate(ordered):
            for start, stack in chunks:  # the rows after row i
                rest = stack[max(0, i + 1 - start) :]
                pair_counts += counts_of(split(rest), (maps[a].images, maps[a].labels))
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


FORMAT = 4

# hashlib is imported inside the codec functions: it loads OpenSSL, which
# adds about 4 MiB of RSS to every command, including those that never
# read or write a certificate.


def _map_to_json(fmap: FiniteMap) -> dict:
    import hashlib

    raws = [a.astype("<i4", copy=False).tobytes() for a in (fmap.images, fmap.labels)]
    entry = {k: base64.b64encode(r).decode("ascii") for k, r in zip(("cells", "labels"), raws)}
    entry["sha256"] = hashlib.sha256(b"".join(raws)).hexdigest()
    return entry


def _map_from_json(entry, carrier_n: int, fiber: Fiber | None) -> FiniteMap:
    """Decode one map entry, checking the length of each payload (carrier_n
    / |V| cells, and as many labels of V's degree) and its hash before ranges."""
    import hashlib

    if not isinstance(entry, dict) or set(entry) != {"cells", "labels", "sha256"}:
        raise InvariantViolationError("a map entry needs exactly cells, labels and sha256")
    degree = 0 if fiber is None else fiber.degree
    cells = carrier_n if fiber is None else carrier_n // fiber.order
    raws = []
    for key, count in (("cells", cells), ("labels", cells * degree)):
        try:
            raws.append(base64.b64decode(entry[key], validate=True))
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise InvariantViolationError(f"map payload is not valid base64: {exc}") from None
        if len(raws[-1]) != 4 * count:
            raise InvariantViolationError(
                f"map payload {key!r} has {len(raws[-1])} bytes, expected {4 * count}"
            )
    if hashlib.sha256(b"".join(raws)).hexdigest() != entry["sha256"]:
        raise InvariantViolationError("map payload does not match its sha256")
    images, labels = (np.frombuffer(raw, "<i4") for raw in raws)
    return FiniteMap(images, labels.reshape(cells, degree), fiber)


def _fiber_from_json(doc, carrier_n: int):
    """The certificate's V and its stabilizer chain, or (None, None) for a
    dense action.  The generators must be permutations of the stated degree,
    Schreier-Sims must give the stated order, and carrier_n must be a whole
    number of cells times that order."""
    if doc is None:
        return None, None
    from .constructions.girth import schreier_sims

    degree = _field(doc, "degree", _decode_int)
    gens = _field(doc, "generators", lambda v: tuple(
        tuple(_decode_ints(p, degree)) for p in _decode_list(v)))
    fiber = Fiber(gens, _field(doc, "order", _decode_int))
    order, member = schreier_sims(gens)
    if order != fiber.order:
        raise InvariantViolationError(
            f"the fiber states order {fiber.order}; its generators give {order}"
        )
    if carrier_n % fiber.order:
        raise InvariantViolationError(
            f"carrier_n {carrier_n} is not a multiple of |V| = {fiber.order}")
    return fiber, member


def emit_certificate(qa: QuasiAction, report: VerificationReport) -> str:
    """Deterministic compact JSON binding the assignment to its measurements
    (format 4).

    Every map is one entry: base64 of its cell images and of its labels,
    each as little-endian int32, and one sha256 over both.  A dense map's
    labels are empty.  "fiber" states V's degree, generators and order for
    a fibered action, and is null for a dense one.  The encoder builds each
    map's entry when it reaches it, so the base64 texts are never all held
    beside the output.
    """
    g, v = qa.owner, qa.fiber
    doc = {
        "format": FORMAT,
        "group": g.describe(),
        "carrier_n": qa.carrier_n,
        "epsilon": format_fraction(qa.claimed_epsilon),
        "F": [g.element_key(e) for e in qa.claimed_f],
        "fiber": None if v is None else {
            "degree": v.degree, "generators": v.generators, "order": v.order},
        "assignment": {g.element_key(elem): fmap for elem, fmap in qa.assignment.items()},
        "report": report_to_json(report),
    }
    return canonical_json(doc, default=_map_to_json) + "\n"


def _elements_from_keys(g: GroupHandle, keys) -> list:
    """The elements keys name, each key the JSON text of an element's encoding."""
    return [g.decode(parse_json(k, f"element key {k!r:.60}")) for k in map(_decode_str, keys)]


def load_certificate(text: str) -> tuple[QuasiAction, VerificationReport]:
    """Read a format 4 certificate.  Formats 1-3 are refused by name: run
    their request again with ``quasiact construct`` to get format 4.

    A fibered action's |V| is recomputed from its generators, and every
    label is sifted into V: a label outside V would move points off the
    carrier, so it is refused.

    The stored report is not parsed.  verify measures the stored maps again
    at the report's own F, epsilon and strictness, and the certificate is
    refused unless that fresh report, written as canonical JSON, is exactly
    the stored one (so ``1`` is not ``true``).  The fresh report is returned.
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
    fiber, member = _field(doc, "fiber", lambda v: _fiber_from_json(v, carrier_n))
    assignment = _field(doc, "assignment", lambda v: dict(zip(
        _elements_from_keys(g, _decode_object(v)),
        [_map_from_json(e, carrier_n, fiber) for e in v.values()],
    )))
    if member is not None:
        labels = {tuple(w) for m in assignment.values() for w in m.labels.tolist()}
        for w in sorted(labels):
            if not member(w):
                raise InvariantViolationError(
                    f"label {list(w)} is not in V, so its map leaves the carrier"
                )
    claimed_f = FiniteSubset(g, _field(doc, "F", lambda v: _elements_from_keys(g, _decode_list(v))))
    qa = QuasiAction(
        g,
        carrier_n,
        assignment,
        claimed_f,
        _field(doc, "epsilon", parse_fraction),
    )
    stored = _field(doc, "report", _decode_object)
    f = _field(stored, "f", lambda v: _elements_from_keys(g, _decode_list(v)))
    epsilon = _field(stored, "epsilon", parse_fraction)
    strict = _field(stored, "strict", lambda v: v is not None)
    # Only the report's text is kept while verify runs, not the document.
    stored = canonical_json(stored)
    del doc
    report = verify(qa, f, epsilon, strict)
    if canonical_json(report_to_json(report)) != stored:
        raise InvariantViolationError(
            "the stored report differs from the one verify measures on the stored maps"
        )
    return qa, report
