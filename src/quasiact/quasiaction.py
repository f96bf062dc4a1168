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

All comparisons are exact rational comparisons of integer counts.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DomainError,
    GroupMismatchError,
    IncompleteSupportError,
    InvariantViolationError,
)
from .finmap import (
    Defect,
    FiniteMap,
    composition_defect,
    fixpoint_count,
    identity_map,
    inverse_map,
    similarity_defect,
)
from .groups import FiniteSubset, GroupHandle, _decode_int, group_from_json
from .util import (
    canonical_json, check_epsilon, document_json, format_fraction, parse_fraction
)


class QuasiAction:
    """A carrier size plus a finite table of group element -> map."""

    def __init__(
        self,
        owner: GroupHandle,
        carrier_n: int,
        assignment: Mapping,
        claimed_f: FiniteSubset,
        claimed_epsilon: Fraction,
    ):
        if claimed_f.owner != owner:
            raise GroupMismatchError("claimed F belongs to a different group")
        self.owner = owner
        self.carrier_n = int(carrier_n)
        self.claimed_f = claimed_f
        self.claimed_epsilon = check_epsilon(claimed_epsilon)
        table = {}
        for elem, fmap in assignment.items():
            owner.check_element(elem)
            if not isinstance(fmap, FiniteMap):
                fmap = FiniteMap(fmap)
            if fmap.n != self.carrier_n:
                raise DomainError(
                    f"map for {owner.element_key(elem)} has carrier {fmap.n}, "
                    f"expected {self.carrier_n}"
                )
            table[elem] = fmap
        self.assignment = table
        self._require_support_closure()

    def _require_support_closure(self):
        g = self.owner
        required = [g.identity]
        required.extend(self.claimed_f)
        for e in self.claimed_f:
            for f in self.claimed_f:
                required.append(g.mul(e, f))
        for elem in required:
            if elem not in self.assignment:
                raise IncompleteSupportError(
                    g.element_key(elem), "needed for the claimed (F, epsilon)"
                )

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


def extend_assignment(qa: QuasiAction, elements: Iterable) -> QuasiAction:
    """Explicitly extend the support with canonical padding maps.

    Padding is the fixpoint-free involution pairing 2i <-> 2i+1 when the
    carrier size is even, and the identity map otherwise.  Extension never
    happens implicitly anywhere else.
    """
    n = qa.carrier_n
    if n % 2 == 0:
        images = list(range(n))
        for i in range(0, n, 2):
            images[i], images[i + 1] = images[i + 1], images[i]
        pad = FiniteMap(images)
    else:
        pad = identity_map(n)
    table = dict(qa.assignment)
    for elem in elements:
        qa.owner.check_element(elem)
        if elem not in table:
            table[elem] = pad
    return QuasiAction(qa.owner, n, table, qa.claimed_f, qa.claimed_epsilon)


@dataclass(frozen=True)
class PairDefect:
    left_key: str
    right_key: str
    product_key: str
    defect: Defect


@dataclass(frozen=True)
class ElementFlags:
    element_key: str
    bijective: bool
    fixpoint_free: bool
    inverse_exact: bool | None  # None when the inverse is unsupported


@dataclass(frozen=True)
class StrictChecks:
    """Strict-mode measurements; the (b')/(c') verdicts are derived from them."""

    epsilon: Fraction
    identity_exact: bool
    element_flags: tuple[ElementFlags, ...]
    pairwise: tuple[tuple[str, str, Defect], ...]

    @cached_property
    def bprime_pass(self) -> bool:
        return self.identity_exact and all(
            fl.bijective and fl.fixpoint_free and fl.inverse_exact is not False
            for fl in self.element_flags
        )

    @cached_property
    def cprime_pass(self) -> bool:
        return all(d.is_different(1 - self.epsilon) for _, _, d in self.pairwise)

    @property
    def passed(self) -> bool:
        return self.bprime_pass and self.cprime_pass


@dataclass(frozen=True)
class VerificationReport:
    """The counts verify measured; every verdict and max_defect is derived
    from them, so a report cannot state a verdict its counts do not give."""

    carrier_n: int
    epsilon: Fraction
    f_keys: tuple[str, ...]
    pair_defects: tuple[PairDefect, ...]
    identity_defect: Defect
    identity_agreements: tuple[tuple[str, int], ...]
    strict: StrictChecks | None = None

    @cached_property
    def a_pass(self) -> bool:
        return all(p.defect.is_similar(self.epsilon) for p in self.pair_defects)

    @cached_property
    def b_pass(self) -> bool:
        return self.identity_defect.is_similar(self.epsilon)

    @cached_property
    def c_pass(self) -> bool:
        # (1-eps)-different from the identity: disagreements > (1-eps)*n.
        n = self.carrier_n
        return all(
            Defect(n - agree, n).is_different(1 - self.epsilon)
            for _, agree in self.identity_agreements
        )

    @property
    def passed(self) -> bool:
        return self.a_pass and self.b_pass and self.c_pass

    @cached_property
    def max_defect(self) -> Defect:
        """The largest stored count.  Every count here is out of carrier_n
        (verify measures them so), so comparing counts compares the
        fractions exactly."""
        worst = max(
            [self.identity_defect.disagreements]
            + [p.defect.disagreements for p in self.pair_defects]
            + [agree for _, agree in self.identity_agreements]
        )
        return Defect(worst, self.carrier_n)


def verify(
    qa: QuasiAction,
    f: FiniteSubset | Iterable | None = None,
    epsilon: Fraction | None = None,
    strict: bool = False,
) -> VerificationReport:
    """Measure conditions (a), (b), (c) of qa on F by exhaustive counting."""
    g = qa.owner
    if f is None:
        fset = qa.claimed_f
    elif isinstance(f, FiniteSubset):
        if f.owner != g:
            raise GroupMismatchError("F belongs to a different group")
        fset = f
    else:
        fset = FiniteSubset(g, f)
    eps = check_epsilon(qa.claimed_epsilon if epsilon is None else epsilon)

    one = g.identity
    n = qa.carrier_n
    ident = identity_map(n)
    id_map = qa.map_for(one)
    keys = {e: g.element_key(e) for e in qa.assignment}

    pair_defects = []
    for e in fset:
        me = qa.map_for(e)
        for fe in fset:
            prod = g.mul(e, fe)
            d = composition_defect(me, qa.map_for(fe), qa.map_for(prod))
            pair_defects.append(PairDefect(keys[e], keys[fe], keys[prod], d))

    agreements = [
        (keys[e], n - similarity_defect(qa.map_for(e), ident).disagreements)
        for e in fset
        if e != one
    ]

    strict_checks = None
    if strict:
        for e in fset:
            if g.inv(e) not in qa.assignment:
                raise IncompleteSupportError(
                    g.element_key(g.inv(e)), "strict mode needs F^-1 in the support"
                )
        flags = []
        for e in sorted(qa.assignment, key=keys.__getitem__):
            if e == one:
                continue
            m = qa.map_for(e)
            bij = m.is_bijection()
            inv_elem = g.inv(e)
            inverse_exact: bool | None = None
            if inv_elem in qa.assignment:
                inverse_exact = bij and qa.map_for(inv_elem) == inverse_map(m)
            flags.append(ElementFlags(keys[e], bij, fixpoint_count(m) == 0, inverse_exact))
        keyed = [(keys[e], qa.map_for(e)) for e in FiniteSubset(g, [*fset, one])]
        pairwise = [
            (ka, kb, similarity_defect(ma, mb))
            for i, (ka, ma) in enumerate(keyed)
            for kb, mb in keyed[i + 1 :]
        ]
        strict_checks = StrictChecks(eps, id_map == ident, tuple(flags), tuple(pairwise))

    return VerificationReport(
        carrier_n=n,
        epsilon=eps,
        f_keys=tuple(keys[e] for e in fset),
        pair_defects=tuple(pair_defects),
        identity_defect=similarity_defect(id_map, ident),
        identity_agreements=tuple(agreements),
        strict=strict_checks,
    )


def report_to_json(report: VerificationReport) -> dict:
    """The stored form of a report: its counts, then for readers the
    verdicts and max_defect derived from them."""
    doc = {
        "carrier_n": report.carrier_n,
        "epsilon": format_fraction(report.epsilon),
        "f": list(report.f_keys),
        "condition_a": [
            {
                "left": p.left_key,
                "right": p.right_key,
                "product": p.product_key,
                "defect": str(p.defect),
            }
            for p in report.pair_defects
        ],
        "condition_b": {"defect": str(report.identity_defect)},
        "condition_c": [
            {"element": key, "agreements": agree}
            for key, agree in report.identity_agreements
        ],
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
            "epsilon": format_fraction(s.epsilon),
            "identity_exact": s.identity_exact,
            "elements": [
                {
                    "element": fl.element_key,
                    "bijective": fl.bijective,
                    "fixpoint_free": fl.fixpoint_free,
                    "inverse_exact": fl.inverse_exact,
                }
                for fl in s.element_flags
            ],
            "pairwise": [
                {"left": a, "right": b, "defect": str(d)} for a, b, d in s.pairwise
            ],
            "bprime_pass": s.bprime_pass,
            "cprime_pass": s.cprime_pass,
            "passed": s.passed,
        }
    return doc


CERTIFICATE_FORMAT = 2

# hashlib is imported inside the codec functions: it loads OpenSSL, which
# adds about 4 MiB of RSS to every command, including those that never
# read or write a certificate.


def _map_to_json(fmap: FiniteMap) -> dict:
    import hashlib

    raw = fmap.images.astype("<i4", copy=False).tobytes()
    return {
        "int32le": base64.b64encode(raw).decode("ascii"),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def _map_from_json(entry, carrier_n: int) -> FiniteMap:
    """Decode one v2 map entry, checking its length and hash before its range."""
    import hashlib

    if not isinstance(entry, dict) or set(entry) != {"int32le", "sha256"}:
        raise InvariantViolationError("a map entry needs exactly int32le and sha256")
    try:
        raw = base64.b64decode(entry["int32le"], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise InvariantViolationError(f"map payload is not valid base64: {exc}") from None
    if len(raw) != 4 * carrier_n:
        raise InvariantViolationError(
            f"map payload has {len(raw)} bytes, expected {4 * carrier_n} "
            f"for carrier {carrier_n}"
        )
    if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
        raise InvariantViolationError("map payload does not match its sha256")
    return FiniteMap(np.frombuffer(raw, "<i4"))


def emit_certificate(qa: QuasiAction, report: VerificationReport) -> str:
    """Deterministic JSON document binding the assignment to its measurements.

    Each map is stored as base64 of its images as little-endian int32, with
    the sha256 of those bytes.  The encoder builds each map's entry when it
    reaches it, so the base64 texts are never all held beside the output.
    """
    g = qa.owner
    doc = {
        "format": CERTIFICATE_FORMAT,
        "group": g.describe(),
        "carrier_n": qa.carrier_n,
        "epsilon": format_fraction(qa.claimed_epsilon),
        "F": [g.element_key(e) for e in qa.claimed_f],
        "assignment": {g.element_key(elem): fmap for elem, fmap in qa.assignment.items()},
        "report": report_to_json(report),
    }
    return document_json(doc, default=_map_to_json)


def _element_from_key(g: GroupHandle, key):
    if not isinstance(key, str):
        raise DomainError(f"element keys must be strings, got {key!r}")
    return g.decode(json.loads(key))


def load_certificate(text: str) -> tuple[QuasiAction, VerificationReport]:
    """Read a certificate of format 2, or of format 1, which has no "format"
    key and stores each map as a plain list of integers.

    The stored report is not parsed.  verify measures the stored maps again
    at the report's own F, epsilon and strictness, and the certificate is
    refused unless that fresh report, written as canonical JSON, is exactly
    the stored one (so ``1`` is not ``true``).  The fresh report is returned.
    """
    doc = json.loads(text)
    del text  # frees the text now when the caller keeps no reference to it
    g = group_from_json(doc["group"])
    carrier_n = _decode_int(doc["carrier_n"])
    v2 = "format" in doc
    if v2 and doc["format"] != CERTIFICATE_FORMAT:
        raise DomainError(f"unsupported certificate format {doc['format']!r}")
    if not isinstance(doc["assignment"], dict):
        raise DomainError("the certificate's assignment must be a JSON object")
    assignment = {
        _element_from_key(g, key): (
            _map_from_json(entry, carrier_n) if v2 else FiniteMap(entry)
        )
        for key, entry in doc["assignment"].items()
    }
    claimed_f = FiniteSubset(g, (_element_from_key(g, key) for key in doc["F"]))
    qa = QuasiAction(
        g,
        carrier_n,
        assignment,
        claimed_f,
        parse_fraction(doc["epsilon"]),
    )
    stored = doc["report"]
    f = FiniteSubset(g, (_element_from_key(g, key) for key in stored["f"]))
    epsilon = parse_fraction(stored["epsilon"])
    strict = stored.get("strict") is not None
    # Only the report's text is kept while verify runs, not the document.
    stored = canonical_json(stored)
    del doc
    report = verify(qa, f, epsilon, strict)
    if canonical_json(report_to_json(report)) != stored:
        raise InvariantViolationError(
            "the stored report differs from the one verify measures on the stored maps"
        )
    return qa, report
