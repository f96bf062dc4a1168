"""Quasi-action of a group from one of a normal subgroup plus a Folner set.

The data: a normal subgroup N of G given by a membership test, the quotient
Q = G/N as its own group with a projection and a section sigma (so that
projecting sigma(q) gives back q), and a finite Folner subset Abar of Q
whose right translates by the projected F leak at most epsilon of its mass.

With A = sigma(Abar) the carrier is B x A (B the carrier of the inner
quasi-action psi of N) and

    (b, a) . Phi(g) = (b . psi(a g sigma(ab gb)^-1), sigma(ab gb))
                      when ab gb lies in Abar, identity otherwise,

writing xb for the projection of x.  The conjugated elements handed to psi
all lie in N; when psi verifies on H = N & (A F A^-1) at epsilon, the output
verifies at 3 epsilon: Folner leakage costs 2 epsilon of the a-coordinates
and psi's own defect epsilon of the b-coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from ..errors import (
    DomainError,
    IncompleteSupportError,
    InvariantViolationError,
    PreconditionError,
)
from ..finmap import FiniteMap
from ..groups import FiniteSubset, GroupHandle, IntegerGroup, pair_products
from ..quasiaction import QuasiAction, require_dense, verify
from ..util import check_epsilon


@dataclass(frozen=True)
class ExtensionData:
    """Normal subgroup, quotient with section, and the chosen Folner set."""

    group: GroupHandle
    normal_contains: Callable
    quotient: GroupHandle
    project: Callable
    section: Callable
    folner: FiniteSubset

    def __post_init__(self):
        if self.folner.owner != self.quotient:
            raise DomainError("Folner set must live in the quotient group")
        if len(self.folner) == 0:
            raise DomainError("Folner set must be nonempty")
        for q in self.folner:
            self.group.check_element(self.section(q))
            self.check_section_at(q)
        if not self.normal_contains(self.group.identity):
            raise InvariantViolationError("normal subgroup must contain the identity")

    def check_section_at(self, q):
        lifted = self.section(q)
        if self.project(lifted) != q:
            raise InvariantViolationError(
                f"section fails on {self.quotient.element_key(q)}"
            )
        return lifted


def folner_expansion(ext: ExtensionData, f: FiniteSubset | Iterable) -> Fraction:
    """max over g in F of |Abar * gb \\ Abar| / |Abar|, counted exactly."""
    fset = f if isinstance(f, FiniteSubset) else FiniteSubset(ext.group, f)
    abar = list(ext.folner)
    inside = set(abar)
    worst = Fraction(0)
    for g in fset:
        gb = ext.project(g)
        escaped = sum(1 for q in abar if ext.quotient.mul(q, gb) not in inside)
        worst = max(worst, Fraction(escaped, len(abar)))
    return worst


def conjugated_normal_subset(
    ext: ExtensionData, f: FiniteSubset | Iterable
) -> FiniteSubset:
    """H = N intersected with A*F*A^-1, enumerated over all |A|^2 |F| triples."""
    fset = f if isinstance(f, FiniteSubset) else FiniteSubset(ext.group, f)
    g = ext.group
    lifts = [ext.check_section_at(q) for q in ext.folner]
    members = []
    for a in lifts:
        for x in fset:
            ax = g.mul(a, x)
            for a2 in lifts:
                candidate = g.mul(ax, g.inv(a2))
                if ext.normal_contains(candidate):
                    members.append(candidate)
    return FiniteSubset(g, members)


def integer_folner_interval(projected_f: Iterable[int], epsilon: Fraction) -> FiniteSubset:
    """Smallest interval {0..m-1} in the integers with expansion <= epsilon.

    A shift by k moves exactly |k| points out of the interval, so the least
    modulus is ceil(max|k| / epsilon).
    """
    epsilon = check_epsilon(epsilon)
    bound = max((abs(int(k)) for k in projected_f), default=0)
    m = -(-bound * epsilon.denominator // epsilon.numerator) or 1  # ceil division
    return FiniteSubset(IntegerGroup(), range(m))


def amenable_extension_qa(
    psi: QuasiAction,
    ext: ExtensionData,
    f: FiniteSubset | Iterable,
    epsilon: Fraction,
) -> QuasiAction:
    """Assemble the two-branch action on B x A and return it with claim 3*eps.

    Preconditions: the Folner expansion over F is at most epsilon, and psi
    verifies as an (H, epsilon)-quasi-action for H = N & (A F A^-1).  psi's
    support must cover every conjugated element the formula meets on
    F, F*F and the identity; a missing one raises naming the element.
    """
    require_dense(psi, "the amenable extension")
    epsilon = check_epsilon(epsilon)
    g = ext.group
    fset = f if isinstance(f, FiniteSubset) else FiniteSubset(g, f)
    if fset.owner != g:
        raise DomainError("F must live in the extension's group")

    expansion = folner_expansion(ext, fset)
    if expansion > epsilon:
        raise PreconditionError(f"Folner expansion {expansion} exceeds epsilon {epsilon}")

    h_subset = conjugated_normal_subset(ext, fset)
    try:
        h_for_inner = FiniteSubset(psi.owner, iter(h_subset))
    except Exception as exc:
        raise PreconditionError(f"inner action's group does not contain all of H: {exc}") from exc
    inner = verify(psi, h_for_inner, epsilon)
    if not inner.passed:
        raise PreconditionError(f"inner action does not verify on H at epsilon {epsilon}")

    claimed = 3 * epsilon
    if claimed >= 1:
        raise PreconditionError(f"3*epsilon = {claimed} leaves (0,1)")

    abar = list(ext.folner)
    lifts = [ext.check_section_at(q) for q in ext.folner]
    q_index = {q: i for i, q in enumerate(abar)}
    b_n = psi.carrier_n
    a_n = len(abar)
    size = b_n * a_n

    needed = {g.identity, *fset, *pair_products(fset, fset)}

    assignment = {}
    barange = np.arange(b_n, dtype=np.int64)
    for elem in sorted(needed, key=g.element_key):
        gb = ext.project(elem)
        images = np.empty(size, dtype=np.int64)
        for i, (q, a) in enumerate(zip(abar, lifts)):
            target_q = ext.quotient.mul(q, gb)
            j = q_index.get(target_q)
            if j is None:
                # ab gb left the Folner set: identity on this block.
                images[barange * a_n + i] = barange * a_n + i
                continue
            a2 = lifts[j]
            conjugated = g.mul(g.mul(a, elem), g.inv(a2))
            if not ext.normal_contains(conjugated):
                raise InvariantViolationError(
                    "conjugated element escaped the normal subgroup: "
                    + g.element_key(conjugated)
                )
            if conjugated not in psi.assignment:
                raise IncompleteSupportError(
                    g.element_key(conjugated), "inner action support"
                )
            inner_map = np.asarray(psi.assignment[conjugated].images, dtype=np.int64)
            images[barange * a_n + i] = inner_map[barange] * a_n + j
        assignment[elem] = FiniteMap(images)

    return QuasiAction(g, size, assignment, fset, claimed)
