"""Quasi-action of a group from one of a normal subgroup plus a Folner set.

The data: the quotient Q = G/N as its own group with a projection, whose
kernel is the normal subgroup N, and a section sigma (so that projecting
sigma(q) gives back q), and a finite Folner subset Abar of Q whose right
translates by the projected F leak at most epsilon of its mass.

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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from ..errors import (
    DomainError,
    GroupMismatchError,
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
    """Quotient with projection (its kernel is N) and section, and the chosen
    Folner set; ``lifts`` is A = sigma(Abar) in Folner order, ``index``
    Abar's positions."""

    group: GroupHandle
    quotient: GroupHandle
    project: Callable
    section: Callable
    folner: FiniteSubset
    lifts: tuple = field(init=False, repr=False, compare=False)
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        folner = FiniteSubset(self.quotient, self.folner)
        if len(folner) == 0:
            raise DomainError("Folner set must be nonempty")
        lifts = tuple(self.group.check_element(self.section(q)) for q in folner)
        for q, a in zip(folner, lifts):
            if self.project(a) != q:
                raise InvariantViolationError(f"section fails on {self.quotient.element_key(q)}")
        if self.project(self.group.identity) != self.quotient.identity:
            raise InvariantViolationError("the projection must send the identity to the identity")
        object.__setattr__(self, "folner", folner)
        object.__setattr__(self, "lifts", lifts)
        object.__setattr__(self, "index", {q: i for i, q in enumerate(folner)})


def _blocks(ext: ExtensionData, g) -> list:
    """g's walk over the blocks a of A, in Folner order: (j, a g sigma(ab gb)^-1)
    when ab gb is the j-th element of Abar, None when it leaves Abar.  N is the
    projection's kernel and sigma is injective on Abar, so that is the one a2
    in A with a g a2^-1 in N.  g must already be an element of G."""
    gb = ext.quotient.check_element(ext.project(g))
    qmul, mul, inv = ext.quotient._mul, ext.group._mul, ext.group._inv
    blocks = []
    for q, a in zip(ext.folner, ext.lifts):
        j = ext.index.get(qmul(q, gb))
        if j is None:
            blocks.append(None)
            continue
        conjugated = mul(mul(a, g), inv(ext.lifts[j]))
        if ext.project(conjugated) != ext.quotient.identity:
            key = ext.group.element_key(conjugated)
            raise InvariantViolationError(f"conjugated element escaped the normal subgroup: {key}")
        blocks.append((j, conjugated))
    return blocks


def folner_expansion(ext: ExtensionData, f: FiniteSubset | Iterable) -> Fraction:
    """max over g in F of |Abar * gb \\ Abar| / |Abar|, counted exactly."""
    fset = FiniteSubset(ext.group, f)
    escaped = max((_blocks(ext, g).count(None) for g in fset), default=0)
    return Fraction(escaped, len(ext.folner))


def conjugated_normal_subset(
    ext: ExtensionData, f: FiniteSubset | Iterable
) -> FiniteSubset:
    """H = N intersected with A*F*A^-1: the conjugates of F's block walks."""
    fset = FiniteSubset(ext.group, f)
    return FiniteSubset(ext.group, (b[1] for x in fset for b in _blocks(ext, x) if b))


def integer_folner_interval(projected_f: Iterable[int], epsilon: Fraction) -> FiniteSubset:
    """Smallest interval {0..m-1} in the integers with expansion <= epsilon.

    A shift by k moves exactly |k| points out of the interval, so the least
    modulus is ceil(max|k| / epsilon).
    """
    epsilon = check_epsilon(epsilon)
    bound = max((abs(k) for k in FiniteSubset(IntegerGroup(), projected_f)), default=0)
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
    fset = FiniteSubset(g, f)

    expansion = folner_expansion(ext, fset)
    if expansion > epsilon:
        raise PreconditionError(f"Folner expansion {expansion} exceeds epsilon {epsilon}")

    h_subset = conjugated_normal_subset(ext, fset)
    try:
        h_for_inner = FiniteSubset(psi.owner, iter(h_subset))
    except GroupMismatchError as exc:
        raise PreconditionError(f"inner action's group does not contain all of H: {exc}") from exc
    inner = verify(psi, h_for_inner, epsilon)
    if not inner.passed:
        raise PreconditionError(f"inner action does not verify on H at epsilon {epsilon}")

    claimed = 3 * epsilon
    if claimed >= 1:
        raise PreconditionError(f"3*epsilon = {claimed} leaves (0,1)")

    a_n = len(ext.folner)
    barange = np.arange(psi.carrier_n)
    needed = {g.identity, *fset, *pair_products(fset, fset)}

    assignment = {}
    for elem in sorted(needed, key=g.element_key):
        target, inner = np.arange(a_n), []
        for i, block in enumerate(_blocks(ext, elem)):
            if block is None:
                # ab gb left the Folner set: identity on this block.
                inner.append(barange)
                continue
            target[i], conjugated = block
            if conjugated not in psi.assignment:
                raise IncompleteSupportError(
                    g.element_key(conjugated), "inner action support"
                )
            inner.append(psi.assignment[conjugated].images)
        # Point (b, a_i) is b * |A| + i; column i holds block i's B-images.
        images = np.stack(inner, axis=1).astype(np.int64) * a_n + target
        assignment[elem] = FiniteMap(images.ravel())

    return QuasiAction(g, psi.carrier_n * a_n, assignment, fset, claimed)
