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

The blocks of every element the construction needs, 1, F and F*F, are
walked at once on arrays (``_blocks``): F's rows give the expansion and H,
and every row's maps are one gather from psi's slot table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from ..errors import (
    DomainError,
    GroupMismatchError,
    IncompleteSupportError,
    InvariantViolationError,
    PreconditionError,
)
from ..finmap import check_carrier_size
from ..groups import FiniteSubset, GroupHandle, IntegerGroup, pair_products
from ..quasiaction import QuasiAction, _interned, require_dense, verify
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


class _Walk(NamedTuple):
    """The walks of elements of G over the blocks a of A: one row per element
    and one column per block, in Folner order.  ``targets`` holds j when
    ab gb is the j-th element of Abar and -1 when it leaves Abar; ``which``
    the position in ``conjugates`` (distinct, in no particular order) of
    a g sigma(ab gb)^-1, -1 where the block leaves Abar; ``escaped`` marks
    the conjugates whose projection is not the identity, outside N."""

    targets: np.ndarray
    which: np.ndarray
    conjugates: list
    escaped: np.ndarray

    def expansion(self, rows: int | None) -> Fraction:
        """The largest share of blocks leaving Abar in one of the first rows."""
        left = (self.targets[:rows] < 0).sum(axis=1)
        return Fraction(int(left.max(initial=0)), self.targets.shape[1])

    def used(self, rows: int | None) -> list:
        """The conjugates the first rows meet: H when they are F's."""
        which = self.which[:rows]
        return [self.conjugates[c] for c in dict.fromkeys(which[which >= 0].tolist())]

    def check(self, group: GroupHandle, rows: int | None = None, missing=False) -> None:
        """Raise for the first of the first rows that meets a conjugate that
        escaped N (an invariant violation) or else is flagged in ``missing``
        (absent from the inner action's support): its first escaped block,
        else its first missing one, as a walk of that row alone finds them."""
        which = self.which[:rows]
        escaped, hit = (np.append(m, False)[which]  # a block's -1 reads the False
                        for m in (self.escaped, self.escaped | missing))
        if hit.any():
            r = np.argmax(hit.any(axis=1))
            c = which[r, np.argmax(escaped[r] if escaped[r].any() else hit[r])]
            key = group.element_key(self.conjugates[c])
            if self.escaped[c]:
                raise InvariantViolationError(
                    f"conjugated element escaped the normal subgroup: {key}")
            raise IncompleteSupportError(key, "inner action support")


def _blocks(ext: ExtensionData, gs: Sequence) -> _Walk:
    """The walks of the elements gs of G, which must already be checked, all
    at once.  N is the projection's kernel and sigma is injective on Abar, so
    a2 = sigma(ab gb) is the one lift with a g a2^-1 in N.  One quotient batch
    finds every ab gb among Abar's ids, and two batches of G form the
    distinct a g and then the distinct a g a2^-1, with sigma's inverses
    taken once per lift; each distinct conjugate is projected once."""
    q, g, a_n = ext.quotient, ext.group, len(ext.lifts)
    gbs = [q.check_element(ext.project(x)) for x in gs]
    ids = dict(ext.index)  # the quotient's support: Abar, then the projections outside it
    gb_ids = np.fromiter((ids.setdefault(gb, len(ids)) for gb in gbs), np.intp, len(gbs))
    targets = q._product_ids(list(ids), np.tile(np.arange(a_n), len(gs)), np.repeat(gb_ids, a_n))
    targets = np.where(targets < a_n, targets, -1).reshape(len(gs), a_n)

    rows, blocks = np.nonzero(targets >= 0)
    moved, at = g._multiply([*ext.lifts, *gs], blocks, a_n + rows)
    conjugates, at = g._multiply([*moved, *map(g._inv, ext.lifts)], at,
                                 len(moved) + targets[rows, blocks])
    which = np.full(targets.shape, -1, np.intp)
    which[rows, blocks] = at
    escaped = np.fromiter((ext.project(c) != q.identity for c in conjugates), bool, len(conjugates))
    return _Walk(targets, which, conjugates, escaped)


def _f_walk(ext: ExtensionData, f: FiniteSubset | Iterable) -> _Walk:
    walk = _blocks(ext, list(FiniteSubset(ext.group, f)))
    walk.check(ext.group)
    return walk


def conjugated_normal_subset(
    ext: ExtensionData, f: FiniteSubset | Iterable
) -> FiniteSubset:
    """H = N intersected with A*F*A^-1: the conjugates of F's block walks."""
    return FiniteSubset(ext.group, _f_walk(ext, f).used(None))


def integer_folner_interval(projected_f: Iterable[int], epsilon: Fraction) -> FiniteSubset:
    """Smallest interval {0..m-1} in the integers with expansion <= epsilon.

    A shift by k moves exactly |k| points out of the interval, so the least
    modulus is ceil(max|k| / epsilon); an m past check_carrier_size's bound
    is refused before the interval is built.
    """
    epsilon = check_epsilon(epsilon)
    bound = max((abs(k) for k in FiniteSubset(IntegerGroup(), projected_f)), default=0)
    m = -(-bound * epsilon.denominator // epsilon.numerator) or 1  # ceil division
    return FiniteSubset(IntegerGroup(), range(check_carrier_size(m)))


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
    One walk covers F and then the rest of {1} u F u F*F in key order, the
    order in which an escaped or missing conjugate is named.
    """
    require_dense(psi, "the amenable extension")
    epsilon = check_epsilon(epsilon)
    g = ext.group
    fset = FiniteSubset(g, f)
    k = len(fset)
    rows = [*fset, *(x for x in FiniteSubset(g, [g.identity, *pair_products(fset, fset)])
                     if x not in fset)]
    walk = _blocks(ext, rows)
    walk.check(g, k)

    expansion = walk.expansion(k)
    if expansion > epsilon:
        raise PreconditionError(f"Folner expansion {expansion} exceeds epsilon {epsilon}")

    try:
        h_for_inner = FiniteSubset(psi.owner, walk.used(k))
    except GroupMismatchError as exc:
        raise PreconditionError(f"inner action's group does not contain all of H: {exc}") from exc
    inner = verify(psi, h_for_inner, epsilon)
    if not inner.passed:
        raise PreconditionError(f"inner action does not verify on H at epsilon {epsilon}")

    claimed = 3 * epsilon
    if claimed >= 1:
        raise PreconditionError(f"3*epsilon = {claimed} leaves (0,1)")

    ids = np.array([psi.ids.get(c, -1) for c in walk.conjugates], np.intp)
    walk.check(g, None, ids < 0)  # F's rows have neither by now
    a_n = len(ext.folner)
    n = check_carrier_size(psi.carrier_n * a_n)
    # One gather from psi's distinct maps, with the identity as the last row
    # (picked by which's -1) for blocks that leave Abar; those stay in place.
    tables, index = psi.slot_tables
    images = np.vstack([tables[0], np.arange(psi.carrier_n)], dtype=np.int64)
    picks = np.append(index[ids, 0], len(tables[0]))[walk.which]
    target = np.where(walk.targets >= 0, walk.targets, np.arange(a_n))
    # Point (b, a_i) is b * |A| + i; column i holds block i's B-images.
    maps = images[picks].transpose(0, 2, 1) * a_n + target[:, None, :]
    table, index = _interned(maps.reshape(len(rows), -1).astype(np.int32))
    return QuasiAction._from_slots(g, ((n, None),), [table], rows, index, fset, claimed)
