"""Upgrade a quasi-action so every nonidentity map is a fixpoint-free
bijection with exact inverses, at a controlled similarity cost.

Given an (F~, eps/10)-quasi-action phi on A, where F~ collects all products
of two elements of F union F^-1 union {1}, the upgrade doubles the carrier
to A' = A + A and rebuilds each map on the subset where phi already behaves
like a partial bijection:

  A_e = { a : phi(e)phi(e^-1) fixes a, phi(e) does not fix a }

phi(e) and phi(e^-1) restrict to mutually inverse bijections between A_e and
A_{e^-1} = A_e . phi(e).  The new map psi(e) copies the doubled phi(e) on
A_e', matches the leftover doubled difference sets in ascending index order,
and finishes with the copy-swap involution on the doubled complement (which
is even-sized by construction, the sole reason for doubling).  psi(e^-1) is
defined as the exact inverse; the two choices agree because the whole recipe
is symmetric in e and e^-1.

When the precondition holds, |A_e| >= (1 - 3eps/10)|A|, so psi(e) stays
3eps/10-similar to the doubled phi(e); chaining similarities gives condition
(a) at eps and pairwise (1 - 8eps/10)-difference on F union {1}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from ..errors import InvariantViolationError, PreconditionError
from ..finmap import FiniteMap, _moved, compose, fixpoint_count, identity_map, inverse_map
from ..groups import FiniteSubset, symmetrized_square
from ..quasiaction import QuasiAction, require_dense, verify
from ..util import check_epsilon


class GoodActionPreconditionError(PreconditionError):
    """The input did not verify as an (F~, eps/10)-quasi-action."""

    def __init__(self, failed_conditions: tuple[str, ...]):
        self.failed_conditions = failed_conditions
        super().__init__(
            "input is not an (F~, eps/10)-quasi-action; failed condition(s): "
            + ", ".join(failed_conditions)
        )


def good_action_upgrade(
    phi: QuasiAction, f: FiniteSubset | Iterable, epsilon: Fraction
) -> QuasiAction:
    """Build the doubled quasi-action with exact bijective structure.

    The input must verify as an (F~, epsilon/10)-quasi-action; the error
    names the failed conditions.
    """
    require_dense(phi, "the good-action upgrade")
    group = phi.owner
    fset = FiniteSubset(group, f)
    epsilon = check_epsilon(epsilon)
    tilde = symmetrized_square(fset)

    report = verify(phi, tilde, epsilon / 10)
    if not report.passed:
        failed = (("(a)", report.a_pass), ("(b)", report.b_pass), ("(c)", report.c_pass))
        raise GoodActionPreconditionError(tuple(name for name, ok in failed if not ok))

    n2 = 2 * phi.carrier_n
    assignment = {group.identity: identity_map(n2)}
    # tilde is symmetric and in key order, so of {e, e^-1} it reaches the
    # one with the smaller key first: build that map, invert it for the other.
    for e in tilde:
        if e not in assignment:
            e_inv = group.inv(e)
            assignment[e] = _build_good_map(phi, e, e_inv)
            if e_inv != e:
                assignment[e_inv] = inverse_map(assignment[e])

    return QuasiAction(group, n2, assignment, fset, epsilon)


def _build_good_map(phi: QuasiAction, e, e_inv) -> FiniteMap:
    m_e = phi.map_for(e)
    m_inv = phi.map_for(e_inv)
    n = m_e.n
    # A_e as a mask: moved by phi(e), fixed by phi(e)phi(e^-1).
    in_e = _moved(m_e.slots[0]) & ~_moved(compose(m_e, m_inv).slots[0])
    in_inv = _moved(m_inv.slots[0]) & ~_moved(compose(m_inv, m_e).slots[0])
    a_e = np.flatnonzero(in_e)
    targets = m_e.images[a_e].astype(np.int64)
    if not np.array_equal(np.sort(targets), np.flatnonzero(in_inv)):
        raise InvariantViolationError("A_e . phi(e) != A_{e^-1}")

    # The copy swap, then the doubled phi(e) on A_e and the leftover
    # A_{e^-1} \ A_e onto A_e \ A_{e^-1} in ascending order, on both copies.
    images = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    only_inv, only_e = np.flatnonzero(in_inv & ~in_e), np.flatnonzero(in_e & ~in_inv)
    for src, dst in ((a_e, targets), (only_inv, only_e)):
        images[src] = dst
        images[src + n] = dst + n

    result = FiniteMap(images)
    if not result.is_bijection() or fixpoint_count(result):
        raise InvariantViolationError("good map is not a fixpoint-free bijection")
    return result
