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
from ..finmap import (
    FiniteMap, compose, fixpoint_count, fixpoint_set, identity_map, inverse_map
)
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


def _doubled_indices(points: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate([points, points + n])


def good_action_upgrade(
    phi: QuasiAction,
    f: FiniteSubset | Iterable,
    epsilon: Fraction,
    check: bool = True,
) -> QuasiAction:
    """Build the doubled quasi-action with exact bijective structure.

    With check=True (the default) the input must verify as an
    (F~, epsilon/10)-quasi-action; the error names the failed conditions.
    check=False runs the construction on any input, for studying the
    mechanics on inputs that violate the bound.
    """
    require_dense(phi, "the good-action upgrade")
    fset = f if isinstance(f, FiniteSubset) else FiniteSubset(phi.owner, f)
    epsilon = check_epsilon(epsilon)
    group = phi.owner
    tilde = symmetrized_square(fset)

    if check:
        report = verify(phi, tilde, epsilon / 10)
        if not report.passed:
            failed = tuple(
                name
                for name, ok in (
                    ("(a)", report.a_pass),
                    ("(b)", report.b_pass),
                    ("(c)", report.c_pass),
                )
                if not ok
            )
            raise GoodActionPreconditionError(failed)

    n = phi.carrier_n
    n2 = 2 * n
    one = group.identity
    assignment = {one: identity_map(n2)}

    # Process {e, e^-1} together, anchored at a deterministic representative.
    done = set()
    for e in tilde:
        if e == one or e in done:
            continue
        e_inv = group.inv(e)
        rep = min(e, e_inv, key=group.element_key)
        rep_inv = group.inv(rep)
        psi_rep = _build_good_map(phi, rep, rep_inv)
        assignment[rep] = psi_rep
        if rep_inv != rep:
            assignment[rep_inv] = inverse_map(psi_rep)
        done.add(rep)
        done.add(rep_inv)

    return QuasiAction(group, n2, assignment, fset, epsilon)


def _build_good_map(phi: QuasiAction, e, e_inv) -> FiniteMap:
    m_e = phi.map_for(e)
    m_inv = phi.map_for(e_inv)
    n = m_e.n

    fix_e = fixpoint_set(m_e)
    fix_round = fixpoint_set(compose(m_e, m_inv))
    a_e = np.array(sorted(fix_round - fix_e), dtype=np.int64)

    fix_inv = fixpoint_set(m_inv)
    fix_round_inv = fixpoint_set(compose(m_inv, m_e))
    a_einv = np.array(sorted(fix_round_inv - fix_inv), dtype=np.int64)

    if set(np.asarray(m_e.images)[a_e].tolist()) != set(a_einv.tolist()):
        raise InvariantViolationError("A_e . phi(e) != A_{e^-1}")

    images = np.full(2 * n, -1, dtype=np.int64)
    if a_e.size:
        targets = np.asarray(m_e.images, dtype=np.int64)[a_e]
        images[a_e] = targets
        images[a_e + n] = targets + n

    set_e = set(a_e.tolist())
    set_inv = set(a_einv.tolist())
    only_inv = np.array(sorted(set_inv - set_e), dtype=np.int64)
    only_e = np.array(sorted(set_e - set_inv), dtype=np.int64)
    if only_inv.size:
        src = _doubled_indices(only_inv, n)
        dst = _doubled_indices(only_e, n)
        images[src] = dst

    complement = np.array(sorted(set(range(n)) - set_e - set_inv), dtype=np.int64)
    if complement.size:
        images[complement] = complement + n
        images[complement + n] = complement

    if (images < 0).any():
        raise InvariantViolationError("good map left points unassigned")
    result = FiniteMap(images)
    if not result.is_bijection() or fixpoint_count(result):
        raise InvariantViolationError("good map is not a fixpoint-free bijection")
    return result
