"""Base witnesses and the product/transport combinators.

Finite groups get their exact regular action, the integers get shift actions
on a cyclic carrier, several quasi-actions combine into one on the product
carrier, and a quasi-action transports along a partial injection into a new
group (covering subgroup restriction and limit projections with one
mechanism).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import DomainError, PreconditionError
from ..finmap import FiniteMap, identity_like, shift_map
from ..groups import FiniteSubset, GroupHandle, ProductGroup, pair_products
from ..quasiaction import QuasiAction, verify
from ..util import check_epsilon


def regular_action(
    group: GroupHandle,
    f: FiniteSubset | Iterable | None = None,
    epsilon: Fraction = Fraction(1, 100),
) -> QuasiAction:
    """Right translations of a finite group on itself.

    Exact and fixpoint-free away from the identity, so it verifies with zero
    defects at every epsilon.
    """
    if not group.is_finite:
        raise DomainError("regular action needs a finite group")
    elements = list(group.elements())
    ids, n = np.arange(len(elements)), len(elements)  # map g: column g of the table of x*g
    table = group._product_ids(elements, np.repeat(ids, n), np.tile(ids, n)).reshape(n, n)
    assignment = {g: FiniteMap(column) for g, column in zip(elements, table.T)}
    if f is None:
        f = elements
    return QuasiAction(group, len(elements), assignment, FiniteSubset(group, f), epsilon)


def cyclic_quasi_action(
    f: Iterable[int],
    modulus: int,
    epsilon: Fraction = Fraction(1, 100),
    extra_support: Iterable[int] = (),
) -> QuasiAction:
    """Integer shifts on Z/modulus; the canonical witness for the integers.

    Requires modulus > 2*max|k| over F, so shifts by distinct elements of F
    stay distinct mod m and every shift the assignment covers (F, inverses,
    and the pairwise products) is fixpoint-free.  extra_support lists
    additional integers the assignment should cover; keeping those shifts
    fixpoint-free is the caller's concern.
    """
    from ..groups import IntegerGroup, symmetrize

    z = IntegerGroup()
    fset = FiniteSubset(z, f)
    products = pair_products(fset, fset)
    bound = max((abs(k) for k in fset), default=0)
    if modulus <= 2 * bound:
        raise PreconditionError(f"modulus {modulus} too small: needs > {2 * bound} for this F")
    support = {*symmetrize(fset), *products, *FiniteSubset(z, extra_support)}
    assignment = {k: shift_map(modulus, k) for k in support}
    return QuasiAction(z, modulus, assignment, fset, epsilon)


def direct_product_qa(
    inputs: Sequence[tuple[QuasiAction, FiniteSubset]],
    epsilon: Fraction,
) -> QuasiAction:
    """Combine factor quasi-actions coordinatewise on the product carrier.

    Each factor must verify at (F_i, epsilon); the output claims the product
    F at k*epsilon for k factors, and its measured defects never exceed the
    sum of the factor defects.  A k*epsilon of 1 or more is no bound, so it
    raises PreconditionError.  Its slot tables are its factors' tables: no
    map is built, there is no carrier size cap, and a factor may be fibered.
    """
    if not inputs:
        raise DomainError("direct product needs at least one factor")
    epsilon = check_epsilon(epsilon)
    claimed = epsilon * len(inputs)
    if claimed >= 1:
        raise PreconditionError(
            f"{len(inputs)} factors at epsilon {epsilon} give no bound: "
            f"k*epsilon = {claimed} is not below 1"
        )
    for i, (qa, fset) in enumerate(inputs):
        report = verify(qa, fset, epsilon)
        if not report.passed:
            raise PreconditionError(
                f"factor {i} does not verify as an (F_{i}, {epsilon})-quasi-action"
            )
    qas = [qa for qa, _ in inputs]
    group = ProductGroup([qa.owner for qa in qas])
    # Element (e_1, ..., e_k) has e_1's index row, then e_2's, ...: the
    # factors' rows side by side, in itertools.product order.
    grid = np.indices([len(qa.elements) for qa in qas]).reshape(len(qas), -1)
    return QuasiAction._from_slots(
        group, sum((qa.layout for qa in qas), ()), [t for qa in qas for t in qa.slot_tables[0]],
        itertools.product(*(qa.elements for qa in qas)),
        np.hstack([qa.slot_tables[1][at] for qa, at in zip(qas, grid)]),
        FiniteSubset(group, itertools.product(*(fset for _, fset in inputs))), claimed)


def transport_qa(
    qa: QuasiAction,
    new_group: GroupHandle,
    new_f: FiniteSubset | Iterable,
    mapping: Mapping,
) -> QuasiAction:
    """Pull a quasi-action back along a partial injection into qa's group.

    The output acts by the image element's map where the injection is
    defined (and supported), and by the identity map elsewhere.  The
    injection must be injective on F union {1}; when it also preserves the
    products formed inside F, an (j(F), eps) input yields an (F, eps) output.
    """
    fset = FiniteSubset(new_group, new_f)
    one = new_group.identity
    core = list(fset) + [one]
    seen = {}
    for g in core:
        if g in mapping:
            img_key = qa.owner.element_key(mapping[g])
            if img_key in seen and seen[img_key] != new_group.element_key(g):
                raise PreconditionError("mapping is not injective on F and the identity")
            seen[img_key] = new_group.element_key(g)

    needed = {*core, *pair_products(fset, fset)}

    # Identity maps where the injection is undefined or its image unsupported.
    ident = identity_like(qa.map_for(qa.owner.identity))
    assignment = {g: qa.assignment.get(mapping.get(g), ident) for g in needed}
    return QuasiAction(new_group, qa.carrier_n, assignment, fset, qa.claimed_epsilon)
