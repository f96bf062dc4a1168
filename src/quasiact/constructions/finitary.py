"""Exactly multiplicative finite models of integer translations with
finitely supported permutations.

F_r collects the elements (k, sigma) with |k| <= r and sigma moving only
points of the ball B_r = {-r..r}.  Products of two F_n elements land in
F_2n.  Reducing mod m with m > 20n keeps the ball B_10n injective, and the
map sending (k, sigma) to the self-map

    t  ->  tau(k) + sigma~(t),   sigma~(tau(a)) = tau(sigma(a)) on tau(B_2n),
                                 sigma~(t) = t elsewhere,

of Z/m is multiplicative with zero defect on all pairs from F_n and
injective on F_2n.  Maps go only where verify reads them: F_n * F_n holds
the identity, F_n (1 lies in F_n) and the products.  Conditions (a) and (b)
therefore hold at every epsilon; condition (c) is whatever the fixpoint
counts say (pure permutation elements fix everything outside the ball),
and the verifier reports it honestly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from ..errors import DomainError, PreconditionError
from ..finmap import _MAX_CARRIER, FiniteMap, check_carrier_size
from ..groups import FiniteSubset, IntegerFinitaryGroup, pair_products
from ..quasiaction import QuasiAction
from ..util import check_epsilon


def enumerate_finitary_elements(radius: int) -> list[tuple]:
    """All (k, sigma) with |k| <= radius and sigma moving only the ball."""
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    group = IntegerFinitaryGroup()
    ball = list(range(-radius, radius + 1))
    elements = []
    for k in range(-radius, radius + 1):
        for images in itertools.permutations(ball):
            elements.append(group.make(k, dict(zip(ball, images))))
    return elements


def ball_map(elem: tuple, modulus: int) -> FiniteMap:
    """The element's self-map t -> tau(k) + sigma~(t) of Z/modulus: the
    reduced points sigma moves are overwritten first, then all shift by k."""
    k, moved = elem
    images = np.arange(modulus)
    if moved:
        points, targets = np.array(moved).T
        images[points % modulus] = targets % modulus
    return FiniteMap((images + k) % modulus)


def check_support_size(n: int, modulus: int) -> None:
    """Refuse an F_n * F_n whose maps could hold more images than
    check_carrier_size's bound, before F_n is enumerated: up to |F_n|^2
    products of |F_n| = (2n+1) * (2n+1)! elements, of modulus images each.
    The product stops at the bound, so a large n costs no factorial."""
    size = 2 * n + 1
    entries = modulus * size * size
    for k in range(1, size + 1):
        entries *= k * k
        if entries > _MAX_CARRIER:
            raise DomainError(f"F_{n} * F_{n} holds up to ({size} * {size}!)^2 elements of "
                              f"{modulus} images each, more than {_MAX_CARRIER} entries")


def finitary_extension_qa(
    n: int,
    modulus: int,
    epsilon: Fraction = Fraction(1, 2),
) -> QuasiAction:
    """Quasi-action on Z/modulus supported on F_n * F_n, claiming F_n.

    Requires modulus > 20n so distinct points of B_10n stay distinct mod m.
    Each supported element, a product of two F_n elements, moves only B_2n.
    """
    if n < 1:
        raise DomainError("radius must be positive")
    if modulus <= 20 * n:
        raise PreconditionError(
            f"modulus {modulus} too small: the ball of radius {10 * n} "
            f"must stay injective, needs modulus > {20 * n}"
        )
    check_carrier_size(modulus)  # before ball_map builds modulus images per element
    check_support_size(n, modulus)
    epsilon = check_epsilon(epsilon)
    group = IntegerFinitaryGroup()
    claimed_f = FiniteSubset(group, enumerate_finitary_elements(n))
    assignment = {elem: ball_map(elem, modulus) for elem in pair_products(claimed_f, claimed_f)}
    return QuasiAction(group, modulus, assignment, claimed_f, epsilon)
