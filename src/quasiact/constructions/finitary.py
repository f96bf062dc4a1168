"""Exactly multiplicative finite models of integer translations with
finitely supported permutations.

F_r collects the elements (k, sigma) with |k| <= r and sigma moving only
points of the ball B_r = {-r..r}.  Products of two F_n elements land in
F_2n.  Reducing mod m with m > 20n keeps the ball B_10n injective, and the
map sending (k, sigma) to the self-map

    t  ->  tau(k) + sigma~(t),   sigma~(tau(a)) = tau(sigma(a)) on tau(B_2n),
                                 sigma~(t) = t elsewhere,

of Z/m is multiplicative with zero defect on all pairs from F_n and
injective on F_2n.  Conditions (a) and (b) therefore hold at every epsilon;
condition (c) is whatever the fixpoint counts say (pure permutation elements
fix everything outside the ball), and the verifier reports it honestly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from ..errors import DomainError, PreconditionError
from ..finmap import _MAX_CARRIER, FiniteMap, check_carrier_size
from ..groups import FiniteSubset, IntegerFinitaryGroup
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
    """Refuse an F_2n whose maps hold more images than check_carrier_size's
    bound, before enumerate_finitary_elements lists it: |F_2n| = (4n+1) *
    (4n+1)! elements of modulus images each.  The product stops at the
    bound, so a large n costs no factorial."""
    size = 4 * n + 1
    entries = size * modulus
    for k in range(2, size + 1):
        entries *= k
        if entries > _MAX_CARRIER:
            raise DomainError(f"F_{2 * n} holds {size} * {size}! elements of {modulus} images "
                              f"each, more than {_MAX_CARRIER} entries")


def finitary_extension_qa(
    n: int,
    modulus: int,
    epsilon: Fraction = Fraction(1, 2),
) -> QuasiAction:
    """Quasi-action on Z/modulus supported on all of F_2n, claiming F_n.

    Requires modulus > 20n so distinct points of B_10n stay distinct mod m.
    Support permutations must move only B_2n; every element enumerated here
    does so by construction, and products of two F_n elements do as well.
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
    assignment = {elem: ball_map(elem, modulus) for elem in enumerate_finitary_elements(2 * n)}
    claimed_f = FiniteSubset(group, enumerate_finitary_elements(n))
    return QuasiAction(group, modulus, assignment, claimed_f, epsilon)
