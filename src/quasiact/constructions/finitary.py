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

from ..errors import DomainError, PreconditionError
from ..finmap import FiniteMap, check_carrier_size
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


def ball_map(group: IntegerFinitaryGroup, elem: tuple, radius: int, modulus: int) -> FiniteMap:
    """The element's self-map of Z/modulus, moving only the reduced ball."""
    k, moved = elem
    images = []
    shift = k % modulus
    sigma = {x: y for x, y in moved}
    ball_points = {a % modulus: a for a in range(-radius, radius + 1)}
    for t in range(modulus):
        a = ball_points.get(t)
        base = sigma.get(a, a) if a is not None else t
        images.append((base + k) % modulus)
    return FiniteMap(images)


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
    check_carrier_size(modulus)  # before ball_map walks Z/modulus point by point
    epsilon = check_epsilon(epsilon)
    group = IntegerFinitaryGroup()
    support_elements = enumerate_finitary_elements(2 * n)
    for elem in support_elements:
        _check_support_radius(elem, 2 * n)
    assignment = {
        elem: ball_map(group, elem, 2 * n, modulus) for elem in support_elements
    }
    claimed_f = FiniteSubset(group, enumerate_finitary_elements(n))
    return QuasiAction(group, modulus, assignment, claimed_f, epsilon)


def _check_support_radius(elem: tuple, radius: int) -> None:
    k, moved = elem
    if abs(k) > radius:
        raise DomainError(f"translation part {k} exceeds radius {radius}")
    for x, _ in moved:
        if abs(x) > radius:
            raise DomainError(
                f"permutation moves {x}, outside the ball of radius {radius}"
            )
