"""Quasi-action of a free product on the partitioned carrier.

The left factor acts through the alpha-classes: a point (a, b, v) moves to
(phi(g)(a), b, v), i.e. the class is fixed and the in-class coordinate moves.
The right factor acts through the beta-classes: (a, b, v) moves to
(a, b', v * gen(a,b)^-1 * gen(a,b')) with b' = psi(h)(b), which fixes the
beta-class and moves its in-class coordinate.  A word g1 h1 ... gk hk acts by
the alternating product of these maps, evaluated on its normal form.

Every such map sends (c, v) to (m(c), v * w_c) for a cell c = (a, b), so it
commutes with left multiplication on V and is stored as a fibered FiniteMap: one
cell image and one label w_c per cell, label 1 for the left factor and
gen(a,b)^-1 * gen(a,b') for the right.  Nothing is built on A x B x V.

Both factor actions must already be good: identity exact, nonidentity maps
fixpoint-free bijections with exact inverses, distinct elements pairwise far
apart.  Then cancellations inside products collapse exactly, which makes the
no-cancellation and double-identity multiplication cases exact and bounds
the remaining case by the factor's own multiplication defect.  Fixpoint
freeness of the word maps up to syllable length N is certified exhaustively
and is where the incidence girth > 2N enters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from typing import Iterable

import numpy as np

from ..errors import DomainError, PreconditionError
from ..finmap import FiniteMap, compose
from ..groups import (
    FiniteSubset,
    FreeProductGroup,
    FreeProductWord,
    GroupHandle,
    pair_products,
)
from ..quasiaction import QuasiAction, require_dense, verify
from ..util import check_epsilon
from .carrier import PartitionedCarrier, build_partitioned_carrier
from .girth import girth_group_search
from .good import good_action_upgrade


def enumerate_normal_words(
    group: FreeProductGroup,
    f_left: FiniteSubset | Iterable,
    f_right: FiniteSubset | Iterable,
    max_pairs: int,
) -> list[FreeProductWord]:
    """All normal forms g1 h1 ... gk hk, k <= max_pairs, with syllables drawn
    from the given sets (interior syllables never the identity)."""
    lid, rid = group.left.identity, group.right.identity
    left_all = sorted({*f_left, lid}, key=group.left.element_key)
    right_all = sorted({*f_right, rid}, key=group.right.element_key)
    left_inner = [g for g in left_all if g != lid]
    right_inner = [h for h in right_all if h != rid]

    words: list[FreeProductWord] = []

    def extend(prefix: tuple, k: int):
        if k == max_pairs:
            return
        g_choices = left_all if not prefix else left_inner
        for g in g_choices:
            for h in right_all:
                word = prefix + ((g, h),)
                words.append(FreeProductWord(word))
                if h != rid:
                    extend(word, k + 1)

    extend((), 0)
    return words


def multiplicativity_case(u: FreeProductWord, v: FreeProductWord, group: FreeProductGroup) -> int:
    """Which multiplication case the pair falls in, read off the normal forms.

    1: no cancellation (u ends with a nonidentity right syllable and v starts
       with a nonidentity left syllable); the product map is exact.
    2: both boundary syllables are identities; also exact.
    3: exactly one boundary syllable is the identity; cancellation may occur
       and one collapsed factor carries the approximation.
    """
    h_trivial = u.pairs[-1][1] == group.right.identity
    g_trivial = v.pairs[0][0] == group.left.identity
    return 3 if h_trivial != g_trivial else 2 if h_trivial else 1


def free_product_qa(
    phi_g: QuasiAction,
    psi_h: QuasiAction,
    f_left: FiniteSubset | Iterable,
    f_right: FiniteSubset | Iterable,
    n: int,
    pc: PartitionedCarrier,
    epsilon: Fraction,
) -> QuasiAction:
    """Quasi-action of phi_g.owner * psi_h.owner on the partitioned carrier,
    by fibered maps over its |A||B| cells.

    F is the set of normal forms with at most n syllable pairs drawn from
    f_left and f_right; the assignment also covers all pairwise products of
    F, i.e. words of up to 2n pairs.  Preconditions: both factor actions
    verify strictly (identity exact, fixpoint-free bijections with exact
    inverses, pairwise far apart) at epsilon, and the carrier certifies
    incidence girth > 2n.
    """
    epsilon = check_epsilon(epsilon)
    require_dense(phi_g, "the free product")
    require_dense(psi_h, "the free product")
    group = FreeProductGroup(phi_g.owner, psi_h.owner)
    lf = FiniteSubset(phi_g.owner, f_left)
    rf = FiniteSubset(psi_h.owner, f_right)

    for name, qa, fs in (("left", phi_g, lf), ("right", psi_h, rf)):
        report = verify(qa, fs, epsilon, strict=True)
        if report.strict is None or not report.strict.passed:
            raise PreconditionError(
                f"{name} factor action is not good at epsilon {epsilon}: "
                "strict conditions failed"
            )
    if pc.a_size != phi_g.carrier_n or pc.b_size != psi_h.carrier_n:
        raise PreconditionError(
            "carrier was built for different factor sizes "
            f"({pc.a_size} x {pc.b_size}, need {phi_g.carrier_n} x {psi_h.carrier_n})"
        )
    if pc.depth < n:
        raise PreconditionError(
            f"carrier certifies incidence girth > {2 * pc.depth}, need > {2 * n}"
        )

    f_words = enumerate_normal_words(group, lf, rf, n)
    fset = FiniteSubset(group, f_words)

    support = {group.identity, *f_words, *pair_products(fset, fset)}

    a_size, b_size, fiber = pc.a_size, pc.b_size, pc.fiber
    gen = np.array(fiber.generators, dtype=np.int64)[np.array(pc.gen_label)]  # (a, b, x)
    gen_inv = np.argsort(gen, axis=2)
    one = np.broadcast_to(np.arange(fiber.degree), (a_size * b_size, fiber.degree))
    a_idx, b_idx = np.divmod(np.arange(a_size * b_size), b_size)

    @cache
    def left_map(g) -> FiniteMap:  # (a, b) -> (phi(g)(a), b), label 1
        return FiniteMap(phi_g.map_for(g).images[a_idx] * b_size + b_idx, one, fiber)

    @cache
    def right_map(h) -> FiniteMap:  # (a, b) -> (a, b'), label gen(a,b)^-1 gen(a,b')
        b2 = psi_h.map_for(h).images
        labels = np.take_along_axis(gen[:, b2], gen_inv, axis=2)
        return FiniteMap(a_idx * b_size + b2[b_idx], labels.reshape(one.shape), fiber)

    assignment = {
        word: reduce(compose, [m for g, h in word.pairs for m in (left_map(g), right_map(h))])
        for word in sorted(support, key=group.element_key)
    }

    return QuasiAction(group, pc.size, assignment, fset, epsilon)


def build_free_product_action(
    group_g: GroupHandle,
    group_h: GroupHandle,
    f_left: Iterable,
    f_right: Iterable,
    n: int,
    epsilon: Fraction,
    seed: int = 0,
    order_cap: int = 25000,
) -> tuple[QuasiAction, PartitionedCarrier]:
    """End-to-end pipeline from two finite groups to the free-product action.

    Regular actions are upgraded to good form (doubling each carrier), a
    generator witness is searched with max(|A|,|B|) labels and girth bound
    2n, the carrier is assembled and certified, and the word action built.
    """
    from .base import regular_action

    if n < 1:
        raise DomainError("syllable bound must be positive")
    phi0 = regular_action(group_g, epsilon=epsilon)
    psi0 = regular_action(group_h, epsilon=epsilon)
    lf = FiniteSubset(group_g, f_left)
    rf = FiniteSubset(group_h, f_right)
    phi = good_action_upgrade(phi0, lf, epsilon)
    psi = good_action_upgrade(psi0, rf, epsilon)

    labels = max(phi.carrier_n, psi.carrier_n)
    v = girth_group_search(labels, 2 * n, order_cap=order_cap, seed=seed)
    pc = build_partitioned_carrier(phi.carrier_n, psi.carrier_n, n, v)
    qa = free_product_qa(phi, psi, lf, rf, n, pc, epsilon)
    return qa, pc
