"""Quasi-action of a free product on the partitioned carrier.

The left factor acts through the alpha-classes: a point (a, b, v) moves to
(phi(g)(a), b, v), i.e. the class is fixed and the in-class coordinate moves.
The right factor acts through the beta-classes: (a, b, v) moves to
(a, b', v * gen(a,b)^-1 * gen(a,b')) with b' = psi(h)(b), which fixes the
beta-class and moves its in-class coordinate.  A word g1 h1 ... gk hk acts by
the alternating product of these maps, evaluated on its normal form.

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
from typing import Iterable

import numpy as np

from ..errors import DomainError, PreconditionError
from ..finmap import FiniteMap, compose_chain, identity_map
from ..groups import (
    FiniteSubset,
    FreeProductGroup,
    FreeProductWord,
    GroupHandle,
    pair_products,
)
from ..quasiaction import QuasiAction, verify
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
    lf = list(f_left if not isinstance(f_left, FiniteSubset) else f_left)
    rf = list(f_right if not isinstance(f_right, FiniteSubset) else f_right)
    lid, rid = group.left.identity, group.right.identity
    left_all = sorted({*lf, lid}, key=group.left.element_key)
    right_all = sorted({*rf, rid}, key=group.right.element_key)
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
    hk = u.pairs[-1][1]
    g1 = v.pairs[0][0]
    h_trivial = hk == group.right.identity
    g_trivial = g1 == group.left.identity
    if not h_trivial and not g_trivial:
        return 1
    if h_trivial and g_trivial:
        return 2
    return 3


class _CarrierMaps:
    """Vectorized factor maps on the carrier, cached per syllable element."""

    def __init__(self, pc: PartitionedCarrier, phi_g: QuasiAction, psi_h: QuasiAction):
        self.pc = pc
        self.phi_g = phi_g
        self.psi_h = psi_h
        self._left: dict = {}
        self._right: dict = {}
        o = pc.v.order
        size = pc.size
        idx = np.arange(size, dtype=np.int64)
        self._v_idx = idx % o
        rest = idx // o
        self._a_idx = rest // pc.b_size
        self._b_idx = rest % pc.b_size

    def left_map(self, g) -> FiniteMap:
        cached = self._left.get(g)
        if cached is None:
            pc = self.pc
            o = pc.v.order
            a_images = np.asarray(self.phi_g.map_for(g).images, dtype=np.int64)
            images = (a_images[self._a_idx] * pc.b_size + self._b_idx) * o + self._v_idx
            cached = self._left[g] = FiniteMap(images)
        return cached

    def right_map(self, h) -> FiniteMap:
        cached = self._right.get(h)
        if cached is None:
            pc = self.pc
            o = pc.v.order
            b_images = self.psi_h.map_for(h).images
            images = np.empty(pc.size, dtype=np.int64)
            varange = np.arange(o, dtype=np.int64)
            for a in range(pc.a_size):
                for b in range(pc.b_size):
                    b2 = int(b_images[b])
                    seg = slice((a * pc.b_size + b) * o, (a * pc.b_size + b + 1) * o)
                    if b2 == b:
                        images[seg] = (a * pc.b_size + b) * o + varange
                    else:
                        w = pc.right_mult_inv[pc.gen_label[a][b], varange]
                        v2 = pc.right_mult[pc.gen_label[a][b2], w]
                        images[seg] = (a * pc.b_size + b2) * o + v2
            cached = self._right[h] = FiniteMap(images)
        return cached

    def word_map(self, word: FreeProductWord) -> FiniteMap:
        factors = []
        for g, h in word.pairs:
            factors.append(self.left_map(g))
            factors.append(self.right_map(h))
        return compose_chain(factors)


def free_product_qa(
    phi_g: QuasiAction,
    psi_h: QuasiAction,
    f_left: FiniteSubset | Iterable,
    f_right: FiniteSubset | Iterable,
    n: int,
    pc: PartitionedCarrier,
    epsilon: Fraction,
) -> QuasiAction:
    """Quasi-action of phi_g.owner * psi_h.owner on the partitioned carrier.

    F is the set of normal forms with at most n syllable pairs drawn from
    f_left and f_right; the assignment also covers all pairwise products of
    F, i.e. words of up to 2n pairs.  Preconditions: both factor actions
    verify strictly (identity exact, fixpoint-free bijections with exact
    inverses, pairwise far apart) at epsilon, and the carrier certifies
    incidence girth > 2n.
    """
    epsilon = check_epsilon(epsilon)
    group = FreeProductGroup(phi_g.owner, psi_h.owner)
    lf = f_left if isinstance(f_left, FiniteSubset) else FiniteSubset(phi_g.owner, f_left)
    rf = f_right if isinstance(f_right, FiniteSubset) else FiniteSubset(psi_h.owner, f_right)

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

    maps = _CarrierMaps(pc, phi_g, psi_h)
    assignment = {}
    for word in sorted(support, key=group.element_key):
        assignment[word] = maps.word_map(word)

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
