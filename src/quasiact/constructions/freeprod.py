"""Quasi-action of a free product on the partitioned carrier.

The left factor acts through the alpha-classes: a point (a, b, v) moves to
(phi(g)(a), b, v), i.e. the class is fixed and the in-class coordinate moves.
The right factor acts through the beta-classes: (a, b, v) moves to
(a, b', v * gen(a,b)^-1 * gen(a,b')) with b' = psi(h)(b), which fixes the
beta-class and moves its in-class coordinate.  A word g1 h1 ... gk hk acts by
the alternating product of these maps, evaluated on its normal form.

Every such map sends (c, v) to (m(c), v * w_c) for a cell c = (a, b), so it
commutes with left multiplication on V and is one fibered row: one cell image
and one label w_c per cell, label 1 for the left factor and gen(a,b)^-1 *
gen(a,b') = gen(a,b')[gen(a,b)^-1[x]] for the right.  The word maps are built
level by level, as rows: level j holds the words' distinct prefixes of j
syllable pairs, each its parent's row, then g_j's, then h_j's, in two batched
finmap.after calls a level, so words share their prefixes.  Equal word rows
merge by their bytes (quasiaction._interned); nothing is built on A x B x V.

Both factor actions must already be good: identity exact, nonidentity maps
fixpoint-free bijections with exact inverses, distinct elements pairwise far
apart.  Then cancellations inside products collapse exactly, which makes the
no-cancellation and double-identity multiplication cases exact and bounds
the remaining case by the factor's own multiplication defect.  Fixpoint
freeness of the word maps up to syllable length N is certified exhaustively
and is where the incidence girth > 2N enters.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

import numpy as np

from ..errors import DomainError, PreconditionError
from ..finmap import after
from ..groups import FiniteSubset, FreeProductGroup, FreeProductWord, GroupHandle
from ..quasiaction import QuasiAction, _interned, _support, require_dense, verify
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
    words = []
    for k in range(1, max_pairs + 1):  # g1, then g2 .. gk, h1 .. h(k-1), then hk
        choices = [left_all, *[left_inner] * (k - 1), *[right_inner] * (k - 1), right_all]
        words += (FreeProductWord(tuple(zip(w[:k], w[k:]))) for w in itertools.product(*choices))
    return words


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

    fset = FiniteSubset(group, enumerate_normal_words(group, lf, rf, n))
    elements, keys, products = _support(group, fset)
    table, index = _interned(_word_rows(phi_g, psi_h, pc, elements))
    return QuasiAction._from_slots(group, ((pc.a_size * pc.b_size, pc.v.fiber),), [table],
                                   elements, index, fset, epsilon, keys, products)


def _word_rows(phi_g: QuasiAction, psi_h: QuasiAction, pc: PartitionedCarrier,
               words: list[FreeProductWord]) -> np.ndarray:
    """Each word's map as one int32 row, its cell images then its labels,
    built level by level down the words' prefixes from the factors' rows."""
    b_size, fiber = pc.b_size, pc.v.fiber
    cells, d = pc.a_size * b_size, fiber.degree
    a_idx, b_idx = np.divmod(np.arange(cells), b_size)
    gen = np.array(fiber.generators, np.int32)[np.array(pc.gen_label)]  # (a, b, x)
    (left,), (right,) = phi_g.slot_tables[0], psi_h.slot_tables[0]
    g_rows = ((left[:, a_idx] * b_size + b_idx).astype(np.int32),
              np.broadcast_to(np.arange(d, dtype=np.int32), (len(left), cells, d)))
    h_rows = ((a_idx * b_size + right[:, b_idx]).astype(np.int32), np.take_along_axis(
        gen[:, right].swapaxes(0, 1), np.argsort(gen, axis=2)[None], axis=3).reshape(-1, cells, d))
    levels = [dict.fromkeys(w.pairs[: j + 1] for w in words if w.k > j)  # prefixes of j + 1 pairs
              for j in range(max(w.k for w in words))]
    levels = [{p: i for i, p in enumerate(level)} for level in levels]  # prefix -> its row
    packed, rows = [], None  # rows: the previous level's, as finmap.after takes them
    for j, level in enumerate(levels):  # each prefix's last g and h, as rows of their tables
        g, h = (np.array([qa.slot_tables[1][qa.ids[p[-1][i]], 0] for p in level])
                for i, qa in enumerate((phi_g, psi_h)))
        x = [(g_rows[0][g], g_rows[1][g])]
        if rows:
            parent = [levels[j - 1][p[:-1]] for p in level]
            x = after([(i[parent], l[parent]) for i, l in rows], x)
        rows = after(x, [(h_rows[0][h], h_rows[1][h])])
        packed.append(np.concatenate([rows[0][0], rows[0][1].reshape(len(level), -1)], axis=1))
    start = np.cumsum([0, *map(len, levels)])
    return np.concatenate(packed)[[start[w.k - 1] + levels[w.k - 1][w.pairs] for w in words]]


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
