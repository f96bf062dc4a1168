"""Seeded search for small permutation groups with girth-certified generators.

A GirthGroup is a finite group V given by permutation generators and its
exact order, together with a certificate that no nontrivial reduced word of
length at most the bound evaluates to the identity, i.e. that the Cayley
multigraph (edges x -- g*x) has no cycle of length <= bound.  Right
translations act transitively on it, so certify_girth on the ball of radius
ceil(bound/2) around the identity, one level array at a time, earns it.

The search draws even permutations of scheduled degrees from a seeded
generator, rejects cheaply (element order, duplicate or inverse generators),
takes |V| from Schreier-Sims under a hard order cap, then certifies the word
bound; V is never enumerated here.  Everything is a pure function of
(parameters, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from ..errors import DomainError, InvariantViolationError, SearchFailureError
from ..finmap import Fiber
from ..groups import _decode_int, _decode_ints, _decode_list, _field
from ..util import document_json, parse_json

_ATTEMPTS_PER_DEGREE = 80
_DRAWS_PER_GENERATOR = 400


@dataclass(frozen=True)
class GirthGroup:
    """V (its Fiber: permutation generators and exact order) with a
    reduced-word girth certificate."""

    fiber: Fiber
    certified_girth_bound: int
    seed: int

    @property
    def order(self) -> int:
        return self.fiber.order

    @property
    def labels(self) -> int:
        return len(self.fiber.generators)

    def to_witness_json(self) -> str:
        return document_json({**self.fiber.describe(), "girth_bound": self.certified_girth_bound,
                              "seed": self.seed})


def fiber_from_json(doc) -> tuple[Fiber, Callable[..., np.ndarray]]:
    """The one reader of V (a girth witness, or a certificate slot's fiber):
    its degree, then its generators, each of that length, then its order.
    Fiber checks the permutations and Schreier-Sims the order; returns V and
    Schreier-Sims's batched test of membership in V."""
    degree = _field(doc, "degree", _decode_int)
    gens = _field(doc, "generators", lambda v: tuple(
        tuple(_decode_ints(p, degree)) for p in _decode_list(v)))
    fiber = Fiber(gens, _field(doc, "order", _decode_int))
    order, member = schreier_sims(gens)
    if order != fiber.order:
        raise InvariantViolationError(f"V states order {fiber.order}; its generators give {order}")
    return fiber, member


def load_girth_witness(text: str) -> GirthGroup:
    """Rebuild a GirthGroup from a witness file: V by fiber_from_json, then
    its girth bound and seed (JSON integers only, else DomainError), and the
    word-girth certificate earned again."""
    doc = parse_json(text, "girth witness")
    fiber = fiber_from_json(doc)[0]
    bound, seed = (_field(doc, k, _decode_int) for k in ("girth_bound", "seed"))
    if bound < 1:
        raise DomainError(f"girth_bound must be positive, got {bound}")
    try:
        _certify_word_girth(fiber.generators, bound)
    except InvariantViolationError:
        raise DomainError("witness file does not satisfy its own certificate") from None
    return GirthGroup(fiber, bound, seed)


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _cycle_lengths(perm: Sequence[int]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def _random_even_perm(rng: random.Random, degree: int) -> tuple[int, ...]:
    perm = list(range(degree))
    rng.shuffle(perm)
    # Parity from cycle lengths; fix odd permutations by one extra swap.
    if sum(length - 1 for length in _cycle_lengths(perm)) % 2:
        perm[0], perm[1] = perm[1], perm[0]
    return tuple(perm)


def certify_girth(moves: Sequence[Sequence[tuple]], roots: Sequence[int], bound: int) -> None:
    """Refuse a cycle of length <= bound through a root, a level of walks at a time.

    Nodes are rows (root, tag, permutation x); moves[t] lists tag t's moves
    as (next tag, p, back): x steps to p[x], back indexing the next tag's
    move along the same edge.  Roots are tags at the identity, and level L
    holds the non-backtracking walks of length L.  Two walks from one root
    that end on one node with lengths summing to <= bound close a cycle of
    length <= bound, and a shortest cycle halves into two walks of at most
    ceil(bound/2) steps.  Roots must meet every vertex orbit of a certified
    automorphism group.
    """
    first = np.cumsum([0] + [len(m) for m in moves])  # each tag's first move
    source, target, perms, back = map(np.array, zip(*[
        (t, nxt, p, first[nxt] + b) for t, tag_moves in enumerate(moves) for nxt, p, b in tag_moves]))
    degree = perms.shape[1]
    dtype = np.min_scalar_type(max(degree, len(moves), len(roots)))
    per_word = 8 // dtype.itemsize
    rows = np.zeros((len(roots), -(-(2 + degree) // per_word) * per_word), dtype)  # whole words
    rows[:, 0], rows[:, 1], rows[:, 2:2 + degree] = range(len(roots)), roots, range(degree)
    perms, arrived, levels, hashes = perms.astype(dtype), -1, [rows], [_row_hashes(rows)]
    for _ in range((bound + 1) // 2):
        # Each row takes every move of its tag but the back move of the one it came by.
        arrived, parent = np.nonzero((rows[:, 1] == source[:, None]) & (arrived != back[:, None]))
        if not parent.size:
            return  # every walk ended
        rows = rows[parent]
        rows[:, 1] = target[arrived]
        ends = np.searchsorted(arrived, range(len(perms) + 1)).tolist()  # rows grouped by move
        for m, (lo, hi) in enumerate(zip(ends, ends[1:])):
            rows[lo:hi, 2:2 + degree] = perms[m][rows[lo:hi, 2:2 + degree]]
        levels.append(rows)
        hashes.append(_row_hashes(rows))
        _refuse_meetings(levels, hashes, bound)


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """A 64-bit hash per row (equal rows, equal hashes): its words times odd weights."""
    words = rows.view(np.uint64)
    weights = [pow(0x9E3779B97F4A7C15, k + 1, 1 << 64) for k in range(words.shape[1])]
    return (words * np.array(weights, np.uint64)).sum(axis=1, dtype=np.uint64)


def _refuse_meetings(levels: list[np.ndarray], hashes: list[np.ndarray], bound: int) -> None:
    """Refuse two equal rows whose levels sum to at most bound (at odd bounds
    two rows of the last level sum to bound + 1, and pass).  Earlier meetings
    were refused, so a run of equal rows holds at most one row below the last
    level, and its adjacent pairs include the pair of smallest sum."""
    hashes = np.concatenate(hashes)
    ordered = np.sort(hashes)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    if not shared.size:
        return
    at = np.minimum(np.searchsorted(shared, hashes), shared.size - 1)
    match = np.flatnonzero(shared[at] == hashes)
    offsets = np.cumsum([0] + [len(rows) for rows in levels])
    level = np.searchsorted(offsets, match, "right") - 1  # match ascends, so level does
    rows = np.concatenate([r[match[level == k] - offsets[k]] for k, r in enumerate(levels)])
    order = np.lexsort(rows.view(np.uint64).T)  # equal rows end up adjacent
    words, level = rows.view(np.uint64)[order], level[order]
    sums = (level[1:] + level[:-1])[(words[1:] == words[:-1]).all(axis=1)]
    if sums.size and sums.min() <= bound:
        raise InvariantViolationError(f"graph has a cycle of length <= {sums.min()} <= {bound}")


def _certify_word_girth(gens: Sequence[tuple[int, ...]], bound: int) -> None:
    """certify_girth on the Cayley ball: one tag whose moves are the letters
    g_j (2j) and g_j^-1 (2j+1), each the other's back move.  A trivial
    generator returns to the root (a 1-cycle), an involution's two letters
    meet (a 2-cycle)."""
    letters = [p for g in gens for p in (g, _inverse(g))]
    certify_girth([[(0, p, i ^ 1) for i, p in enumerate(letters)]], [0], bound)


def schreier_sims(gens: Sequence[tuple[int, ...]]) -> tuple[int, Callable[..., np.ndarray]]:
    """|<gens>| and a batched membership test, by deterministic Schreier-Sims
    (Seress 2003, ch. 4; Holt et al. 2005, 4.4).  Level i has base point
    b_i, strong generators S_i fixing b_0..b_{i-1} and the orbit of b_i
    under <S_i>, with u_p(b_i) = p.  With the levels above i complete, each
    Schreier generator u_{s(p)}^-1 s u_p sifts through them; a nontrivial
    residue joins S_{i+1}..S_j and checking resumes at level j.  Orbits only
    grow and keep each u_p, so a Schreier generator that sifted to 1 would
    again: it is sifted once.  |<gens>| is the product of the orbit lengths;
    member(rows) says if each row of a (rows, degree) int array sifts to 1."""
    identity = tuple(range(len(gens[0])))
    base, strong, reps = [], [], []  # per level: b_i, S_i and {p: u_p}
    sifted = set()  # (i, p, index of s in S_i) whose Schreier generator sifted to 1
    inverse = cache(_inverse)  # the same transversal elements are inverted again and again

    def extend(g, lo, hi):  # g joins S_lo..S_hi, opening level hi if new
        if hi == len(base):
            base.append(next(x for x in identity if g[x] != x))
            strong.append([])
            reps.append({base[-1]: identity})
        for k in range(lo, hi + 1):
            strong[k].append(g)
            orbit, queue = reps[k], list(reps[k])
            old = len(queue)  # closed under the rest of S_k, so only g moves them out
            for n, p in enumerate(queue):
                for s in strong[k] if n >= old else (g,):
                    if s[p] not in orbit:
                        orbit[s[p]] = itemgetter(*orbit[p])(s)
                        queue.append(s[p])

    def next_level(i):  # i - 1 if level i is complete, else the deepest level changed
        for p, u in reps[i].items():
            for n, s in enumerate(strong[i]):
                if (i, p, n) not in sifted:
                    g, j = itemgetter(*itemgetter(*u)(s))(inverse(reps[i][s[p]])), i + 1
                    while j < len(base) and g != identity and g[base[j]] in reps[j]:  # sift
                        g, j = itemgetter(*g)(inverse(reps[j][g[base[j]]])), j + 1
                    if g != identity:  # the residue, stripped through levels i + 1..j - 1
                        extend(g, i + 1, j)
                        return j
                    sifted.add((i, p, n))
        return i - 1

    for g in gens:
        if g != identity:
            extend(g, 0, 0)
    i = len(base) - 1
    while i >= 0:
        i = next_level(i)

    def member(rows):
        rows, points = np.asarray(rows), np.arange(len(identity))
        if rows.ndim != 2 or rows.shape[1] != len(points):
            return np.zeros(len(rows), bool)  # another width is never in <gens>
        ok = ((rows >= 0) & (rows < len(points))).all(axis=1)
        g = np.where(ok[:, None], rows, points)
        for b, orbit in zip(base, reps):
            # u_p^-1 at orbit point p, else a constant row: never 1, as levels need degree >= 2
            inverses = np.zeros((len(points), len(points)), np.intp)
            inverses[list(orbit)] = [inverse(u) for u in orbit.values()]
            g = np.take_along_axis(inverses[g[:, b]], g, axis=1)
        return ok & (g == points).all(axis=1)

    return math.prod(len(orbit) for orbit in reps), member


def _reduced_word_count(labels: int, bound: int) -> int:
    letters = 2 * labels
    return sum(letters * (letters - 1) ** i for i in range(bound))


def _default_degrees(labels: int, bound: int) -> list[int]:
    # From the first degree whose alternating group is not clearly too small
    # for the word count, to 14 or two past it; the order cap prunes oversized
    # groups draw by draw, since generated subgroups can be far smaller.
    floor = max(_reduced_word_count(labels, bound) // 2, labels * 4)
    degree = 4
    while math.factorial(degree) // 2 < floor:
        degree += 1
    return list(range(degree, max(15, degree + 3)))


def girth_group_search(
    label_count: int,
    girth_bound: int,
    order_cap: int,
    seed: int = 0,
) -> GirthGroup:
    """Find generators whose reduced words up to girth_bound avoid the identity.

    Deterministic for fixed arguments: one pseudorandom stream drives a fixed
    schedule of degrees and attempts.  Raises SearchFailureError when the
    schedule is exhausted, naming what ran out: the order cap, when every
    draw exceeded it, else the schedule, with the draws each refused.
    """
    if label_count < 1 or girth_bound < 1:
        raise DomainError("label_count and girth_bound must be positive")
    rng = random.Random(seed)
    degrees = _default_degrees(label_count, girth_bound)
    over_cap = short = 0  # draws refused by the order cap, and by a short cycle
    for degree in degrees:
        for _ in range(_ATTEMPTS_PER_DEGREE):
            gens = _draw_generators(rng, degree, label_count, girth_bound)
            if gens is None:
                break  # no permutation of large enough order at this degree
            # The order first: a draw past the cap never pays for the word ball.
            order = schreier_sims(gens)[0]
            if order > order_cap:
                over_cap += 1
                continue
            try:
                _certify_word_girth(gens, girth_bound)
            except InvariantViolationError:
                short += 1
                continue
            return GirthGroup(Fiber(tuple(gens), order), girth_bound, seed)
    found = f"no girth-{girth_bound} generator set with {label_count} labels found"
    if over_cap and not short:
        raise SearchFailureError(
            f"{found}: all {over_cap} draws exceeded order cap {order_cap}; raise the cap")
    raise SearchFailureError(
        f"{found}: the degree schedule (degrees {degrees[0]}-{degrees[-1]}) ran out; "
        f"{short} draws within order cap {order_cap} had a reduced word of length "
        f"<= {girth_bound} equal to the identity, {over_cap} exceeded the cap"
    )


def _draw_generators(
    rng: random.Random, degree: int, count: int, bound: int
) -> list[tuple[int, ...]] | None:
    gens: list[tuple[int, ...]] = []
    taken: set[tuple[int, ...]] = set()
    for _ in range(count):
        for _ in range(_DRAWS_PER_GENERATOR):
            perm = _random_even_perm(rng, degree)
            if math.lcm(*_cycle_lengths(perm)) <= bound:
                continue
            inv = _inverse(perm)
            if perm in taken or inv in taken:
                continue
            gens.append(perm)
            taken.update((perm, inv))
            break
        else:
            return None
    return gens
