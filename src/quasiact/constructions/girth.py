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
from typing import Sequence

import numpy as np

from ..errors import DomainError, InvariantViolationError, SearchFailureError
from ..finmap import Fiber, _inverse, schreier_sims  # schreier_sims is imported from here too
from ..groups import _decode_int, _decode_ints, _decode_list, _field
from ..util import canonical_json, check_written, parse_json

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

    def witness(self) -> dict:
        return {**self.fiber.describe(), "girth_bound": self.certified_girth_bound, "seed": self.seed}

    def to_witness_json(self) -> str:
        return canonical_json(self.witness()) + "\n"


def fiber_from_json(doc) -> Fiber:
    """The one reader of V (a girth witness, or a certificate slot's fiber):
    V from its generators alone, its order and membership test by
    Schreier-Sims.  The stated degree, order and other keys are the
    acceptance rule's (load_girth_witness, load_certificate)."""
    return Fiber(_field(doc, "generators",
                        lambda v: tuple(tuple(_decode_ints(p)) for p in _decode_list(v))))


def load_girth_witness(text: str) -> GirthGroup:
    """Rebuild a GirthGroup from a witness file: V by fiber_from_json, then
    its girth bound and seed (JSON integers only, else DomainError), and the
    word-girth certificate earned again.  It loads only if its text is what
    to_witness_json writes for the group (util.check_written names the first
    differing JSON path, or character), as is V's stated degree and order."""
    doc = parse_json(text, "girth witness")
    fiber = fiber_from_json(doc)
    bound, seed = (_field(doc, k, _decode_int) for k in ("girth_bound", "seed"))
    if bound < 1:
        raise DomainError(f"girth_bound must be positive, got {bound}")
    try:
        _certify_word_girth(fiber.generators, bound)
    except InvariantViolationError:
        raise DomainError("witness file does not satisfy its own certificate") from None
    group = GirthGroup(fiber, bound, seed)
    check_written(text, group.witness(), "girth witness", "to_witness_json")
    return group


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
    perms, arrived, levels = perms.astype(dtype), -1, [rows]
    hashes = [_row_hashes(rows.view(np.uint64))]  # fingerprints of whole words
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
        hashes.append(_row_hashes(rows.view(np.uint64)))
        _refuse_meetings(levels, hashes, bound)


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """The one 64-bit row fingerprint (equal rows, equal fingerprints): each
    row of an integer array times odd weights, summed mod 2**64 by einsum
    in buffers, not on a copy of the rows."""
    weights = np.cumprod(np.full(rows.shape[1], 0x9E3779B97F4A7C15, np.uint64))
    return np.einsum("ij,j->i", rows, weights, dtype=np.uint64, casting="unsafe")


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
            v = Fiber(tuple(gens))
            if v.order > order_cap:
                over_cap += 1
                continue
            try:
                _certify_word_girth(gens, girth_bound)
            except InvariantViolationError:
                short += 1
                continue
            return GirthGroup(v, girth_bound, seed)
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
