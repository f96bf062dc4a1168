"""Seeded search for small permutation groups with girth-certified generators.

A GirthGroup is a finite group V given by permutation generators and its
exact order, together with a certificate that no nontrivial reduced word of
length at most the bound evaluates to the identity, i.e. that the Cayley
multigraph (edges x -- g*x) has no cycle of length <= bound.  Right
translations act transitively on it, so one non-backtracking BFS of the
ball of radius ceil(bound/2) around the identity earns the certificate.

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
from typing import Callable, Iterable, Sequence

from ..errors import DomainError, InvariantViolationError, SearchFailureError
from ..finmap import FiniteMap
from ..groups import _decode_int, _decode_ints, _decode_list, _field
from ..util import document_json, parse_json

_ATTEMPTS_PER_DEGREE = 80
_DRAWS_PER_GENERATOR = 400


@dataclass(frozen=True)
class GirthGroup:
    """Permutation group of known order with a reduced-word girth certificate."""

    degree: int
    labels: int
    generators: tuple[FiniteMap, ...]
    order: int
    certified_girth_bound: int
    seed: int

    def to_witness_json(self) -> str:
        doc = {
            "degree": self.degree,
            "generators": [g.to_list() for g in self.generators],
            "order": self.order,
            "girth_bound": self.certified_girth_bound,
            "seed": self.seed,
        }
        return document_json(doc)


def load_girth_witness(text: str) -> GirthGroup:
    """Rebuild a GirthGroup from a witness file, re-earning its certificate and
    checking its stated order and degree (JSON integers only, else DomainError)."""
    doc = parse_json(text, "girth witness")
    bound, order, degree, seed = (
        _field(doc, k, _decode_int) for k in ("girth_bound", "order", "degree", "seed"))
    if bound < 1:
        raise DomainError(f"girth_bound must be positive, got {bound}")
    gens = _field(doc, "generators",
                  lambda v: [FiniteMap(_decode_ints(p)) for p in _decode_list(v)])
    group = _certify_generators(gens, bound, order_cap=order, seed=seed)
    if group is None:
        raise DomainError("witness file does not satisfy its own certificate")
    if group.order != order or group.degree != degree:
        raise DomainError(f"witness states order {order}, degree {degree}; "
                          f"its generators give {group.order}, {group.degree}")
    return group


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


def certify_girth(neighbours: Callable, roots: Iterable, bound: int) -> None:
    """Non-backtracking BFS from each root; refuse any cycle of length <= bound.

    neighbours(u) yields (edge, x) per edge, edge naming the undirected edge.
    The walk never leaves a vertex by the edge it arrived on, so parallel
    edges and loops count as 2- and 1-cycles.  An edge from u reaching a
    visited x closes a cycle of length <= dist(u) + dist(x) + 1, and every
    shortest cycle through a root has such an edge within radius
    ceil(bound/2).  Callers must supply roots meeting every vertex orbit of
    a certified automorphism group.
    """
    radius = (bound + 1) // 2
    for root in roots:
        dist = {root: 0}
        arrived = {root: None}
        frontier = [root]
        for level in range(radius):
            nxt = []
            for u in frontier:
                for edge, x in neighbours(u):
                    if edge == arrived[u]:
                        continue
                    d = dist.get(x)
                    if d is None:
                        dist[x] = level + 1
                        arrived[x] = edge
                        nxt.append(x)
                    elif level + d + 1 <= bound:
                        raise InvariantViolationError(
                            f"graph has a cycle of length <= {level + d + 1} <= {bound}"
                        )
            frontier = nxt


def _certify_word_girth(gens: Sequence[tuple[int, ...]], bound: int) -> None:
    """certify_girth on the Cayley ball: edge (x, j) joins x and gens[j]*x, so
    letters 2j and 2j+1 at x are distinct edges unless gens[j] is trivial."""
    degree = len(gens[0])
    letters = [(g, _inverse(g)) for g in gens]

    def neighbours(x):
        for j, (g, inv) in enumerate(letters):
            yield (x, j), tuple(g[i] for i in x)
            back = tuple(inv[i] for i in x)
            yield (back, j), back

    certify_girth(neighbours, [tuple(range(degree))], bound)


def schreier_sims(gens: Sequence[tuple[int, ...]]) -> tuple[int, Callable[[tuple], bool]]:
    """|<gens>| and a membership test, by deterministic Schreier-Sims
    (Seress 2003, ch. 4; Holt et al. 2005, 4.4).  Level i has base point
    b_i, strong generators S_i fixing b_0..b_{i-1} and the orbit of b_i
    under <S_i>, with u_p(b_i) = p.  With the levels above i complete, each
    Schreier generator u_{s(p)}^-1 s u_p sifts through them; a nontrivial
    residue joins S_{i+1}..S_j and checking resumes at level j.  |<gens>|
    is the product of the orbit lengths, and a permutation of the degree
    lies in <gens> iff it sifts to the identity through every level."""
    identity = tuple(range(len(gens[0])))
    base, strong, reps = [], [], []  # per level: b_i, S_i and {p: u_p}
    inverse = cache(_inverse)  # the same transversal elements are inverted again and again

    def extend(g, lo, hi):  # g joins S_lo..S_hi, opening level hi if new
        if hi == len(base):
            base.append(next(x for x in identity if g[x] != x))
            strong.append([])
            reps.append({})
        for k in range(lo, hi + 1):
            strong[k].append(g)
            orbit = reps[k] = {base[k]: identity}
            queue = [base[k]]
            for p in queue:
                for s in strong[k]:
                    if s[p] not in orbit:
                        orbit[s[p]] = tuple(s[x] for x in orbit[p])
                        queue.append(s[p])

    def sift(g, j):  # g stripped through levels j..: (residue, level reached)
        while j < len(base) and g[base[j]] in reps[j]:
            inv = inverse(reps[j][g[base[j]]])
            g, j = tuple(inv[x] for x in g), j + 1
        return g, j

    def next_level(i):  # i - 1 if level i is complete, else the deepest level changed
        for p, u in reps[i].items():
            for s in strong[i]:
                inv = inverse(reps[i][s[p]])
                g, j = sift(tuple(inv[s[x]] for x in u), i + 1)
                if g != identity:
                    extend(g, i + 1, j)
                    return j
        return i - 1

    for g in gens:
        if g != identity:
            extend(g, 0, 0)
    i = len(base) - 1
    while i >= 0:
        i = next_level(i)
    order = math.prod(len(orbit) for orbit in reps)
    return order, lambda g: len(g) == len(identity) and sift(tuple(g), 0)[0] == identity


def _certify_generators(
    gens: Sequence[FiniteMap], bound: int, order_cap: int, seed: int
) -> GirthGroup | None:
    """The GirthGroup of gens, or None when a reduced word of length <= bound
    is the identity or |<gens>| exceeds order_cap."""
    # The Cayley-graph symmetry behind _certify_word_girth needs a group.
    if not gens or any(g.n != gens[0].n or not g.is_bijection() for g in gens):
        raise DomainError("generators must be permutations of one degree")
    perm_tuples = [tuple(g.to_list()) for g in gens]
    # The order first: a draw past the cap never pays for the word ball.
    order = schreier_sims(perm_tuples)[0]
    if order > order_cap:
        return None
    try:
        _certify_word_girth(perm_tuples, bound)
    except InvariantViolationError:
        return None
    return GirthGroup(
        degree=gens[0].n,
        labels=len(gens),
        generators=tuple(gens),
        order=order,
        certified_girth_bound=bound,
        seed=seed,
    )


def _reduced_word_count(labels: int, bound: int) -> int:
    letters = 2 * labels
    return sum(letters * (letters - 1) ** i for i in range(bound))


def _default_degrees(labels: int, bound: int) -> list[int]:
    # Skip degrees whose alternating group is clearly too small for the word
    # count; the order cap prunes oversized groups attempt by attempt,
    # since generated subgroups can be far smaller than the full group.
    words = _reduced_word_count(labels, bound)
    degrees = [
        d
        for d in range(4, 15)
        if math.factorial(d) // 2 >= max(words // 2, labels * 4)
    ]
    return degrees or list(range(4, 15))


def girth_group_search(
    label_count: int,
    girth_bound: int,
    order_cap: int,
    seed: int = 0,
    attempts_per_degree: int = _ATTEMPTS_PER_DEGREE,
) -> GirthGroup:
    """Find generators whose reduced words up to girth_bound avoid the identity.

    Deterministic for fixed arguments: one pseudorandom stream drives a fixed
    schedule of degrees and attempts.  Raises SearchFailureError when the
    schedule is exhausted.
    """
    if label_count < 1 or girth_bound < 1:
        raise DomainError("label_count and girth_bound must be positive")
    rng = random.Random(seed)
    for degree in _default_degrees(label_count, girth_bound):
        for _ in range(attempts_per_degree):
            gens = _draw_generators(rng, degree, label_count, girth_bound)
            if gens is None:
                break  # no permutation of large enough order at this degree
            group = _certify_generators(
                [FiniteMap(g) for g in gens], girth_bound, order_cap, seed
            )
            if group is not None:
                return group
    raise SearchFailureError(
        f"no girth-{girth_bound} generator set with {label_count} labels found "
        f"within order cap {order_cap}; raise the cap"
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
