"""Seeded search for small permutation groups with girth-certified generators.

A GirthGroup is a fully enumerated finite group given by permutation
generators, together with a certificate that no nontrivial reduced word of
length at most the bound evaluates to the identity, i.e. that the Cayley
multigraph (edges x -- g*x) has no cycle of length <= bound.  Right
translations act transitively on it, so one non-backtracking BFS of the
ball of radius ceil(bound/2) around the identity earns the certificate.

The search draws even permutations of scheduled degrees from a seeded
generator, rejects cheaply (element order, duplicate or inverse generators),
certifies the word bound, then enumerates the closure under a hard order
cap.  Everything is a pure function of (parameters, seed).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import DomainError, InvariantViolationError, SearchFailureError
from ..finmap import FiniteMap
from ..util import document_json

_ATTEMPTS_PER_DEGREE = 80
_DRAWS_PER_GENERATOR = 400


@dataclass(frozen=True)
class GirthGroup:
    """Enumerated permutation group with a reduced-word girth certificate."""

    degree: int
    labels: int
    generators: tuple[FiniteMap, ...]
    elements: tuple[tuple[int, ...], ...]
    right_mult: np.ndarray       # shape (labels, order): index of v * gen[j]
    right_mult_inv: np.ndarray   # shape (labels, order): index of v * gen[j]^-1
    certified_girth_bound: int
    seed: int

    @property
    def order(self) -> int:
        return len(self.elements)

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
    """Rebuild a GirthGroup from a witness file, re-earning its certificate
    and checking its stated order and degree."""
    doc = json.loads(text)
    gens = [FiniteMap(images) for images in doc["generators"]]
    order = int(doc["order"])
    group = _certify_and_enumerate(
        gens, int(doc["girth_bound"]), order_cap=order, seed=int(doc["seed"])
    )
    if group is None:
        raise DomainError("witness file does not satisfy its own certificate")
    if group.order != order or group.degree != int(doc["degree"]):
        raise DomainError(f"witness states order {order}, degree {doc['degree']}; "
                          f"its generators give {group.order}, {group.degree}")
    return group


def _perm_order(perm: Sequence[int]) -> int:
    n = len(perm)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        order = math.lcm(order, length)
    return order


def _random_even_perm(rng: random.Random, degree: int) -> tuple[int, ...]:
    perm = list(range(degree))
    rng.shuffle(perm)
    # Parity from cycle count; fix odd permutations by one extra swap.
    seen = [False] * degree
    transpositions = 0
    for start in range(degree):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        transpositions += length - 1
    if transpositions % 2:
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
    letters = [(g, sorted(range(degree), key=g.__getitem__)) for g in gens]

    def neighbours(x):
        for j, (g, inv) in enumerate(letters):
            yield (x, j), tuple(g[i] for i in x)
            back = tuple(inv[i] for i in x)
            yield (back, j), back

    certify_girth(neighbours, [tuple(range(degree))], bound)


def _enumerate_closure(
    gens: Sequence[tuple[int, ...]], order_cap: int
) -> tuple[list[tuple[int, ...]], np.ndarray] | None:
    """BFS closure under right multiplication; None when the cap is exceeded.

    Also records, for each generator, the index permutation of right
    multiplication, reused later as the Cayley action on element indices.
    """
    degree = len(gens[0])
    identity = tuple(range(degree))
    index = {identity: 0}
    elements = [identity]
    products: list[list[int]] = [[] for _ in gens]
    i = 0
    while i < len(elements):
        base = elements[i]
        for j, g in enumerate(gens):
            product = tuple(g[x] for x in base)
            k = index.get(product)
            if k is None:
                k = len(elements)
                if k >= order_cap:
                    return None
                index[product] = k
                elements.append(product)
            products[j].append(k)
        i += 1
    right_mult = np.array(products, dtype=np.int64)
    return elements, right_mult


def _certify_and_enumerate(
    gens: Sequence[FiniteMap], bound: int, order_cap: int, seed: int
) -> GirthGroup | None:
    # The Cayley-graph symmetry behind _certify_word_girth needs a group.
    if not gens or any(g.n != gens[0].n or not g.is_bijection() for g in gens):
        raise DomainError("generators must be permutations of one degree")
    perm_tuples = [tuple(g.to_list()) for g in gens]
    try:
        _certify_word_girth(perm_tuples, bound)
    except InvariantViolationError:
        return None
    closure = _enumerate_closure(perm_tuples, order_cap)
    if closure is None:
        return None
    elements, right_mult = closure
    inv_mult = np.empty_like(right_mult)
    order = len(elements)
    rng_rows = np.arange(order, dtype=np.int64)
    for j in range(right_mult.shape[0]):
        inv_mult[j, right_mult[j]] = rng_rows
    right_mult.setflags(write=False)
    inv_mult.setflags(write=False)
    return GirthGroup(
        degree=gens[0].n,
        labels=len(gens),
        generators=tuple(gens),
        elements=tuple(elements),
        right_mult=right_mult,
        right_mult_inv=inv_mult,
        certified_girth_bound=bound,
        seed=seed,
    )


def _reduced_word_count(labels: int, bound: int) -> int:
    letters = 2 * labels
    total = 0
    count = letters
    for _ in range(bound):
        total += count
        count *= letters - 1
    return total


def _default_degrees(labels: int, bound: int) -> list[int]:
    # Skip degrees whose alternating group is clearly too small for the word
    # count; the order cap prunes oversized closures attempt by attempt,
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
            group = _certify_and_enumerate(
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
            if _perm_order(perm) <= bound:
                continue
            inv = tuple(perm.index(i) for i in range(degree))
            if perm in taken or inv in taken:
                continue
            gens.append(perm)
            taken.add(perm)
            taken.add(inv)
            break
        else:
            return None
    return gens
