"""Test oracle: the dense carrier A x B x V that fibered maps replaced.

V is enumerated by a BFS closure of its generators under right
multiplication (index 0 is the identity), giving right-multiplication
tables.  Points are (a, b, v) indexed row-major.  The class helpers, the
table-symmetry check and the symmetry BFS are the ones the library ran on
this carrier before its maps were fibered; ``densify`` writes a fibered map
out point by point on the same indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from quasiact.constructions.carrier import PartitionedCarrier
from quasiact.constructions.girth import GirthGroup, certify_girth
from quasiact.errors import InvariantViolationError
from quasiact.finmap import FiniteMap
from quasiact.quasiaction import QuasiAction


def cayley_closure(gens: Sequence[tuple[int, ...]], order_cap: int):
    """(elements, right_mult, right_mult_inv) of <gens>: right_mult[j, i] is
    the index of elements[i] * gens[j]; refuses more than order_cap elements."""
    identity = tuple(range(len(gens[0])))
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
                    raise InvariantViolationError(f"the generators give over {order_cap} elements")
                index[product] = k
                elements.append(product)
            products[j].append(k)
        i += 1
    right_mult = np.array(products, dtype=np.int64)
    inv_mult = np.argsort(right_mult, axis=1)
    right_mult.setflags(write=False)
    inv_mult.setflags(write=False)
    return elements, right_mult, inv_mult


@dataclass(frozen=True)
class DenseCarrier:
    a_size: int
    b_size: int
    v: GirthGroup
    gen_label: tuple[tuple[int, ...], ...]
    depth: int
    right_mult: np.ndarray      # shape (labels, |V|): index of v * gen[j]
    right_mult_inv: np.ndarray  # shape (labels, |V|): index of v * gen[j]^-1

    @property
    def size(self) -> int:
        return self.a_size * self.b_size * self.v.order

    @property
    def alpha_class_count(self) -> int:
        return self.b_size * self.v.order

    @property
    def beta_class_count(self) -> int:
        return self.a_size * self.v.order

    def point_index(self, a: int, b: int, v_idx: int) -> int:
        return (a * self.b_size + b) * self.v.order + v_idx

    def point_coords(self, idx: int) -> tuple[int, int, int]:
        o = self.v.order
        v_idx = idx % o
        rest = idx // o
        return rest // self.b_size, rest % self.b_size, v_idx

    def alpha_class_of(self, idx: int) -> int:
        """Class id of the alpha-class {(a, b, v) : a}; id = b*|V| + v."""
        _, b, v_idx = self.point_coords(idx)
        return b * self.v.order + v_idx

    def beta_class_of(self, idx: int) -> int:
        """Class id of the beta-class through the point; id = a*|V| + w."""
        a, b, v_idx = self.point_coords(idx)
        w = int(self.right_mult_inv[self.gen_label[a][b], v_idx])
        return a * self.v.order + w

    def alpha_class_points(self, class_id: int) -> Iterator[int]:
        b, v_idx = divmod(class_id, self.v.order)
        for a in range(self.a_size):
            yield self.point_index(a, b, v_idx)

    def beta_class_points(self, class_id: int) -> Iterator[int]:
        a, w = divmod(class_id, self.v.order)
        for b in range(self.b_size):
            v_idx = int(self.right_mult[self.gen_label[a][b], w])
            yield self.point_index(a, b, v_idx)


def dense_carrier(pc: PartitionedCarrier, tables=None) -> DenseCarrier:
    """The dense form of pc; tables default to the closure's (capped at the
    stated order, so a group with more elements is refused)."""
    if tables is None:
        _, *tables = cayley_closure(pc.v.fiber.generators, pc.v.order)
    return DenseCarrier(pc.a_size, pc.b_size, pc.v, pc.gen_label, pc.depth, *tables)


def certify_symmetry(dc: DenseCarrier) -> None:
    """Check from the carrier's tables alone that each sigma_k is an
    automorphism of the incidence graph.

    sigma_k(0) = R_k(0), and sigma(R_j t) = R_j sigma(t) defines the rest
    along a BFS tree of the R_j from 0, which must reach all of V.  Each
    sigma_k must be a bijection commuting with every R_j; then
    sigma_k1 ... sigma_km (0) = R_km ... R_k1 (0), so the sigmas carry 0 to
    every index the tree reached, i.e. act transitively on V.
    """
    r, r_inv, o = dc.right_mult, dc.right_mult_inv, dc.v.order
    if o < 1 or r.shape != (dc.v.labels, o) or r_inv.shape != r.shape:
        raise InvariantViolationError("right-multiplication tables have the wrong shape")
    if min(r.min(), r_inv.min()) < 0 or max(r.max(), r_inv.max()) >= o:
        raise InvariantViolationError("right-multiplication table entry out of range")
    if not (np.take_along_axis(r_inv, r, axis=1) == np.arange(o)).all():
        raise InvariantViolationError("right_mult_inv does not invert every right_mult row")
    sigma = np.empty_like(r)
    sigma[:, 0] = r[:, 0]
    seen = np.zeros(o, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        targets = r[:, frontier].ravel()  # label-major: entry i is R_{i // f}(frontier[i % f])
        fresh = np.flatnonzero(~seen[targets])
        nodes, first = np.unique(targets[fresh], return_index=True)
        labels, at = np.divmod(fresh[first], frontier.size)
        sigma[:, nodes] = r[labels, sigma[:, frontier[at]]]
        seen[nodes] = True
        frontier = nodes
    if not seen.all():
        raise InvariantViolationError("right_mult does not reach every element from index 0")
    if not (np.sort(sigma, axis=1) == np.arange(o)).all():
        raise InvariantViolationError("a table symmetry is not a bijection")
    for row in r:
        if not np.array_equal(sigma[:, row], row[sigma]):
            raise InvariantViolationError("right_mult is not the Cayley table of a group")


def bfs_girth_certificate(dc: DenseCarrier) -> None:
    """The table-symmetry girth certificate: BFS from the |A| + |B| class
    nodes (b, 0) and (a, 0) once certify_symmetry earned transitivity."""
    certify_symmetry(dc)
    alpha_count = dc.alpha_class_count

    def neighbours(u):
        if u < alpha_count:
            for p in dc.alpha_class_points(u):
                yield p, alpha_count + dc.beta_class_of(p)
        else:
            for p in dc.beta_class_points(u - alpha_count):
                yield p, dc.alpha_class_of(p)

    o = dc.v.order
    roots = [b * o for b in range(dc.b_size)] + [alpha_count + a * o for a in range(dc.a_size)]
    certify_girth(neighbours, roots, 2 * dc.depth)


def densify(fmap: FiniteMap, elements: Sequence[tuple[int, ...]], _moves=None) -> FiniteMap:
    """fmap on the points (c, i) = c * |V| + i, where elements[i] is the
    i-th element of V: (c, v) goes to (cells[c], v * w_c), v * w = w[v]."""
    table = np.asarray(elements, dtype=np.int64)
    order, degree = table.shape
    weights = degree ** np.arange(degree, dtype=np.int64)
    keys = table @ weights
    sorter = np.argsort(keys)
    sorted_keys = keys[sorter]
    moves = {} if _moves is None else _moves  # label -> index of v * label, per v

    def move(w):
        # v -> v * w permutes V, so the k-th smallest moved key is the k-th
        # smallest key: the element moved there has index sorter[k].
        if w not in moves:
            moved = np.asarray(w)[table] @ weights
            by_key = np.argsort(moved)
            assert (moved[by_key] == sorted_keys).all(), "a label moved a point off the carrier"
            moves[w] = np.empty(order, dtype=np.int64)
            moves[w][by_key] = sorter
        return moves[w]

    [slot] = fmap.slots
    images = np.empty((slot.images.size, order), dtype=np.int64)
    for c, (target, w) in enumerate(zip(slot.images.tolist(), map(tuple, slot.labels.tolist()))):
        images[c] = target * order + move(w)
    return FiniteMap(images.ravel())


def densify_action(qa: QuasiAction, elements) -> QuasiAction:
    moves, table = {}, np.array(elements, dtype=np.int64)
    dense = {e: densify(m, table, moves) for e, m in qa.assignment.items()}
    return QuasiAction(qa.owner, qa.carrier_n, dense, qa.claimed_f, qa.claimed_epsilon)
