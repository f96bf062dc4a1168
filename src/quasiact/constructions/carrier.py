"""The carrier C = A x B x V with its two certified partitions.

Points are triples (a, b, v) indexed row-major.  The alpha-classes fix
(b, v) and range over a; the beta-classes fix a and a group element w,
collecting the points (a, b, w * gen(a,b)) over b.  An alpha-class meets a
beta-class in at most one point, and the bipartite incidence multigraph of
the two partitions (one edge per point) has no cycle of length <= 2N; both
facts are certified directly on the built object, never inferred from the
generator witness.

V is indexed by a BFS closure of its generators, the one enumeration of V
(|V| itself comes from Schreier-Sims).  The girth certificate uses
symmetry earned from the resulting right-multiplication tables alone: a
bijection sigma of V's indices commuting with every table maps the
incidence graph to itself through v -> sigma(v).  Once such
sigmas are shown to be transitive on V, every class lies in the orbit of
some (b, 0) or (a, 0), so a non-backtracking BFS from these |A| + |B| roots
refuses every cycle of length <= 2N, two classes meeting twice included.

Generators attach to (a,b) cells either one-to-one (label count == |A||B|)
or through the cyclic assignment gen(a,b) = generator[(a+b) mod labels],
which is injective along every row and every column whenever
labels >= max(|A|,|B|).  Row/column injectivity is exactly what the
shortening argument behind the incidence-girth bound consumes, and the BFS
certificate re-checks the conclusion on the built object anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import DomainError, InvariantViolationError, PreconditionError
from .girth import GirthGroup, certify_girth


@dataclass(frozen=True)
class PartitionedCarrier:
    a_size: int
    b_size: int
    v: GirthGroup
    gen_label: tuple[tuple[int, ...], ...]  # (a, b) -> generator index
    depth: int  # incidence girth certified > 2*depth
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
        o = self.v.order
        b, v_idx = divmod(class_id, o)
        for a in range(self.a_size):
            yield self.point_index(a, b, v_idx)

    def beta_class_points(self, class_id: int) -> Iterator[int]:
        o = self.v.order
        a, w = divmod(class_id, o)
        for b in range(self.b_size):
            v_idx = int(self.right_mult[self.gen_label[a][b], w])
            yield self.point_index(a, b, v_idx)


def _label_assignment(a_size: int, b_size: int, v: GirthGroup) -> tuple[tuple[int, ...], ...]:
    if v.labels == a_size * b_size:
        return tuple(
            tuple(a * b_size + b for b in range(b_size)) for a in range(a_size)
        )
    if v.labels >= max(a_size, b_size):
        return tuple(
            tuple((a + b) % v.labels for b in range(b_size)) for a in range(a_size)
        )
    raise DomainError(
        f"generator labels ({v.labels}) fit neither one per cell "
        f"({a_size * b_size}) nor a row/column-injective assignment "
        f"(needs >= {max(a_size, b_size)})"
    )


def _cayley_tables(gens: Sequence[tuple[int, ...]], order_cap: int) -> tuple[np.ndarray, ...]:
    """Right-multiplication tables of <gens> and their inverses, by BFS closure."""
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
    return right_mult, inv_mult


def build_partitioned_carrier(
    a_size: int, b_size: int, depth: int, v: GirthGroup
) -> PartitionedCarrier:
    """Assemble the carrier and certify class sizes, intersections and girth.

    Alpha-classes have |A| points by construction; beta-classes have |B|
    because every table row is checked to be a permutation.
    """
    if a_size < 1 or b_size < 1 or depth < 1:
        raise DomainError("sizes and depth must be positive")
    if v.certified_girth_bound < 2 * depth:
        raise PreconditionError(
            f"generator witness certifies girth {v.certified_girth_bound}, "
            f"need at least {2 * depth}"
        )
    tables = _cayley_tables([tuple(g.to_list()) for g in v.generators], v.order)
    pc = PartitionedCarrier(a_size, b_size, v, _label_assignment(a_size, b_size, v), depth,
                            *tables)
    _bfs_girth_certificate(pc)
    return pc


def _certify_symmetry(pc: PartitionedCarrier) -> None:
    """Check from the carrier's tables alone that each sigma_k is an
    automorphism of the incidence graph.

    sigma_k(0) = R_k(0), and sigma(R_j t) = R_j sigma(t) defines the rest
    along a BFS tree of the R_j from 0, which must reach all of V.  Each
    sigma_k must be a bijection commuting with every R_j; then
    sigma_k1 ... sigma_km (0) = R_km ... R_k1 (0), so the sigmas carry 0 to
    every index the tree reached, i.e. act transitively on V.
    """
    r, r_inv, o = pc.right_mult, pc.right_mult_inv, pc.v.order
    if o < 1 or r.shape != (pc.v.labels, o) or r_inv.shape != r.shape:
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


def _bfs_girth_certificate(pc: PartitionedCarrier) -> None:
    """Certify incidence girth > 2N by BFS from the |A| + |B| orbit roots.

    Vertices are the alpha-classes (ids 0..) and beta-classes (offset by the
    alpha count); edges are the carrier points.  _certify_symmetry earns the
    transitivity that makes the roots (b, 0) and (a, 0) enough.
    """
    _certify_symmetry(pc)
    alpha_count = pc.alpha_class_count

    def neighbours(u):
        if u < alpha_count:
            for p in pc.alpha_class_points(u):
                yield p, alpha_count + pc.beta_class_of(p)
        else:
            for p in pc.beta_class_points(u - alpha_count):
                yield p, pc.alpha_class_of(p)

    o = pc.v.order
    roots = [b * o for b in range(pc.b_size)] + [alpha_count + a * o for a in range(pc.a_size)]
    certify_girth(neighbours, roots, 2 * pc.depth)
