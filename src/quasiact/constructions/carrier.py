"""The carrier C = A x B x V with its two certified partitions.

Points are triples (a, b, v) with v in V, never listed: the free product
acts on them one (a, b) cell at a time.  The alpha-classes fix (b, v) and
range over a; the beta-classes fix a and a group element w, collecting the
points (a, b, w * gen(a,b)) over b.  An alpha-class meets a beta-class in
at most one point, and the bipartite incidence multigraph of the two
partitions (one edge per point) has no cycle of length <= 2N; both facts
are certified on the built object, never inferred from the witness.

Left multiplication by u in V sends (b, v) to (b, u v), (a, w) to (a, u w)
and (a, b, v) to (a, b, u v): an automorphism of the incidence graph, and
these are transitive on V.  So every class lies in the orbit of some
(b, 1) or (a, 1), and a non-backtracking BFS from these |A| + |B| roots,
on class nodes labelled by permutation tuples, refuses every cycle of
length <= 2N, two classes meeting twice included.  |V| is recomputed by
Schreier-Sims.

Generators attach to (a,b) cells either one-to-one (label count == |A||B|)
or through the cyclic assignment gen(a,b) = generator[(a+b) mod labels],
which is injective along every row and every column whenever
labels >= max(|A|,|B|).  Row/column injectivity is exactly what the
shortening argument behind the incidence-girth bound consumes, and the BFS
certificate re-checks the conclusion on the built object anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError, InvariantViolationError, PreconditionError
from .girth import GirthGroup, _inverse, certify_girth, schreier_sims


@dataclass(frozen=True)
class PartitionedCarrier:
    a_size: int
    b_size: int
    v: GirthGroup
    gen_label: tuple[tuple[int, ...], ...]  # (a, b) -> generator index
    depth: int  # incidence girth certified > 2*depth

    @property
    def size(self) -> int:
        return self.a_size * self.b_size * self.v.order

    @property
    def alpha_class_count(self) -> int:
        return self.b_size * self.v.order

    @property
    def beta_class_count(self) -> int:
        return self.a_size * self.v.order


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


def build_partitioned_carrier(
    a_size: int, b_size: int, depth: int, v: GirthGroup
) -> PartitionedCarrier:
    """Assemble the carrier and certify |V| and the incidence girth.

    Alpha-classes have |A| points and beta-classes |B| by construction: the
    points (a, b, w * gen(a,b)) of a beta-class differ in b.
    """
    if a_size < 1 or b_size < 1 or depth < 1:
        raise DomainError("sizes and depth must be positive")
    if v.certified_girth_bound < 2 * depth:
        raise PreconditionError(
            f"generator witness certifies girth {v.certified_girth_bound}, "
            f"need at least {2 * depth}"
        )
    pc = PartitionedCarrier(a_size, b_size, v, _label_assignment(a_size, b_size, v), depth)
    order = schreier_sims(v.fiber.generators)[0]
    if order != v.order:
        raise InvariantViolationError(f"the generators give {order} elements, not {v.order}")
    _bfs_girth_certificate(pc)
    return pc


def _bfs_girth_certificate(pc: PartitionedCarrier) -> None:
    """Certify incidence girth > 2N by BFS from the |A| + |B| classes through 1.

    Vertices are alpha-classes (0, b, v) and beta-classes (1, a, w), v and w
    permutation tuples; the edge (a, b, v) is the point joining (0, b, v)
    and (1, a, v * gen(a,b)^-1).  Left multiplication on V makes the roots
    enough (see the module docstring).
    """
    gens = pc.v.fiber.generators
    inverses = [_inverse(g) for g in gens]

    def neighbours(node):
        side, i, v = node
        if side == 0:
            for a in range(pc.a_size):
                inv = inverses[pc.gen_label[a][i]]
                yield (a, i, v), (1, a, tuple(inv[x] for x in v))
        else:
            for b in range(pc.b_size):
                gen = gens[pc.gen_label[i][b]]
                point = tuple(gen[x] for x in v)
                yield (i, b, point), (0, b, point)

    one = tuple(range(pc.v.fiber.degree))
    roots = [(0, b, one) for b in range(pc.b_size)] + [(1, a, one) for a in range(pc.a_size)]
    certify_girth(neighbours, roots, 2 * pc.depth)
