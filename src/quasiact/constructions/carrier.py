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
(b, 1) or (a, 1), and girth.certify_girth, walking the non-backtracking
walks from these |A| + |B| roots a level at a time on class nodes labelled
by permutations, refuses every cycle of length <= 2N, two classes meeting
twice included.  |V| is recomputed by Schreier-Sims.

Generators attach to (a,b) cells either one-to-one (label count == |A||B|)
or through the cyclic assignment gen(a,b) = generator[(a+b) mod labels],
which is injective along every row and every column whenever
labels >= max(|A|,|B|).  Row/column injectivity is exactly what the
shortening argument behind the incidence-girth bound consumes, and the
girth certificate re-checks the conclusion on the built object anyway.
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
    """Certify incidence girth > 2N from the |A| + |B| classes through 1 (the
    module docstring says why these roots suffice).  Alpha-class (b, v) has
    tag b and beta-class (a, w) tag |B| + a; the point (a, b, v) joins (b, v)
    and (a, v * gen(a,b)^-1), so the move from tag b to |B| + a applies
    gen(a,b)^-1, and its back move gen(a,b)."""
    gens, label, b_size = pc.v.fiber.generators, pc.gen_label, pc.b_size
    alpha = [[(b_size + a, _inverse(gens[label[a][b]]), b) for a in range(pc.a_size)]
             for b in range(b_size)]
    beta = [[(b, gens[label[a][b]], a) for b in range(b_size)] for a in range(pc.a_size)]
    certify_girth(alpha + beta, range(b_size + pc.a_size), 2 * pc.depth)
