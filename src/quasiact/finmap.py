"""Self-maps of finite carriers and similarity counting.

A FiniteMap is a tuple of slots and acts on the product of their carriers
coordinatewise.  A dense slot is the array of images of {0..cells-1}.  A
slot fibered over the permutation group V (its Fiber) acts on cells x V and
commutes with left multiplication on V: it stores one cell image and one
label in V per cell, and sends (c, v) to (images[c], v * labels[c]).  So a
slot's agreements are |V| times a count over cells (one point per cell, and
labels of shape (cells, 0), when dense), and a map's are their product.

Maps act on the right: the product ``ef`` means "apply e, then f", so
``a . ef == (a . e) . f``; permutations compose the same way, so
``(v * w)[x] == w[v[x]]``.  Fractions of the carrier are reported as
integer pairs, never floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CarrierMismatchError, DomainError, InvariantViolationError

_DTYPE = np.int32
_MAX_CARRIER = int(np.iinfo(_DTYPE).max)


def check_carrier_size(n: int) -> int:
    """Reject carrier sizes whose points do not all fit the int32 images."""
    if not 0 < n <= _MAX_CARRIER:
        raise DomainError(f"carrier size {n} is outside 1..{_MAX_CARRIER}")
    return n


@dataclass(frozen=True)
class Fiber:
    """The group V that fibered maps' labels lie in: permutation generators
    of one degree and the order of the group they generate."""

    generators: tuple[tuple[int, ...], ...]
    order: int

    def __post_init__(self):
        gens = self.generators
        if not gens or any(sorted(g) != list(range(len(gens[0]))) for g in gens):
            raise DomainError("fiber generators must be permutations of one degree")
        if self.order < 1:
            raise DomainError(f"a fiber's order must be positive, got {self.order}")

    @property
    def degree(self) -> int:
        return len(self.generators[0])

    def describe(self) -> dict:  # as a girth witness and a fibered slot state V
        return {"degree": self.degree, "generators": self.generators, "order": self.order}


class Slot(NamedTuple):
    """One slot of a map: cell images (cells,) and labels (cells, V's degree)."""

    images: np.ndarray
    labels: np.ndarray
    fiber: Fiber | None

    @property
    def per_cell(self) -> int:  # |V|, or 1 for a dense slot
        return 1 if self.fiber is None else self.fiber.order


class FiniteMap:
    """A self-map of a finite carrier: per slot, one image per cell and,
    over a fiber V, one label per cell.  ``FiniteMap(images, labels, fiber)``
    has one slot; ``FiniteMap.product(maps)`` has the maps' slots in order,
    as a product action's map, built when its assignment is read.

    Labels must lie in V, which is not checked here: the free product builds
    them from V's generators, and the certificate loader sifts each one into
    V.  ``packed`` is one read-only int32 array, every slot's cell images,
    then every slot's labels; ``images`` (all cell images) and ``slots`` view
    it.  ``layout`` is (cells, fiber or None) per slot."""

    __slots__ = ("packed", "images", "slots", "layout")

    def __init__(
        self, images: Iterable[int] | np.ndarray, labels=None, fiber: Fiber | None = None
    ):
        arr = np.asarray(images)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("a map needs a one-dimensional, nonempty image list")
        if arr.dtype.kind not in "iu":
            raise DomainError(f"map images must be integers, got dtype {arr.dtype}")
        cells = check_carrier_size(arr.size)
        # Range-check in the input's own dtype: casting first would wrap
        # out-of-range images (2**32 -> 0) into valid-looking ones.
        if arr.min() < 0 or arr.max() >= cells:
            raise DomainError("image out of range for carrier size %d" % cells)
        degree = 0 if fiber is None else fiber.degree
        if fiber is not None:
            labels = np.asarray(labels)
            if labels.shape != (cells, degree) or labels.dtype.kind not in "iu":
                raise DomainError(f"labels must be an integer array of shape {(cells, degree)}")
            if not (np.sort(labels, axis=1) == np.arange(degree)).all():
                raise DomainError(f"every label must be a permutation of 0..{degree - 1}")
        elif labels is not None and np.shape(labels) != (cells, 0):
            raise DomainError(f"a dense map's labels, if given, have shape {(cells, 0)}")
        self._pack([(arr, labels, fiber)])

    def _pack(self, slots: Sequence[tuple]) -> FiniteMap:
        """Pack (images, labels, fiber) triples, known valid, as this map's slots."""
        parts = [s[0] for s in slots] + [np.ravel(s[1]) for s in slots if s[2] is not None]
        arr = parts[0] if len(parts) == 1 else np.concatenate(parts, dtype=_DTYPE)
        # Writeable input is copied, not frozen under its owner; read-only is shared.
        self.packed = arr.astype(_DTYPE, copy=len(parts) == 1 and arr.flags.writeable)
        self.packed.setflags(write=False)
        self.layout = tuple((s[0].size, s[2]) for s in slots)
        self.images = self.packed[: sum(cells for cells, _ in self.layout)]
        self.slots = tuple(Slot(i[0], l[0], s[2]) for (i, l), s in zip(self.rows(), slots))
        return self

    def rows(self, stack: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Packed maps of this map's layout stacked as rows (this map alone by
        default), as per slot (images (r, cells), labels (r, cells, degree))."""
        stack = self.packed[None] if stack is None else stack
        out, c, l = [], 0, self.images.size
        for cells, fiber in self.layout:
            d = 0 if fiber is None else fiber.degree
            labels = stack[:, l : l + cells * d].reshape(len(stack), cells, d)
            out.append((stack[:, c : c + cells], labels))
            c, l = c + cells, l + cells * d
        return out

    @classmethod
    def _of(cls, slots: Sequence[tuple]) -> FiniteMap:
        return cls.__new__(cls)._pack(slots)

    @staticmethod
    def product(maps: Sequence[FiniteMap]) -> FiniteMap:
        """The map acting by maps[i] on the i-th coordinate of the product carrier."""
        return FiniteMap._of([s for m in maps for s in m.slots])

    @property
    def n(self) -> int:
        return math.prod(s.images.size * s.per_cell for s in self.slots)

    def points(self) -> np.ndarray:
        """A dense one-slot map's images; other maps have no list of points."""
        if self.layout != ((self.images.size, None),):
            raise DomainError("a fibered or multi-slot map has no list of points")
        return self.images

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMap)
            and self.layout == other.layout
            and np.array_equal(self.packed, other.packed)
        )

    def __hash__(self):
        return hash((self.layout, self.packed.tobytes()))

    def __repr__(self) -> str:
        if self.layout != ((self.n, None),):
            return f"FiniteMap(cells, |V| = {[(c, v and v.order) for c, v in self.layout]})"
        return f"FiniteMap({self.images.tolist()})" if self.n <= 16 else f"FiniteMap(n={self.n})"

    def is_bijection(self) -> bool:
        """Whether every slot's cell map is a bijection; v -> v * w is one on V."""
        return all(np.bincount(s.images, minlength=s.images.size).max() == 1 for s in self.slots)


@dataclass(frozen=True)
class Defect:
    """How many points two same-carrier maps disagree on."""

    disagreements: int
    n: int

    def __post_init__(self):
        if not (0 <= self.disagreements <= self.n):
            raise InvariantViolationError(
                f"defect {self.disagreements}/{self.n} out of range"
            )

    def __str__(self) -> str:
        return f"{self.disagreements}/{self.n}"

    def is_similar(self, epsilon: Fraction) -> bool:
        """At most epsilon*n disagreements: d/n <= p/q as d*q <= p*n."""
        return self.disagreements * epsilon.denominator <= epsilon.numerator * self.n

    def is_different(self, delta: Fraction) -> bool:
        """Not delta-similar: strictly more than delta*n disagreements."""
        return not self.is_similar(delta)


def identity_map(n: int, fiber: Fiber | None = None) -> FiniteMap:
    """The identity on n cells (over fiber, with every label 1)."""
    cells = np.arange(check_carrier_size(n), dtype=_DTYPE)
    return FiniteMap._of([(cells, np.indices((n, 0 if fiber is None else fiber.degree))[1], fiber)])


def identity_like(e: FiniteMap) -> FiniteMap:
    """The identity map on e's carrier: in every slot, cells fixed and labels 1."""
    return FiniteMap.product([identity_map(*slot) for slot in e.layout])


def shift_map(n: int, k: int) -> FiniteMap:
    """The cyclic shift a -> (a + k) mod n."""
    return FiniteMap((np.arange(check_carrier_size(n), dtype=np.int64) + k) % n)


def _check_same(e: FiniteMap, f: FiniteMap) -> None:
    if e.layout != f.layout:
        raise CarrierMismatchError(f"carriers differ: {e!r} vs {f!r}")


def after(x: list, y: list) -> list:
    """Rows x then rows y of one layout (FiniteMap.rows, broadcast): the rows
    of the composites ef.  The label of ef at c is w_e(c) * w_f(e(c)), i.e.
    w_f(e(c))[w_e(c)[x]]."""
    out = []
    for (e_images, e_labels), (images, labels) in zip(x, y):
        at = np.arange(len(images))[:, None], e_images  # row i of y at row i of x's images
        labels = labels[at]
        if labels.shape[-1]:  # empty labels (dense slots) stay empty
            labels = np.take_along_axis(labels, e_labels, axis=2)
        out.append((images[at], labels))
    return out


def differs(x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per cell, whether the points over it differ between the (images,
    labels) pairs x and y (broadcast): iff the cell images or labels differ."""
    out = x[0] != y[0]
    if x[1].shape[-1]:
        out |= (x[1] != y[1]).any(axis=-1)
    return out


def count_dtype(n: int):
    """int64 for counts of at most n < 2**63 points (none wraps), else object."""
    return np.int64 if n < 2**63 else object


def agreements(e: FiniteMap, x: list, y: list) -> np.ndarray:
    """Per row, the points where rows x and y of e's layout (broadcast) agree:
    per slot the column |V| times the agreeing cells, multiplied over the
    slots in count_dtype(e.n)."""
    return math.prod(s.per_cell * (s.images.size - np.count_nonzero(differs(a, b), axis=-1))
                     .astype(count_dtype(e.n)) for s, a, b in zip(e.slots, x, y))


def compose(e: FiniteMap, f: FiniteMap) -> FiniteMap:
    """The product ef: first e, then f, so a . ef == (a . e) . f."""
    _check_same(e, f)
    rows = after(e.rows(), f.rows())
    return FiniteMap._of([(i[0], l[0], s.fiber) for (i, l), s in zip(rows, e.slots)])


def similarity_defect(e: FiniteMap, f: FiniteMap) -> Defect:
    """Count the points where e and f disagree."""
    _check_same(e, f)
    [agree] = agreements(e, e.rows(), f.rows()).tolist()
    return Defect(e.n - agree, e.n)


def _moved(s: Slot) -> np.ndarray:
    """Per cell of slot s: its points move iff the cell moves or its label is not 1."""
    cells, degree = s.labels.shape
    return differs((s.images, s.labels), (np.arange(cells), np.arange(degree)))


def fixpoint_count(e: FiniteMap) -> int:
    """A point is fixed iff it is fixed in every slot."""
    return math.prod(s.per_cell * (s.images.size - int(np.count_nonzero(_moved(s))))
                     for s in e.slots)


def inverse_map(e: FiniteMap) -> FiniteMap:
    """Inverse of a bijection, slot by slot: c' goes to e^-1(c') with the
    inverse of the label at e^-1(c'); argsort inverts a permutation."""
    if not e.is_bijection():
        raise DomainError("cannot invert a non-bijective map")
    inverses = [(np.argsort(s.images), s) for s in e.slots]
    return FiniteMap._of([(c, np.argsort(s.labels, axis=1)[c], s.fiber) for c, s in inverses])
