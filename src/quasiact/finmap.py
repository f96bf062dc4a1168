"""Self-maps of finite carriers and similarity counting.

A FiniteMap is dense or fibered.  A dense map is the array of images of
{0..n-1}.  A map fibered over the permutation group V (its Fiber) acts on
cells x V and commutes with left multiplication on V: it stores one cell
image and one label in V per cell, and sends (c, v) to (images[c],
v * labels[c]).  Two such maps disagree at (c, v) iff they disagree at
(c, 1), so every count is |V| times a count over cells.  Each operation
takes both kinds through one code path (a dense map has one point per cell
and labels of shape (n, 0)) and counts points exactly.

Maps act on the right: the product ``ef`` means "apply e, then f", so
``a . ef == (a . e) . f``; permutations compose the same way, so
``(v * w)[x] == w[v[x]]``.  Fractions of the carrier are reported as
integer pairs, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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


class FiniteMap:
    """A self-map of a finite carrier: one image per cell and, over a fiber
    V, one label per cell.

    Labels must lie in V, which is not checked here: the free product builds
    them from V's generators, and the certificate loader sifts each one into
    V.  ``packed`` is one read-only int32 array, the cell images and then the
    labels; ``images`` and ``labels`` (shape (cells, V's degree)) view it.
    """

    __slots__ = ("packed", "images", "labels", "fiber")

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
            arr = np.concatenate([arr, labels.ravel()])
        elif labels is not None and np.shape(labels) != (cells, 0):
            raise DomainError(f"a dense map's labels, if given, have shape {(cells, 0)}")
        # Writeable input is copied, not frozen under its owner; read-only is shared.
        self.packed = arr.astype(_DTYPE, copy=arr.flags.writeable)
        self.packed.setflags(write=False)
        self.images = self.packed[:cells]
        self.labels = self.packed[cells:].reshape(cells, degree)
        self.fiber = fiber

    @property
    def fiber_size(self) -> int:
        """Points per cell: |V|, or 1 for a dense map."""
        return 1 if self.fiber is None else self.fiber.order

    @property
    def n(self) -> int:
        return self.images.size * self.fiber_size

    def points(self) -> np.ndarray:
        """A dense map's images; a fibered map has no list of points."""
        if self.fiber is not None:
            raise DomainError("a fibered map has no list of points")
        return self.images

    def __call__(self, point: int) -> int:
        return int(self.points()[point])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMap)
            and self.fiber == other.fiber
            and np.array_equal(self.packed, other.packed)
        )

    def __hash__(self):
        return hash((self.fiber, self.packed.tobytes()))

    def __repr__(self) -> str:
        if self.fiber is not None:
            return f"FiniteMap(cells={self.images.size}, |V|={self.fiber.order})"
        if self.n <= 16:
            return f"FiniteMap({self.images.tolist()})"
        return f"FiniteMap(n={self.n})"

    def is_bijection(self) -> bool:
        """Whether the cell map is a bijection; v -> v * w is one on V."""
        return bool(np.bincount(self.images, minlength=self.images.size).max() == 1)

    def to_list(self) -> list[int]:
        return [int(x) for x in self.points()]

    def tobytes(self) -> bytes:
        return self.points().tobytes()


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

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.disagreements, self.n)

    def __str__(self) -> str:
        return f"{self.disagreements}/{self.n}"

    def is_similar(self, epsilon: Fraction) -> bool:
        """At most epsilon*n disagreements: d/n <= p/q as d*q <= p*n."""
        return self.disagreements * epsilon.denominator <= epsilon.numerator * self.n

    def is_different(self, delta: Fraction) -> bool:
        """Not delta-similar: strictly more than delta*n disagreements."""
        return not self.is_similar(delta)


def identity_map(n: int) -> FiniteMap:
    return FiniteMap(np.arange(check_carrier_size(n), dtype=_DTYPE))


def identity_like(e: FiniteMap) -> FiniteMap:
    """The identity map on e's carrier: cells fixed, labels 1."""
    cells, degree = e.labels.shape
    labels = np.broadcast_to(np.arange(degree, dtype=_DTYPE), (cells, degree))
    return FiniteMap(np.arange(cells, dtype=_DTYPE), labels, e.fiber)


def shift_map(n: int, k: int) -> FiniteMap:
    """The cyclic shift a -> (a + k) mod n."""
    return FiniteMap((np.arange(check_carrier_size(n), dtype=np.int64) + k) % n)


def _check_same(e: FiniteMap, f: FiniteMap) -> None:
    if e.packed.size != f.packed.size or e.fiber != f.fiber:
        raise CarrierMismatchError(f"carriers differ: {e!r} vs {f!r}")


def after(e: FiniteMap, images: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maps f stacked as rows (images (r, cells), labels (r, cells, degree)),
    each composed after e: the rows of ef.  The label of ef at c is
    w_e(c) * w_f(e(c)), i.e. w_f(e(c))[w_e(c)[x]]."""
    if labels.shape[-1]:  # empty labels (dense maps) stay empty
        labels = np.take_along_axis(np.take(labels, e.images, axis=1), e.labels[None], axis=2)
    return np.take(images, e.images, axis=1), labels


def differs(x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per cell, whether the points over it differ between the (images,
    labels) pairs x and y (broadcast): iff the cell images or labels differ."""
    out = x[0] != y[0]
    if x[1].shape[-1]:
        out |= (x[1] != y[1]).any(axis=-1)
    return out


def compose(e: FiniteMap, f: FiniteMap) -> FiniteMap:
    """The product ef: first e, then f.  compose(e, f)(a) == f(e(a))."""
    _check_same(e, f)
    images, labels = after(e, f.images[None], f.labels[None])
    return FiniteMap(images[0], labels[0], e.fiber)


def similarity_defect(e: FiniteMap, f: FiniteMap) -> Defect:
    """Count the points where e and f disagree."""
    _check_same(e, f)
    cells = np.count_nonzero(differs((e.images, e.labels), (f.images, f.labels)))
    return Defect(e.fiber_size * int(cells), e.n)


def _moved(e: FiniteMap) -> np.ndarray:
    """Per cell: its points move iff the cell moves or its label is not 1."""
    cells, degree = e.labels.shape
    return differs((e.images, e.labels), (np.arange(cells), np.arange(degree)))


def fixpoint_count(e: FiniteMap) -> int:
    return e.fiber_size * (e.images.size - int(np.count_nonzero(_moved(e))))


def inverse_map(e: FiniteMap) -> FiniteMap:
    """Inverse of a bijection: c' goes to e^-1(c') with the inverse of the
    label at e^-1(c')."""
    if not e.is_bijection():
        raise DomainError("cannot invert a non-bijective map")
    images = np.empty_like(e.images)
    images[e.images] = np.arange(images.size, dtype=_DTYPE)
    return FiniteMap(images, np.argsort(e.labels, axis=1)[images], e.fiber)


def double(e: FiniteMap) -> FiniteMap:
    """Act the same way on two disjoint copies of the carrier.

    Points [0,n) are the first copy and [n,2n) the second, so
    double(e)(a) == e(a) and double(e)(n+a) == n + e(a).
    """
    return FiniteMap(np.concatenate([e.points(), e.images + e.n]))
