"""Dense self-maps of a finite set {0..n-1} and similarity counting.

Maps act on the right: the product ``ef`` means "apply e, then f", so
``a . ef == (a . e) . f``.  All counting is exact; fractions of the carrier
are reported as integer pairs, never floats.
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


class FiniteMap:
    """A self-map of {0..n-1}, stored as the dense array of images."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int] | np.ndarray):
        arr = np.asarray(images)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("a map needs a one-dimensional, nonempty image list")
        if arr.dtype.kind not in "iu":
            raise DomainError(f"map images must be integers, got dtype {arr.dtype}")
        check_carrier_size(arr.size)
        # Range-check in the input's own dtype: casting first would wrap
        # out-of-range images (2**32 -> 0) into valid-looking ones.
        if arr.min() < 0 or arr.max() >= arr.size:
            raise DomainError("image out of range for carrier size %d" % arr.size)
        arr = arr.astype(_DTYPE, copy=False)
        arr.setflags(write=False)
        self._images = arr

    @property
    def images(self) -> np.ndarray:
        return self._images

    @property
    def n(self) -> int:
        return int(self._images.size)

    def __call__(self, point: int) -> int:
        return int(self._images[point])

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteMap) and np.array_equal(self._images, other._images)

    def __hash__(self):
        return hash((self.n, self._images.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 16:
            return f"FiniteMap({self._images.tolist()})"
        return f"FiniteMap(n={self.n})"

    def is_bijection(self) -> bool:
        return bool(np.bincount(self._images, minlength=self.n).max() == 1)

    def to_list(self) -> list[int]:
        return [int(x) for x in self._images]

    def tobytes(self) -> bytes:
        return self._images.tobytes()


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
    return FiniteMap(np.arange(n, dtype=_DTYPE))


def shift_map(n: int, k: int) -> FiniteMap:
    """The cyclic shift a -> (a + k) mod n."""
    return FiniteMap((np.arange(n, dtype=np.int64) + k) % n)


def swap_map(n: int, i: int, j: int) -> FiniteMap:
    images = np.arange(n, dtype=_DTYPE)
    images[i], images[j] = j, i
    return FiniteMap(images)


def compose(e: FiniteMap, f: FiniteMap) -> FiniteMap:
    """The product ef: first e, then f.  compose(e, f)(a) == f(e(a))."""
    if e.n != f.n:
        raise CarrierMismatchError(f"carrier sizes differ: {e.n} vs {f.n}")
    return FiniteMap(f.images[e.images])


def compose_chain(maps: Iterable[FiniteMap]) -> FiniteMap:
    """Product of several maps, applied left to right."""
    result = None
    for m in maps:
        result = m if result is None else compose(result, m)
    if result is None:
        raise DomainError("empty composition chain")
    return result


def similarity_defect(e: FiniteMap, f: FiniteMap) -> Defect:
    """Count the points where e and f disagree."""
    if e.n != f.n:
        raise CarrierMismatchError(f"carrier sizes differ: {e.n} vs {f.n}")
    return Defect(int(np.count_nonzero(e.images != f.images)), e.n)


def _is_fixed(e: FiniteMap) -> np.ndarray:
    return e.images == np.arange(e.n, dtype=_DTYPE)


def fixpoint_count(e: FiniteMap) -> int:
    return int(np.count_nonzero(_is_fixed(e)))


def fixpoint_set(e: FiniteMap) -> frozenset[int]:
    return frozenset(np.flatnonzero(_is_fixed(e)).tolist())


def inverse_map(e: FiniteMap) -> FiniteMap:
    """Inverse of a bijection."""
    if not e.is_bijection():
        raise DomainError("cannot invert a non-bijective map")
    inv = np.empty(e.n, dtype=_DTYPE)
    inv[e.images] = np.arange(e.n, dtype=_DTYPE)
    return FiniteMap(inv)


def double(e: FiniteMap) -> FiniteMap:
    """Act the same way on two disjoint copies of the carrier.

    Points [0,n) are the first copy and [n,2n) the second, so
    double(e)(a) == e(a) and double(e)(n+a) == n + e(a).
    """
    n = e.n
    return FiniteMap(np.concatenate([e.images, e.images + n]))
