"""Group element algebra: the handles the constructions multiply elements in.

A handle owns an element type, total multiplication / inversion, decidable
equality, and a canonical JSON-able encoding used for certificate keys.
Concrete handles: the integers, table-backed finite groups, direct products,
subgroups of a parent handle, free products with normal-form words, and the
group of integer translations extended by finitely supported permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, GroupMismatchError
from .util import canonical_json


# Rows of numbers are coded as one int64 below CODES each, the codes being
# numbered densely first whenever the next column could pass it.
CODES = 1 << 62


def _row_codes(columns: Iterable[np.ndarray], sizes: Iterable[int]) -> np.ndarray:
    """One int64 code per row of the parallel columns, column j's entries in
    range(sizes[j]): two rows are equal iff their codes are."""
    code, size = 0, 1
    for c, n in zip(columns, sizes):
        if size > 1 and size * n > CODES:
            distinct, code, _ = _unique(code)
            size = len(distinct)
        code, size = code * n + c, size * n
    return code


def _unique(values: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """The sorted distinct values of a 1-d int array as Python ints, each
    value's position among them and a position in values of each: marked in
    an array over their range if it is below 4 times their count, else sorted."""
    lo, hi = (int(values.min()), int(values.max())) if len(values) else (0, 0)
    if hi - lo < 4 * len(values):
        mark = np.zeros(hi - lo + 1, bool)
        mark[values - lo] = True
        distinct, at = np.flatnonzero(mark) + lo, (np.cumsum(mark) - 1)[values - lo]
    else:
        distinct, at = np.unique(values, return_inverse=True)
    first = np.empty(len(distinct), np.intp)
    first[at] = np.arange(len(at))
    return distinct.tolist(), at, first


def _lookup(support: Sequence, elems: Iterable) -> np.ndarray:
    """The position in support of each of elems, -1 for one outside it."""
    ids = {e: i for i, e in enumerate(support)}
    return np.fromiter(map(ids.get, elems, itertools.repeat(-1)), np.intp)


def _int64(xs: Sequence) -> np.ndarray | None:
    """The checked ints xs as int64, or None unless every |x| < 2**62: then no
    sum of two wraps, and a batch past it takes the loop."""
    try:
        arr = np.fromiter(xs, np.int64, len(xs))
    except OverflowError:  # past int64 itself
        return None
    return arr if not arr.size or (-1 << 62 < arr.min() and arr.max() < 1 << 62) else None


def _str_keys(self, xs: Sequence) -> list[str]:
    """element_key of checked ints: str(x) is their canonical JSON."""
    return list(map(str, xs))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _decode_int(obj) -> int:
    """The one integer check for decoded JSON: no bool, float or string."""
    if not _is_int(obj):
        raise DomainError(f"expected an integer, got {obj!r}")
    return obj


def _decode_list(obj, length: int | None = None) -> list:
    """A decoded JSON array, of the given length when one is given."""
    if not isinstance(obj, list) or length not in (None, len(obj)):
        shape = "an array" if length is None else f"an array of {length} entries"
        raise DomainError(f"expected {shape}, got {obj!r:.40}")
    return obj


def _decode_ints(obj, length: int | None = None) -> list[int]:
    return [_decode_int(x) for x in _decode_list(obj, length)]


def _decode_object(obj) -> dict:
    if not isinstance(obj, dict):
        raise DomainError(f"expected a JSON object, got {obj!r:.40}")
    return obj


def _decode_str(obj) -> str:
    if not isinstance(obj, str):
        raise DomainError(f"expected a string, got {obj!r:.40}")
    return obj


_REQUIRED = object()


def _field(doc, name: str, decode: Callable, default=_REQUIRED):
    """The one reader of a decoded JSON object's fields: decode(doc[name]), or
    default if absent.  A missing required field or refused value names the field."""
    if name not in _decode_object(doc):
        if default is _REQUIRED:
            raise DomainError(f"missing field {name!r}")
        return default
    try:
        return decode(doc[name])
    except DomainError as exc:
        raise DomainError(f"field {name!r}: {exc}") from None


class GroupHandle:
    """Abstract group interface; elements are plain hashable Python values."""

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        """The product ab; both operands are checked, once, here."""
        return self._mul(self.check_element(a), self.check_element(b))

    def inv(self, a):
        return self._inv(self.check_element(a))

    def _mul(self, a, b):
        """mul on operands the caller has already checked."""
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _multiply(self, support: Sequence, xs: np.ndarray, ys: np.ndarray) -> tuple[list, np.ndarray]:
        """The one group batch: the distinct products support[x]*support[y]
        of the parallel id arrays xs and ys into support, a list of checked
        elements, and each pair's position among them.  By default _mul runs
        once per distinct pair of ids and a dict numbers the products."""
        n, numbers = max(len(support), 1), {}
        pairs, at, _ = _unique(xs * n + ys)
        which = [numbers.setdefault(self._mul(support[p // n], support[p % n]), len(numbers))
                 for p in pairs]
        return list(numbers), np.array(which, np.intp)[at]

    def _product_ids(self, support: Sequence, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The position in support, -1 outside it, of each product
        support[x]*support[y]: each distinct product looked up once."""
        products, at = self._multiply(support, xs, ys)
        return _lookup(support, products)[at]

    def _inverse_ids(self, support: Sequence) -> np.ndarray:
        """The position in support, -1 outside it, of each element's inverse."""
        return _lookup(support, map(self._inv, support))

    def _keys_many(self, xs: Sequence) -> list[str]:
        """element_key of each of the checked elements xs."""
        return list(map(self.element_key, xs))

    def contains(self, x) -> bool:
        raise NotImplementedError

    def encode(self, x):
        """JSON-able canonical form of an element."""
        raise NotImplementedError

    def decode(self, obj):
        """Inverse of encode."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON description of the group itself, when serializable."""
        raise DomainError(f"{type(self).__name__} has no serializable description")

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> Sequence:
        raise DomainError(f"{type(self).__name__} cannot enumerate its elements")

    def element_key(self, x) -> str:
        return canonical_json(self.encode(x))

    def check_element(self, x):
        if not self.contains(x):
            raise GroupMismatchError(f"{x!r} is not an element of {type(self).__name__}")
        return x

    @cached_property
    def _signature(self) -> str | None:
        # Once per handle: handles never change, and describe() can be a whole table.
        try:
            return canonical_json(self.describe())
        except DomainError:
            return None

    def __eq__(self, other) -> bool:
        # Serializable handles compare structurally, so independently built
        # copies of the same group interoperate; others compare by identity.
        if self is other:
            return True
        if not isinstance(other, GroupHandle):
            return NotImplemented
        mine, theirs = self._signature, other._signature
        return mine is not None and mine == theirs

    def __hash__(self):
        sig = self._signature
        return hash(sig) if sig is not None else id(self)


class IntegerGroup(GroupHandle):
    """The additive group of integers."""

    @property
    def identity(self) -> int:
        return 0

    def _mul(self, a: int, b: int) -> int:
        return a + b

    def _inv(self, a: int) -> int:
        return -a

    def _multiply(self, support: Sequence, xs: np.ndarray, ys: np.ndarray) -> tuple[list, np.ndarray]:
        """An int64 add when nothing can wrap."""
        v = _int64(support)
        return super()._multiply(support, xs, ys) if v is None else _unique(v[xs] + v[ys])[:2]

    _keys_many = _str_keys

    def contains(self, x) -> bool:
        return _is_int(x)

    def encode(self, x: int) -> int:
        return self.check_element(x)

    def decode(self, obj) -> int:
        return _decode_int(obj)

    def describe(self) -> dict:
        return {"kind": "integers"}


class TableGroup(GroupHandle):
    """Finite group given by its full multiplication table on {0..n-1}."""

    def __init__(self, table: list[list[int]]):
        n = len(_decode_list(table))
        rows = [_decode_ints(row, n) for row in table]
        if n == 0 or any(not 0 <= x < n for row in rows for x in row):
            raise DomainError("multiplication table is not square over {0..n-1}")
        self._setup(np.array(rows, np.intp))

    def _setup(self, table: np.ndarray) -> TableGroup:
        """Take table, a square int array over {0..n-1}, once its identity,
        inverses and associativity check out.  The array is the one form of
        the table kept."""
        self._table = table
        self._order = len(table)
        self._identity = self._find_identity()
        self._inverses = self._find_inverses()
        self._check_associativity()
        return self

    def _find_identity(self) -> int:
        """The first e whose row and column are both 0..n-1."""
        i = np.arange(self._order)
        both = (self._table == i).all(axis=1) & (self._table == i[:, None]).all(axis=0)
        if not both.any():
            raise DomainError("table has no identity element")
        return int(np.argmax(both))

    def _find_inverses(self) -> tuple[int, ...]:
        """Each a's first b with ab = 1, once ba = 1 too; the first a that
        fails is named."""
        i, hit = np.arange(self._order), self._table == self._identity
        b = hit.argmax(axis=1)
        found = hit[i, b]
        two_sided = found & (self._table[b, i] == self._identity)
        if not two_sided.all():
            a = int(np.argmin(two_sided))
            raise DomainError(f"element {a} has no two-sided inverse" if found[a]
                              else f"element {a} has no inverse")
        return tuple(b.tolist())

    def _check_associativity(self):
        # Light's test: the s with (xs)y = x(sy) for all x, y are closed under
        # products, so it is enough to test generators; each one is the first
        # element that products of those before do not reach.  The reached
        # set is closed under its own products, so each pass doubles the
        # length of the products it holds.  Both go by blocks of rows.
        t, step = np.asarray(self._table), max(1, (1 << 18) // self._order)
        reached = np.zeros(self._order, bool)
        while not reached.all():
            s = int(np.argmin(reached))
            for x in range(0, self._order, step):  # [x, y]: (xs)y and x(sy)
                if not np.array_equal(t[t[x : x + step, s]], t[x : x + step, t[s]]):
                    raise DomainError("multiplication table is not associative")
            reached[s], count = True, 0
            while count < (count := np.count_nonzero(reached)):
                r = np.flatnonzero(reached)
                for x in range(0, len(r), step):
                    reached[t[np.ix_(r[x : x + step], r)]] = True

    @property
    def order(self) -> int:
        return self._order

    @property
    def identity(self) -> int:
        return self._identity

    def _mul(self, a: int, b: int) -> int:
        return self._table.item(a, b)

    def _inv(self, a: int) -> int:
        return self._inverses[a]

    def _multiply(self, support: Sequence, xs: np.ndarray, ys: np.ndarray) -> tuple[list, np.ndarray]:
        """A gather from the table."""
        e = np.asarray(support, np.intp)
        return _unique(self._table[e[xs], e[ys]])[:2]

    _keys_many = _str_keys

    def contains(self, x) -> bool:
        return _is_int(x) and 0 <= x < self._order

    def encode(self, x: int) -> int:
        return self.check_element(x)

    def decode(self, obj) -> int:
        return self.check_element(_decode_int(obj))

    def describe(self) -> dict:
        return {"kind": "finite", "table": self._table.tolist()}

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self) -> range:
        return range(self._order)


def cyclic_group(n: int) -> TableGroup:
    """Z/n with elements 0..n-1 written additively."""
    if n < 1:
        raise DomainError("cyclic group order must be positive")
    table = np.add.outer(np.arange(n), np.arange(n))  # in range by construction: no JSON decode
    table %= n  # in place: the table is the one n x n array made
    return TableGroup.__new__(TableGroup)._setup(table)


class ProductGroup(GroupHandle):
    """Direct product; elements are tuples with one entry per factor."""

    def __init__(self, factors: Sequence[GroupHandle]):
        if not factors:
            raise DomainError("a product needs at least one factor")
        self.factors = tuple(factors)

    @property
    def identity(self) -> tuple:
        return tuple(f.identity for f in self.factors)

    def _mul(self, a: tuple, b: tuple) -> tuple:
        return tuple(f._mul(x, y) for f, x, y in zip(self.factors, a, b))

    def _inv(self, a: tuple) -> tuple:
        return tuple(f._inv(x) for f, x in zip(self.factors, a))

    # The batches work per coordinate: each factor numbers the distinct
    # values of its coordinate in the support and answers for them through
    # its own batch, so nested products and free-product factors recurse.
    def _coordinates(self, support: Sequence) -> list[tuple[list, np.ndarray]]:
        """Per factor, the distinct values of its coordinate in support, in
        order of first use, and each element's number among them."""
        out = []
        for i in range(len(self.factors)):
            numbers = {}
            column = [numbers.setdefault(x[i], len(numbers)) for x in support]
            out.append((list(numbers), np.array(column, np.intp)))
        return out

    def _multiply(self, support: Sequence, xs: np.ndarray, ys: np.ndarray) -> tuple[list, np.ndarray]:
        """Each factor multiplies the distinct pairs of its coordinate values
        (40^2 + 4^2 for the F x F of a 160-element product F), and each
        distinct row of factor products becomes a tuple once."""
        columns = [f._multiply(values, own[xs], own[ys])
                   for f, (values, own) in zip(self.factors, self._coordinates(support))]
        _, at, first = _unique(
            _row_codes([at for _, at in columns], [len(products) for products, _ in columns]))
        rows = (map(products.__getitem__, column[first].tolist()) for products, column in columns)
        return list(zip(*rows)), at

    def _inverse_ids(self, support: Sequence) -> np.ndarray:
        """Each factor inverts each distinct value of its coordinate once."""
        columns = [map(list(map(f._inv, values)).__getitem__, own.tolist())
                   for f, (values, own) in zip(self.factors, self._coordinates(support))]
        return _lookup(support, zip(*columns))

    def _keys_many(self, xs: Sequence) -> list[str]:
        """Each factor keys each distinct value of its coordinate once; with
        canonical_json's separators "[" + ",".join(keys) + "]" is element_key."""
        columns = [map(f._keys_many(values).__getitem__, own.tolist())
                   for f, (values, own) in zip(self.factors, self._coordinates(xs))]
        return ["[" + ",".join(keys) + "]" for keys in zip(*columns)]

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == len(self.factors)
            and all(f.contains(v) for f, v in zip(self.factors, x))
        )

    def encode(self, x: tuple) -> list:
        self.check_element(x)
        return [f.encode(v) for f, v in zip(self.factors, x)]

    def decode(self, obj) -> tuple:
        obj = _decode_list(obj, len(self.factors))
        return tuple(f.decode(v) for f, v in zip(self.factors, obj))

    def describe(self) -> dict:
        return {"kind": "product", "factors": [f.describe() for f in self.factors]}

    @property
    def is_finite(self) -> bool:
        return all(f.is_finite for f in self.factors)

    def elements(self) -> list[tuple]:
        return list(itertools.product(*(f.elements() for f in self.factors)))


class SubgroupHandle(GroupHandle):
    """A subgroup of a parent handle, reusing the parent's operations.

    Either an explicit element list (finite subgroups) or a membership
    predicate (e.g. the even integers) defines which parent elements belong.
    Not serializable; used as an in-process owner for restricted actions.
    """

    def __init__(
        self,
        parent: GroupHandle,
        members: Iterable | None = None,
        contains_fn: Callable[[Any], bool] | None = None,
    ):
        if (members is None) == (contains_fn is None):
            raise DomainError("give exactly one of members or contains_fn")
        self.parent = parent
        if members is not None:
            elems = sorted(set(members), key=parent.element_key)
            for m in elems:
                parent.check_element(m)
            self._members: tuple | None = tuple(elems)
            self._contains_fn = None
            if parent.identity not in self._members:
                raise DomainError("subgroup must contain the identity")
        else:
            self._members = None
            self._contains_fn = contains_fn
            if not contains_fn(parent.identity):
                raise DomainError("subgroup must contain the identity")

    @property
    def identity(self):
        return self.parent.identity

    def _mul(self, a, b):
        return self.parent._mul(a, b)

    def _inv(self, a):
        return self.parent._inv(a)

    def contains(self, x) -> bool:
        if not self.parent.contains(x):
            return False
        if self._members is not None:
            return x in self._members
        return bool(self._contains_fn(x))

    def encode(self, x):
        return self.parent.encode(self.check_element(x))

    def decode(self, obj):
        return self.check_element(self.parent.decode(obj))

    @property
    def is_finite(self) -> bool:
        return self._members is not None

    def elements(self) -> tuple:
        if self._members is None:
            raise DomainError("predicate-defined subgroup cannot enumerate")
        return self._members


@dataclass(frozen=True)
class FreeProductWord:
    """Normal form g1 h1 ... gk hk of a free product element.

    No syllable equals the factor identity except possibly g1 or hk; the
    group identity is the single pair (1,1).  Built via reduce_word only.
    """

    pairs: tuple[tuple[Any, Any], ...]

    @property
    def k(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"FreeProductWord({list(self.pairs)})"


class FreeProductGroup(GroupHandle):
    """Free product of two handles; elements are normal-form words."""

    def __init__(self, left: GroupHandle, right: GroupHandle):
        self.left = left
        self.right = right

    @property
    def identity(self) -> FreeProductWord:
        return FreeProductWord(((self.left.identity, self.right.identity),))

    def word(self, pairs: Iterable[tuple[Any, Any]]) -> FreeProductWord:
        """Reduce an explicit pair sequence to its normal form."""
        return reduce_word(self, [s for g, h in pairs for s in ((0, g), (1, h))])

    def _mul(self, a: FreeProductWord, b: FreeProductWord) -> FreeProductWord:
        return self.word(a.pairs + b.pairs)

    def _inv(self, a: FreeProductWord) -> FreeProductWord:
        left, right = self.left._inv, self.right._inv
        return reduce_word(
            self, [s for g, h in reversed(a.pairs) for s in ((1, right(h)), (0, left(g)))]
        )

    def contains(self, x) -> bool:
        if not isinstance(x, FreeProductWord) or x.k == 0:
            return False
        return all(
            self.left.contains(g) and self.right.contains(h) for g, h in x.pairs
        )

    def encode(self, x: FreeProductWord) -> list:
        self.check_element(x)
        return [[self.left.encode(g), self.right.encode(h)] for g, h in x.pairs]

    def decode(self, obj) -> FreeProductWord:
        pairs = [
            (self.left.decode(g), self.right.decode(h))
            for g, h in (_decode_list(p, 2) for p in _decode_list(obj))
        ]
        word = self.word(pairs)
        if self.encode(word) != obj:
            raise DomainError("encoded word was not in normal form")
        return word

    def describe(self) -> dict:
        return {
            "kind": "free_product",
            "left": self.left.describe(),
            "right": self.right.describe(),
        }


def reduce_word(
    group: FreeProductGroup, tagged: Iterable[tuple[int, Any]]
) -> FreeProductWord:
    """Reduce a tagged syllable sequence to the unique normal form.

    Each item is (side, element) with side 0 for the left factor and 1 for
    the right.  Identity syllables may appear anywhere; a syllable merges with
    a top of its own side, and as the stack alternates sides nothing cascades.
    """
    factors = (group.left, group.right)
    identities = (group.left.identity, group.right.identity)
    stack: list[tuple[int, Any]] = []
    for side, elem in tagged:
        if side not in (0, 1):
            raise DomainError(f"syllable side must be 0 or 1, got {side!r}")
        factors[side].check_element(elem)
        if stack and stack[-1][0] == side:
            elem = factors[side]._mul(stack.pop()[1], elem)
        if elem != identities[side]:
            stack.append((side, elem))
    # Pad the ends so the word starts with a left syllable and ends with a
    # right one; only g1 and hk may be identities in a normal form.
    if not stack or stack[0][0] == 1:
        stack.insert(0, (0, identities[0]))
    if stack[-1][0] == 0:
        stack.append((1, identities[1]))
    syllables = [elem for _, elem in stack]
    return FreeProductWord(tuple(zip(syllables[::2], syllables[1::2])))


class IntegerFinitaryGroup(GroupHandle):
    """Integer translations extended by finitely supported permutations.

    An element (k, sigma) is the self-map x -> k + sigma(x) of the integers,
    with sigma a permutation moving finitely many points.  The product is
    "apply the left element first": (e*f)(x) == f(e(x)), matching the
    right-action convention used for maps of finite carriers.
    """

    @property
    def identity(self) -> tuple:
        return (0, ())

    @staticmethod
    def _as_dict(moved: tuple) -> dict[int, int]:
        return {x: y for x, y in moved}

    @staticmethod
    def _canonical(mapping: dict[int, int]) -> tuple:
        return tuple(sorted((x, y) for x, y in mapping.items() if x != y))

    def make(self, k: int, mapping: dict[int, int]) -> tuple:
        moved = self._canonical(mapping)
        elem = (int(k), moved)
        return self.check_element(elem)

    def _mul(self, a: tuple, b: tuple) -> tuple:
        ka, sa = a[0], self._as_dict(a[1])
        kb, sb = b[0], self._as_dict(b[1])
        support = set(sa) | {x - ka for x in sb}
        composite = {}
        for x in support:
            y = sa.get(x, x)
            composite[x] = sb.get(ka + y, ka + y) - ka
        return (ka + kb, self._canonical(composite))

    def _inv(self, a: tuple) -> tuple:
        k, moved = a[0], self._as_dict(a[1])
        back = {y: x for x, y in moved.items()}
        result = {y + k: back[y] + k for y in back}
        return (-k, self._canonical(result))

    def contains(self, x) -> bool:
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        k, moved = x
        if not _is_int(k) or not isinstance(moved, tuple):
            return False
        seen_src, seen_dst = set(), set()
        for pair in moved:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                return False
            a, b = pair
            if not (_is_int(a) and _is_int(b)) or a == b:
                return False
            seen_src.add(a)
            seen_dst.add(b)
        if seen_src != seen_dst or len(seen_src) != len(moved):
            return False
        return moved == tuple(sorted(moved))

    def encode(self, x: tuple) -> list:
        self.check_element(x)
        return [x[0], [[a, b] for a, b in x[1]]]

    def decode(self, obj) -> tuple:
        k, moved = _decode_list(obj, 2)
        pairs = tuple(tuple(_decode_ints(p, 2)) for p in _decode_list(moved))
        return self.check_element((_decode_int(k), pairs))

    def describe(self) -> dict:
        return {"kind": "integer_finitary_extension"}


def group_from_json(obj: dict) -> GroupHandle:
    """Rebuild a handle from its JSON description."""
    kind = _field(obj, "kind", _decode_str)
    if kind == "integers":
        return IntegerGroup()
    if kind == "finite":
        return _field(obj, "table", TableGroup)
    if kind == "product":
        factors = _field(obj, "factors", lambda v: [group_from_json(f) for f in _decode_list(v)])
        return ProductGroup(factors)
    if kind == "free_product":
        return FreeProductGroup(*(_field(obj, side, group_from_json) for side in ("left", "right")))
    if kind == "integer_finitary_extension":
        return IntegerFinitaryGroup()
    raise DomainError(f"unknown group kind {kind!r}")


class FiniteSubset:
    """A deduplicated finite set of elements of one group.

    Elements are kept sorted by their canonical key, so iteration order is
    deterministic and certificates serialize identically across runs.  Given
    a FiniteSubset, it reuses that subset's elements, which must belong to
    the same group.
    """

    def __init__(self, owner: GroupHandle, elements: Iterable):
        if isinstance(elements, FiniteSubset):
            elements._check_owner(owner)
            self.owner, self._elements, self._set = owner, elements._elements, elements._set
            return
        elements = [owner.check_element(x) for x in elements]
        elems = dict(zip(owner._keys_many(elements), elements))
        self.owner = owner
        self._elements = tuple(elems[k] for k in sorted(elems))
        self._set = frozenset(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, x) -> bool:
        return x in self._set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSubset)
            and self.owner == other.owner
            and self._elements == other._elements
        )

    def __repr__(self) -> str:
        return f"FiniteSubset({list(self._elements)!r})"

    def _check_owner(self, owner: GroupHandle):
        if self.owner != owner:
            raise GroupMismatchError("subset belongs to a different group")


def pair_products(f1: FiniteSubset, f2: FiniteSubset) -> FiniteSubset:
    """The product set {e*f : e in F1, f in F2}, deduplicated."""
    f1._check_owner(f2.owner)
    g, m, n = f1.owner, len(f1), len(f2)  # members of FiniteSubsets are checked
    products, _ = g._multiply([*f1, *f2], np.repeat(np.arange(m), n), np.tile(np.arange(m, m + n), m))
    return FiniteSubset(g, products)  # each distinct product checked and keyed once


def symmetrize(f: FiniteSubset) -> FiniteSubset:
    """F together with its inverses and the identity."""
    g = f.owner
    return FiniteSubset(
        g, itertools.chain(f, (g.inv(x) for x in f), [g.identity])
    )


def symmetrized_square(f: FiniteSubset) -> FiniteSubset:
    """All products of two elements of F union F^-1 union {1}."""
    s = symmetrize(f)
    return pair_products(s, s)
