import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteSubset,
    FreeProductGroup,
    FreeProductWord,
    IntegerFinitaryGroup,
    IntegerGroup,
    ProductGroup,
    SubgroupHandle,
    TableGroup,
    cyclic_group,
    group_from_json,
    pair_products,
    reduce_word,
    symmetrize,
    symmetrized_square,
)
from quasiact.errors import DomainError, GroupMismatchError


class TestBasicHandles:
    def test_integers(self):
        z = IntegerGroup()
        assert z.mul(3, -5) == -2
        assert z.inv(7) == -7
        assert z.identity == 0

    def test_cyclic_table(self):
        c4 = cyclic_group(4)
        assert c4.mul(3, 2) == 1
        assert c4.inv(1) == 3
        assert list(c4.elements()) == [0, 1, 2, 3]

    def test_bad_tables_rejected(self):
        with pytest.raises(DomainError):
            TableGroup([[0, 1], [0, 1]])  # no inverse structure
        with pytest.raises(DomainError):
            TableGroup([[0, 1], [1, 2]])  # out of range

    def test_non_associative_loop_rejected(self):
        # A Latin square with identity 0 and every element its own inverse:
        # a loop of order 5, but no group (C5 has no involution).
        table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                 [4, 3, 1, 2, 0]]
        with pytest.raises(DomainError, match="not associative"):
            TableGroup(table)

    def test_product(self):
        g = ProductGroup([IntegerGroup(), cyclic_group(2)])
        assert g.mul((2, 1), (3, 1)) == (5, 0)
        assert g.inv((4, 1)) == (-4, 1)
        assert g.identity == (0, 0)

    def test_subgroup_members(self):
        g = ProductGroup([IntegerGroup(), cyclic_group(2)])
        n = SubgroupHandle(g, members=[(0, 0), (0, 1)])
        assert n.mul((0, 1), (0, 1)) == (0, 0)
        assert list(n.elements()) == [(0, 0), (0, 1)]
        assert not n.contains((1, 0))

    def test_subgroup_predicate(self):
        z = IntegerGroup()
        even = SubgroupHandle(z, contains_fn=lambda k: k % 2 == 0)
        assert even.contains(4) and not even.contains(3)
        with pytest.raises(DomainError):
            even.elements()

    def test_mixing_rejected(self):
        z = IntegerGroup()
        with pytest.raises(GroupMismatchError):
            z.mul(1, "x")

    @pytest.mark.parametrize("group,good,bad", [
        (IntegerGroup(), 1, [True, 1.0, (1,), "1"]),
        (cyclic_group(3), 1, [True, 1.0, 3, -1, (1,)]),
        (
            ProductGroup([cyclic_group(2), ProductGroup([IntegerGroup(), cyclic_group(3)])]),
            (1, (2, 0)),
            [
                (True, (2, 0)), (1, (2.0, 0)), (1, (2, 3)), (2, (2, 0)),
                (1,), (1, (2,)), (1, (2, 0), 0), [1, [2, 0]],
            ],
        ),
        (SubgroupHandle(cyclic_group(4), members=[0, 2]), 2, [1, True, 2.0, 4, (2,)]),
        (
            SubgroupHandle(ProductGroup([cyclic_group(2), cyclic_group(2)]),
                           members=[(0, 0), (1, 0)]),
            (1, 0),
            [(0, 1), (True, 0), (1, 0.0), (1,), (1, 0, 0)],
        ),
    ])
    def test_public_ops_check_operands(self, group, good, bad):
        group.mul(good, good)
        group.inv(good)
        for x in bad:
            with pytest.raises(GroupMismatchError):
                group.mul(x, good)
            with pytest.raises(GroupMismatchError):
                group.mul(good, x)
            with pytest.raises(GroupMismatchError):
                group.inv(x)

    @given(st.integers(2, 8), st.data())
    def test_table_group_axioms(self, n, data):
        g = cyclic_group(n)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        assert g.mul(g.inv(a), a) == g.identity
        assert g.mul(a, g.identity) == a


def brute_normal_forms(fp, tagged):
    """All irreducible rewritings of a tagged syllable sequence.

    One rewriting step either drops an identity syllable or merges two
    adjacent same-side syllables.  Confluence means the returned set is a
    singleton; this is the independent oracle for reduce_word.
    """
    identities = (fp.left.identity, fp.right.identity)
    factors = (fp.left, fp.right)
    seen = set()
    irreducible = set()
    stack = [tuple(tagged)]
    while stack:
        word = stack.pop()
        if word in seen:
            continue
        seen.add(word)
        steps = []
        for i, (side, elem) in enumerate(word):
            if elem == identities[side]:
                steps.append(word[:i] + word[i + 1 :])
        for i in range(len(word) - 1):
            if word[i][0] == word[i + 1][0]:
                side = word[i][0]
                merged = factors[side].mul(word[i][1], word[i + 1][1])
                steps.append(word[:i] + ((side, merged),) + word[i + 2 :])
        if steps:
            stack.extend(steps)
        else:
            irreducible.add(word)
    return irreducible


def reduce_word_cascading(group, tagged):
    """The former reduce_word, kept as an oracle: after a cancelling merge it
    popped the new top and tried to merge it again."""
    factors = (group.left, group.right)
    identities = (group.left.identity, group.right.identity)
    stack = []
    for side, elem in tagged:
        factors[side].check_element(elem)
        if elem == identities[side]:
            continue
        while True:
            if stack and stack[-1][0] == side:
                merged = factors[side].mul(stack[-1][1], elem)
                stack.pop()
                if merged == identities[side]:
                    if not stack:
                        elem = None
                        break
                    side, elem = stack.pop()
                    continue
                elem = merged
            if elem is not None:
                stack.append((side, elem))
            break
    if not stack:
        return group.identity
    if stack[0][0] == 1:
        stack.insert(0, (0, identities[0]))
    if stack[-1][0] == 0:
        stack.append((1, identities[1]))
    return FreeProductWord(tuple((stack[i][1], stack[i + 1][1]) for i in range(0, len(stack), 2)))


def word_to_tagged(word):
    out = []
    for g, h in word.pairs:
        out.append((0, g))
        out.append((1, h))
    return tuple(out)


class TestFreeProduct:
    @pytest.fixture
    def fp(self):
        return FreeProductGroup(cyclic_group(2), cyclic_group(3))

    def test_identity_normal_form(self, fp):
        assert fp.word([(0, 0)]).pairs == ((0, 0),)
        assert fp.identity.pairs == ((0, 0),)

    def test_hand_reduction(self, fp):
        # (a,b)*(1,b^2): b merges with b^2 to the identity, then a stands alone.
        ab = fp.word([(1, 1)])
        one_b2 = fp.word([(0, 2)])
        assert fp.mul(ab, one_b2).pairs == ((1, 0),)

    def test_no_cancellation(self, fp):
        ab = fp.word([(1, 1)])
        abab = fp.mul(ab, ab)
        assert abab.pairs == ((1, 1), (1, 1))
        assert abab.k == 2

    def test_reduce_idempotent(self, fp):
        raw = [(0, 1), (1, 1), (0, 0), (1, 2)]
        once = reduce_word(fp, raw)
        again = reduce_word(fp, word_to_tagged(once))
        assert once == again

    def test_wrong_factor_element(self, fp):
        with pytest.raises(GroupMismatchError):
            reduce_word(fp, [(0, 2)])  # 2 is not in Z/2
        with pytest.raises(DomainError):
            reduce_word(fp, [(5, 1)])

    def test_inverse(self, fp):
        w = fp.word([(1, 1), (1, 2)])
        assert fp.mul(w, fp.inv(w)) == fp.identity
        assert fp.mul(fp.inv(w), w) == fp.identity

    def test_matches_brute_rewriting_oracle(self, fp):
        rng = random.Random(7)
        for _ in range(60):
            length = rng.randint(1, 6)
            tagged = []
            for _ in range(length):
                side = rng.randint(0, 1)
                elem = rng.randint(0, 1 if side == 0 else 2)
                tagged.append((side, elem))
            forms = brute_normal_forms(fp, tagged)
            assert len(forms) == 1
            (only,) = forms
            reduced = reduce_word(fp, tagged)
            # The oracle's irreducible form has no padding; strip ours.
            stripped = tuple(
                (s, e)
                for s, e in word_to_tagged(reduced)
                if e != (fp.left.identity if s == 0 else fp.right.identity)
            )
            assert stripped == only

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5)), max_size=12))
    def test_matches_cascading_oracle(self, raw):
        perms = list(itertools.permutations(range(3)))
        s3 = TableGroup([[perms.index(tuple(q[x] for x in p)) for q in perms] for p in perms])
        fp = FreeProductGroup(s3, cyclic_group(4))
        tagged = [(side, e if side == 0 else e % 4) for side, e in raw]
        assert reduce_word(fp, tagged) == reduce_word_cascading(fp, tagged)

    def test_associative_on_random_words(self, fp):
        rng = random.Random(11)

        def random_word():
            pairs = [
                (rng.randint(0, 1), rng.randint(0, 2)) for _ in range(rng.randint(1, 3))
            ]
            return fp.word(pairs)

        for _ in range(100):
            u, v, w = random_word(), random_word(), random_word()
            assert fp.mul(fp.mul(u, v), w) == fp.mul(u, fp.mul(v, w))

    def test_encode_decode(self, fp):
        w = fp.word([(1, 2), (1, 1)])
        assert fp.decode(fp.encode(w)) == w
        with pytest.raises(DomainError):
            fp.decode([[0, 1], [0, 1]])  # interior identity g2: not normal


class TestFiniteSubset:
    def test_dedup_and_order(self):
        z = IntegerGroup()
        f = FiniteSubset(z, [3, -1, 3, 0])
        assert len(f) == 3
        assert set(f) == {3, -1, 0}

    def test_product_set_singleton(self):
        z = IntegerGroup()
        one = FiniteSubset(z, [0])
        assert set(pair_products(one, one)) == {0}

    def test_product_set_integers(self):
        z = IntegerGroup()
        f = FiniteSubset(z, [1, 2])
        assert set(pair_products(f, f)) == {2, 3, 4}
        tilde = symmetrized_square(FiniteSubset(z, [1]))
        assert set(tilde) == {-2, -1, 0, 1, 2}

    def test_symmetrized_square_covers_group(self):
        c2 = cyclic_group(2)
        f = FiniteSubset(c2, [1])
        assert set(symmetrized_square(f)) == {0, 1}

    def test_symmetrize(self):
        z = IntegerGroup()
        assert set(symmetrize(FiniteSubset(z, [2, 5]))) == {-5, -2, 0, 2, 5}

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    )
    def test_cardinality_bound(self, xs, ys):
        z = IntegerGroup()
        f1, f2 = FiniteSubset(z, xs), FiniteSubset(z, ys)
        assert len(pair_products(f1, f2)) <= len(f1) * len(f2)

    def test_owner_mismatch(self):
        with pytest.raises(GroupMismatchError):
            pair_products(
                FiniteSubset(IntegerGroup(), [1]), FiniteSubset(cyclic_group(2), [1])
            )

    def test_a_subset_coerces_to_itself_or_refuses_another_group(self):
        f = FiniteSubset(IntegerGroup(), [2, -1])
        again = FiniteSubset(IntegerGroup(), f)
        assert again == f and again._elements is f._elements
        with pytest.raises(GroupMismatchError):
            FiniteSubset(cyclic_group(3), FiniteSubset(cyclic_group(2), [1]))
        sub = SubgroupHandle(IntegerGroup(), contains_fn=lambda k: k % 2 == 0)
        with pytest.raises(GroupMismatchError):
            FiniteSubset(sub, f)
        assert set(FiniteSubset(sub, iter(FiniteSubset(IntegerGroup(), [2])))) == {2}

    def test_equal_groups_interoperate(self):
        f1 = FiniteSubset(IntegerGroup(), [1])
        f2 = FiniteSubset(IntegerGroup(), [2])
        assert set(pair_products(f1, f2)) == {3}


class TestHandleSignature:
    def test_equal_handles_built_apart(self, monkeypatch):
        calls = []
        describe = TableGroup.describe

        def counting(self):
            calls.append(self)
            return describe(self)

        monkeypatch.setattr(TableGroup, "describe", counting)
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        a, b = TableGroup(table), TableGroup(table)
        other = cyclic_group(4)
        products = ProductGroup([a, other]), ProductGroup([b, cyclic_group(4)])
        first_round = None
        for _ in range(3):
            assert a == b and hash(a) == hash(b)
            assert a != other
            assert products[0] == products[1] and hash(products[0]) == hash(products[1])
            assert len({a, b, other}) == 2
            # Comparing again describes nothing again.
            first_round = first_round or len(calls)
            assert len(calls) == first_round

    def test_unserializable_handles_compare_by_identity(self):
        evens = SubgroupHandle(IntegerGroup(), contains_fn=lambda x: x % 2 == 0)
        twin = SubgroupHandle(IntegerGroup(), contains_fn=lambda x: x % 2 == 0)
        for _ in range(2):
            assert evens == evens and evens != twin
            assert hash(evens) == id(evens) and hash(twin) == id(twin)
        assert len({evens, twin, evens}) == 2


def associative_by_loop(table) -> bool:
    """The cubic loop the row-wise check replaced: (ab)c == a(bc) for all a, b, c."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def associative_by_rows(table) -> bool:
    """The row-by-row check Light's test replaced: t[t[a]][b, c] is (ab)c
    and t[a][t][b, c] is a(bc), one row a at a time (n^3 lookups)."""
    t = np.array(table)
    return all(np.array_equal(t[t[a]], t[a][t]) for a in range(len(table)))


S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
            [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]
# (Z/2)^3: no single element generates it, so Light's test takes three.
C2_CUBED = [[a ^ b for b in range(8)] for a in range(8)]


@st.composite
def small_tables(draw):
    """Any table of order <= 7, or a relabelled group's table (cyclic, S3 or
    (Z/2)^3) with perhaps one entry changed."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        return [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]
    base = draw(st.one_of(
        st.integers(1, 7).map(lambda n: [[(a + b) % n for b in range(n)] for a in range(n)]),
        st.sampled_from([S3_TABLE, C2_CUBED]),
    ))
    n = len(base)
    entries = st.integers(0, n - 1)
    p = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[p[a]][p[b]] = p[base[a][b]]
    if draw(st.booleans()):
        table[draw(entries)][draw(entries)] = draw(entries)
    return table


class TestAssociativityAgainstLoop:
    @settings(max_examples=400, deadline=None)
    @given(table=small_tables())
    def test_light_check_matches_the_row_check_and_the_loop(self, table):
        # Identity and inverses are not needed for the check, so it runs on
        # tables that __init__ would refuse before reaching it.
        g = TableGroup.__new__(TableGroup)
        g._table, g._order = tuple(map(tuple, table)), len(table)
        try:
            g._check_associativity()
            passed = True
        except DomainError:
            passed = False
        assert passed == associative_by_rows(table) == associative_by_loop(table)

    def test_groups_needing_several_generators(self):
        for table in (S3_TABLE, C2_CUBED):
            assert TableGroup(table).order == len(table)
            broken = [row[:] for row in table]
            broken[1][2], broken[1][3] = broken[1][3], broken[1][2]  # rows stay permutations
            with pytest.raises(DomainError, match="associative|inverse|identity"):
                TableGroup(broken)


def identity_by_loop(table) -> int:
    """The search the numpy one replaced: the first e with ex = x = xe for all x."""
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    raise DomainError("table has no identity element")


def inverses_by_loop(table, identity) -> tuple:
    """The search the numpy one replaced: each a's first b with ab = 1, once
    ba = 1 too, the first a that fails named."""
    inverses = []
    for a, row in enumerate(table):
        try:
            b = row.index(identity)
        except ValueError:
            raise DomainError(f"element {a} has no inverse") from None
        if table[b][a] != identity:
            raise DomainError(f"element {a} has no two-sided inverse")
        inverses.append(b)
    return tuple(inverses)


@st.composite
def tables_with_an_identity(draw):
    """A random table of order <= 6 in which some e's row and column are
    0..n-1: its other elements often lack an inverse or have a one-sided one."""
    n = draw(st.integers(1, 6))
    e = draw(st.integers(0, n - 1))
    table = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]
    for x in range(n):
        table[e][x] = table[x][e] = x
    return table


def searched(find):
    """find()'s identity and inverses, or the message of the DomainError it raised."""
    try:
        return find()
    except DomainError as exc:
        return str(exc)


class TestIdentityAndInversesAgainstTheLoops:
    @settings(max_examples=400, deadline=None)
    @given(table=st.one_of(small_tables(), tables_with_an_identity()))
    def test_numpy_search_matches_the_loops(self, table):
        # As in the associativity test, the search runs on a bare handle.
        g = TableGroup.__new__(TableGroup)
        g._table, g._order = np.array(table, np.intp), len(table)

        def by_numpy():
            g._identity = g._find_identity()
            return g._identity, g._find_inverses()

        def by_loops():
            e = identity_by_loop(table)
            return e, inverses_by_loop(table, e)

        found = searched(by_numpy)
        assert found == searched(by_loops)
        assert isinstance(found, str) or all(type(x) is int for x in (found[0], *found[1]))

    @pytest.mark.parametrize("table,message", [
        ([[0, 0], [0, 0]], "table has no identity element"),
        ([[0, 1, 2], [1, 1, 2], [2, 2, 2]], "element 1 has no inverse"),
        ([[0, 1, 2], [1, 2, 0], [2, 1, 1]], "element 1 has no two-sided inverse"),
    ], ids=["no_identity", "no_inverse", "one_sided"])
    def test_each_refusal_is_named(self, table, message):
        assert searched(lambda: (identity_by_loop(table),
                                 inverses_by_loop(table, identity_by_loop(table)))) == message
        with pytest.raises(DomainError, match=f"^{message}$"):
            TableGroup(table)


def apply(elem: tuple, x: int) -> int:
    """An IntegerFinitaryGroup element as a self-map of the integers."""
    k, moved = elem
    return k + dict(moved).get(x, x)


class TestIntegerFinitaryGroup:
    @pytest.fixture
    def g(self):
        return IntegerFinitaryGroup()

    def random_element(self, g, rng, radius=3):
        k = rng.randint(-radius, radius)
        points = list(range(-radius, radius + 1))
        rng.shuffle(points)
        keep = rng.randint(0, len(points))
        moved = points[:keep]
        target = moved[:]
        rng.shuffle(target)
        return g.make(k, dict(zip(moved, target)))

    def test_identity_and_inverse(self, g):
        a = g.make(2, {0: 1, 1: 0})
        assert g.mul(a, g.identity) == a
        assert g.mul(g.identity, a) == a
        assert g.mul(a, g.inv(a)) == g.identity
        assert g.mul(g.inv(a), a) == g.identity

    def test_product_is_function_composition(self, g):
        rng = random.Random(3)
        for _ in range(50):
            a = self.random_element(g, rng)
            b = self.random_element(g, rng)
            ab = g.mul(a, b)
            for x in range(-8, 9):
                assert apply(ab, x) == apply(b, apply(a, x))

    def test_associative(self, g):
        rng = random.Random(5)
        for _ in range(40):
            a, b, c = (self.random_element(g, rng) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))

    def test_canonical_form_enforced(self, g):
        assert not g.contains((0, ((1, 1),)))  # fixed pair stored
        assert not g.contains((0, ((0, 1),)))  # not a bijection
        assert g.contains((0, ((0, 1), (1, 0))))


class TestStrictIntegerDecoding:
    """Decoding takes JSON integers only; nothing is truncated or coerced."""

    @pytest.mark.parametrize("obj", [1.5, "3", True, None])
    def test_integers_reject(self, obj):
        with pytest.raises(DomainError):
            IntegerGroup().decode(obj)

    @pytest.mark.parametrize("obj", [2.9, "1", False])
    def test_table_group_rejects(self, obj):
        with pytest.raises(DomainError):
            cyclic_group(3).decode(obj)

    @pytest.mark.parametrize(
        "obj",
        [[1.7, []], ["1", []], [True, []], [0, [[0.0, 1], [1, 0]]], [0, [[0, 1], [True, 0]]]],
    )
    def test_finitary_rejects(self, obj):
        with pytest.raises(DomainError):
            IntegerFinitaryGroup().decode(obj)

    def test_integers_still_decode(self):
        assert IntegerGroup().decode(-3) == -3
        assert cyclic_group(3).decode(2) == 2
        assert IntegerFinitaryGroup().decode([1, [[0, 1], [1, 0]]]) == (1, ((0, 1), (1, 0)))

    def test_finitary_contains_rejects_bools(self):
        g = IntegerFinitaryGroup()
        assert not g.contains((True, ()))
        assert not g.contains((0, ((False, True), (True, False))))
        with pytest.raises(GroupMismatchError):
            FiniteSubset(g, [(True, ()), (1, ())])


class TestGroupJson:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: IntegerGroup(),
            lambda: cyclic_group(5),
            lambda: ProductGroup([IntegerGroup(), cyclic_group(2)]),
            lambda: FreeProductGroup(cyclic_group(2), cyclic_group(3)),
            lambda: IntegerFinitaryGroup(),
        ],
    )
    def test_roundtrip(self, make):
        g = make()
        h = group_from_json(g.describe())
        assert h.describe() == g.describe()

    def test_element_keys_deterministic(self):
        g = ProductGroup([IntegerGroup(), cyclic_group(2)])
        assert g.element_key((3, 1)) == "[3,1]"

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            group_from_json({"kind": "mystery"})

    def test_subgroup_not_serializable(self):
        z = IntegerGroup()
        sub = SubgroupHandle(z, contains_fn=lambda k: k % 2 == 0)
        with pytest.raises(DomainError):
            sub.describe()
