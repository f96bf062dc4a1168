import hashlib
import json
import random
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quasiact.cli import main
from quasiact.constructions import (
    GirthGroup,
    PartitionedCarrier,
    build_partitioned_carrier,
    girth,
    girth_group_search,
    load_girth_witness,
)
from quasiact.constructions.carrier import _bfs_girth_certificate, _label_assignment
from quasiact.constructions.girth import _certify_word_girth, _default_degrees, schreier_sims
from quasiact.errors import DomainError, InvariantViolationError, PreconditionError, SearchFailureError
from quasiact.finmap import Fiber
from quasiact.util import canonical_json

from dense_carrier import (
    DenseCarrier,
    bfs_girth_certificate,
    dense_carrier,
    tuple_carrier_girth,
    tuple_word_girth,
)


def iter_reduced_words(perms, bound):
    """Independent oracle: every reduced word up to the bound, evaluated by
    composing permutation tuples directly (no index tables)."""
    degree = len(perms[0])
    letters = []
    for j, p in enumerate(perms):
        inv = tuple(sorted(range(degree), key=lambda i: p[i]))
        letters.append((2 * j, p))
        letters.append((2 * j + 1, inv))

    def walk(value, last, depth):
        if depth == bound:
            return
        for code, perm in letters:
            if last >= 0 and (code ^ 1) == last:
                continue
            new_value = tuple(perm[x] for x in value)
            yield new_value
            yield from walk(new_value, code, depth + 1)

    yield from walk(tuple(range(degree)), -1, 0)


def assert_girth_by_oracle(group: GirthGroup):
    identity = tuple(range(group.fiber.degree))
    perms = group.fiber.generators
    count = 0
    for value in iter_reduced_words(perms, group.certified_girth_bound):
        count += 1
        assert value != identity
    return count


def enumerate_closure(gens, order_cap):
    """Oracle for |V| and the carrier's tables: the BFS closure under right
    multiplication that the search ran before Schreier-Sims; None when the
    cap is exceeded."""
    degree = len(gens[0])
    identity = tuple(range(degree))
    index = {identity: 0}
    elements = [identity]
    products = [[] for _ in gens]
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
    return elements, np.array(products, dtype=np.int64)


# sha256 of girth_group_search(6, 5, order_cap=200000, seed=s).to_witness_json(),
# the compact canonical JSON of the witnesses recorded while the search still
# enumerated the closure (those were written indented).
WITNESS_SHA256 = {
    0: "d345a1b8d48329bbb208222388546b61abe0c194166b7d610f7a559829f5f2da",
    1: "96bc504b80885a23d16398198125fec286c4927b95bd618069d2ade06dd6fd8c",
    2: "905b5ca898d055cd0b4e61c59511dd79cf317540ecd931361f981ce028e887ef",
}


class TestSearch:
    def test_single_label_five_cycle(self):
        v = girth_group_search(1, 4, order_cap=10, seed=0)
        assert v.order == 5
        assert assert_girth_by_oracle(v) == 8

    def test_two_labels_bound_two(self):
        v = girth_group_search(2, 2, order_cap=500, seed=0)
        assert v.labels == 2
        assert_girth_by_oracle(v)

    def test_bound_one_vacuous(self):
        v = girth_group_search(3, 1, order_cap=500, seed=0)
        # only words of length one are checked: generators differ from 1
        identity = tuple(range(v.fiber.degree))
        for g in v.fiber.generators:
            assert g != identity

    def test_four_labels_bound_four_under_cap(self):
        v = girth_group_search(4, 4, order_cap=5000, seed=0)
        assert v.order <= 5000
        assert assert_girth_by_oracle(v) <= 8 * 7**3 + 8 * 7**2 + 8 * 7 + 8

    def test_unreachable_cap_fails(self, monkeypatch):
        # Every draw exceeds the cap, so the message names the cap.
        monkeypatch.setattr(girth, "_ATTEMPTS_PER_DEGREE", 5)
        with pytest.raises(SearchFailureError,
                           match="all 40 draws exceeded order cap 30; raise the cap"):
            girth_group_search(4, 4, order_cap=30, seed=0)

    def test_failure_names_the_schedule_when_draws_have_short_cycles(self, monkeypatch):
        # Every draw under the cap has a short cycle: a larger cap cannot help.
        from quasiact.constructions import girth

        def short_cycle(*args):
            raise InvariantViolationError("graph has a cycle")

        monkeypatch.setattr(girth, "_certify_word_girth", short_cycle)
        monkeypatch.setattr(girth, "_ATTEMPTS_PER_DEGREE", 2)
        with pytest.raises(SearchFailureError) as exc:
            girth_group_search(2, 4, order_cap=10**15, seed=0)
        message = str(exc.value)
        assert "the degree schedule (degrees 6-14) ran out; 18 draws within order cap" in message
        assert "0 exceeded the cap" in message and "raise the cap" not in message

    def test_failure_counts_both_refusals(self, monkeypatch):
        monkeypatch.setattr(girth, "_ATTEMPTS_PER_DEGREE", 1)
        with pytest.raises(SearchFailureError, match=re.escape(
                "the degree schedule (degrees 8-14) ran out; 1 draws within order cap 100000 had "
                "a reduced word of length <= 6 equal to the identity, 6 exceeded the cap")):
            girth_group_search(3, 6, order_cap=100_000, seed=0)

    @pytest.mark.parametrize("labels,bound,attempts,cap,message", [
        (3, 6, 1, 100_000,
         "no girth-6 generator set with 3 labels found: the degree schedule (degrees 8-14) ran out; "
         "1 draws within order cap 100000 had a reduced word of length <= 6 equal to the identity, "
         "6 exceeded the cap"),
        (2, 4, 2, 10**15,
         "no girth-4 generator set with 2 labels found: the degree schedule (degrees 6-14) ran out; "
         "18 draws within order cap 1000000000000000 had a reduced word of length <= 4 equal to "
         "the identity, 0 exceeded the cap"),
    ])
    def test_failure_messages_pinned(self, monkeypatch, labels, bound, attempts, cap, message):
        if labels == 2:  # every draw has a short cycle
            monkeypatch.setattr(girth, "_certify_word_girth", self.short_cycle)
        monkeypatch.setattr(girth, "_ATTEMPTS_PER_DEGREE", attempts)
        with pytest.raises(SearchFailureError) as exc:
            girth_group_search(labels, bound, order_cap=cap, seed=0)
        assert str(exc.value) == message

    @staticmethod
    def short_cycle(*args):
        raise InvariantViolationError("graph has a cycle")

    def test_degree_schedule(self):
        # Degrees from the word-count floor up to 14 while the floor is at
        # most 12, else the floor and the two degrees past it: 6 labels at
        # bound 12 (C2*C3 at syllable bound 6) have about 3.8e12 reduced
        # words, and A_15 has 6.5e11 elements.
        assert _default_degrees(2, 4) == list(range(6, 15))
        assert _default_degrees(3, 6) == list(range(8, 15))
        assert _default_degrees(6, 10) == list(range(14, 17))
        assert _default_degrees(6, 12) == [16, 17, 18]
        assert _default_degrees(1, 1) == list(range(4, 15))

    def test_deterministic_per_seed(self):
        a = girth_group_search(2, 4, order_cap=5000, seed=3)
        b = girth_group_search(2, 4, order_cap=5000, seed=3)
        assert a.to_witness_json() == b.to_witness_json()

    def test_witness_roundtrip(self):
        v = girth_group_search(2, 4, order_cap=5000, seed=1)
        text = v.to_witness_json()
        assert load_girth_witness(text).to_witness_json() == text

    def test_closure_tables_agree_with_multiplication(self):
        v = girth_group_search(2, 4, order_cap=5000, seed=0)
        dc = dense_carrier(build_partitioned_carrier(2, 2, 2, v))
        elements, right = enumerate_closure(v.fiber.generators, v.order + 1)
        assert len(elements) == v.order
        assert np.array_equal(dc.right_mult, right)
        for j, perm in enumerate(v.fiber.generators):
            for i in (0, 1, v.order - 1):
                base = elements[i]
                product = tuple(perm[x] for x in base)
                assert elements[dc.right_mult[j, i]] == product
                assert dc.right_mult_inv[j, dc.right_mult[j, i]] == i

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            girth_group_search(0, 4, order_cap=10)

    def test_order_cap_checked_before_word_girth(self, monkeypatch):
        # Every draw generates a group of order above 2, so no draw may pay
        # for the Cayley ball.
        from quasiact.constructions import girth

        calls = []
        certify = girth._certify_word_girth
        monkeypatch.setattr(
            girth, "_certify_word_girth", lambda *a: calls.append(a) or certify(*a)
        )
        with monkeypatch.context() as m, pytest.raises(SearchFailureError):
            m.setattr(girth, "_ATTEMPTS_PER_DEGREE", 5)
            girth_group_search(2, 4, order_cap=2, seed=0)
        assert calls == []
        girth_group_search(2, 4, order_cap=5000, seed=0)
        assert calls

    @pytest.mark.parametrize("seed", sorted(WITNESS_SHA256))
    def test_witness_bytes_pinned(self, seed):
        text = girth_group_search(6, 5, order_cap=200000, seed=seed).to_witness_json()
        assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_SHA256[seed]

    def test_bound_six_order(self):
        assert girth_group_search(6, 6, order_cap=2_000_000, seed=0).order == 1_814_400

    def test_cold_start_leaves_numpy_ma_unimported(self, tmp_path):
        # A plain np.unique(x) imports numpy.ma, about 20 ms in a fresh
        # interpreter; neither the search, the witness loader nor the
        # certificate loader's one batch of distinct labels may pay for it.
        request = {"construct": "free_product", "epsilon": "1/10",
                   "left_group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
                   "right_group": {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
                   "f_left": [0, 1], "f_right": [0, 1], "syllable_bound": 2}
        (tmp_path / "fp2.request.json").write_text(json.dumps(request))
        cert = tmp_path / "fp2.json"
        argv = ["construct", "--request", str(tmp_path / "fp2.request.json"), "--out", str(cert)]
        assert main(argv) == 0
        code = (
            "import sys\n"
            "from quasiact import load_certificate\n"
            "from quasiact.constructions import girth_group_search, load_girth_witness\n"
            "v = girth_group_search(6, 5, order_cap=200000, seed=0)\n"
            "load_girth_witness(v.to_witness_json())\n"
            "qa, _ = load_certificate(open(sys.argv[1]).read())\n"
            "assert qa.layout[0][1] is not None  # a fibered slot\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code, str(cert)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_no_command_imports_hashlib(self, tmp_path):
        # No certificate states a hash, so neither command pays for hashlib,
        # which loads OpenSSL: construct and verify --out on the freeprod_n2
        # request (one fibered slot) and the many_pairs product (two dense).
        c2 = {"kind": "finite", "table": [[0, 1], [1, 0]]}
        c3 = {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
        big = [k for i in range(1, 21) for k in (i, -i)]
        requests = {
            "fp2": {"construct": "free_product", "epsilon": "1/10", "left_group": c2,
                    "right_group": c3, "f_left": [0, 1], "f_right": [0, 1], "syllable_bound": 2},
            "prod": {"construct": "product", "epsilon": "1/10",
                     "factors": [{"cyclic": {"f": big, "modulus": 83}},
                                 {"cyclic": {"f": [1, -1, 2, -2], "modulus": 11}}]},
        }
        for name, request in requests.items():
            (tmp_path / f"{name}.request.json").write_text(json.dumps(request))
        code = (
            "import sys\n"
            "from quasiact.cli import main\n"
            "for name, epsilon in (('fp2', '1/10'), ('prod', '1/5')):\n"
            "    path = f'{sys.argv[1]}/{name}'\n"
            "    assert main(['construct', '--request', path + '.request.json',\n"
            "                 '--out', path + '.json']) == 0\n"
            "    assert main(['verify', '--qa', path + '.json', '--epsilon', epsilon,\n"
            "                 '--out', path + '.again.json']) == 0\n"
            "print('hashlib' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "False"
        for name in requests:
            assert (tmp_path / f"{name}.json").read_bytes() == (tmp_path / f"{name}.again.json").read_bytes()

    def test_search_and_loader_never_enumerate(self):
        # Listing V's 181,440 elements as tuples allocates about 32 MB under
        # tracemalloc; the search, the loader and the carrier build together
        # peak near 0.6 MB, so any enumeration, under any name, fails here.
        tracemalloc.start()
        try:
            text = girth_group_search(6, 5, order_cap=200000, seed=0).to_witness_json()
            v = load_girth_witness(text)
            pc = build_partitioned_carrier(2, 3, 2, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.order == 181440 and pc.size == 6 * 181440
        assert peak < 4_000_000


class TestPartitionedCarrier:
    def test_trivial_sizes(self):
        v = girth_group_search(1, 4, order_cap=10, seed=0)
        pc = build_partitioned_carrier(1, 1, 2, v)
        assert pc.size == v.order

    def test_two_by_two_structure(self):
        v = girth_group_search(4, 4, order_cap=5000, seed=0)
        pc = dense_carrier(build_partitioned_carrier(2, 2, 2, v))
        assert pc.size == 4 * v.order
        assert pc.alpha_class_count == pc.size // 2
        assert pc.beta_class_count == pc.size // 2
        for cid in (0, 1, pc.alpha_class_count - 1):
            pts = list(pc.alpha_class_points(cid))
            assert len(pts) == 2
            assert all(pc.alpha_class_of(p) == cid for p in pts)
        for cid in (0, pc.beta_class_count // 2, pc.beta_class_count - 1):
            pts = list(pc.beta_class_points(cid))
            assert len(pts) == 2
            assert all(pc.beta_class_of(p) == cid for p in pts)

    def test_incidence_girth_against_networkx(self):
        import networkx as nx

        v = girth_group_search(2, 4, order_cap=5000, seed=0)
        pc = dense_carrier(build_partitioned_carrier(2, 2, 2, v))
        graph = nx.MultiGraph()
        for point in range(pc.size):
            graph.add_edge(
                ("a", pc.alpha_class_of(point)), ("b", pc.beta_class_of(point))
            )
        girth = nx.girth(nx.Graph(graph))
        assert girth > 4
        # no multi-edges either (intersections of size two)
        assert graph.number_of_edges() == nx.Graph(graph).number_of_edges()

    def test_cyclic_label_assignment(self):
        v = girth_group_search(3, 4, order_cap=5000, seed=0)
        pc = build_partitioned_carrier(2, 3, 2, v)
        # rows and columns of the label matrix stay injective
        for row in pc.gen_label:
            assert len(set(row)) == len(row)
        for col in zip(*pc.gen_label):
            assert len(set(col)) == len(col)

    def test_label_mismatch_rejected(self):
        v = girth_group_search(2, 4, order_cap=5000, seed=0)
        with pytest.raises(DomainError):
            build_partitioned_carrier(3, 4, 2, v)

    def test_insufficient_girth_rejected(self):
        v = girth_group_search(2, 2, order_cap=500, seed=0)
        with pytest.raises(PreconditionError):
            build_partitioned_carrier(2, 2, 2, v)

    def test_short_cycle_detected(self):
        # Hand-built witness with a forged girth certificate: Z/4 with the
        # shifts 1 and 3 under the cyclic label assignment closes a genuine
        # four-cycle in the incidence graph (1 - 3 + 1 - 3 = 0 mod 4), so
        # the independent BFS re-verification must refuse it.
        gens = (tuple((i + 1) % 4 for i in range(4)), tuple((i + 3) % 4 for i in range(4)))
        v = GirthGroup(Fiber(gens), certified_girth_bound=4, seed=0)
        with pytest.raises(InvariantViolationError):
            build_partitioned_carrier(2, 2, 2, v)


# ---------------------------------------------------------------------------
# Oracles: the exhaustive certificates that the symmetry-reduced ones replaced.


def words_hit_identity(gens, bound):
    """Depth-first walk over every reduced word of length <= bound; True when
    some nontrivial word evaluates to the identity permutation."""
    degree = len(gens[0])
    identity = tuple(range(degree))
    letters = []
    for j, g in enumerate(gens):
        inv = [0] * degree
        for i, img in enumerate(g):
            inv[img] = i
        letters.append((2 * j, g))
        letters.append((2 * j + 1, tuple(inv)))
    stack = [(identity, -1, 0)]
    while stack:
        value, last, depth = stack.pop()
        if depth == bound:
            continue
        for code, perm in letters:
            if last >= 0 and (code ^ 1) == last:
                continue
            new_value = tuple(perm[v] for v in value)
            if new_value == identity:
                return True
            stack.append((new_value, code, depth + 1))
    return False


def bfs_from_every_class_node(pc: DenseCarrier):
    """The former carrier certificate: BFS from every class node to depth N
    over neighbour lists built from the tables; any revisit other than the
    tree parent closes a cycle of length <= 2N."""
    o = pc.v.order
    alpha_count = pc.alpha_class_count
    alpha_nbrs = np.empty((alpha_count, pc.a_size), dtype=np.int64)
    varange = np.arange(o, dtype=np.int64)
    for b in range(pc.b_size):
        rows = slice(b * o, (b + 1) * o)
        for a in range(pc.a_size):
            w = pc.right_mult_inv[pc.gen_label[a][b], varange]
            alpha_nbrs[rows, a] = a * o + w
    beta_count = pc.beta_class_count
    beta_nbrs = np.empty((beta_count, pc.b_size), dtype=np.int64)
    for a in range(pc.a_size):
        rows = slice(a * o, (a + 1) * o)
        for b in range(pc.b_size):
            vv = pc.right_mult[pc.gen_label[a][b], varange]
            beta_nbrs[rows, b] = b * o + vv
    alpha_lists = alpha_nbrs.tolist()
    beta_lists = beta_nbrs.tolist()

    depth = pc.depth
    for root in range(alpha_count + beta_count):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        level = 0
        while frontier and level < depth:
            nxt = []
            for u in frontier:
                if u < alpha_count:
                    nbrs, offset = alpha_lists[u], alpha_count
                else:
                    nbrs, offset = beta_lists[u - alpha_count], 0
                for raw in nbrs:
                    vtx = raw + offset
                    if vtx == parent[u]:
                        continue
                    if vtx in dist:
                        raise InvariantViolationError("short incidence cycle")
                    dist[vtx] = level + 1
                    parent[vtx] = u
                    nxt.append(vtx)
            frontier = nxt
            level += 1


def raises_invariant(fn, *args):
    try:
        fn(*args)
    except InvariantViolationError:
        return True
    return False


def networkx_girth_exceeds(pc: DenseCarrier):
    import networkx as nx

    graph = nx.MultiGraph()
    for point in range(pc.size):
        graph.add_edge(("a", pc.alpha_class_of(point)), ("b", pc.beta_class_of(point)))
    simple = nx.Graph(graph)
    no_multi_edges = graph.number_of_edges() == simple.number_of_edges()
    return no_multi_edges and nx.girth(simple) > 2 * pc.depth


def carrier_with_depth(v, a_size, b_size, depth):
    """The carrier of v at any depth, skipping the witness-bound precondition
    so that short cycles reach the certificate."""
    return PartitionedCarrier(a_size, b_size, v, _label_assignment(a_size, b_size, v), depth)


def stand_in_v(gens, order, bound):
    """A GirthGroup whose V states any order for its generators: a Fiber
    takes its order from Schreier-Sims, so only a stand-in states another."""
    return GirthGroup(SimpleNamespace(generators=gens, order=order), bound, seed=0)


def forged_carrier(tables, a_size, b_size, depth, degree=4, bound=6):
    """A dense oracle carrier holding arbitrary index tables (V's generators
    are placeholders the table certificate must not read; its stated order
    is the table width)."""
    right = np.array(tables, dtype=np.int64)
    right_inv = np.empty_like(right)
    for j, row in enumerate(right):
        right_inv[j, row] = np.arange(row.size)
    gens = tuple(tuple(range(degree)) for _ in tables)
    v = stand_in_v(gens, right.shape[1], bound)
    return dense_carrier(carrier_with_depth(v, a_size, b_size, depth), (right, right_inv))


def z4_carrier(depth):
    return forged_carrier([[(k + 1) % 4 for k in range(4)], [(k + 3) % 4 for k in range(4)]],
                          2, 2, depth, bound=4)


perm_lists = st.integers(3, 5).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=2).map(
        lambda ps: [tuple(p) for p in ps]
    )
)


SPECIAL_KINDS = ["none", "identity", "involution", "repeat", "inverse"]
special_kinds = st.sampled_from(SPECIAL_KINDS)


def with_special(gens, kind):
    degree = len(gens[0])
    if kind == "identity":
        return gens + [tuple(range(degree))]
    if kind == "involution" and degree > 1:
        return gens + [(1, 0) + tuple(range(2, degree))]
    if kind == "repeat":
        return gens + [gens[0]]
    if kind == "inverse":
        return gens + [tuple(sorted(range(degree), key=lambda i: gens[0][i]))]
    return gens


class TestSymmetryCertificatesAgainstOracles:
    @settings(max_examples=80, deadline=None)
    @given(
        gens=perm_lists,
        kind=st.sampled_from(["none", "identity", "involution", "repeat", "inverse"]),
        bound=st.integers(1, 6),
    )
    @example(gens=[(1, 2, 3, 0)], kind="identity", bound=1)
    @example(gens=[(1, 2, 3, 0)], kind="involution", bound=2)
    @example(gens=[(1, 2, 3, 0)], kind="repeat", bound=2)
    @example(gens=[(1, 2, 3, 0)], kind="inverse", bound=2)
    @example(gens=[(1, 2, 3, 0)], kind="none", bound=4)
    def test_cayley_ball_matches_reduced_words(self, gens, kind, bound):
        gens = with_special(gens, kind)
        assert raises_invariant(_certify_word_girth, gens, bound) == words_hit_identity(gens, bound)

    def test_special_generators_are_refused(self):
        base = [(1, 2, 3, 4, 0)]
        for kind, bound in [("identity", 1), ("involution", 2), ("repeat", 2), ("inverse", 2)]:
            assert raises_invariant(_certify_word_girth, with_special(base, kind), bound)
        assert not raises_invariant(_certify_word_girth, base, 4)
        assert raises_invariant(_certify_word_girth, base, 5)

    @pytest.mark.parametrize(
        "labels,bound,cap", [(2, 2, 500), (3, 2, 500), (4, 2, 500), (2, 4, 5000)]
    )
    def test_carrier_matches_every_root_bfs_and_networkx(self, labels, bound, cap):
        # Depths up to 5 outrun every witness bound, so both outcomes occur.
        v = girth_group_search(labels, bound, order_cap=cap, seed=0)
        for a_size, b_size in [(2, 2), (2, 3)]:
            if labels == 2 and b_size == 3:
                continue
            for depth in (1, 2, 3, 4, 5):
                pc = carrier_with_depth(v, a_size, b_size, depth)
                dc = dense_carrier(pc)
                refused = raises_invariant(_bfs_girth_certificate, pc)
                assert refused == raises_invariant(bfs_from_every_class_node, dc)
                assert refused == raises_invariant(bfs_girth_certificate, dc)
                assert refused != networkx_girth_exceeds(dc)

    def test_forged_z4_agrees_with_oracles(self):
        pc = z4_carrier(2)
        assert raises_invariant(bfs_girth_certificate, pc)
        assert raises_invariant(bfs_from_every_class_node, pc)
        assert not networkx_girth_exceeds(pc)
        assert not raises_invariant(bfs_girth_certificate, z4_carrier(1))

    def test_non_cayley_table_is_refused(self):
        # Z/6 shift plus a transposition: both rows are permutations with
        # correct inverses, but no symmetry commutes with both.
        shift = [(k + 1) % 6 for k in range(6)]
        swap = [1, 0, 2, 3, 4, 5]
        with pytest.raises(InvariantViolationError):
            bfs_girth_certificate(forged_carrier([shift, swap], 2, 2, 1))

    def test_short_cycle_away_from_the_roots_is_refused(self):
        # One generator per cell; the 4-cycle through beta-class (0, 3)
        # exists because row 1 fixes 3, but no cycle passes through index 0,
        # so the roots alone would look clean.  Index 3 is unreachable from
        # 0, which the symmetry check refuses.
        ident = [0, 1, 2, 3]
        pc = forged_carrier([ident, [1, 2, 0, 3], ident, ident], 2, 2, 2)
        assert raises_invariant(bfs_from_every_class_node, pc)
        with pytest.raises(InvariantViolationError):
            bfs_girth_certificate(pc)

    def test_inconsistent_tables_are_refused(self):
        good = z4_carrier(1)
        right_inv = good.right_mult_inv.copy()
        right_inv[0, [0, 1]] = right_inv[0, [1, 0]]
        not_inverse = DenseCarrier(**{**good.__dict__, "right_mult_inv": right_inv})
        right = good.right_mult.copy()
        right[0, 0] = right[0, 1]
        not_permutation = DenseCarrier(**{**good.__dict__, "right_mult": right})
        order_three = stand_in_v(good.v.fiber.generators, 3, good.v.certified_girth_bound)
        wrong_shape = DenseCarrier(**{**good.__dict__, "v": order_three})
        for pc in (not_inverse, not_permutation, wrong_shape):
            with pytest.raises(InvariantViolationError):
                bfs_girth_certificate(pc)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 7),
        labels=st.integers(1, 4),
        depth=st.integers(1, 3),
    )
    def test_random_tables_never_pass_a_short_cycle(self, data, n, labels, depth):
        rows = [data.draw(st.permutations(range(n))) for _ in range(labels)]
        a_size = data.draw(st.integers(1, min(labels, 3)))
        b_size = data.draw(st.integers(1, min(labels, 3)))
        pc = forged_carrier(rows, a_size, b_size, depth)
        if not raises_invariant(bfs_girth_certificate, pc):
            assert not raises_invariant(bfs_from_every_class_node, pc)

    # Generator-level forgeries: generators under a forged girth bound, so
    # that short cycles reach the certificate.  A table can no longer be
    # forged: the carrier reads only V's generators.

    def forged_generators(self, gens, a_size, b_size, depth):
        """Whether the carrier certificate refuses gens at this depth; the
        every-root BFS and the table-symmetry BFS must agree."""
        v = GirthGroup(Fiber(tuple(gens)), 2 * depth, seed=0)
        pc = carrier_with_depth(v, a_size, b_size, depth)
        dc = dense_carrier(pc)
        refused = raises_invariant(_bfs_girth_certificate, pc)
        assert refused == raises_invariant(bfs_from_every_class_node, dc)
        assert refused == raises_invariant(bfs_girth_certificate, dc)
        if pc.size <= 3000:
            assert refused != networkx_girth_exceeds(dc)
        return refused

    def test_forged_z4_generators(self):
        z4 = [tuple((k + 1) % 4 for k in range(4)), tuple((k + 3) % 4 for k in range(4))]
        assert self.forged_generators(z4, 2, 2, 2)
        assert not self.forged_generators(z4, 2, 2, 1)

    def test_forged_shift_and_swap_generators(self):
        # The rows of the refused non-Cayley table, turned into generators
        # g0 = shift, g1 = shift * swap: the cyclic labels of a 2 x 2 carrier
        # close a 4-cycle iff (g0^-1 g1)^2 = 1, and g0^-1 g1 is the swap.
        shift = tuple((k + 1) % 6 for k in range(6))
        swap = (1, 0, 2, 3, 4, 5)
        shift_swap = tuple(swap[x] for x in shift)
        assert self.forged_generators([shift, shift_swap], 2, 2, 2)
        assert not self.forged_generators([shift, shift_swap], 2, 2, 1)
        assert not self.forged_generators([shift, swap], 2, 2, 2)

    def test_forged_identity_generators(self):
        # Identity rows, as generators one per cell: a 4-cycle closes iff
        # gen(0,0)^-1 gen(0,1) gen(1,1)^-1 gen(1,0) = 1.
        ident, p = (0, 1, 2, 3), (1, 2, 0, 3)
        assert self.forged_generators([ident, ident, p, p], 2, 2, 2)
        assert not self.forged_generators([ident, p, ident, ident], 2, 2, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        labels=st.integers(1, 4),
        depth=st.integers(1, 3),
    )
    def test_random_generators_agree_with_oracles(self, data, n, labels, depth):
        gens = [tuple(data.draw(st.permutations(range(n)))) for _ in range(labels)]
        a_size = data.draw(st.integers(1, min(labels, 3)))
        b_size = data.draw(st.integers(1, min(labels, 3)))
        self.forged_generators(gens, a_size, b_size, depth)


def random_generators(data, n, labels):
    return [tuple(data.draw(st.permutations(range(n)))) for _ in range(labels)]


def random_carrier(data):
    """A carrier of random generators under either label assignment, with
    |A|, |B| in 1..3 and depth 1..4; the forged witness bound lets short
    cycles reach the certificate."""
    a_size, b_size = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        labels = a_size * b_size  # one generator per cell
    else:
        wide = max(a_size, b_size)
        labels = data.draw(st.sampled_from([k for k in range(wide, wide + 3) if k != a_size * b_size]))
    gens = random_generators(data, data.draw(st.integers(1, 6)), labels)
    depth = data.draw(st.integers(1, 4))
    v = GirthGroup(Fiber(tuple(gens)), 2 * depth, seed=0)
    return carrier_with_depth(v, a_size, b_size, depth)


def random_word_case(data):
    gens = random_generators(data, data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)))
    kind = data.draw(special_kinds)
    return with_special(gens, kind), data.draw(st.integers(1, 8))


class TestLevelArraysAgainstTupleBFS:
    """girth.certify_girth (level arrays, row hashes) against the tuple BFS
    it replaced, on the Cayley ball and on the carrier's class nodes."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cayley_ball_matches_tuple_bfs(self, data):
        gens, bound = random_word_case(data)
        assert (raises_invariant(_certify_word_girth, gens, bound)
                == raises_invariant(tuple_word_girth, gens, bound))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_carrier_matches_tuple_bfs(self, data):
        pc = random_carrier(data)
        assert raises_invariant(_bfs_girth_certificate, pc) == raises_invariant(tuple_carrier_girth, pc)

    def test_single_cell_carrier_ends_its_walks(self):
        # A = B = 1: each class meets one point, so every walk ends after one
        # step and no depth finds a cycle.
        v = girth_group_search(1, 8, order_cap=10**6, seed=0)
        for depth in (1, 2, 4):
            pc = carrier_with_depth(v, 1, 1, depth)
            _bfs_girth_certificate(pc)
            tuple_carrier_girth(pc)

    def test_witnesses_and_search_draws_match_tuple_bfs(self):
        # The pinned witnesses pass both; draws of the seed-0 search at a
        # bound they miss are refused by both.
        for seed in WITNESS_SHA256:
            gens = girth_group_search(6, 5, order_cap=200000, seed=seed).fiber.generators
            _certify_word_girth(gens, 5)
            tuple_word_girth(gens, 5)
            assert raises_invariant(_certify_word_girth, gens, 8) == raises_invariant(tuple_word_girth, gens, 8)

    def test_colliding_hashes_change_no_verdict(self):
        # Every row hashes to 0, so every row is a hash match and the exact
        # comparison alone decides.
        rng = random.Random(0)
        word_cases, carriers = [], []
        for _ in range(150):
            degree = rng.randint(1, 6)
            gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]
            word_cases.append((with_special(gens, rng.choice(SPECIAL_KINDS)), rng.randint(1, 8)))
        for _ in range(80):
            a_size, b_size, depth = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
            labels = rng.choice([a_size * b_size, max(a_size, b_size) + 1])
            degree = rng.randint(1, 6)
            gens = [tuple(rng.sample(range(degree), degree)) for _ in range(labels)]
            v = GirthGroup(Fiber(tuple(gens)), 2 * depth, seed=0)
            carriers.append(carrier_with_depth(v, a_size, b_size, depth))
        hashed = ([raises_invariant(_certify_word_girth, *case) for case in word_cases],
                  [raises_invariant(_bfs_girth_certificate, pc) for pc in carriers])
        zeros = lambda rows: np.zeros(rows.shape[0], np.uint64)
        with mock.patch.object(girth, "_row_hashes", zeros):
            colliding = ([raises_invariant(_certify_word_girth, *case) for case in word_cases],
                         [raises_invariant(_bfs_girth_certificate, pc) for pc in carriers])
        assert colliding == hashed
        assert hashed[0] == [raises_invariant(tuple_word_girth, *case) for case in word_cases]
        assert hashed[1] == [raises_invariant(tuple_carrier_girth, pc) for pc in carriers]
        assert 0 < sum(hashed[0]) < len(word_cases) and 0 < sum(hashed[1]) < len(carriers)


ORACLE_CAP = 20_000

perm_sets_to_degree_nine = st.integers(1, 9).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=4).map(
        lambda ps: [tuple(p) for p in ps]
    )
)


def scalar_schreier_sims(gens):
    """Oracle: Schreier-Sims on tuples that rebuilds a level's orbit from
    scratch whenever a strong generator joins it, sifts every Schreier
    generator again on each pass, and tests membership one tuple at a time."""
    identity = tuple(range(len(gens[0])))
    base, strong, reps = [], [], []
    inverse = girth._inverse

    def extend(g, lo, hi):
        if hi == len(base):
            base.append(next(x for x in identity if g[x] != x))
            strong.append([])
            reps.append({})
        for k in range(lo, hi + 1):
            strong[k].append(g)
            orbit = reps[k] = {base[k]: identity}
            queue = [base[k]]
            for p in queue:
                for s in strong[k]:
                    if s[p] not in orbit:
                        orbit[s[p]] = tuple(s[x] for x in orbit[p])
                        queue.append(s[p])

    def sift(g, j):
        while j < len(base) and g[base[j]] in reps[j]:
            inv = inverse(reps[j][g[base[j]]])
            g, j = tuple(inv[x] for x in g), j + 1
        return g, j

    def next_level(i):
        for p, u in reps[i].items():
            for s in strong[i]:
                inv = inverse(reps[i][s[p]])
                g, j = sift(tuple(inv[s[x]] for x in u), i + 1)
                if g != identity:
                    extend(g, i + 1, j)
                    return j
        return i - 1

    for g in gens:
        if g != identity:
            extend(g, 0, 0)
    i = len(base) - 1
    while i >= 0:
        i = next_level(i)
    order = 1
    for orbit in reps:
        order *= len(orbit)
    return order, lambda g: len(g) == len(identity) and sift(tuple(g), 0)[0] == identity


@st.composite
def structured_generators(draw):
    """Generator sets of degree 0 to 12: unstructured, identity-only,
    intransitive (each generator permutes within fixed blocks) or imprimitive
    (each permutes k blocks of m points and the points within each block)."""
    kind = draw(st.sampled_from(["any", "identity", "intransitive", "imprimitive"]))
    if kind == "intransitive":
        sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))

        def one():
            return tuple(sum(sizes[:b]) + x for b, size in enumerate(sizes)
                         for x in draw(st.permutations(range(size))))
    elif kind == "imprimitive":
        k, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))

        def one():
            outer = draw(st.permutations(range(k)))
            inner = [draw(st.permutations(range(m))) for _ in range(k)]
            return tuple(outer[b] * m + inner[b][x] for b in range(k) for x in range(m))
    else:
        degree = draw(st.integers(0, 9))

        def one():
            return tuple(draw(st.permutations(range(degree))) if kind == "any" else range(degree))
    return [one() for _ in range(draw(st.integers(1, 4)))]


def is_permutation(row):
    return sorted(row) == list(range(len(row)))


@st.composite
def structured_families(draw):
    """Generator sets whose orbits a Schreier-Sims that skips too many
    Schreier generators misjudges: one permutation of disjoint cycles (as
    (0 1 2)(3 4)), diagonal generators (each the same permutation on two or
    three disjoint copies of its points), C_a wr C_b (an a-cycle on the
    first of b blocks of a points and the b-cycle of the blocks), and groups
    of many levels: S_n for n <= 9, by (0 1) and an n-cycle, and products of
    small symmetric groups on disjoint supports, by those two per factor."""
    kind = draw(st.sampled_from(["cycles", "diagonal", "wreath", "symmetric", "products"]))
    if kind in ("symmetric", "products"):
        sizes = ([draw(st.integers(2, 9))] if kind == "symmetric"
                 else draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)))
        degree, gens = sum(sizes), []
        for start, n in zip(np.cumsum([0, *sizes]).tolist(), sizes):
            swap, cycle = list(range(degree)), list(range(degree))
            swap[start : start + 2] = start + 1, start
            cycle[start : start + n] = range(start + 1, start + n + 1)
            cycle[start + n - 1] = start
            gens += [tuple(swap), tuple(cycle)]
        return gens
    if kind == "cycles":
        lengths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
        starts = [sum(lengths[:c]) for c in range(len(lengths))]
        return [tuple(start + (x + 1) % n for start, n in zip(starts, lengths) for x in range(n))]
    if kind == "diagonal":
        m, copies = draw(st.integers(1, 4)), draw(st.integers(2, 3))
        perms = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
        return [tuple(c * m + p[x] for c in range(copies) for x in range(m)) for p in perms]
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cycle = tuple((x + 1) % a if x < a else x for x in range(a * b))
    return [cycle, tuple((x + a) % (a * b) for x in range(a * b))]


def check_order_against_sympy(routine, gens):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
    assert routine(gens)[0] == group.order()


def skipping_schreier_sims(gens):
    """schreier_sims with one fault: once any orbit point's Schreier
    generator for s sifts to 1, s is skipped at every point of that level."""
    import inspect

    source = inspect.getsource(girth.schreier_sims)
    faulty = source.replace("(i, p, n) not in sifted", "(i, n) not in sifted").replace(
        "sifted.add((i, p, n))", "sifted.add((i, n))")
    assert faulty.count("(i, n)") == 2
    namespace = dict(vars(sys.modules[girth.schreier_sims.__module__]))
    exec(faulty, namespace)
    return namespace["schreier_sims"](gens)


class TestSchreierSimsAgainstOracles:
    @settings(max_examples=150, deadline=None)
    @given(gens=perm_sets_to_degree_nine, kind=special_kinds)
    @example(gens=[(0,)], kind="identity")
    @example(gens=[(1, 2, 3, 4, 0, 6, 5, 7, 8)], kind="inverse")
    def test_order_matches_closure(self, gens, kind):
        # Closures past the cap only show that the order passes it, which is
        # the decision the search makes; test_order_matches_full_closure and
        # the sympy property cover exact large orders.
        gens = with_special(gens, kind)
        order = schreier_sims(gens)[0]
        closure = enumerate_closure(gens, ORACLE_CAP)
        if closure is None:
            assert order > ORACLE_CAP
        else:
            assert order == len(closure[0])

    @settings(max_examples=150, deadline=None)
    @given(gens=perm_sets_to_degree_nine, kind=special_kinds)
    def test_order_matches_sympy(self, gens, kind):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        gens = with_special(gens, kind)
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
        assert schreier_sims(gens)[0] == group.order()

    @settings(max_examples=150, deadline=None)
    @given(gens=perm_sets_to_degree_nine, kind=special_kinds, data=st.data())
    @example(gens=[(1, 2, 0, 3), (0, 2, 3, 1)], kind="none", data=None)
    def test_membership_matches_closure(self, gens, kind, data):
        gens = with_special(gens, kind)
        closure = enumerate_closure(gens, ORACLE_CAP)
        if closure is None:
            return
        (order, member), elements = schreier_sims(gens), set(closure[0])
        assert order == len(elements)
        degree = len(gens[0])
        candidates = [(1, 0) + tuple(range(2, degree))] if degree > 1 else []
        if data is not None:
            candidates += [data.draw(st.sampled_from(closure[0])),
                           tuple(data.draw(st.permutations(range(degree))))]
        assert member(np.array(candidates, int).reshape(-1, degree)).tolist() == [
            perm in elements for perm in candidates]
        assert member(np.array(gens)).all()

    @settings(max_examples=100, deadline=None)
    @given(gens=perm_sets_to_degree_nine, kind=special_kinds, data=st.data())
    def test_membership_matches_sympy(self, gens, kind, data):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        gens = with_special(gens, kind)
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
        _, member = schreier_sims(gens)
        degree = len(gens[0])
        word = tuple(range(degree))
        for j in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
            word = tuple(gens[j][x] for x in word)
        other = tuple(data.draw(st.permutations(range(degree))))
        assert member(np.array([word, other])).tolist() == [
            True, group.contains(combinatorics.Permutation(list(other)))]

    @settings(max_examples=200, deadline=None)
    @given(gens=structured_generators(), data=st.data())
    @example(gens=[()], data=None)
    @example(gens=[(0,)], data=None)
    @example(gens=[(0, 1)], data=None)
    @example(gens=[(1, 0)], data=None)
    @example(gens=[(0, 1, 2), (0, 1, 2)], data=None)
    def test_matches_the_scalar_oracle(self, gens, data):
        # The scalar routine, the closure and sympy agree with the batched
        # routine on the order and on every row of one batch: words in the
        # generators, permutations, non-permutations in and out of range and
        # repeated rows.
        order, member = schreier_sims(gens)
        scalar_order, scalar_member = scalar_schreier_sims(gens)
        assert order == scalar_order
        closure = enumerate_closure(gens, ORACLE_CAP)
        assert order == len(closure[0]) if closure else order > ORACLE_CAP
        degree = len(gens[0])
        rows = [tuple(range(degree)), *gens, (1, 0, *range(2, degree))[:degree]]
        if data is not None:
            for _ in range(data.draw(st.integers(0, 3))):
                word = tuple(range(degree))
                for j in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
                    word = tuple(gens[j][x] for x in word)
                rows.append(word)
            rows += [tuple(data.draw(st.permutations(range(degree)))) for _ in range(2)]
            rows += data.draw(st.lists(st.tuples(*[st.integers(-2, degree + 1)] * degree), max_size=3))
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))
        expected = [is_permutation(r) and scalar_member(r) for r in rows]
        assert member(np.array(rows, int).reshape(len(rows), degree)).tolist() == expected
        if closure:
            assert expected == [r in set(closure[0]) for r in rows]
        combinatorics = pytest.importorskip("sympy.combinatorics")
        if degree:
            group = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
            assert order == group.order()
            in_group = [is_permutation(r) and group.contains(combinatorics.Permutation(list(r)))
                        for r in rows]
            assert expected == in_group

    @settings(max_examples=100, deadline=None)
    @given(gens=structured_families())
    @example(gens=[(1, 2, 0, 4, 3)])
    @example(gens=[(1, 0, *range(2, 9)), (*range(1, 9), 0)])  # S_9: eight levels
    @example(gens=[(1, 0, 2, 3, 4, 5, 6), (1, 2, 0, 3, 4, 5, 6),
                   (0, 1, 2, 4, 3, 5, 6), (0, 1, 2, 4, 5, 6, 3)])  # S_3 x S_4
    def test_structured_families_match_sympy(self, gens):
        # Every V's order comes from Schreier-Sims alone, through its Fiber.
        check_order_against_sympy(schreier_sims, gens)
        check_order_against_sympy(lambda gens: (Fiber(tuple(gens)).order,), gens)

    def test_the_sympy_comparison_refuses_a_routine_that_skips_too_much(self):
        # In <(0 1 2)(3 4)> the Schreier generator at orbit point 0 sifts to
        # 1, that at point 2 is (3 4); skipping it stops at the 3-cycle.
        gens = [(1, 2, 0, 4, 3)]
        assert skipping_schreier_sims(gens)[0] == 3 and schreier_sims(gens)[0] == 6
        with pytest.raises(AssertionError):
            check_order_against_sympy(skipping_schreier_sims, gens)

    @pytest.mark.parametrize("degree", [0, 1, 2, 5])
    def test_batches_of_no_rows_and_of_the_wrong_width(self, degree):
        _, member = schreier_sims([tuple(range(1, degree)) + (0,)] if degree else [()])
        assert member(np.zeros((0, degree), int)).tolist() == []
        assert member([]).tolist() == []
        for width in (degree - 1, degree + 1):
            if width >= 0:
                assert member(np.zeros((3, width), int) + np.arange(width)).tolist() == [False] * 3
        assert member(np.arange(degree)[None].repeat(2, axis=0)).tolist() == [True, True]

    def test_transposition_outside_an_alternating_group(self):
        v = girth_group_search(6, 5, order_cap=200000, seed=0)
        order, member = schreier_sims(v.fiber.generators)
        assert order == 181440  # A_9 has index 2 in S_9
        assert member([(1, 0, *range(2, 9)), (1, 2, 0, *range(3, 9))]).tolist() == [False, True]
        assert not member([(1, 0)])[0]  # wrong degree

    def test_order_matches_full_closure(self):
        v = girth_group_search(6, 5, order_cap=200000, seed=0)
        elements, _ = enumerate_closure(v.fiber.generators, v.order + 1)
        assert len(elements) == v.order == 181440


class TestWitnessLoaderSoundness:
    def witness_doc(self):
        return json.loads(girth_group_search(2, 4, order_cap=5000, seed=1).to_witness_json())

    @pytest.mark.parametrize("value", ["9" * 5000, "[" * 100000 + "]" * 100000])
    def test_unparsable_json_rejected(self, value):
        text = json.dumps({**self.witness_doc(), "order": 0}).replace('"order": 0', '"order": ' + value)
        with pytest.raises(DomainError, match="girth witness is not JSON"):
            load_girth_witness(text)

    def test_constant_generator_rejected(self):
        doc = self.witness_doc()
        doc["generators"][0] = [0] * doc["degree"]
        with pytest.raises(DomainError):
            load_girth_witness(json.dumps(doc))

    def test_mixed_degrees_rejected(self):
        doc = self.witness_doc()
        doc["generators"][1] = doc["generators"][1] + [doc["degree"]]
        with pytest.raises(DomainError):
            load_girth_witness(json.dumps(doc))

    def test_inflated_order_rejected(self):
        doc = self.witness_doc()
        doc["order"] += 1000
        with pytest.raises(InvariantViolationError, match=re.escape(
                "girth witness field 'order' states 1360, where to_witness_json writes 360")):
            load_girth_witness(json.dumps(doc))

    def test_wrong_degree_rejected(self):
        doc = self.witness_doc()
        doc["degree"] = 99
        with pytest.raises(InvariantViolationError, match=re.escape(
                "girth witness field 'degree' states 99, where to_witness_json writes 6")):
            load_girth_witness(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [
        ("girth_bound", 3.7),
        ("seed", True),
        ("order", 360.0),
        ("degree", "6"),
        ("generators", {"0": [0]}),
        ("generators", [[0, 1], "01"]),
        ("girth_bound", 0),
        ("girth_bound", -3),
    ])
    def test_fields_decode_strictly(self, field, value):
        # V's degree and order are read from its generators; the acceptance rule refuses another.
        doc = self.witness_doc()
        assert doc["order"] == 360
        doc[field] = value
        with pytest.raises(InvariantViolationError if field in ("degree", "order") else DomainError):
            load_girth_witness(json.dumps(doc))

    def test_non_object_witness_rejected(self):
        doc = self.witness_doc()
        with pytest.raises(DomainError):
            load_girth_witness(json.dumps(list(doc.items())))

    @pytest.mark.parametrize("key", ["note", "format", "labels"])
    def test_a_key_it_does_not_read_is_refused(self, key):
        doc = self.witness_doc()
        doc[key] = 1
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"girth witness field {key!r} is not written by to_witness_json")):
            load_girth_witness(json.dumps(doc))

    def test_written_as_compact_canonical_json(self):
        text = girth_group_search(2, 4, order_cap=5000, seed=1).to_witness_json()
        assert text == canonical_json(json.loads(text)) + "\n"
        assert load_girth_witness(text).to_witness_json() == text

    def test_float_generator_image_rejected(self):
        doc = self.witness_doc()
        doc["generators"][0][0] = float(doc["generators"][0][0])
        with pytest.raises(DomainError):
            load_girth_witness(json.dumps(doc))
