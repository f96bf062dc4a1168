"""The amenable extension's block walk against the scalar walk and the
triple enumeration, and the extension and product claims on random cases.

The oracles: H as every a*x*a2^-1 over A x F x A that N contains, the Folner
expansion through checked quotient products, and the walk one element and
one block at a time (``scalar_blocks``), with the extension built on it
(``scalar_amenable_extension_qa``).  The batched walk must give the same
targets, conjugates, H, expansion, maps and certificate bytes, and raise the
same error for the same first offender.
"""

import itertools
import json
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteMap,
    FiniteSubset,
    IntegerGroup,
    ProductGroup,
    QuasiAction,
    SubgroupHandle,
    TableGroup,
    cyclic_group,
    emit_certificate,
    identity_map,
    load_certificate,
    pair_products,
    verify,
)
from quasiact.cli import main
from quasiact.constructions import (
    ExtensionData,
    amenable_extension_qa,
    conjugated_normal_subset,
    cyclic_quasi_action,
    direct_product_qa,
    folner_expansion,
    integer_folner_interval,
    regular_action,
    transport_qa,
)
from quasiact.constructions.extension import _blocks
from quasiact.errors import (
    GroupMismatchError,
    IncompleteSupportError,
    InvariantViolationError,
    PreconditionError,
    QuasiactError,
)
from quasiact.quasiaction import require_dense
from quasiact.util import check_epsilon

from test_finmap import fraction, with_map


def triple_oracle(ext, f):
    """H = N & (A F A^-1), enumerated over all |A|^2 |F| triples, N the
    projection's kernel."""
    g = ext.group
    lifts = [ext.section(q) for q in ext.folner]
    candidates = (g.mul(g.mul(a, x), g.inv(a2)) for a in lifts for x in f for a2 in lifts)
    return {c for c in candidates if ext.project(c) == ext.quotient.identity}


def expansion_oracle(ext, f):
    """max over x in F of |Abar * xb \\ Abar| / |Abar| with checked products."""
    abar = list(ext.folner)
    inside = set(abar)
    escaped = (
        sum(1 for q in abar if ext.quotient.mul(q, ext.project(x)) not in inside) for x in f
    )
    return max((Fraction(e, len(abar)) for e in escaped), default=Fraction(0))


def scalar_blocks(ext, g) -> list:
    """g's walk over the blocks a of A, in Folner order: (j, a g sigma(ab gb)^-1)
    when ab gb is the j-th element of Abar, None when it leaves Abar."""
    gb = ext.quotient.check_element(ext.project(g))
    qmul, mul, inv = ext.quotient._mul, ext.group._mul, ext.group._inv
    blocks = []
    for q, a in zip(ext.folner, ext.lifts):
        j = ext.index.get(qmul(q, gb))
        if j is None:
            blocks.append(None)
            continue
        conjugated = mul(mul(a, g), inv(ext.lifts[j]))
        if ext.project(conjugated) != ext.quotient.identity:
            key = ext.group.element_key(conjugated)
            raise InvariantViolationError(f"conjugated element escaped the normal subgroup: {key}")
        blocks.append((j, conjugated))
    return blocks


def scalar_folner_expansion(ext, f) -> Fraction:
    fset = FiniteSubset(ext.group, f)
    escaped = max((scalar_blocks(ext, g).count(None) for g in fset), default=0)
    return Fraction(escaped, len(ext.folner))


def scalar_conjugated_normal_subset(ext, f) -> FiniteSubset:
    fset = FiniteSubset(ext.group, f)
    return FiniteSubset(ext.group, (b[1] for x in fset for b in scalar_blocks(ext, x) if b))


def scalar_amenable_extension_qa(psi, ext, f, epsilon) -> QuasiAction:
    """The extension on the scalar walk: one walk per element of F for the
    expansion and again for H, then one per element of {1} u F u F*F, in key
    order, for the maps, each block's images read from psi's assignment."""
    require_dense(psi, "the amenable extension")
    epsilon = check_epsilon(epsilon)
    g = ext.group
    fset = FiniteSubset(g, f)
    expansion = scalar_folner_expansion(ext, fset)
    if expansion > epsilon:
        raise PreconditionError(f"Folner expansion {expansion} exceeds epsilon {epsilon}")
    h_subset = scalar_conjugated_normal_subset(ext, fset)
    try:
        h_for_inner = FiniteSubset(psi.owner, iter(h_subset))
    except GroupMismatchError as exc:
        raise PreconditionError(f"inner action's group does not contain all of H: {exc}") from exc
    if not verify(psi, h_for_inner, epsilon).passed:
        raise PreconditionError(f"inner action does not verify on H at epsilon {epsilon}")
    claimed = 3 * epsilon
    if claimed >= 1:
        raise PreconditionError(f"3*epsilon = {claimed} leaves (0,1)")
    a_n = len(ext.folner)
    barange = np.arange(psi.carrier_n)
    needed = {g.identity, *fset, *pair_products(fset, fset)}
    assignment = {}
    for elem in sorted(needed, key=g.element_key):
        target, inner = np.arange(a_n), []
        for i, block in enumerate(scalar_blocks(ext, elem)):
            if block is None:
                inner.append(barange)
                continue
            target[i], conjugated = block
            if conjugated not in psi.assignment:
                raise IncompleteSupportError(g.element_key(conjugated), "inner action support")
            inner.append(psi.assignment[conjugated].images)
        images = np.stack(inner, axis=1).astype(np.int64) * a_n + target
        assignment[elem] = FiniteMap(images.ravel())
    return QuasiAction(g, psi.carrier_n * a_n, assignment, fset, claimed)


def _symmetric_group_table(degree):
    perms = list(itertools.permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    return perms, [[index[tuple(q[i] for i in p)] for q in perms] for p in perms]


S4_PERMS, S4_TABLE = _symmetric_group_table(4)
S4 = TableGroup(S4_TABLE)


def _parity(p):
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j]) % 2


# The normal subgroups of S4, as index sets into S4_PERMS.
S4_NORMAL = {
    "trivial": [S4_PERMS.index((0, 1, 2, 3))],
    "klein": [S4_PERMS.index(p) for p in [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]],
    "alternating": [i for i, p in enumerate(S4_PERMS) if _parity(p) == 0],
    "whole": list(range(24)),
}


def quotient_by(group, normal):
    """G/N as a table group on coset numbers, with the projection."""
    members = set(normal)
    cosets, coset_of = [], {}
    for x in group.elements():
        if x not in coset_of:
            coset = frozenset(group.mul(x, n) for n in members)
            for y in coset:
                coset_of[y] = len(cosets)
            cosets.append(coset)
    reps = [min(c) for c in cosets]
    table = [[coset_of[group.mul(r, s)] for s in reps] for r in reps]
    return TableGroup(table), coset_of.__getitem__, cosets


@st.composite
def product_factor_integer(draw):
    """G = Z x C_n, N the finite factor, quotient Z with a non-homomorphic
    section and a Folner set that need not be an interval."""
    n = draw(st.integers(1, 4))
    g = ProductGroup([IntegerGroup(), cyclic_group(n)])
    q = IntegerGroup()
    folner = draw(st.sets(st.integers(-6, 6), min_size=1, max_size=8))
    offsets = {k: draw(st.integers(0, n - 1)) for k in sorted(folner)}
    f = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, n - 1)), max_size=5))
    ext = ExtensionData(
        group=g,
        quotient=q,
        project=lambda x: x[0],
        section=lambda k: (k, offsets[k]),
        folner=FiniteSubset(q, folner),
    )
    return ext, f


@st.composite
def product_factor_finite(draw):
    """G = C_m x C_n, N the second factor, quotient C_m."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    g = ProductGroup([cyclic_group(m), cyclic_group(n)])
    q = cyclic_group(m)
    folner = draw(st.sets(st.integers(0, m - 1), min_size=1))
    offsets = [draw(st.integers(0, n - 1)) for _ in range(m)]
    f = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=5))
    ext = ExtensionData(
        group=g,
        quotient=q,
        project=lambda x: x[0],
        section=lambda t: (t, offsets[t]),
        folner=FiniteSubset(q, folner),
    )
    return ext, f


@st.composite
def integer_subgroup(draw):
    """G the integers, N = dZ, quotient C_d, each residue lifted anywhere."""
    d = draw(st.integers(1, 5))
    q = cyclic_group(d)
    folner = draw(st.sets(st.integers(0, d - 1), min_size=1))
    lifts = [t + d * draw(st.integers(-2, 2)) for t in range(d)]
    f = draw(st.lists(st.integers(-9, 9), max_size=5))
    ext = ExtensionData(
        group=IntegerGroup(),
        quotient=q,
        project=lambda k: k % d,
        section=lambda t: lifts[t],
        folner=FiniteSubset(q, folner),
    )
    return ext, f


@st.composite
def symmetric_group_quotient(draw):
    """G = S4 over one of its normal subgroups: a nonabelian G, and for the
    Klein four-group a nonabelian quotient too."""
    normal = S4_NORMAL[draw(st.sampled_from(sorted(S4_NORMAL)))]
    q, project, cosets = quotient_by(S4, normal)
    folner = draw(st.sets(st.sampled_from(list(q.elements())), min_size=1))
    lifts = [draw(st.sampled_from(sorted(c))) for c in cosets]
    f = draw(st.lists(st.integers(0, 23), max_size=4))
    ext = ExtensionData(
        group=S4,
        quotient=q,
        project=project,
        section=lambda t: lifts[t],
        folner=FiniteSubset(q, folner),
    )
    return ext, f


KINDS = {
    "product_factor_integer": product_factor_integer(),
    "product_factor_finite": product_factor_finite(),
    "integer_subgroup": integer_subgroup(),
    "symmetric_group_quotient": symmetric_group_quotient(),
}


class TestBlockWalkOracle:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_h_and_expansion_match_the_triple_enumeration(self, kind, data):
        ext, f = data.draw(KINDS[kind])
        assert set(conjugated_normal_subset(ext, f)) == triple_oracle(ext, f)
        assert folner_expansion(ext, f) == expansion_oracle(ext, f)

    def test_empty_f(self):
        q = IntegerGroup()
        ext = ExtensionData(
            group=ProductGroup([q, cyclic_group(2)]),
            quotient=q,
            project=lambda x: x[0],
            section=lambda k: (k, 1),
            folner=FiniteSubset(q, [0, 3, 4]),
        )
        assert len(conjugated_normal_subset(ext, [])) == 0
        assert folner_expansion(ext, []) == 0

    def test_conjugate_outside_n_is_an_invariant_violation(self):
        # A projection that is no homomorphism: (1, 1) goes to 2, every other
        # (k, t) to k.  Then (0, 0)(1, 1)sigma(2)^-1 = (-1, 1) projects to -1.
        q = IntegerGroup()
        ext = ExtensionData(
            group=ProductGroup([q, cyclic_group(2)]),
            quotient=q,
            project=lambda x: x[0] + (x == (1, 1)),
            section=lambda k: (k, 0),
            folner=FiniteSubset(q, range(3)),
        )
        for walk in (conjugated_normal_subset, folner_expansion):
            with pytest.raises(InvariantViolationError, match=r"escaped.*\[-1,1\]"):
                walk(ext, [(1, 1)])

    def test_folner_set_of_another_group_is_refused(self):
        q = IntegerGroup()
        with pytest.raises(GroupMismatchError):
            ExtensionData(
                group=ProductGroup([q, cyclic_group(2)]),
                quotient=q,
                project=lambda x: x[0],
                section=lambda k: (k, 0),
                folner=FiniteSubset(cyclic_group(3), [0, 1]),
            )


EPSILONS = st.sampled_from([Fraction(1, 10), Fraction(1, 20), Fraction(1, 50), Fraction(2, 7)])


@st.composite
def product_factor_claim(draw):
    """The CLI's product_factor shape with the regular action of N as psi,
    an integer or a finite quotient, and a section that is no homomorphism.
    N is C_n with its elements relabelled, so its identity need not come
    first in key order."""
    epsilon = draw(EPSILONS)
    n = draw(st.integers(1, 4))
    label = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        table[label[i]][label[j]] = label[(i + j) % n]
    normal = TableGroup(table)
    if draw(st.booleans()):
        quotient = IntegerGroup()
        f = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, n - 1)),
                          min_size=1, max_size=4))
        folner = integer_folner_interval([x[0] for x in f], epsilon)
    else:
        quotient = cyclic_group(draw(st.integers(1, 5)))
        f = draw(st.lists(st.tuples(st.sampled_from(quotient.elements()), st.integers(0, n - 1)),
                          min_size=1, max_size=4))
        folner = FiniteSubset(quotient, quotient.elements())
    g = ProductGroup([quotient, normal])
    q_id = quotient.identity
    scale = draw(st.integers(0, n - 1))
    ext = ExtensionData(
        group=g,
        quotient=quotient,
        project=lambda x: x[0],
        section=lambda q: (q, (q * q * scale) % n),
        folner=folner,
    )
    psi = regular_action(SubgroupHandle(g, members=[(q_id, t) for t in range(n)]), epsilon=epsilon)
    return psi, ext, f, epsilon


@st.composite
def integer_subgroup_claim(draw):
    """The CLI's integer_subgroup shape: shifts on Z/M pulled back to dZ, with
    F reaching past +-d, so that H has more than the multiples 0, +-d."""
    epsilon = draw(EPSILONS)
    d = draw(st.integers(1, 4))
    f = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    bound = max(abs(k) for k in f) or 1
    modulus = draw(st.integers(2 * bound + 3, 4 * bound + 10))
    base = cyclic_quasi_action([1], modulus, epsilon,
                               extra_support=range(-2 * bound - 2, 2 * bound + 3))
    span = range(-2 * d * (bound + 2), 2 * d * (bound + 2) + 1, d)
    sub = SubgroupHandle(IntegerGroup(), contains_fn=lambda k: k % d == 0)
    psi = transport_qa(base, sub, range(-d * (bound + 1), d * (bound + 2), d),
                       {k: k // d for k in span})
    q = cyclic_group(d)
    ext = ExtensionData(
        group=IntegerGroup(),
        quotient=q,
        project=lambda k: k % d,
        section=lambda t: t,
        folner=FiniteSubset(q, q.elements()),
    )
    return psi, ext, f, epsilon


class TestClaims:
    @pytest.mark.parametrize("shape", [product_factor_claim(), integer_subgroup_claim()],
                             ids=["product_factor", "integer_subgroup"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_extension_verifies_at_three_epsilon(self, shape, data):
        psi, ext, f, epsilon = data.draw(shape)
        qa = amenable_extension_qa(psi, ext, f, epsilon)
        assert qa.claimed_epsilon == 3 * epsilon
        assert verify(qa, epsilon=qa.claimed_epsilon).passed

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_product_defects_at_most_the_sum_and_pass_at_k_epsilon(self, data):
        epsilon = Fraction(1, 4)
        k = data.draw(st.integers(2, 3))
        inputs = []
        for _ in range(k):
            f = data.draw(st.sets(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=2))
            qa = cyclic_quasi_action(sorted(f), data.draw(st.integers(12, 14)), epsilon)
            elem = data.draw(st.sampled_from(sorted(qa.assignment)))
            images = qa.assignment[elem].points().tolist()
            for p in data.draw(st.sets(st.integers(0, qa.carrier_n - 1), max_size=1)):
                images[p] = data.draw(st.integers(0, qa.carrier_n - 1))
            inputs.append((with_map(qa, elem, FiniteMap(images)), FiniteSubset(qa.owner, f)))
        factor_reports = [verify(qa, fset, epsilon) for qa, fset in inputs]
        assert all(r.passed for r in factor_reports)

        prod = direct_product_qa(inputs, epsilon)
        assert prod.claimed_epsilon == k * epsilon
        report = verify(prod, epsilon=k * epsilon)
        assert report.passed

        def by_pair(r):
            return {(p.left_key, p.right_key): fraction(p.defect) for p in r.pair_defects}

        factor_pairs = [by_pair(r) for r in factor_reports]
        pairs = by_pair(report)
        pg, z = prod.owner, IntegerGroup()
        for e in prod.claimed_f:
            for f in prod.claimed_f:
                bound = sum(d[z.element_key(x), z.element_key(y)]
                            for d, x, y in zip(factor_pairs, e, f))
                assert pairs[pg.element_key(e), pg.element_key(f)] <= bound
        assert fraction(report.identity_defect) <= sum(
            fraction(r.identity_defect) for r in factor_reports
        )


class TestIntegerSubgroupRequest:
    @pytest.mark.parametrize("index,f", [(1, [2]), (2, [5, -3]), (3, [7])])
    def test_f_past_the_index_constructs(self, tmp_path, index, f):
        # H then holds multiples of the index beyond +-index, which the inner
        # action's support must cover, with H*H and the conjugates of F*F.
        request = {"construct": "extension", "extension_kind": "integer_subgroup",
                   "epsilon": "1/10", "index": index, "psi_modulus": 41, "f": f}
        req, out = tmp_path / "request.json", tmp_path / "out.json"
        req.write_text(json.dumps(request))
        assert main(["construct", "--request", str(req), "--out", str(out)]) == 0
        qa, report = load_certificate(out.read_text())
        assert report.passed and qa.claimed_epsilon == Fraction(3, 10)


class TestDecodedInputs:
    @pytest.mark.parametrize("bad", [2.7, True, "3"])
    def test_cyclic_extra_support_is_not_truncated(self, bad):
        with pytest.raises(GroupMismatchError):
            cyclic_quasi_action([1], 12, extra_support=[3, bad])

    def test_quasi_action_f_of_another_group_is_refused(self):
        with pytest.raises(GroupMismatchError):
            QuasiAction(IntegerGroup(), 2, {0: identity_map(2)},
                        FiniteSubset(cyclic_group(2), [0]), Fraction(1, 10))


@st.composite
def symmetric_group_claim(draw):
    """G = S4 over one of its normal subgroups N, psi the regular action of
    N, and Abar either the whole quotient or any nonempty subset of it."""
    ext, f = draw(symmetric_group_quotient())
    if draw(st.booleans()):
        whole = FiniteSubset(ext.quotient, ext.quotient.elements())
        ext = ExtensionData(group=S4, quotient=ext.quotient, project=ext.project,
                            section=ext.section, folner=whole)
    epsilon = draw(EPSILONS)
    members = [x for x in S4.elements() if ext.project(x) == ext.quotient.identity]
    return regular_action(SubgroupHandle(S4, members=members), epsilon=epsilon), ext, f, epsilon


def without(psi, drop):
    """psi with drop taken out of its support, claiming no F."""
    kept = {e: m for e, m in psi.assignment.items() if e != drop}
    return QuasiAction(psi.owner, psi.carrier_n, kept, [], psi.claimed_epsilon)


@st.composite
def faulted(draw, claim):
    """A claim as ExtensionData's fields, with at most one fault: a projection
    forged on one element near the walk, a section forged on one element of
    Abar, or one element other than the identity dropped from psi's support."""
    psi, ext, f, epsilon = draw(claim)
    g = ext.group
    fset = FiniteSubset(g, f)
    rows = [g.identity, *fset, *pair_products(fset, fset)]
    lifts = ext.lifts[:3]
    near = [*rows, *ext.lifts,
            *(g._mul(g._mul(a, x), g._inv(b)) for a in lifts for b in lifts for x in rows)]
    fields = dict(group=g, quotient=ext.quotient, project=ext.project, section=ext.section,
                  folner=ext.folner)
    fault = draw(st.sampled_from(["none", "projection", "section", "support"]))
    if fault == "projection":
        forged, value = draw(st.sampled_from(near)), ext.project(draw(st.sampled_from(near)))
        project = ext.project
        fields["project"] = lambda x: value if x == forged else project(x)
    elif fault == "section":
        q0, wrong = draw(st.sampled_from(list(ext.folner))), draw(st.sampled_from(near))
        section = ext.section
        fields["section"] = lambda q: wrong if q == q0 else section(q)
    elif fault == "support" and len(psi.elements) > 1:
        psi = without(psi, draw(st.sampled_from([e for e in psi.elements if e != g.identity])))
    return psi, fields, f, epsilon


def result(build):
    """build()'s value, or the type and message of the error it raised."""
    try:
        return build()
    except QuasiactError as exc:
        return type(exc), str(exc)


def batched_rows(ext, gs) -> list:
    """The batched walk of gs, checked, in scalar_blocks' form."""
    walk = _blocks(ext, gs)
    walk.check(ext.group)
    return [[None if j < 0 else (j, walk.conjugates[c]) for j, c in zip(t, w)]
            for t, w in zip(walk.targets.tolist(), walk.which.tolist())]


def built(extension, psi, fields, f, epsilon):
    """The extension's maps by key and its certificate, or the error raised."""
    def run():
        qa = extension(psi, ExtensionData(**fields), f, epsilon)
        maps = {qa.owner.element_key(e): m.images.tolist() for e, m in qa.assignment.items()}
        return maps, emit_certificate(qa, verify(qa))
    return result(run)


def walked(expansion, conjugated, blocks, fields, f):
    """The expansion, H and the walk of F, then {1} u F*F in key order."""
    def run():
        ext = ExtensionData(**fields)
        g, fset = ext.group, FiniteSubset(ext.group, f)
        rows = [*fset, *(x for x in FiniteSubset(g, [g.identity, *pair_products(fset, fset)])
                         if x not in fset)]
        return (result(lambda: expansion(ext, f)), result(lambda: conjugated(ext, f)),
                result(lambda: blocks(ext, rows)))
    return result(run)


CLAIMS = [product_factor_claim(), integer_subgroup_claim(), symmetric_group_claim()]


class TestBatchedWalkAgainstTheScalarWalk:
    @pytest.mark.parametrize("claim", CLAIMS, ids=["product_factor", "integer_subgroup", "s4"])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_same_walk_maps_bytes_and_errors(self, claim, data):
        psi, fields, f, epsilon = data.draw(faulted(claim))
        assert (walked(folner_expansion, conjugated_normal_subset, batched_rows, fields, f)
                == walked(scalar_folner_expansion, scalar_conjugated_normal_subset,
                          lambda ext, rows: [scalar_blocks(ext, x) for x in rows], fields, f))
        assert (built(amenable_extension_qa, psi, fields, f, epsilon)
                == built(scalar_amenable_extension_qa, psi, fields, f, epsilon))

    def product_factor(self, epsilon=Fraction(1, 10), **forged):
        """G = Z x C2 over the finite factor, each lift (q, 1), Abar {0..9}."""
        g, z = ProductGroup([IntegerGroup(), cyclic_group(2)]), IntegerGroup()
        fields = dict(group=g, quotient=z, project=lambda x: x[0], section=lambda q: (q, 1),
                      folner=FiniteSubset(z, range(10)))
        psi = regular_action(SubgroupHandle(g, members=[(0, 0), (0, 1)]), epsilon=epsilon)
        return psi, {**fields, **forged}, [(1, 0)], epsilon

    def s4_over_klein(self):
        """A Folner set of five of S3's six elements, F = {11, 14} and
        H = {0, 7}: the walk of 10 in F*F meets the conjugate 16 on its
        second block, in N but not in H u H*H, and psi lacks 16."""
        q, project, _ = quotient_by(S4, S4_NORMAL["klein"])
        lifts = [23, 6, 21, 3, 8, 5]
        fields = dict(group=S4, quotient=q, project=project, section=lambda t: lifts[t],
                      folner=FiniteSubset(q, [3, 4, 0, 1, 5]))
        psi = regular_action(SubgroupHandle(S4, members=S4_NORMAL["klein"]), epsilon=Fraction(2, 7))
        return without(psi, 16), fields, [11, 14], Fraction(2, 7)

    def s4_over_a4(self):
        """Abar the whole quotient C2 with lifts 0 and 1, F = {1, 3}, and the
        projection forged to send 2 into A4: the walk of 2 in F*F meets 2,
        which psi lacks, on its first block and 5, which escapes, on its
        second."""
        q, project, _ = quotient_by(S4, S4_NORMAL["alternating"])
        fields = dict(group=S4, quotient=q, project=lambda x: 0 if x == 2 else project(x),
                      section=[0, 1].__getitem__, folner=FiniteSubset(q, [0, 1]))
        members = S4_NORMAL["alternating"]
        psi = regular_action(SubgroupHandle(S4, members=members), epsilon=Fraction(1, 10))
        return psi, fields, [1, 3], Fraction(1, 10)

    @pytest.mark.parametrize("case,error,message", [
        # (2, 0), in F*F only, projects to 1: its blocks' conjugate (1, 0) escapes N.
        (lambda self: self.product_factor(project=lambda x: 1 if x == (2, 0) else x[0]),
         InvariantViolationError, "conjugated element escaped the normal subgroup: [1,0]"),
        # The same escape comes after F's expansion 1/10 is refused.
        (lambda self: self.product_factor(Fraction(1, 20),
                                          project=lambda x: 1 if x == (2, 0) else x[0]),
         PreconditionError, "Folner expansion 1/10 exceeds epsilon 1/20"),
        (lambda self: self.s4_over_klein(),
         IncompleteSupportError, "no map assigned for element 16 (inner action support)"),
        (lambda self: self.product_factor(section=lambda q: (q + (q == 4), 1)),
         InvariantViolationError, "section fails on 4"),
        # A row's escape is named before a support gap on an earlier block of it.
        (lambda self: self.s4_over_a4(),
         InvariantViolationError, "conjugated element escaped the normal subgroup: 5"),
    ], ids=["escaped_in_f_times_f", "escaped_after_the_expansion", "inner_support_gap",
            "section_fails", "escape_after_a_gap_in_one_row"])
    def test_the_first_offender_is_named_as_the_scalar_walk_names_it(self, case, error, message):
        args = case(self)
        got = built(amenable_extension_qa, *args)
        assert got == built(scalar_amenable_extension_qa, *args) == (error, message)
