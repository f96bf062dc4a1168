import base64
import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    Defect,
    FiniteMap,
    FiniteSubset,
    IntegerGroup,
    QuasiAction,
    TableGroup,
    compose,
    cyclic_group,
    emit_certificate,
    fixpoint_count,
    identity_map,
    inverse_map,
    load_certificate,
    shift_map,
    similarity_defect,
    swap_map,
    verify,
)
from quasiact import quasiaction
from quasiact.errors import (
    DomainError,
    GroupMismatchError,
    IncompleteSupportError,
    InvariantViolationError,
)
from quasiact.quasiaction import (
    ElementFlags,
    PairDefect,
    StrictChecks,
    VerificationReport,
    report_to_json,
)
from quasiact.util import canonical_json, document_json, format_fraction
from test_finmap import composition_defect


def regular_c4():
    g = cyclic_group(4)
    assign = {k: shift_map(4, k) for k in range(4)}
    return QuasiAction(g, 4, assign, FiniteSubset(g, range(4)), Fraction(1, 100))


def integer_shifts(f, m, support, epsilon=Fraction(1, 100)):
    z = IntegerGroup()
    assign = {k: shift_map(m, k) for k in support}
    return QuasiAction(z, m, assign, FiniteSubset(z, f), epsilon)


class TestVerify:
    def test_regular_action_exact(self):
        qa = regular_c4()
        r = verify(qa)
        assert r.passed
        assert all(p.defect.disagreements == 0 for p in r.pair_defects)
        assert r.identity_defect.disagreements == 0
        assert all(agree == 0 for _, agree in r.identity_agreements)
        assert str(r.max_defect) == "0/4"

    def test_condition_b_threshold(self):
        g = TableGroup([[0]])
        qa = QuasiAction(
            g, 10, {0: swap_map(10, 0, 1)}, FiniteSubset(g, [0]), Fraction(1, 5)
        )
        assert verify(qa, epsilon=Fraction(1, 5)).b_pass
        assert not verify(qa, epsilon=Fraction(1, 10)).b_pass

    def test_integer_shifts_on_twelve(self):
        f = [-2, -1, 1, 2]
        support = range(-4, 5)
        qa = integer_shifts(f, 12, support)
        r = verify(qa, epsilon=Fraction(1, 100))
        assert r.passed
        assert r.max_defect.disagreements == 0

    def test_monotone_in_epsilon(self):
        rng = random.Random(9)
        g = cyclic_group(3)
        assign = {
            k: FiniteMap([rng.randrange(6) for _ in range(6)]) for k in range(3)
        }
        qa = QuasiAction(g, 6, assign, FiniteSubset(g, range(3)), Fraction(1, 2))
        values = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)]
        passes = [verify(qa, epsilon=e).passed for e in values]
        # once passing, stays passing at any larger epsilon
        for smaller, larger in zip(passes, passes[1:]):
            assert larger or not smaller

    def test_antimonotone_in_f(self):
        # passing at (F, eps) implies passing at every subset of F
        import itertools

        qa = integer_shifts([-2, -1, 1, 2], 12, range(-4, 5))
        perturbed = qa.assignment[1].to_list()
        perturbed[0] = 3
        qa = qa.with_map(1, FiniteMap(perturbed))
        eps = Fraction(1, 4)
        full = [-2, -1, 1, 2]
        assert verify(qa, f=full, epsilon=eps).passed
        for size in range(1, 4):
            for subset in itertools.combinations(full, size):
                assert verify(qa, f=subset, epsilon=eps).passed

    def test_strict_implies_plain(self):
        qa = regular_c4()
        r = verify(qa, strict=True)
        assert r.strict is not None and r.strict.passed
        assert r.b_pass and r.c_pass

    def test_strict_flags(self):
        qa = regular_c4()
        r = verify(qa, strict=True)
        assert r.strict.identity_exact
        for flags in r.strict.element_flags:
            assert flags.bijective and flags.fixpoint_free
            assert flags.inverse_exact is True

    def test_incomplete_support_names_element(self):
        z = IntegerGroup()
        assign = {k: shift_map(12, k) for k in [-1, 0, 1, 2]}
        qa = QuasiAction(z, 12, assign, FiniteSubset(z, [1]), Fraction(1, 2))
        with pytest.raises(IncompleteSupportError) as err:
            verify(qa, f=[1, 2], epsilon=Fraction(1, 2))
        assert "3" in str(err.value) or "4" in str(err.value)

    def test_construction_requires_ff_support(self):
        z = IntegerGroup()
        assign = {k: shift_map(12, k) for k in [0, 1]}
        with pytest.raises(IncompleteSupportError):
            QuasiAction(z, 12, assign, FiniteSubset(z, [1]), Fraction(1, 2))

    def test_exact_homomorphism_all_epsilons(self):
        qa = integer_shifts([-2, -1, 1, 2], 12, range(-4, 5))
        for eps in [Fraction(1, 1000), Fraction(1, 7), Fraction(9, 10)]:
            assert verify(qa, epsilon=eps).passed


def entry_text(images) -> str:
    """A map's v2 entry as it is written inside a certificate's assignment."""
    raw = np.asarray(images, "<i4").tobytes()
    return (
        f'"int32le": "{base64.b64encode(raw).decode()}",\n'
        f'      "sha256": "{hashlib.sha256(raw).hexdigest()}"'
    )


class TestCertificates:
    def test_roundtrip_byte_identical(self):
        qa = regular_c4()
        r = verify(qa)
        cert = emit_certificate(qa, r)
        qa2, r2 = load_certificate(cert)
        assert emit_certificate(qa2, r2) == cert

    def test_max_defect_recorded(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        assert '"max_defect": "0/4"' in cert

    def test_top_level_schema(self):
        qa = regular_c4()
        doc = json.loads(emit_certificate(qa, verify(qa)))
        assert set(doc) == {
            "format", "group", "carrier_n", "F", "epsilon", "assignment", "report"
        }
        assert doc["format"] == 2
        assert doc["epsilon"] == "1/100"
        entry = doc["assignment"]["2"]
        raw = base64.b64decode(entry["int32le"])
        assert np.frombuffer(raw, "<i4").tolist() == [2, 3, 0, 1]
        assert entry["sha256"] == hashlib.sha256(raw).hexdigest()

    def test_condition_b_defect_recorded(self):
        g = TableGroup([[0]])
        qa = QuasiAction(
            g, 10, {0: swap_map(10, 0, 1)}, FiniteSubset(g, [0]), Fraction(1, 5)
        )
        cert = emit_certificate(qa, verify(qa))
        assert '"defect": "2/10"' in cert

    def test_loaded_values_match(self):
        qa = regular_c4()
        r = verify(qa)
        qa2, r2 = load_certificate(emit_certificate(qa, r))
        assert qa2.carrier_n == qa.carrier_n
        assert qa2.claimed_epsilon == qa.claimed_epsilon
        assert set(qa2.assignment) == set(qa.assignment)
        for k, m in qa.assignment.items():
            assert qa2.assignment[k] == m
        assert r2 == r

    def test_tampered_flags_rejected(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        bad = cert.replace('"a_pass": true', '"a_pass": false')
        with pytest.raises(Exception):
            load_certificate(bad)

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"max_defect": "0/4"', '"max_defect": "3/4"'),
            ('"cprime_pass": true', '"cprime_pass": false'),
            ('"bprime_pass": true', '"bprime_pass": false'),
            ('"passed": true', '"passed": false'),
            ('"defect": "0/4"', '"defect": "0/5"'),
            ('"b_pass": true', '"b_pass": false'),
            ('"c_pass": true', '"c_pass": false'),
            ('"passed": true\n    }', '"passed": false\n    }'),  # the strict block's
            ('"defect": "0/4"', '"defect": "1/4"'),  # a pair over 1/100 of the carrier
            ('"a_pass": true', '"a_pass": 1'),
            ('"defect": "0/4"', '"defect": "00/4"'),
            ('"defect": "0/4"', '"defect": 0'),
            pytest.param(
                entry_text([1, 2, 3, 0]), entry_text([0, 1, 2, 3]), id="map-1-rehashed-identity"
            ),
            ('"identity_exact": true', '"identity_exact": 1'),
            ('"agreements": 0', '"agreements": 0.9'),
        ],
    )
    def test_tampered_report_rejected(self, old, new):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa, strict=True))
        assert old in cert
        with pytest.raises(InvariantViolationError):
            load_certificate(cert.replace(old, new, 1))


def oracle_verdicts(qa, epsilon, strict) -> dict:
    """The verdicts and max_defect counted straight from the maps, by the
    rules verify applied inline before reports derived them from counts."""
    g, n = qa.owner, qa.carrier_n
    one = g.identity
    ident = identity_map(n)
    b_defect = similarity_defect(qa.map_for(one), ident)
    b_pass = b_defect.fraction <= epsilon
    a_pass = True
    max_defect = b_defect
    for e in qa.claimed_f:
        for fe in qa.claimed_f:
            d = similarity_defect(
                compose(qa.map_for(e), qa.map_for(fe)), qa.map_for(g.mul(e, fe))
            )
            if d.fraction > epsilon:
                a_pass = False
            if d.fraction > max_defect.fraction:
                max_defect = d
    c_pass = True
    for e in qa.claimed_f:
        if e == one:
            continue
        agree = int(np.count_nonzero(qa.map_for(e).images == ident.images))
        if not Fraction(n - agree, n) > 1 - epsilon:
            c_pass = False
        if Fraction(agree, n) > max_defect.fraction:
            max_defect = Defect(agree, n)
    verdicts = {"a_pass": a_pass, "b_pass": b_pass, "c_pass": c_pass, "max_defect": max_defect}
    if strict:
        bprime = qa.map_for(one) == ident
        for e in qa.support:
            if e == one:
                continue
            m = qa.map_for(e)
            bij = m.is_bijection()
            if not (bij and fixpoint_count(m) == 0):
                bprime = False
            if g.inv(e) in qa.assignment and not (
                bij and qa.map_for(g.inv(e)) == inverse_map(m)
            ):
                bprime = False
        elems = list(FiniteSubset(g, list(qa.claimed_f) + [one]))
        cprime = all(
            similarity_defect(qa.map_for(e), qa.map_for(fe)).fraction > 1 - epsilon
            for i, e in enumerate(elems)
            for fe in elems[i + 1 :]
        )
        verdicts.update(bprime_pass=bprime, cprime_pass=cprime)
    return verdicts


def derived_verdicts(report) -> dict:
    verdicts = {
        "a_pass": report.a_pass,
        "b_pass": report.b_pass,
        "c_pass": report.c_pass,
        "max_defect": report.max_defect,
    }
    if report.strict is not None:
        verdicts.update(
            bprime_pass=report.strict.bprime_pass, cprime_pass=report.strict.cprime_pass
        )
    return verdicts


epsilons = st.integers(2, 60).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))
)


def v1_certificate(qa, report) -> str:
    """The format-1 document: no "format" key, every map a list of integers.

    Kept as the oracle for reading old certificates.
    """
    g = qa.owner
    doc = {
        "group": g.describe(),
        "carrier_n": qa.carrier_n,
        "epsilon": format_fraction(qa.claimed_epsilon),
        "F": [g.element_key(e) for e in qa.claimed_f],
        "assignment": {
            g.element_key(elem): fmap.to_list() for elem, fmap in qa.assignment.items()
        },
        "report": report_to_json(report),
    }
    return document_json(doc)


@st.composite
def random_actions(draw):
    """A cyclic group with arbitrary maps on a random carrier."""
    order = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    images = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    g = cyclic_group(order)
    assign = {k: FiniteMap(draw(images)) for k in range(order)}
    eps = Fraction(draw(st.integers(1, 9)), 10)
    return QuasiAction(g, n, assign, FiniteSubset(g, range(order)), eps)


@st.composite
def near_regular_actions(draw):
    """The regular action of a cyclic group, blown up and lightly perturbed,
    so that the strict conditions both pass and fail."""
    order = draw(st.integers(1, 4))
    m = draw(st.integers(1, 10))
    n = order * m
    g = cyclic_group(order)
    assign = {k: shift_map(n, k * m).to_list() for k in range(order)}
    for _ in range(draw(st.integers(0, 2))):
        images = assign[draw(st.integers(0, order - 1))]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            images[i], images[j] = images[j], images[i]  # stays a bijection
        else:
            images[i] = j
    assign = {k: FiniteMap(images) for k, images in assign.items()}
    return QuasiAction(g, n, assign, FiniteSubset(g, range(order)), Fraction(1, 2))


def map_entry(cert: str, key: str) -> dict:
    return json.loads(cert)["assignment"][key]


def v2_entry(images) -> dict:
    """A well-formed map entry for the given images, hashed correctly."""
    raw = np.asarray(images, "<i4").tobytes()
    return {
        "int32le": base64.b64encode(raw).decode(),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def replace_entry(cert: str, key: str, entry: dict) -> str:
    doc = json.loads(cert)
    doc["assignment"][key] = entry
    return document_json(doc)


class TestVerdictOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_actions(), near_regular_actions()), epsilons, st.booleans())
    def test_derived_verdicts_match_oracle(self, qa, epsilon, strict):
        report = verify(qa, epsilon=epsilon, strict=strict)
        expected = oracle_verdicts(qa, epsilon, strict)
        assert derived_verdicts(report) == expected
        assert report.passed == (expected["a_pass"] and expected["b_pass"] and expected["c_pass"])
        if strict:
            assert report.strict.passed == (expected["bprime_pass"] and expected["cprime_pass"])
        _, loaded = load_certificate(emit_certificate(qa, report))
        assert derived_verdicts(loaded) == expected


def verify_per_pair(qa, f=None, epsilon=None, strict=False) -> VerificationReport:
    """verify as it was before it counted in chunks: one group product and
    one composition_defect per pair, each map looked up as it is needed.
    Kept as the oracle for the batched verify."""
    g = qa.owner
    if f is None:
        fset = qa.claimed_f
    elif isinstance(f, FiniteSubset):
        if f.owner != g:
            raise GroupMismatchError("F belongs to a different group")
        fset = f
    else:
        fset = FiniteSubset(g, f)
    eps = qa.claimed_epsilon if epsilon is None else epsilon

    one = g.identity
    n = qa.carrier_n
    ident = identity_map(n)
    id_map = qa.map_for(one)
    keys = {e: g.element_key(e) for e in qa.assignment}

    pair_defects = []
    for e in fset:
        me = qa.map_for(e)
        for fe in fset:
            prod = g.mul(e, fe)
            d = composition_defect(me, qa.map_for(fe), qa.map_for(prod))
            pair_defects.append(PairDefect(keys[e], keys[fe], keys[prod], d))

    agreements = [
        (keys[e], n - similarity_defect(qa.map_for(e), ident).disagreements)
        for e in fset
        if e != one
    ]

    strict_checks = None
    if strict:
        for e in fset:
            if g.inv(e) not in qa.assignment:
                raise IncompleteSupportError(
                    g.element_key(g.inv(e)), "strict mode needs F^-1 in the support"
                )
        flags = []
        for e in sorted(qa.assignment, key=keys.__getitem__):
            if e == one:
                continue
            m = qa.map_for(e)
            bij = m.is_bijection()
            inv_elem = g.inv(e)
            inverse_exact = None
            if inv_elem in qa.assignment:
                inverse_exact = bij and qa.map_for(inv_elem) == inverse_map(m)
            flags.append(ElementFlags(keys[e], bij, fixpoint_count(m) == 0, inverse_exact))
        keyed = [(keys[e], qa.map_for(e)) for e in FiniteSubset(g, [*fset, one])]
        pairwise = [
            (ka, kb, similarity_defect(ma, mb))
            for i, (ka, ma) in enumerate(keyed)
            for kb, mb in keyed[i + 1 :]
        ]
        strict_checks = StrictChecks(eps, id_map == ident, tuple(flags), tuple(pairwise))

    return VerificationReport(
        carrier_n=n,
        epsilon=eps,
        f_keys=tuple(keys[e] for e in fset),
        pair_defects=tuple(pair_defects),
        identity_defect=similarity_defect(id_map, ident),
        identity_agreements=tuple(agreements),
        strict=strict_checks,
    )


class CountingTable(TableGroup):
    """A table group that counts its products."""

    products = 0

    def _mul(self, a, b):
        self.products += 1
        return super()._mul(a, b)


class TestBatchedVerify:
    # rows per chunk: one row, an uneven split of up to 5 rows, and the
    # default POINTS, which holds every row of these small carriers.
    @pytest.mark.parametrize("rows", [1, 3, None])
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(random_actions(), near_regular_actions()), epsilons, st.booleans(), st.data())
    def test_report_matches_per_pair_oracle(self, rows, qa, epsilon, strict, data):
        f = data.draw(st.none() | st.sets(st.sampled_from(sorted(qa.assignment))))
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(quasiaction, "POINTS", rows * qa.carrier_n)
            fresh = verify(qa, f, epsilon, strict)
        expected = verify_per_pair(qa, f, epsilon, strict)
        assert canonical_json(report_to_json(fresh)) == canonical_json(report_to_json(expected))
        assert fresh == expected

    def test_chunks_split_as_stated(self, monkeypatch):
        maps = [shift_map(4, k) for k in range(5)]
        monkeypatch.setattr(quasiaction, "POINTS", 8)
        chunks = quasiaction._chunks(maps, 4)
        assert [(start, stack.shape) for start, stack in chunks] == [
            (0, (2, 4)), (2, (2, 4)), (4, (1, 4))
        ]
        monkeypatch.setattr(quasiaction, "POINTS", 3)
        assert [stack.shape for _, stack in quasiaction._chunks(maps, 4)] == [(1, 4)] * 5

    def test_product_table_built_once_per_f(self):
        g = CountingTable([[(i + j) % 4 for j in range(4)] for i in range(4)])
        assign = {k: shift_map(8, 2 * k) for k in range(4)}
        qa = QuasiAction(g, 8, assign, FiniteSubset(g, range(4)), Fraction(1, 100))
        assert g.products == 16
        verify(qa)
        verify(qa, range(4), Fraction(1, 5), strict=True)
        assert g.products == 16
        verify(qa, [1, 2])
        assert g.products == 16 + 4

    def test_other_f_is_support_checked(self):
        z = IntegerGroup()
        assign = {k: shift_map(12, k) for k in range(-2, 3)}
        qa = QuasiAction(z, 12, assign, FiniteSubset(z, [1]), Fraction(1, 2))
        with pytest.raises(IncompleteSupportError, match="no map assigned for element 4"):
            verify(qa, [2])
        with pytest.raises(IncompleteSupportError, match="element 3"):
            verify(qa, [3])


class TestCertificateCodec:
    @settings(max_examples=60, deadline=None)
    @given(random_actions(), st.booleans())
    def test_emit_load_emit_identical(self, qa, strict):
        cert = emit_certificate(qa, verify(qa, strict=strict))
        qa2, r2 = load_certificate(cert)
        assert all(qa2.assignment[k] == m for k, m in qa.assignment.items())
        assert emit_certificate(qa2, r2) == cert

    @settings(max_examples=30, deadline=None)
    @given(random_actions(), st.booleans())
    def test_v1_loads_like_v2(self, qa, strict):
        report = verify(qa, strict=strict)
        qa1, r1 = load_certificate(v1_certificate(qa, report))
        qa2, r2 = load_certificate(emit_certificate(qa, report))
        assert r1 == r2 == report
        assert (qa1.carrier_n, qa1.claimed_epsilon) == (qa2.carrier_n, qa2.claimed_epsilon)
        assert list(qa1.claimed_f) == list(qa2.claimed_f)
        assert qa1.assignment == qa2.assignment == qa.assignment

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(random_actions(), near_regular_actions()), epsilons, st.booleans(), st.data()
    )
    def test_loads_only_the_report_its_maps_give(self, qa, epsilon, strict, data):
        # Store the report of a perturbed copy beside qa's own maps.
        elem = data.draw(st.sampled_from(sorted(qa.assignment)))
        images = qa.map_for(elem).to_list()
        points = st.integers(0, qa.carrier_n - 1)
        images[data.draw(points)] = data.draw(points)
        stored = verify(qa.with_map(elem, FiniteMap(images)), epsilon=epsilon, strict=strict)
        fresh = verify(qa, epsilon=epsilon, strict=strict)
        cert = emit_certificate(qa, stored)
        if canonical_json(report_to_json(stored)) == canonical_json(report_to_json(fresh)):
            assert load_certificate(cert)[1] == fresh
        else:
            with pytest.raises(InvariantViolationError):
                load_certificate(cert)

    def test_v1_checks_still_run(self):
        qa = regular_c4()
        cert = v1_certificate(qa, verify(qa))
        with pytest.raises(InvariantViolationError):
            load_certificate(cert.replace('"max_defect": "0/4"', '"max_defect": "3/4"'))
        doc = json.loads(cert)
        doc["assignment"]["1"] = [1, 2, 3, 4]
        with pytest.raises(DomainError):
            load_certificate(document_json(doc))

    def test_unknown_format_rejected(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa)).replace('"format": 2', '"format": 3')
        with pytest.raises(DomainError):
            load_certificate(cert)

    def test_invalid_base64(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        entry = dict(map_entry(cert, "1"), int32le="AQAAAA!=")
        with pytest.raises(InvariantViolationError, match="base64"):
            load_certificate(replace_entry(cert, "1", entry))

    def test_wrong_byte_length(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        with pytest.raises(InvariantViolationError, match="bytes"):
            load_certificate(replace_entry(cert, "1", v2_entry([1, 2, 3])))

    def test_sha256_mismatch(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        entry = dict(map_entry(cert, "1"), sha256=map_entry(cert, "2")["sha256"])
        with pytest.raises(InvariantViolationError, match="sha256"):
            load_certificate(replace_entry(cert, "1", entry))

    def test_flipped_payload(self):
        # Swap two images of map "1": still an in-range map, still valid
        # base64 of the right length, but no longer the bytes that were hashed.
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        entry = map_entry(cert, "1")
        images = np.frombuffer(base64.b64decode(entry["int32le"]), "<i4").copy()
        images[[0, 1]] = images[[1, 0]]
        FiniteMap(images)  # the tampered payload is a valid map on its own
        flipped = dict(entry, int32le=v2_entry(images)["int32le"])
        with pytest.raises(InvariantViolationError, match="sha256"):
            load_certificate(replace_entry(cert, "1", flipped))

    def test_rehashed_out_of_range_payload(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        with pytest.raises(DomainError):
            load_certificate(replace_entry(cert, "1", v2_entry([0, 1, 2, 4])))


def extend_assignment(qa: QuasiAction, elements) -> QuasiAction:
    """Explicitly extend the support with canonical padding maps.

    Padding is the fixpoint-free involution pairing 2i <-> 2i+1 when the
    carrier size is even, and the identity map otherwise.
    """
    n = qa.carrier_n
    if n % 2 == 0:
        images = list(range(n))
        for i in range(0, n, 2):
            images[i], images[i + 1] = images[i + 1], images[i]
        pad = FiniteMap(images)
    else:
        pad = identity_map(n)
    table = dict(qa.assignment)
    for elem in elements:
        qa.owner.check_element(elem)
        if elem not in table:
            table[elem] = pad
    return QuasiAction(qa.owner, n, table, qa.claimed_f, qa.claimed_epsilon)


class TestExtendAssignment:
    def test_padding_even(self):
        z = IntegerGroup()
        qa = integer_shifts([1], 12, range(-2, 3))
        out = extend_assignment(qa, [7])
        pad = out.assignment[7]
        assert pad.to_list()[:4] == [1, 0, 3, 2]
        from quasiact import compose, fixpoint_count, identity_map as idm

        assert compose(pad, pad) == idm(12)
        assert fixpoint_count(pad) == 0

    def test_padding_odd(self):
        g = TableGroup([[0]])
        qa = QuasiAction(g, 5, {0: identity_map(5)}, FiniteSubset(g, [0]), Fraction(1, 2))
        out = extend_assignment(qa, [])
        assert out.assignment[0] == identity_map(5)

    def test_epsilon_range_validated(self):
        g = TableGroup([[0]])
        with pytest.raises(DomainError):
            QuasiAction(g, 2, {0: identity_map(2)}, FiniteSubset(g, [0]), Fraction(3, 2))
