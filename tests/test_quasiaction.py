import base64
import hashlib
import json
import random
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    Defect,
    FiniteMap,
    FiniteSubset,
    IntegerGroup,
    ProductGroup,
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
    verify,
)
from quasiact import quasiaction
from quasiact.constructions import girth
from quasiact.errors import (
    DomainError,
    GroupMismatchError,
    IncompleteSupportError,
    InvariantViolationError,
)
from quasiact.quasiaction import StrictChecks, VerificationReport, report_to_json
from quasiact.util import canonical_json, check_epsilon
from test_finmap import composition_defect, fraction, swap_map, with_map

from certificate_tables import (
    assignment, encode, every_count, set_assignment, set_slot_rows, slot_rows, table_maps,
)
from mutants import table_from_json_trusting_fingerprints


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
        perturbed = qa.assignment[1].points().tolist()
        perturbed[0] = 3
        qa = with_map(qa, 1, FiniteMap(perturbed))
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
        assert r.strict.bijective == r.strict.fixpoint_free == (True,) * 3
        assert r.strict.inverse_exact == (True,) * 3

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

    @pytest.mark.parametrize("group,f,identity_key", [
        (IntegerGroup(), [1], "0"), (cyclic_group(3), [1, 2], "0"),
        (ProductGroup([IntegerGroup(), cyclic_group(2)]), [(1, 1)], "[0,0]"),
    ])
    def test_empty_assignment_names_the_identity(self, group, f, identity_key):
        # No map, so no layout: the support check still runs first.
        with pytest.raises(IncompleteSupportError) as err:
            QuasiAction(group, 12, {}, FiniteSubset(group, f), Fraction(1, 2))
        assert err.value.element_key == identity_key

    def test_exact_homomorphism_all_epsilons(self):
        qa = integer_shifts([-2, -1, 1, 2], 12, range(-4, 5))
        for eps in [Fraction(1, 1000), Fraction(1, 7), Fraction(9, 10)]:
            assert verify(qa, epsilon=eps).passed


def with_row(cert: str, key: str, images) -> str:
    """The certificate with the table row of the one-slot map key replaced by
    images."""
    doc = json.loads(cert)
    rows, _ = slot_rows(doc, 0)
    [i] = assignment(doc)[key]
    rows[i] = images
    set_slot_rows(doc, 0, rows)
    return json.dumps(doc)


def edited(cert: str, path: tuple, value) -> str:
    """The certificate with the value at path (keys and indices) replaced."""
    doc = json.loads(cert)
    before = json.dumps(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    text = json.dumps(doc)
    assert text != before  # the edit took effect
    return text


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
        assert json.loads(cert)["report"]["max_defect"] == "0/4"

    def test_top_level_schema(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        doc = json.loads(cert)
        assert set(doc) == {"format", "group", "F", "epsilon", "slots", "assignment", "report"}
        [slot] = doc["slots"]
        assert doc["format"] == 12 and slot["cells"] == 4 and slot["fiber"] is None
        assert set(slot) == {"cells", "fiber", "maps", "images"}
        assert set(doc["assignment"]) == {"keys", "index"}
        assert doc["epsilon"] == "1/100"
        # one table row per distinct map, in key order of first use
        assert doc["assignment"]["keys"] == ["0", "1", "2", "3"]
        assert assignment(doc) == {"0": [0], "1": [1], "2": [2], "3": [3]}
        # one uint8 payload of 4 rows of 4 cells, and no label fields
        images = np.frombuffer(base64.b64decode(slot["images"]), "<u1")
        assert images.reshape(4, 4)[2].tolist() == [2, 3, 0, 1]
        # compact and key-sorted, one line
        assert cert == canonical_json(doc) + "\n"

    def test_report_is_count_summaries(self):
        qa = integer_shifts([-1, 1], 12, range(-2, 3))
        doc = json.loads(emit_certificate(qa, verify(qa, strict=True)))
        report = doc["report"]
        assert doc["F"] == ["-1", "1"] and "f" not in report
        assert report["condition_a"] == {"max": 0, "at": 0}  # of 4 zeros
        assert report["condition_b"] == 0
        assert report["condition_c"] == {"max": 0, "at": 0}  # of 2 zeros
        strict = report["strict"]
        assert strict["bijective"] is strict["fixpoint_free"] is strict["inverse_exact"] is None
        assert strict["pairwise"] == {"min": 12, "at": 0}  # of 3: -1, 0, 1 in key order

    def test_report_names_the_first_failures(self):
        # In C4, 1 and 3 map to inverse shifts and 2 to a map that is neither
        # onto nor fixpoint-free: each flag fails first at 2, position 1 of
        # the elements other than the identity.
        g = cyclic_group(4)
        assign = {0: identity_map(4), 1: shift_map(4, 1), 2: FiniteMap([1, 0, 0, 3]),
                  3: shift_map(4, 3)}
        qa = QuasiAction(g, 4, assign, FiniteSubset(g, range(4)), Fraction(1, 2))
        r = verify(qa, strict=True)
        report = json.loads(emit_certificate(qa, r))["report"]
        assert r.a_counts == (0, 0, 0, 0, 0, 3, 3, 0, 0, 3, 1, 3, 0, 0, 3, 3)
        assert report["condition_a"] == {"max": 3, "at": 5}  # the pair (1, 1), first of 7
        assert r.c_agreements == (0, 1, 0) and report["condition_c"] == {"max": 1, "at": 1}
        strict = report["strict"]
        for flag in ("bijective", "fixpoint_free", "inverse_exact"):
            assert getattr(r.strict, flag) == (True, False, True) and strict[flag] == 1
        assert r.strict.pair_counts == (4, 3, 4, 3, 4, 3)
        assert strict["pairwise"] == {"min": 3, "at": 1}

    def test_condition_b_defect_recorded(self):
        g = TableGroup([[0]])
        qa = QuasiAction(
            g, 10, {0: swap_map(10, 0, 1)}, FiniteSubset(g, [0]), Fraction(1, 5)
        )
        cert = emit_certificate(qa, verify(qa))
        assert json.loads(cert)["report"]["condition_b"] == 2

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
        with pytest.raises(InvariantViolationError):
            load_certificate(edited(cert, ("report", "a_pass"), False))

    @pytest.mark.parametrize(
        "path,value",
        [
            (("report", "max_defect"), "3/4"),
            (("report", "strict", "cprime_pass"), False),
            (("report", "strict", "bprime_pass"), False),
            (("report", "passed"), False),
            (("report", "carrier_n"), 5),
            (("report", "b_pass"), False),
            (("report", "c_pass"), False),
            (("report", "strict", "passed"), False),
            (("report", "condition_a", "max"), 1),  # a pair over 1/100 of the carrier
            (("report", "condition_a", "at"), 5),  # a later position of the same largest count
            (("report", "condition_b"), 1),
            (("report", "condition_c", "max"), 1),
            (("report", "condition_c", "at"), 2),
            (("report", "strict", "pairwise", "min"), 3),
            (("report", "strict", "pairwise", "at"), 1),
            (("report", "strict", "bijective"), 0),  # fails at the first element
            (("report", "strict", "fixpoint_free"), 2),
            (("report", "strict", "inverse_exact"), 1),
            (("report", "a_pass"), 1),
            (("report", "condition_a", "max"), False),
            (("report", "condition_a", "max"), 0.0),
            (("report", "condition_a", "at"), False),
            (("report", "condition_a", "at"), "0"),
            (("report", "condition_a", "min"), 0),  # a key the summary does not have
            (("report", "condition_a"), [0, 0]),  # a list for a summary
            (("report", "condition_c"), None),  # null for a non-empty array
            (("report", "condition_b"), "0/4"),
            (("F", 1), " 1"),  # a key that names the same element
            (("slots",), [0, 1, 2, 3]),  # map "1"'s row, rewritten as the identity's
            (("report", "strict", "identity_exact"), 1),
            (("report", "condition_c", "max"), 0.9),
        ],
    )
    def test_tampered_report_rejected(self, path, value):
        # Each edit is refused by the acceptance rule at its JSON path.
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa, strict=True))
        message = "certificate field " + repr("F[1]" if path[0] == "F" else ".".join(path))
        if path[0] == "slots":  # map "1" is now a second row of map "0"
            message = "field 'slots': a slot's table states each slot map once"
        text = with_row(cert, "1", value) if path[0] == "slots" else edited(cert, path, value)
        with pytest.raises(InvariantViolationError, match=re.escape(message)):
            load_certificate(text)


class TestEmitStatesFOnce:
    """A certificate states F and the carrier once, so emit_certificate
    refuses a report measured on another F or carrier by name; the loader
    measures the report again on the claimed F and carrier."""

    @staticmethod
    def doubled_c4():
        # C4 shifting 8 points by two per step: the same F, on another carrier.
        g = cyclic_group(4)
        assign = {k: shift_map(8, 2 * k) for k in range(4)}
        return QuasiAction(g, 8, assign, FiniteSubset(g, range(4)), Fraction(1, 100))

    @pytest.mark.parametrize("f", [[0, 1], [0, 2], [], [1, 2, 3]])
    def test_a_report_on_another_f_is_refused(self, f):
        qa = regular_c4()
        with pytest.raises(DomainError) as exc:
            emit_certificate(qa, verify(qa, f))
        assert str(exc.value) == "the report was measured on another F than the action's"

    def test_a_report_on_another_carrier_is_refused(self):
        qa, report = regular_c4(), verify(self.doubled_c4())
        assert report.f_keys == verify(qa).f_keys and report.carrier_n == 8
        with pytest.raises(DomainError) as exc:
            emit_certificate(qa, report)
        assert str(exc.value) == "the report was measured on another carrier than the action's"

    def test_the_carrier_is_named_before_f(self):
        with pytest.raises(DomainError, match="another carrier"):
            emit_certificate(regular_c4(), verify(self.doubled_c4(), [0, 1]))

    def test_f_given_in_another_order_or_repeated_is_the_claimed_f(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa, [3, 2, 1, 0, 3]))
        assert cert == emit_certificate(qa, verify(qa))

    def test_another_epsilon_and_strictness_are_written(self):
        qa = regular_c4()
        report = verify(qa, epsilon=Fraction(1, 5), strict=True)
        doc = json.loads(emit_certificate(qa, report))
        assert (doc["epsilon"], doc["report"]["epsilon"]) == ("1/100", "1/5")
        assert load_certificate(canonical_json(doc) + "\n")[1] == report


def oracle_verdicts(qa, epsilon, strict) -> dict:
    """The verdicts and max_defect counted straight from the maps, by the
    rules verify applied inline before reports derived them from counts."""
    g, n = qa.owner, qa.carrier_n
    one = g.identity
    ident = identity_map(n)
    b_defect = similarity_defect(qa.map_for(one), ident)
    b_pass = fraction(b_defect) <= epsilon
    a_pass = True
    max_defect = b_defect
    for e in qa.claimed_f:
        for fe in qa.claimed_f:
            d = similarity_defect(
                compose(qa.map_for(e), qa.map_for(fe)), qa.map_for(g.mul(e, fe))
            )
            if fraction(d) > epsilon:
                a_pass = False
            if fraction(d) > fraction(max_defect):
                max_defect = d
    c_pass = True
    for e in qa.claimed_f:
        if e == one:
            continue
        agree = int(np.count_nonzero(qa.map_for(e).images == ident.images))
        if not Fraction(n - agree, n) > 1 - epsilon:
            c_pass = False
        if Fraction(agree, n) > fraction(max_defect):
            max_defect = Defect(agree, n)
    verdicts = {"a_pass": a_pass, "b_pass": b_pass, "c_pass": c_pass, "max_defect": max_defect}
    if strict:
        bprime = qa.map_for(one) == ident
        for e in qa.assignment:
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
            fraction(similarity_defect(qa.map_for(e), qa.map_for(fe))) > 1 - epsilon
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
    assign = {k: shift_map(n, k * m).points().tolist() for k in range(order)}
    for _ in range(draw(st.integers(0, 2))):
        images = assign[draw(st.integers(0, order - 1))]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            images[i], images[j] = images[j], images[i]  # stays a bijection
        else:
            images[i] = j
    assign = {k: FiniteMap(images) for k, images in assign.items()}
    return QuasiAction(g, n, assign, FiniteSubset(g, range(order)), Fraction(1, 2))


def with_edit(cert: str, edit) -> str:
    doc = json.loads(cert)
    edit(doc)
    return json.dumps(doc)


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

    a_counts, product_keys = [], []
    for e in fset:
        me = qa.map_for(e)
        for fe in fset:
            prod = g.mul(e, fe)
            d = composition_defect(me, qa.map_for(fe), qa.map_for(prod))
            a_counts.append(d.disagreements)
            product_keys.append(keys[prod])

    agreements = [
        n - similarity_defect(qa.map_for(e), ident).disagreements for e in fset if e != one
    ]

    strict_checks = None
    if strict:
        for e in fset:
            if g.inv(e) not in qa.assignment:
                raise IncompleteSupportError(
                    g.element_key(g.inv(e)), "strict mode needs F^-1 in the support"
                )
        bijective, fixpoint_free, inverse_exact = [], [], []
        for e in sorted(qa.assignment, key=keys.__getitem__):
            if e == one:
                continue
            m = qa.map_for(e)
            bij = m.is_bijection()
            inv_elem = g.inv(e)
            exact = None
            if inv_elem in qa.assignment:
                exact = bij and qa.map_for(inv_elem) == inverse_map(m)
            bijective.append(bij)
            fixpoint_free.append(fixpoint_count(m) == 0)
            inverse_exact.append(exact)
        keyed = [(keys[e], qa.map_for(e)) for e in FiniteSubset(g, [*fset, one])]
        pairwise = [
            similarity_defect(ma, mb).disagreements
            for i, (_, ma) in enumerate(keyed)
            for _, mb in keyed[i + 1 :]
        ]
        strict_checks = StrictChecks(
            n, eps, id_map == ident, tuple(bijective), tuple(fixpoint_free),
            tuple(inverse_exact), tuple(pairwise), tuple(k for k, _ in keyed),
        )

    return VerificationReport(
        carrier_n=n,
        epsilon=eps,
        f_keys=tuple(keys[e] for e in fset),
        a_counts=tuple(a_counts),
        identity_defect=similarity_defect(id_map, ident),
        c_agreements=tuple(agreements),
        product_keys=tuple(product_keys),
        identity_key=keys[one],
        strict=strict_checks,
    )


class CountingTable(TableGroup):
    """A table group that counts the products its id batch forms."""

    products = 0

    def _product_ids(self, support, xs, ys):
        self.products += len(xs)
        return super()._product_ids(support, xs, ys)


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
        assert every_count(fresh) == every_count(expected)
        assert fresh == expected

    def test_chunks_split_as_stated(self, monkeypatch):
        table = np.stack([shift_map(4, k).packed for k in range(5)])
        maps, slot = table_maps(table, (4, None)), (identity_map(4), table)
        rows = np.array([[k, (k + 1) % 5] for k in range(5)])
        expected = [4 - similarity_defect(maps[a], maps[b]).disagreements for a, b in rows]
        seen = []
        real = quasiaction.agreements
        monkeypatch.setattr(quasiaction, "agreements",
                            lambda m, x, y: seen.append(x[0][0].shape) or real(m, x, y))
        monkeypatch.setattr(quasiaction, "POINTS", 8)
        assert quasiaction._agreements(slot, rows).tolist() == expected
        assert seen == [(2, 4), (2, 4), (1, 4)]
        seen.clear()
        monkeypatch.setattr(quasiaction, "POINTS", 3)
        assert quasiaction._agreements(slot, rows).tolist() == expected
        assert seen == [(1, 4)] * 5

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


def first_extreme(counts: tuple, pick: str) -> dict | None:
    """The stored summary of counts by a plain scan: the largest (pick "max")
    or smallest ("min") value and the first position holding it."""
    if not counts:
        return None
    best = sorted(counts)[-1 if pick == "max" else 0]
    return {pick: best, "at": next(i for i, c in enumerate(counts) if c == best)}


def first_failure(flags: tuple) -> int | None:
    return next((i for i, flag in enumerate(flags) if flag is False), None)


class TestStoredSummaries:
    """A certificate stores each count array as its deciding value and that
    value's first position, and each flag array as its first failure; the
    report in memory keeps every count."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(random_actions(), near_regular_actions()), epsilons, st.booleans(),
           st.data())
    def test_positions_name_the_first_extreme(self, qa, epsilon, strict, data):
        f = data.draw(st.none() | st.sets(st.sampled_from(sorted(qa.assignment))))
        r = verify(qa, f, epsilon, strict)
        stored = report_to_json(r)
        assert stored["condition_a"] == first_extreme(r.a_counts, "max")
        assert stored["condition_c"] == first_extreme(r.c_agreements, "max")
        if strict:
            s, summaries = r.strict, stored["strict"]
            assert summaries["pairwise"] == first_extreme(s.pair_counts, "min")
            for flag in ("bijective", "fixpoint_free", "inverse_exact"):
                assert summaries[flag] == first_failure(getattr(s, flag))

    def test_ties_zeros_and_unsupported_inverses(self):
        assert quasiaction._extreme((0, 0, 0)) == {"max": 0, "at": 0}
        assert quasiaction._extreme((1, 3, 0, 3)) == {"max": 3, "at": 1}
        assert quasiaction._extreme((4, 2, 2, 5), min) == {"min": 2, "at": 1}
        assert quasiaction._extreme(()) is None
        # A flag fails where it is False; None (an unsupported inverse) is no failure.
        r = verify(regular_c4(), strict=True)
        flags = {"bijective": (True, False, False), "fixpoint_free": (True, True, True),
                 "inverse_exact": (None, True, False)}
        stored = report_to_json(replace(r, strict=replace(r.strict, **flags)))["strict"]
        assert {k: stored[k] for k in flags} == {
            "bijective": 1, "fixpoint_free": None, "inverse_exact": 2}

    def test_empty_arrays_are_null(self):
        # F = {1} in the trivial group: no element of F but the identity, and
        # one element of F and the identity, so no pairwise count.
        g = TableGroup([[0]])
        qa = QuasiAction(g, 3, {0: identity_map(3)}, FiniteSubset(g, [0]), Fraction(1, 5))
        cert = emit_certificate(qa, verify(qa, strict=True))
        report = json.loads(cert)["report"]
        assert report["condition_a"] == {"max": 0, "at": 0}
        assert report["condition_c"] is None and report["strict"]["pairwise"] is None
        assert report["strict"]["bijective"] is None  # no element but the identity
        assert emit_certificate(*load_certificate(cert)) == cert
        with pytest.raises(InvariantViolationError, match=re.escape(
                "certificate field 'report.condition_c' states {\"at\":0,\"max\":0}, "
                "where format 12 writes null")):
            load_certificate(edited(cert, ("report", "condition_c"), {"max": 0, "at": 0}))
        # An empty F stores no condition (a) count either.
        qa = QuasiAction(g, 3, {0: identity_map(3)}, FiniteSubset(g, []), Fraction(1, 5))
        cert = emit_certificate(qa, verify(qa))
        assert json.loads(cert)["report"]["condition_a"] is None
        assert emit_certificate(*load_certificate(cert)) == cert


class TestCertificateCodec:
    @settings(max_examples=60, deadline=None)
    @given(random_actions(), st.booleans())
    def test_emit_load_emit_identical(self, qa, strict):
        report = verify(qa, strict=strict)
        cert = emit_certificate(qa, report)
        qa2, r2 = load_certificate(cert)
        assert all(qa2.assignment[k] == m for k, m in qa.assignment.items())
        assert emit_certificate(qa2, r2) == cert
        # The loaded report keeps every count the certificate summarises.
        assert r2 == report and every_count(r2) == every_count(report)

    @pytest.mark.parametrize("fmt", [None, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    def test_other_formats_refused(self, fmt):
        # Only format 12 is read.  No "format" key is format 1, whose maps
        # were plain lists of integers.
        qa = regular_c4()
        doc = json.loads(emit_certificate(qa, verify(qa)))
        if fmt is None:
            del doc["format"]
            doc["assignment"] = {
                qa.owner.element_key(e): m.points().tolist() for e, m in qa.assignment.items()
            }
        else:
            doc["format"] = fmt
        with pytest.raises(DomainError, match=f"certificate format {fmt or 1} is not read"):
            load_certificate(json.dumps(doc))

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(random_actions(), near_regular_actions()), epsilons, st.booleans(), st.data()
    )
    def test_loads_only_the_report_its_maps_give(self, qa, epsilon, strict, data):
        # Store the report of a perturbed copy beside qa's own maps.
        elem = data.draw(st.sampled_from(sorted(qa.assignment)))
        images = qa.map_for(elem).points().tolist()
        points = st.integers(0, qa.carrier_n - 1)
        images[data.draw(points)] = data.draw(points)
        stored = verify(with_map(qa, elem, FiniteMap(images)), epsilon=epsilon, strict=strict)
        fresh = verify(qa, epsilon=epsilon, strict=strict)
        cert = emit_certificate(qa, stored)
        # A certificate stores report_to_json's summary, so a perturbation that
        # leaves every summary entry as it was writes qa's own certificate.
        if canonical_json(report_to_json(stored)) == canonical_json(report_to_json(fresh)):
            assert cert == emit_certificate(qa, fresh)
            _, loaded = load_certificate(cert)
            assert loaded == fresh and every_count(loaded) == every_count(fresh)
        else:
            with pytest.raises(InvariantViolationError):
                load_certificate(cert)

    def test_invalid_base64(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        bad = with_edit(cert, lambda d: d["slots"][0].update(images="AQAAAA!="))
        with pytest.raises(InvariantViolationError, match="slot 0 images is not valid base64"):
            load_certificate(bad)

    def test_wrong_byte_length(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        with pytest.raises(InvariantViolationError,
                           match="slot 0 images has 15 bytes, expected 16"):
            load_certificate(with_edit(cert, lambda d: (
                d["slots"][0].update(images=encode(slot_rows(d, 0)[0].ravel()[:-1], 4)))))

    def test_stated_sha256_refused(self):
        # Format 11 stated one per slot; format 12 states none.
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        digest = hashlib.sha256(base64.b64decode(json.loads(cert)["slots"][0]["images"])).hexdigest()
        bad = with_edit(cert, lambda d: d["slots"][0].update(sha256=digest))
        with pytest.raises(InvariantViolationError, match=re.escape(
                "certificate field 'slots[0].sha256' is not written by format 12")):
            load_certificate(bad)

    def test_flipped_payload(self):
        # Swap two images of map "1": still an in-range map, still valid
        # base64 of the right length, but no longer the bytes that were written;
        # the report measured again on it is the first difference.
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        doc = json.loads(cert)
        images, _ = slot_rows(doc, 0)
        images[1, [0, 1]] = images[1, [1, 0]]
        FiniteMap(images[1])  # the tampered row is a valid map on its own
        doc["slots"][0]["images"] = encode(images, 4)
        with pytest.raises(InvariantViolationError, match=re.escape(
                "certificate field 'report.a_pass' states true, where format 12 writes false")):
            load_certificate(json.dumps(doc))

    def test_rehashed_out_of_range_payload(self):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        with pytest.raises(DomainError, match=re.escape(
                "field 'slots': slot 0 images: 4 at [1, 3] is not below 4")):
            load_certificate(with_row(cert, "1", [0, 1, 2, 4]))

    # The C4 table is one row per map, the assignment [[0], [1], [2], [3]] over keys "0".."3".
    @pytest.mark.parametrize("edit,error,message", [
        (lambda d: set_slot_rows(d, 0, slot_rows(d, 0)[0][[0, 1, 2, 2]]),
         InvariantViolationError, "slot 0 row 3 repeats row 2"),
        (lambda d: set_slot_rows(d, 0, np.vstack([slot_rows(d, 0)[0], [[1, 0, 3, 2]]])),
         InvariantViolationError, "certificate field 'slots[0].images'"),
        (lambda d: (set_slot_rows(d, 0, np.insert(slot_rows(d, 0)[0], 1, [1, 0, 3, 2], axis=0)),
                    set_assignment(d, {"0": [0], "1": [2], "2": [3], "3": [4]})),
         InvariantViolationError, "certificate field 'assignment.index'"),
        (lambda d: set_slot_rows(d, 0, slot_rows(d, 0)[0] + [[0, 0, 0, 0], [0, 0, 0, 0],
                                                            [0, 5, 0, 0], [4, 0, 0, 0]]),
         DomainError, "field 'slots': slot 0 images: 8 at [2, 1] is not below 4"),
        (lambda d: set_assignment(d, dict(assignment(d), **{"2": [4]})),
         DomainError, "field 'assignment': assignment index: 4 at [2, 0] is not below 4"),
        (lambda d: d["assignment"].update(index=encode([0, 1, 2], 4)),
         InvariantViolationError, "assignment index has 3 bytes, expected 4"),
        (lambda d: set_assignment(d, dict(assignment(d), **{"1": [2], "2": [1]})),
         InvariantViolationError, "certificate field 'assignment.index'"),
        (lambda d: set_slot_rows(d, 0, np.zeros((0, 4), int)),
         DomainError, "field 'assignment': assignment index: 0 at [0, 0] is not below 0"),
    ], ids=["repeated_row", "unused_row", "unused_row_mid_table", "image_past_cells",
            "index_past_table", "short_index", "out_of_first_use_order", "empty_table"])
    def test_table_and_index_refusals_name_the_first_bad_value(self, edit, error, message):
        qa = regular_c4()
        with pytest.raises(error, match=re.escape(message)):
            load_certificate(with_edit(emit_certificate(qa, verify(qa)), edit))

    def test_rows_whose_fingerprints_meet_are_compared_exactly(self):
        check_rows_compared_exactly(quasiaction._table_from_json)

    def test_the_exact_comparison_refuses_a_loader_that_trusts_fingerprints(self):
        with pytest.raises(InvariantViolationError, match="slot 0 row 1 repeats row 0"):
            check_rows_compared_exactly(table_from_json_trusting_fingerprints)


def check_rows_compared_exactly(table_from_json):
    """With table_from_json as the slot loader and an all-zero fingerprint
    for every row, distinct rows still load, and a repeat is named by its
    first equal row."""
    zeros = lambda rows: np.zeros(len(rows), np.uint64)
    with mock.patch.object(girth, "_row_hashes", zeros), \
            mock.patch.object(quasiaction, "_table_from_json", table_from_json):
        qa = regular_c4()
        cert = emit_certificate(qa, verify(qa))
        assert emit_certificate(*load_certificate(cert)) == cert
        with pytest.raises(InvariantViolationError, match="slot 0 row 3 repeats row 1"):
            load_certificate(with_edit(cert, lambda d: (
                set_slot_rows(d, 0, slot_rows(d, 0)[0][[0, 1, 2, 1]]),
                set_assignment(d, {"0": [0], "1": [1], "2": [2], "3": [3]}))))


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
        assert pad.points().tolist()[:4] == [1, 0, 3, 2]
        from quasiact import compose, fixpoint_count, identity_map as idm

        assert compose(pad, pad) == idm(12)
        assert fixpoint_count(pad) == 0

    def test_padding_odd(self):
        g = TableGroup([[0]])
        qa = QuasiAction(g, 5, {0: identity_map(5)}, FiniteSubset(g, [0]), Fraction(1, 2))
        out = extend_assignment(qa, [])
        assert out.assignment[0] == identity_map(5)

    @pytest.mark.parametrize("eps,named", [
        (0.1, "float"), ("1/10", "str"), (True, "bool"), (Decimal("0.1"), "Decimal"),
    ])
    def test_epsilon_must_be_exact(self, eps, named):
        with pytest.raises(DomainError, match=f"exact Fraction, got {named}"):
            check_epsilon(eps)
        with pytest.raises(DomainError, match=named):
            verify(regular_c4(), epsilon=eps)

    def test_exact_epsilons_accepted(self):
        assert check_epsilon(Fraction(1, 10)) == Fraction(1, 10)
        with pytest.raises(DomainError, match="lie in"):
            check_epsilon(1)

    def test_epsilon_range_validated(self):
        g = TableGroup([[0]])
        with pytest.raises(DomainError):
            QuasiAction(g, 2, {0: identity_map(2)}, FiniteSubset(g, [0]), Fraction(3, 2))
