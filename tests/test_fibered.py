"""Fibered maps against their dense forms, fibered certificates, and the
free product built from them."""

import base64
import dataclasses
import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiact import (
    FiniteSubset,
    QuasiAction,
    compose,
    cyclic_group,
    emit_certificate,
    fixpoint_count,
    identity_map,
    inverse_map,
    load_certificate,
    similarity_defect,
    verify,
)
from quasiact.cli import main
from quasiact.constructions import (
    build_free_product_action,
    cyclic_quasi_action,
    direct_product_qa,
    good_action_upgrade,
    load_girth_witness,
    transport_qa,
)
from quasiact.errors import (
    CarrierMismatchError,
    DomainError,
    InvariantViolationError,
    PreconditionError,
)
from quasiact.finmap import Fiber, FiniteMap, identity_like
from quasiact.util import canonical_json

from dense_carrier import cayley_closure, densify, densify_action
from test_finmap import double, fixpoint_set
from test_freeproduct import multiplicativity_case

from certificate_tables import assignment, every_count, raw, set_slot_rows, slot_rows

C2 = {"kind": "finite", "table": [[0, 1], [1, 0]]}
C3 = {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
EPS = Fraction(1, 10)

# Small groups V, each by generators: S3, A4 and Z/5.
SMALL_FIBERS = [
    ((1, 0, 2), (0, 2, 1)),
    ((1, 2, 0, 3), (0, 2, 3, 1)),
    ((1, 2, 3, 4, 0),),
]


def closure_of(fiber: Fiber):
    return cayley_closure(fiber.generators, fiber.order + 1)[0]


@st.composite
def fibered_maps(draw, count, fiber_index=None):
    """count fibered maps on one carrier: random cell maps, labels random
    words in a small V."""
    gens = SMALL_FIBERS[draw(st.sampled_from(range(len(SMALL_FIBERS))))
                        if fiber_index is None else fiber_index]
    elements = cayley_closure(gens, 100)[0]
    fiber = Fiber(gens)
    cells = draw(st.integers(1, 5))
    bijective = draw(st.booleans())

    def one():
        if bijective:
            images = draw(st.permutations(range(cells)))
        else:
            images = draw(st.lists(st.integers(0, cells - 1), min_size=cells, max_size=cells))
        labels = []
        for _ in range(cells):
            word = tuple(range(fiber.degree))
            for j in draw(st.lists(st.integers(0, 2 * len(gens) - 1), max_size=4)):
                g = gens[j // 2] if j % 2 == 0 else tuple(np.argsort(gens[j // 2]))
                word = tuple(g[x] for x in word)
            labels.append(word)
        return FiniteMap(images, labels, fiber)

    return [one() for _ in range(count)], elements


class TestFiberedMapsAgainstDenseForms:
    @settings(max_examples=150, deadline=None)
    @given(fibered_maps(2))
    def test_every_operation_matches_its_dense_form(self, drawn):
        (e, f), elements = drawn
        de, df = densify(e, elements), densify(f, elements)
        assert e.n == de.n == e.images.size * len(elements)
        assert densify(compose(e, f), elements) == compose(de, df)
        assert similarity_defect(e, f) == similarity_defect(de, df)
        assert fixpoint_count(e) == fixpoint_count(de)
        assert e.is_bijection() == de.is_bijection()
        assert densify(identity_like(e), elements) == identity_map(e.n)
        if e.is_bijection():
            assert densify(inverse_map(e), elements) == inverse_map(de)
        else:
            with pytest.raises(DomainError):
                inverse_map(e)

    @settings(max_examples=60, deadline=None)
    @given(fibered_maps(3), st.booleans(), st.sampled_from([Fraction(1, 10), Fraction(1, 2)]))
    def test_verify_matches_dense_verify(self, drawn, strict, epsilon):
        maps, elements = drawn
        g = cyclic_group(3)
        qa = QuasiAction(g, maps[0].n, dict(enumerate(maps)), FiniteSubset(g, range(3)), epsilon)
        fresh = every_count(verify(qa, strict=strict))
        assert fresh == every_count(verify(densify_action(qa, elements), strict=strict))

    @settings(max_examples=60, deadline=None)
    @given(fibered_maps(3), st.booleans())
    def test_emit_load_emit_identical(self, drawn, strict):
        maps, _ = drawn
        g = cyclic_group(3)
        qa = QuasiAction(g, maps[0].n, dict(enumerate(maps)), FiniteSubset(g, range(3)), EPS)
        cert = emit_certificate(qa, verify(qa, strict=strict))
        qa2, r2 = load_certificate(cert)
        assert qa2.assignment == qa.assignment
        assert emit_certificate(qa2, r2) == cert

    def test_maps_on_different_fibers_do_not_mix(self):
        s3, z5 = map(Fiber, SMALL_FIBERS[::2])
        e = identity_like(FiniteMap([0] * 5, [tuple(range(3))] * 5, s3))
        f = FiniteMap([0] * 6, [tuple(range(5))] * 6, z5)
        assert e.n == f.n == 30
        for op in (compose, similarity_defect):
            with pytest.raises(CarrierMismatchError):
                op(e, f)
            with pytest.raises(CarrierMismatchError):
                op(identity_map(30), f)
        g = cyclic_group(2)
        with pytest.raises(DomainError, match="one fiber"):
            QuasiAction(g, 30, {0: e, 1: f}, FiniteSubset(g, [0]), EPS)

    @pytest.mark.parametrize("labels", [[[0, 1, 1]], [[0, 1]], [[0, 1, 3]]])
    def test_labels_must_be_permutations_of_the_degree(self, labels):
        with pytest.raises(DomainError):
            FiniteMap([0], labels, Fiber(SMALL_FIBERS[0]))

    def test_one_class_for_both_kinds(self):
        # A dense map is the trivial-fiber case: labels of shape (n, 0).
        dense = FiniteMap([1, 0])
        [slot] = dense.slots
        assert slot.fiber is None and slot.labels.shape == (2, 0)
        assert FiniteMap([1, 0], np.zeros((2, 0), dtype=int)) == dense
        with pytest.raises(DomainError, match="shape"):
            FiniteMap([1, 0], [[0], [0]])
        fibered = FiniteMap([1, 0], [(1, 0, 2), (0, 2, 1)], Fiber(SMALL_FIBERS[0]))
        assert fibered != FiniteMap([1, 0]) and fibered.n == 12
        for op in (FiniteMap.points, fixpoint_set, double):
            with pytest.raises(DomainError, match="no list of points"):
                op(fibered)

    def test_non_permutation_generators_refused(self):
        with pytest.raises(DomainError):
            Fiber(((0, 0, 1),))


def free_product(left, right, f_left, f_right, n, seed):
    return build_free_product_action(
        cyclic_group(left), cyclic_group(right), f_left, f_right, n, EPS, seed=seed
    )


PAIRS = {"C2*C2": (2, 2, [0, 1], [0, 1]), "C2*C3": (2, 3, [0, 1], [0, 1, 2])}


class TestFreeProductAgainstDenseCarrier:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_reports_equal_the_dense_reports(self, pair, n, seed):
        qa, pc = free_product(*PAIRS[pair], n, seed)
        assert qa.carrier_n == pc.size
        dense = densify_action(qa, closure_of(pc.v.fiber))
        for strict in (False, True):
            fibered = every_count(verify(qa, strict=strict))
            assert fibered == every_count(verify(dense, strict=strict))

    @pytest.mark.parametrize("pair,n", [("C2*C2", 1), ("C2*C3", 1), ("C2*C2", 2)])
    def test_dense_certificate_loads(self, pair, n):
        # The action's dense form writes its images under a null fiber and
        # no label fields; it loads, measures the same report, and writes
        # itself.
        qa, pc = free_product(*PAIRS[pair], n, 0)
        dense = densify_action(qa, closure_of(pc.v.fiber))
        text = emit_certificate(dense, verify(dense, strict=True))
        doc = json.loads(text)
        [slot] = doc["slots"]
        assert doc["format"] == 13 and (slot["cells"], slot["fiber"]) == (qa.carrier_n, None)
        assert set(slot) == {"cells", "fiber", "maps", "images"}
        loaded, report = load_certificate(text)
        assert report == verify(qa, strict=True)
        assert emit_certificate(loaded, report) == text

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_construction_claims(self, pair, n, seed):
        # Cases 1 and 2 of the multiplication are exact; case 3 is within
        # epsilon (the factor actions' own defect).
        qa, _ = free_product(*PAIRS[pair], n, seed)
        fp = qa.owner
        key = fp.element_key
        defects = {(p.left_key, p.right_key): p.defect for p in verify(qa).pair_defects}
        assert len(defects) == len(qa.claimed_f) ** 2
        for u in qa.claimed_f:
            for v in qa.claimed_f:
                d = defects[key(u), key(v)]
                if multiplicativity_case(u, v, fp) in (1, 2):
                    assert d.disagreements == 0
                else:
                    assert d.is_similar(EPS)


def assert_exact_cases(qa):
    """Read the (a) matrix: pairs in multiplication case 1 or 2 count 0, and
    case-3 pairs at most epsilon*n."""
    report = verify(qa)
    f = list(qa.claimed_f)
    assert report.f_keys == tuple(map(qa.owner.element_key, f))
    limit = EPS * qa.carrier_n
    for (u, v), count in zip(itertools.product(f, repeat=2), report.a_counts, strict=True):
        if multiplicativity_case(u, v, qa.owner) in (1, 2):
            assert count == 0
        else:
            assert count <= limit


class TestFreeProductExactCases:
    @settings(max_examples=24, deadline=None)
    @given(st.integers(0, 3), st.sets(st.sampled_from(range(2))),
           st.sets(st.sampled_from(range(3))))
    def test_bound_one(self, seed, f_left, f_right):
        assert_exact_cases(free_product(2, 3, sorted(f_left), sorted(f_right), 1, seed)[0])

    def test_bound_two(self):
        assert_exact_cases(free_product(2, 3, [0, 1], [0, 1, 2], 2, 1)[0])


@pytest.fixture(scope="module")
def c2_c2_certificate():
    qa, _ = free_product(2, 2, [0, 1], [0, 1], 1, 0)
    return emit_certificate(qa, verify(qa))


# The C2 x C2 certificate's slot is a table of 8 rows of 16 cells over a
# degree-5 V whose 128 cells take 10 distinct labels: its images, labels and
# label_index payloads are uint8, 128, 50 and 128 bytes.
def tampered(text, change):
    doc = json.loads(text)
    key = next(k for k in doc["F"] if k != "[[0,0]]")
    change(doc, key, doc["slots"][0]["fiber"]["degree"])
    return json.dumps(doc)


def edit_row(doc, key, edit):
    """Rewrite the table with edit(images, labels, i) applied, i being key's row."""
    images, labels = slot_rows(doc, 0)
    edit(images, labels, assignment(doc)[key][0])
    set_slot_rows(doc, 0, images, labels)


def label_outside_v(doc, key, degree):
    # V is generated by even permutations
    edit_row(doc, key, lambda images, labels, i: labels[i].__setitem__(0, [1, 0, *range(2, degree)]))


def cell_out_of_range(doc, key, degree):
    edit_row(doc, key, lambda images, labels, i: images[i].__setitem__(0, images.shape[1]))


def labels_short(doc, key, degree):
    slot = doc["slots"][0]
    slot["labels"] = base64.b64encode(raw(slot, "labels")[:-degree]).decode()


def hash_mismatch(doc, key, degree):  # format 11 stated one sha256 per slot
    doc["slots"][0]["sha256"] = hashlib.sha256(b"").hexdigest()


def order_inflated(doc, key, degree):
    doc["slots"][0]["fiber"]["order"] *= 2


def cells_doubled(doc, key, degree):
    doc["slots"][0]["cells"] *= 2


def generator_not_a_permutation(doc, key, degree):
    doc["slots"][0]["fiber"]["generators"][0] = [0] * degree


def generators_of_other_degree(doc, key, degree):
    doc["slots"][0]["fiber"]["degree"] = degree + 1


REFUSALS = [
    (label_outside_v, InvariantViolationError, "slot 0 labels: label [1, 0, 2, 3, 4] is not in V"),
    (cell_out_of_range, DomainError, "field 'slots': slot 0 images: 16 at ["),
    (labels_short, InvariantViolationError, "slot 0 labels has 45 bytes, expected 50"),
    (hash_mismatch, InvariantViolationError,
     "certificate field 'slots[0].sha256' is not written by format 13"),
    (order_inflated, InvariantViolationError,
     "certificate field 'slots[0].fiber.order' states 120, where format 13 writes 60"),
    (cells_doubled, InvariantViolationError, "slot 0 images has 128 bytes, expected 256"),
    (generator_not_a_permutation, DomainError, "permutations"),
    (generators_of_other_degree, InvariantViolationError,
     "certificate field 'slots[0].fiber.degree' states 6, where format 13 writes 5"),
]


class TestFiberedCertificates:
    def test_round_trip_is_byte_identical(self, c2_c2_certificate):
        qa, report = load_certificate(c2_c2_certificate)
        assert emit_certificate(qa, report) == c2_c2_certificate
        doc = json.loads(c2_c2_certificate)
        assert doc["format"] == 13 and "carrier_n" not in doc
        [slot] = doc["slots"]
        assert set(slot) == {"cells", "fiber", "maps", "images", "label_count", "labels",
                             "label_index"}
        assert slot["cells"] == 16 and set(slot["fiber"]) == {"degree", "generators", "order"}
        assert qa.carrier_n == 16 * slot["fiber"]["order"] == doc["report"]["carrier_n"]
        assert sorted(i for [i] in assignment(doc).values()) == list(range(slot["maps"]))
        assert [len(raw(slot, k)) for k in ("images", "labels", "label_index")] == [
            8 * 16, slot["label_count"] * 5, 8 * 16]
        assert slot["label_count"] == 10

    @pytest.mark.parametrize("change,error,message", REFUSALS, ids=[r[0].__name__ for r in REFUSALS])
    def test_loader_refuses(self, c2_c2_certificate, tmp_path, capsys, change, error, message):
        text = tampered(c2_c2_certificate, change)
        with pytest.raises(error, match=re.escape(message)):
            load_certificate(text)
        path = tmp_path / "tampered.json"
        path.write_text(text)
        assert main(["verify", "--qa", str(path), "--epsilon", "1/10"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_of_two_labels_outside_v_the_smaller_is_named(self, c2_c2_certificate):
        # The distinct labels are tested against V in one batch; the error
        # names the first failing label in sorted order, not the first met.
        def two_outside_v(images, labels, i):
            labels[i, 0], labels[i, 1] = [1, 0, 2, 3, 4], [0, 1, 2, 4, 3]

        text = tampered(c2_c2_certificate, lambda doc, key, degree: edit_row(doc, key, two_outside_v))
        with pytest.raises(InvariantViolationError) as caught:
            load_certificate(text)
        assert str(caught.value) == ("field 'slots': slot 0 labels: label [0, 1, 2, 4, 3] is not "
                                     "in V: a map leaves the carrier")

    @pytest.mark.parametrize("fmt", [3, 4, 5, 6, 9, 10, 11, 12])
    def test_other_format_refused(self, c2_c2_certificate, fmt):
        doc = json.loads(c2_c2_certificate)
        doc["format"] = fmt
        with pytest.raises(DomainError, match=f"certificate format {fmt} is not read"):
            load_certificate(json.dumps(doc))


def v_order_inflated(v):
    v["order"] += 1


def v_generator_not_a_permutation(v):
    v["generators"][0][1] = v["generators"][0][0]


def v_generator_short(v):
    v["generators"][0].pop()


def v_float_image(v):
    v["generators"][0][0] = float(v["generators"][0][0])


V_FORGERIES = [
    (v_order_inflated, InvariantViolationError,
     "girth witness field 'order' states 61, where to_witness_json writes 60"),
    (v_generator_not_a_permutation, DomainError, "permutations of one degree"),
    (v_generator_short, DomainError, "permutations of one degree"),
    (v_float_image, DomainError, "expected an integer"),
]


class TestOneReaderOfV:
    """A girth witness and a certificate's fibered slot state V alike, and
    girth.fiber_from_json reads both: the same forgery of V is refused with
    the same error, the certificate's naming its field path.  A stated order
    is the acceptance rule's, which names the whole path in each.  The
    witness is written as to_witness_json writes it."""

    def witness_and_certificate(self, c2_c2_certificate):
        doc = json.loads(c2_c2_certificate)
        # The free product at syllable bound 1 searched V at girth bound 2.
        witness = {**json.loads(json.dumps(doc["slots"][0]["fiber"])), "girth_bound": 2, "seed": 0}
        return witness, doc

    def test_the_slot_reads_as_a_witness(self, c2_c2_certificate):
        witness, _ = self.witness_and_certificate(c2_c2_certificate)
        [(_, fiber)] = load_certificate(c2_c2_certificate)[0].layout
        assert load_girth_witness(canonical_json(witness) + "\n").fiber == fiber

    @pytest.mark.parametrize("forge,error,message", V_FORGERIES, ids=[f[0].__name__ for f in V_FORGERIES])
    def test_same_refusal(self, c2_c2_certificate, forge, error, message):
        witness, doc = self.witness_and_certificate(c2_c2_certificate)
        forge(witness)
        forge(doc["slots"][0]["fiber"])
        with pytest.raises(error, match=message) as from_witness:
            load_girth_witness(canonical_json(witness) + "\n")
        with pytest.raises(error) as from_certificate:
            load_certificate(json.dumps(doc))
        assert type(from_certificate.value) is type(from_witness.value)
        if forge is v_order_inflated:
            expected = str(from_witness.value).replace(
                "girth witness field '", "certificate field 'slots[0].fiber.").replace(
                "to_witness_json", "format 13")
        else:
            expected = "field 'slots': field 'fiber': " + str(from_witness.value)
        assert str(from_certificate.value) == expected


class TestDenseOnlyConstructionsRefuseFiberedActions:
    @pytest.fixture(scope="class")
    def fibered(self):
        return free_product(2, 2, [0, 1], [0, 1], 1, 0)[0]

    def test_library_calls(self, fibered):
        f = fibered.claimed_f
        # The direct product and transport work slot by slot: a fibered
        # factor is accepted, and transport's identity maps are fibered too.
        cyclic = cyclic_quasi_action([1], 5, EPS)
        product = direct_product_qa([(fibered, f), (cyclic, cyclic.claimed_f)], EPS)
        assert product.carrier_n == fibered.carrier_n * 5 and verify(product).passed
        moved = transport_qa(fibered, fibered.owner, f, {})
        assert set(moved.assignment.values()) == {identity_like(fibered.map_for(fibered.owner.identity))}
        with pytest.raises(PreconditionError, match="fibered"):
            good_action_upgrade(fibered, f, EPS)

    def test_amenable_extension(self, fibered):
        from quasiact.constructions import ExtensionData, amenable_extension_qa

        g = cyclic_group(2)
        ext = ExtensionData(
            group=g, quotient=g, project=lambda x: 0,
            section=lambda q: q, folner=FiniteSubset(g, [0]),
        )
        with pytest.raises(PreconditionError, match="fibered"):
            amenable_extension_qa(fibered, ext, [0], EPS)

    def test_product_request_accepts_a_fibered_factor(self, fibered, tmp_path):
        cert = tmp_path / "freeprod.json"
        cert.write_text(emit_certificate(fibered, verify(fibered)))
        request = tmp_path / "request.json"
        request.write_text(json.dumps({
            "construct": "product", "epsilon": "1/10",
            "factors": [{"certificate": str(cert)}, {"cyclic": {"f": [1], "modulus": 5}}],
        }))
        out = tmp_path / "product.json"
        assert main(["construct", "--request", str(request), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [s["fiber"] is None for s in doc["slots"]] == [False, True]
        assert main(["verify", "--qa", str(out), "--epsilon", "1/5", "--strict"]) == 0


def test_syllable_bound_three_through_the_cli(tmp_path):
    request = tmp_path / "request.json"
    request.write_text(json.dumps({
        "construct": "free_product", "epsilon": "1/10", "left_group": C2, "right_group": C3,
        "f_left": [0, 1], "f_right": [0, 1], "syllable_bound": 3, "order_cap": 2_000_000,
    }))
    out = tmp_path / "fp3.json"
    assert main(["construct", "--request", str(request), "--out", str(out)]) == 0
    assert out.stat().st_size < 1_000_000
    assert main(["verify", "--qa", str(out), "--epsilon", "1/10"]) == 0
    qa, report = load_certificate(out.read_text())
    assert qa.carrier_n == 24 * 1_814_400 and report.passed


def symmetric_fiber(degree: int) -> Fiber:
    """S_degree, from a degree-cycle and a transposition."""
    cycle = tuple(range(1, degree)) + (0,)
    swap = (1, 0) + tuple(range(2, degree))
    return Fiber((cycle, swap))


class TestCountsPastInt64:
    """|V| times a cell count passes 2**63 for V = S_20 (20! ~ 2.4e18) at
    four cells and exceeds it for S_21 at once; counts stay exact."""

    CELLS = 8

    def shift_action(self, degree):
        fiber = symmetric_fiber(degree)
        one = np.broadcast_to(np.arange(degree), (self.CELLS, degree))
        shift = FiniteMap((np.arange(self.CELLS) + 1) % self.CELLS, one, fiber)
        g = cyclic_group(2)
        n = self.CELLS * fiber.order
        return QuasiAction(g, n, {0: identity_like(shift), 1: shift}, FiniteSubset(g, [0, 1]), EPS)

    @pytest.mark.parametrize("degree", [20, 21])
    def test_verify_counts_are_exact(self, degree):
        qa = self.shift_action(degree)
        n = qa.carrier_n
        assert n == self.CELLS * math.factorial(degree) and n > 2**63
        report = verify(qa, strict=True)
        # shift o shift moves every cell, so (1, 1) -> 0 differs on all n points.
        assert [p.defect.disagreements for p in report.pair_defects] == [0, 0, 0, n]
        assert report.identity_agreements == (("1", 0),)
        assert [d.disagreements for _, _, d in report.strict.pairwise] == [n]
        assert not report.a_pass

    def test_wrapped_report_is_refused(self):
        qa = self.shift_action(20)
        n = qa.carrier_n
        report = verify(qa)

        def wrap(c):  # the count an int64 product would give
            return (c + 2**63) % 2**64 - 2**63

        forged = dataclasses.replace(report, a_counts=tuple(map(wrap, report.a_counts)))
        assert forged.a_pass and forged.a_counts[-1] < n // 10 < report.a_counts[-1]
        with pytest.raises(InvariantViolationError, match=re.escape(
                "certificate field 'report.a_pass' states true, where format 13 writes false")):
            load_certificate(emit_certificate(qa, forged))
        assert load_certificate(emit_certificate(qa, report))[1] == report
