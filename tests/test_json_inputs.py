"""Every JSON input either decodes in full or is refused with a named error.

Each example takes a certificate (format 7: dense, fibered, or a product
with a dense and a fibered slot), a girth witness or one of the README's
construction requests, and either deletes one key or replaces one value (a
leaf or a container) with a value of another JSON type.  Then exactly one of these holds: the document loads
or builds (and a certificate or witness re-emits the mutated document
exactly, compared as canonical JSON), or decoding raises a QuasiactError
and the command line exits 2.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quasiact import cyclic_group, emit_certificate, load_certificate, verify
from quasiact.cli import main
from quasiact.constructions import (
    build_free_product_action,
    cyclic_quasi_action,
    direct_product_qa,
    girth_group_search,
    load_girth_witness,
    regular_action,
)
from quasiact.errors import QuasiactError
from quasiact.util import canonical_json

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_requests() -> list:
    """The request examples in the README's "Construction requests" block."""
    text = README.read_text().split("Construction requests are JSON documents", 1)[1]
    block = text.split("```json", 1)[1].split("```", 1)[0]
    return [json.loads(chunk) for chunk in block.strip().split("\n\n")]


def c4_certificate() -> str:
    qa = regular_action(cyclic_group(4), epsilon=Fraction(1, 100))
    return emit_certificate(qa, verify(qa))


def free_product_certificate() -> str:
    qa, _ = build_free_product_action(
        cyclic_group(2), cyclic_group(2), [0, 1], [0, 1], 1, Fraction(1, 10)
    )
    return emit_certificate(qa, verify(qa))


def product_certificate() -> str:
    fp, _ = build_free_product_action(
        cyclic_group(2), cyclic_group(2), [0, 1], [0, 1], 1, Fraction(1, 10)
    )
    c5 = cyclic_quasi_action([1], 5, Fraction(1, 10))
    qa = direct_product_qa([(c5, c5.claimed_f), (fp, fp.claimed_f)], Fraction(1, 10))
    return emit_certificate(qa, verify(qa))


def witness() -> str:
    return girth_group_search(2, 2, order_cap=500, seed=0).to_witness_json()


def paths(doc, prefix=()):
    """The path of every value in doc, doc itself first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
)


def mutated(data, doc):
    """doc with one key deleted or one value replaced by another JSON type."""
    doc = json.loads(json.dumps(doc))
    objects = [p for p in paths(doc) if isinstance(at(doc, p), dict) and at(doc, p)]
    if data.draw(st.booleans(), label="delete") and objects:
        parent = at(doc, data.draw(st.sampled_from(objects), label="object"))
        del parent[data.draw(st.sampled_from(sorted(parent)), label="key")]
        return doc
    path = data.draw(st.sampled_from(list(paths(doc))), label="path")
    old = at(doc, path)
    new = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)), label="new")
    if not path:
        return new
    at(doc, path[:-1])[path[-1]] = new
    return doc


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize(
    "make", [c4_certificate, free_product_certificate, product_certificate],
    ids=["dense", "fibered", "product"],
)
@SETTINGS
@given(data=st.data())
def test_certificate_loads_exactly_or_exits_two(tmp_path, make, data):
    original = json.loads(make())
    doc = mutated(data, original)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    try:
        qa, report = load_certificate(path.read_text())
    except QuasiactError:
        epsilon = original["report"]["epsilon"]
        assert main(["verify", "--qa", str(path), "--epsilon", epsilon]) == 2
    else:
        assert canonical_json(json.loads(emit_certificate(qa, report))) == canonical_json(doc)


@SETTINGS
@given(data=st.data())
def test_witness_loads_exactly_or_is_refused(data):
    doc = mutated(data, json.loads(witness()))
    try:
        group = load_girth_witness(json.dumps(doc))
    except QuasiactError:
        return
    assert canonical_json(json.loads(group.to_witness_json())) == canonical_json(doc)


@pytest.mark.parametrize("request_doc", readme_requests(), ids=lambda r: r["construct"])
@SETTINGS
@given(data=st.data())
def test_request_builds_or_exits_two(tmp_path, request_doc, data):
    req = tmp_path / "request.json"
    req.write_text(json.dumps(mutated(data, request_doc)))
    out = tmp_path / "out.json"
    out.unlink(missing_ok=True)
    code = main(["construct", "--request", str(req), "--out", str(out)])
    assert (code == 2) != out.exists()


def test_readme_requests_build(tmp_path):
    kinds = []
    for request_doc in readme_requests():
        req = tmp_path / "request.json"
        req.write_text(json.dumps(request_doc))
        assert main(["construct", "--request", str(req), "--out", str(tmp_path / "o.json")]) == 0
        kinds.append(request_doc["construct"])
    assert len(kinds) >= 6
