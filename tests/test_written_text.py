"""The one acceptance rule: a certificate or girth witness loads only if its
text is what the library writes for it.

``load_certificate`` ends by comparing its text with what
``emit_certificate`` writes for the action it states and the report measured
again; ``load_girth_witness`` with ``to_witness_json``.  A difference is
refused naming the first differing JSON path and both values, or, when the
two texts are one document, the first differing character.  The property
below runs over four valid documents and five kinds of change (a key
inserted at a random path, the text re-indented, one object's keys
reordered, the sha256 that format 11 stated added to a slot or the
assignment, a character outside the base64 alphabet inserted into a
payload), derandomized, with one example per kind, so every run tries the
same cases.  A comparison that checked only the report would pass every
change outside it, which the inserted keys and reordered objects reach.
No certificate states a hash, and the loader does not read base64
strictly: every byte and its spelling are this rule's alone.
"""

import functools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quasiact import cyclic_group, emit_certificate, load_certificate, verify
from quasiact.cli import main
from quasiact.constructions import (
    build_free_product_action, cyclic_quasi_action, direct_product_qa, girth_group_search,
    load_girth_witness, regular_action,
)
from quasiact.errors import InvariantViolationError

EPS = Fraction(1, 10)
C2 = {"kind": "finite", "table": [[0, 1], [1, 0]]}


def many_pairs_product() -> str:
    """The many_pairs product: 913 points, 729 maps, a 160-element F."""
    big = [k for i in range(1, 21) for k in (i, -i)]
    factors = [cyclic_quasi_action(big, 83, EPS), cyclic_quasi_action([1, -1, 2, -2], 11, EPS)]
    qa = direct_product_qa([(f, f.claimed_f) for f in factors], EPS)
    return emit_certificate(qa, verify(qa))


def c2_c3_n2() -> str:
    """C2*C3 at syllable bound 2: one slot fibered over V."""
    qa, _ = build_free_product_action(cyclic_group(2), cyclic_group(3), [0, 1], [0, 1], 2, EPS,
                                      seed=0, order_cap=2_000_000)
    return emit_certificate(qa, verify(qa))


def z_times_c2_extension() -> str:
    """The many_pairs extension of Z x C2 at epsilon 1/100, as quasiact construct writes it."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        request, out = Path(d, "request.json"), Path(d, "out.json")
        request.write_text(json.dumps({
            "construct": "extension", "extension_kind": "product_factor", "epsilon": "1/100",
            "quotient": {"kind": "integers"}, "normal": C2,
            "f": [[1, 0], [-1, 0], [0, 1], [1, 1], [-1, 1]]}))
        assert main(["construct", "--request", str(request), "--out", str(out)]) == 0
        return out.read_text()


def girth_witness() -> str:
    return girth_group_search(2, 4, order_cap=5000, seed=1).to_witness_json()


@functools.cache
def document(name: str) -> str:
    return {"many_pairs_product": many_pairs_product, "c2_c3_n2": c2_c3_n2,
            "z_times_c2_extension": z_times_c2_extension, "girth_witness": girth_witness}[name]()


NAMES = ["many_pairs_product", "c2_c3_n2", "z_times_c2_extension", "girth_witness"]


def what(name: str) -> str:
    return "girth witness" if name == "girth_witness" else "certificate"


def load(name: str, text: str):
    return (load_girth_witness if name == "girth_witness" else load_certificate)(text)


def objects(doc, path: str = "") -> list:
    """Every JSON object in doc, with its path as the loader names it."""
    found = [(path, doc)] if isinstance(doc, dict) else []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        found += objects(v, f"{path}[{k}]" if isinstance(doc, list) else f"{path}.{k}" if path else k)
    return found


def compact(doc) -> str:
    """doc's compact JSON in its own key order, as a writer spells a document."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


PAYLOADS = ("images", "labels", "label_index", "index")


def format_11_sha256(part: dict) -> str:
    """The sha256 format 11 stated in a slot or the assignment: over its
    payloads' bytes in written order."""
    import base64
    import hashlib

    return hashlib.sha256(b"".join(base64.b64decode(part[k]) for k in PAYLOADS if k in part)).hexdigest()


def inserted(payload: str, at: int, char: str = "!") -> str:
    """payload with char, outside the base64 alphabet, inserted at `at`: the
    lenient decoder skips it, so it decodes to the same bytes."""
    return payload[:at] + char + payload[at:]


def changed(text: str, kind: str, rng: random.Random) -> tuple[str, str]:
    """text changed by kind, and the start of the refusal that must name it."""
    doc = json.loads(text)
    if kind == "indent":
        return json.dumps(doc, indent=rng.randint(0, 4)) + "\n", "text differs from what"
    if kind == "sha256":
        path, obj = rng.choice([(p, o) for p, o in objects(doc) if any(k in o for k in PAYLOADS)])
        obj["sha256"] = format_11_sha256(obj)
        return compact(doc), f"field '{path}.sha256' is not written by"
    if kind == "alphabet":
        path, obj, key = rng.choice([(p, o, k) for p, o in objects(doc) for k in PAYLOADS if k in o])
        obj[key] = inserted(obj[key], rng.randint(0, len(obj[key])), rng.choice("!*.-_ \n"))
        return compact(doc), f"field '{path}.{key}' states "
    path, obj = rng.choice([(p, o) for p, o in objects(doc) if kind == "insert" or len(o) > 1])
    items = list(obj.items())
    if kind == "insert":
        key = "note" if "note" not in obj else "note_"
        items.insert(rng.randint(0, len(items)), (key, rng.choice([0, None, "x", [], {}])))
        message = f"field {f'{path}.{key}' if path else key!r} is not written by"
    else:
        while [k for k, _ in items] == sorted(obj):
            rng.shuffle(items)
        message = f"field {path!r} states its keys as" if path else "top level states its keys as"
    obj.clear()
    obj.update(items)
    return compact(doc), message


@pytest.mark.parametrize("name", NAMES)
def test_the_untouched_text_loads_and_is_written_again(name):
    text = document(name)
    loaded = load(name, text)
    again = loaded.to_witness_json() if name == "girth_witness" else emit_certificate(*loaded)
    assert again == text == compact(json.loads(text))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(NAMES),
       kind=st.sampled_from(["insert", "indent", "reorder", "sha256", "alphabet"]),
       seed=st.integers(0, 2**32 - 1))
@example(name="many_pairs_product", kind="insert", seed=0)
@example(name="c2_c3_n2", kind="indent", seed=0)
@example(name="z_times_c2_extension", kind="reorder", seed=0)
@example(name="girth_witness", kind="reorder", seed=1)
@example(name="c2_c3_n2", kind="sha256", seed=0)
@example(name="many_pairs_product", kind="alphabet", seed=0)
def test_a_changed_text_is_refused_by_name(name, kind, seed):
    assume(name != "girth_witness" or kind not in ("sha256", "alphabet"))  # it has no payloads
    text, message = changed(document(name), kind, random.Random(seed))
    with pytest.raises(InvariantViolationError) as caught:
        load(name, text)
    assert str(caught.value).startswith(f"{what(name)} {message}")


def respelled_base64(payload: str) -> str:
    """payload, which ends in "=", with its padding bits changed: another
    spelling that decodes to the same bytes."""
    pad = len(payload) - len(payload.rstrip("="))
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    last = len(payload) - pad - 1
    value = alphabet.index(payload[last]) ^ 3  # within the 2 (pad 1) or 4 (pad 2) unused bits
    return payload[:last] + alphabet[value] + payload[last + 1 :]


def with_top(text: str, **fields) -> str:
    return compact({**json.loads(text), **fields})


def edited(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return compact(doc)


def regular_c4() -> str:
    qa = regular_action(cyclic_group(4), epsilon=Fraction(1, 100))
    return emit_certificate(qa, verify(qa))


def reordered(doc: dict) -> dict:
    return dict(reversed(doc.items()))


CASES = [
    # The copy with a stale carrier and a note that format 10 loaded and wrote without them.
    ("c4_carrier_and_note", lambda: with_top(regular_c4(), carrier_n=5, note="x"),
     "certificate field 'carrier_n' is not written by format 13"),
    ("slot_key", lambda: edited(document("c2_c3_n2"), lambda d: d["slots"][0].update(note=0)),
     "certificate field 'slots[0].note' is not written by format 13"),
    ("fiber_key", lambda: edited(document("c2_c3_n2"),
                                 lambda d: d["slots"][0]["fiber"].update(note=0)),
     "certificate field 'slots[0].fiber.note' is not written by format 13"),
    ("indented", lambda: json.dumps(json.loads(document("many_pairs_product")), indent=1) + "\n",
     "certificate text differs from what format 13 writes at character 1: "),
    ("reordered", lambda: compact(reordered(json.loads(document("many_pairs_product")))),
     "certificate top level states its keys as ['slots', 'report', 'group', "),
    ("crlf", lambda: document("many_pairs_product")[:-1] + "\r\n",
     "certificate text differs from what format 13 writes at character "),
    ("second_base64_spelling", lambda: edited(document("z_times_c2_extension"), lambda d: d[
        "assignment"].update(index=respelled_base64(d["assignment"]["index"]))),
     "certificate field 'assignment.index' states \"AAECAwQFBgcICT==\", "
     "where format 13 writes \"AAECAwQFBgcICQ==\""),
    # Format 11's sha256 of a payload group, stated where format 11 stated it.
    ("slot_sha256", lambda: edited(document("c2_c3_n2"), lambda d: d["slots"][0].update(
        sha256=format_11_sha256(d["slots"][0]))),
     "certificate field 'slots[0].sha256' is not written by format 13"),
    ("assignment_sha256", lambda: edited(document("many_pairs_product"), lambda d: d[
        "assignment"].update(sha256=format_11_sha256(d["assignment"]))),
     "certificate field 'assignment.sha256' is not written by format 13"),
    ("non_alphabet_character", lambda: edited(document("many_pairs_product"), lambda d: d[
        "slots"][1].update(images=inserted(d["slots"][1]["images"], 10))),
     "certificate field 'slots[1].images' states \"CgABAgMEBQ!YHCAkJCgABAgMEBQYHCAgJC, "
     "where format 13 writes \"CgABAgMEBQYHCAkJCgABAgMEBQYHCAgJCg"),
    ("pad_bits", lambda: edited(document("c2_c3_n2"), lambda d: d["slots"][0].update(
        labels=respelled_base64(d["slots"][0]["labels"]))),
     "certificate field 'slots[0].labels' states AECBwYBAwUEAgAHBgQCBQABAz==\", "
     "where format 13 writes AECBwYBAwUEAgAHBgQCBQABAw==\""),
    ("fiber_order", lambda: edited(document("c2_c3_n2"), lambda d: d["slots"][0]["fiber"].update(
        order=d["slots"][0]["fiber"]["order"] + 1)),
     "certificate field 'slots[0].fiber.order' states 20161, where format 13 writes 20160"),
    ("witness_key", lambda: with_top(document("girth_witness"), note=0),
     "girth witness field 'note' is not written by to_witness_json"),
    ("witness_indented", lambda: json.dumps(json.loads(document("girth_witness")), indent=2),
     "girth witness text differs from what to_witness_json writes at character 1: "),
    ("witness_reordered", lambda: compact(reordered(json.loads(document("girth_witness")))),
     "girth witness top level states its keys as ['seed', 'order', "),
    ("witness_order", lambda: edited(document("girth_witness"), lambda d: d.update(order=d["order"] - 1)),
     "girth witness field 'order' states 359, where to_witness_json writes 360"),
]


@pytest.mark.parametrize("build,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_each_case_is_refused_by_the_loader_and_by_quasiact_verify(tmp_path, capsys, build,
                                                                    message):
    text = build()
    loader = load_girth_witness if message.startswith("girth") else load_certificate
    with pytest.raises(InvariantViolationError, match=re.escape(message)):
        loader(text)
    path = tmp_path / "copy.json"
    path.write_bytes(text.encode())
    assert main(["verify", "--qa", str(path), "--epsilon", "1/10"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_the_second_spelling_decodes_to_the_same_bytes():
    # Only the padding bits differ, so the bytes are the same: the text
    # comparison is what refuses it.
    import base64

    index = json.loads(document("z_times_c2_extension"))["assignment"]["index"]
    assert index.endswith("CQ==") and respelled_base64(index).endswith("CT==")
    assert base64.b64decode(respelled_base64(index), validate=True) == base64.b64decode(index)


@pytest.mark.parametrize("name", NAMES)
def test_the_piecewise_writer_writes_canonical_json(name):
    # check_written compares with util.chunks, the loaders' writers and keys
    # use canonical_json: on a document without payloads the two agree, and a
    # payload (a memoryview) is written as its base64, across blocks.
    import base64

    from quasiact.util import BLOCK, canonical_json, chunks

    doc = json.loads(document(name))
    assert "".join(chunks(doc)) == canonical_json(doc)
    data = bytes(range(256)) * (2 * BLOCK // 256) + b"\x07"
    nested = {"b": [{"x": memoryview(data)}, [1, {}]], "a": {}, "c": []}
    expected = {"b": [{"x": base64.b64encode(data).decode()}, [1, {}]], "a": {}, "c": []}
    assert "".join(chunks(nested)) == canonical_json(expected)


def test_a_character_outside_the_alphabet_decodes_to_the_same_bytes():
    # The loader's lenient decoder skips it, so the bytes are the same: the
    # text comparison is what refuses it.
    import binascii

    images = json.loads(document("many_pairs_product"))["slots"][1]["images"]
    for char in "!*.-_ \n":
        assert binascii.a2b_base64(inserted(images, 10, char)) == binascii.a2b_base64(images)
