"""Certificate format 13 states F once, and in its assignment only the keys
of the supported elements that F does not give: F gives the identity, F
and the products of F x F, the elements that conditions (a), (b) and (c)
read.  The good-action upgrade's inverses beyond them, which strict mode
reads, are extra keys.  A loaded action equals the built one for every
construction kind, and a load multiplies F x F once."""

import json

import pytest

from quasiact import cli, emit_certificate, load_certificate, verify
from quasiact.groups import FreeProductGroup, ProductGroup

from certificate_tables import assignment, given_keys

C2 = {"kind": "finite", "table": [[0, 1], [1, 0]]}
C3 = {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
GOOD = {"good_action": {"epsilon": "1/10", "f": [1], "base": {"cyclic": {
    "f": [1, -1], "modulus": 12, "support": [-4, -3, -2, 2, 3, 4]}}}}
# The many_pairs product: a 160-element F whose F x F is the whole support.
MANY_PAIRS = {"product": {"epsilon": "1/10", "factors": [
    {"cyclic": {"f": [k for i in range(1, 21) for k in (i, -i)], "modulus": 83}},
    {"cyclic": {"f": [1, -1, 2, -2], "modulus": 11}}]}}
FREEPROD_N2 = {"free_product": {"epsilon": "1/10", "left_group": C2, "right_group": C3,
                                "f_left": [0, 1], "f_right": [0, 1], "syllable_bound": 2}}
# F = {-1, 1}^3 gives 35 of the 125 maps: F and F x F's {-2, 0, 2}^3, the identity among them.
TERA_SHAPED = {"product": {"epsilon": "1/10", "factors": [
    {"cyclic": {"f": [1, -1], "modulus": m}} for m in (7, 9, 11)]}}

KINDS = {
    "regular": {"regular": {"group": C3}},
    "regular_f": {"regular": {"group": {"kind": "product", "factors": [C2, C3]},
                              "f": [[1, 1]], "epsilon": "1/2"}},
    "cyclic": {"cyclic": {"f": [1, -1, 3], "modulus": 13}},
    "cyclic_support": {"cyclic": {"f": [2], "modulus": 13, "support": [-5, 7]}},
    "product": TERA_SHAPED,
    "good_action": GOOD,
    "free_product": {"free_product": {**FREEPROD_N2["free_product"], "syllable_bound": 1}},
    "product_factor": {"extension": {
        "extension_kind": "product_factor", "epsilon": "1/10", "quotient": {"kind": "integers"},
        "normal": C2, "f": [[1, 0], [-1, 0], [0, 1], [1, 1], [-1, 1]]}},
    "integer_subgroup": {"extension": {
        "extension_kind": "integer_subgroup", "epsilon": "1/10", "index": 5, "psi_modulus": 24,
        "f": [1]}},
    "finitary": {"finitary_extension": {"n": 1, "modulus": 21, "epsilon": "20/21"}},
}


def built(source: dict):
    return cli._source(source, 0)


def reloaded(qa, strict: bool = False) -> tuple[str, object]:
    """qa's certificate and the action it loads to, which writes it again."""
    text = emit_certificate(qa, verify(qa, strict=strict))
    loaded, report = load_certificate(text)
    assert emit_certificate(loaded, report) == text
    return text, loaded


class TestExtraKeys:
    @pytest.mark.parametrize("kind", KINDS)
    def test_the_loaded_action_is_the_built_one(self, kind):
        qa = built(KINDS[kind])
        text, loaded = reloaded(qa)
        assert loaded.elements == qa.elements and loaded.keys == qa.keys
        assert loaded.claimed_f == qa.claimed_f and loaded.assignment == qa.assignment
        # The extra keys are, in key order, the supported keys F does not give.
        doc, keys = json.loads(text), set(qa.keys.values())
        extra = doc["assignment"]["extra_keys"]
        assert extra == sorted(keys - given_keys(doc)) and given_keys(doc) <= keys
        assert list(assignment(doc)) == [qa.keys[e] for e in qa.elements]

    def test_the_good_action_states_its_inverses_and_passes_strict_after_a_reload(self, tmp_path,
                                                                                  capsys):
        request, out = tmp_path / "good.request.json", tmp_path / "good.json"
        request.write_text(json.dumps({"construct": "good_action", **GOOD["good_action"]}))
        assert cli.main(["construct", "--request", str(request), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # F = {1} gives 0, 1 and 2; -1 and -2 are the inverses that (b') reads.
        assert doc["F"] == ["1"] and doc["assignment"]["extra_keys"] == ["-1", "-2"]
        again, strict = tmp_path / "good.again.json", tmp_path / "good.strict.json"
        assert cli.main(["verify", "--qa", str(out), "--epsilon", "1/10", "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()
        assert cli.main(["verify", "--qa", str(out), "--epsilon", "1/10", "--strict",
                         "--out", str(strict)]) == 0
        assert "strict (b')/(c'): PASS" in capsys.readouterr().out
        qa, report = load_certificate(strict.read_text())
        assert report.strict.passed and report.strict.inverse_exact == (True,) * 4
        assert emit_certificate(qa, report) == strict.read_text()

    def test_a_tera_shaped_product_states_and_loads_all_125_maps(self):
        qa = built(TERA_SHAPED)
        text, loaded = reloaded(qa, strict=True)
        assert len(json.loads(text)["assignment"]["extra_keys"]) == 90
        assert len(loaded.elements) == 125 and loaded.assignment == qa.assignment


class TestOneProductTablePerLoad:
    @pytest.mark.parametrize("source,owner", [(MANY_PAIRS, ProductGroup),
                                              (FREEPROD_N2, FreeProductGroup)],
                             ids=["many_pairs", "freeprod_n2"])
    def test_a_load_multiplies_f_by_f_once(self, monkeypatch, source, owner):
        qa = built(source)
        text = emit_certificate(qa, verify(qa))
        calls, multiply = [], owner._multiply
        monkeypatch.setattr(owner, "_multiply", lambda self, support, xs, ys: calls.append(
            (len(support), len(xs))) or multiply(self, support, xs, ys))
        loaded, _ = load_certificate(text)
        k = len(qa.claimed_f)
        assert calls == [(k, k * k)]  # the support's, which the product table reuses
        assert loaded.elements == qa.elements
