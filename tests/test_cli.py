import base64
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from quasiact import cyclic_group, emit_certificate, load_certificate, verify
from quasiact import cli
from quasiact.cli import main
from quasiact.constructions import regular_action
from quasiact.errors import DomainError


@pytest.fixture
def c4_certificate(tmp_path):
    qa = regular_action(cyclic_group(4), epsilon=Fraction(1, 100))
    path = tmp_path / "c4.json"
    path.write_text(emit_certificate(qa, verify(qa)))
    return path


@pytest.fixture
def forged_c4_certificate(tmp_path):
    """The C4 certificate with map "1" changed on one point and re-hashed.
    The stored report no longer describes the maps, though the maps still
    pass at epsilon 1/2."""
    qa = regular_action(cyclic_group(4), epsilon=Fraction(1, 100))
    doc = json.loads(emit_certificate(qa, verify(qa)))
    raw = np.array([1, 2, 3, 1], dtype="<i4").tobytes()
    doc["assignment"]["1"] = {
        "int32le": base64.b64encode(raw).decode(),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    return path


class TestVerifyCommand:
    def test_pass_exit_zero(self, c4_certificate, capsys):
        code = main(["verify", "--qa", str(c4_certificate), "--epsilon", "1/100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max defect 0/4" in out

    def test_strict_pass(self, c4_certificate):
        assert (
            main(["verify", "--qa", str(c4_certificate), "--epsilon", "1/100", "--strict"])
            == 0
        )

    def test_fail_exit_one(self, tmp_path, capsys):
        from quasiact import FiniteSubset, QuasiAction, TableGroup, swap_map

        g = TableGroup([[0]])
        qa = QuasiAction(
            g, 10, {0: swap_map(10, 0, 1)}, FiniteSubset(g, [0]), Fraction(1, 5)
        )
        path = tmp_path / "swap.json"
        path.write_text(emit_certificate(qa, verify(qa)))
        assert main(["verify", "--qa", str(path), "--epsilon", "1/10"]) == 1
        assert main(["verify", "--qa", str(path), "--epsilon", "1/5"]) == 0

    def test_decimal_epsilon_rejected(self, c4_certificate, capsys):
        code = main(["verify", "--qa", str(c4_certificate), "--epsilon", "0.5"])
        assert code == 2
        assert "p/q" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["verify", "--qa", str(tmp_path / "no.json"), "--epsilon", "1/2"]) == 2

    def test_status_reproducible_from_certificate(self, c4_certificate, tmp_path):
        out = tmp_path / "re.json"
        code = main(
            ["verify", "--qa", str(c4_certificate), "--epsilon", "1/100", "--out", str(out)]
        )
        assert code == 0
        assert main(["verify", "--qa", str(out), "--epsilon", "1/100"]) == 0

    def test_same_question_reuses_the_loaded_report(self, c4_certificate, monkeypatch):
        def no_second_measurement(*args, **kwargs):
            raise AssertionError("verify ran again for the question loading answered")

        monkeypatch.setattr(cli, "verify", no_second_measurement)
        assert main(["verify", "--qa", str(c4_certificate), "--epsilon", "1/100"]) == 0

    def test_other_question_measures_again(self, c4_certificate, tmp_path):
        out = tmp_path / "strict.json"
        argv = ["verify", "--qa", str(c4_certificate), "--epsilon", "1/50", "--strict"]
        assert main(argv + ["--out", str(out)]) == 0
        _, report = load_certificate(out.read_text())
        assert report.epsilon == Fraction(1, 50)
        assert report.strict is not None and report.strict.epsilon == Fraction(1, 50)

    def test_forged_certificate_exits_two(self, forged_c4_certificate, capsys):
        code = main(["verify", "--qa", str(forged_c4_certificate), "--epsilon", "1/100"])
        assert code == 2
        assert "stored report" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        (("epsilon",), 0.01),
        (("F",), [1, 2]),
        (("report", "f"), [1, 2]),
        (("assignment",), []),
        (("F",), 5),
        (("report",), []),
        (("group",), 3),
    ])
    def test_wrongly_typed_field_exits_two(self, c4_certificate, tmp_path, field, value):
        doc = json.loads(c4_certificate.read_text())
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            load_certificate(path.read_text())
        assert main(["verify", "--qa", str(path), "--epsilon", "1/100"]) == 2

    def test_non_object_certificate_exits_two(self, c4_certificate, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([json.loads(c4_certificate.read_text())]))
        assert main(["verify", "--qa", str(path), "--epsilon", "1/100"]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key", [
        ("product", "5"),
        ("free_product", "5"),
        ("free_product", "[[0]]"),
        ("finitary", "5"),
        ("finitary", "[1,5]"),
    ])
    def test_element_key_of_the_wrong_shape_exits_two(self, tmp_path, capsys, kind, key):
        from quasiact import ProductGroup
        from quasiact.constructions import build_free_product_action, finitary_extension_qa

        if kind == "product":
            qa = regular_action(ProductGroup([cyclic_group(2)] * 2), epsilon=Fraction(1, 10))
        elif kind == "free_product":
            qa, _ = build_free_product_action(
                cyclic_group(2), cyclic_group(2), [0, 1], [0, 1], 1, Fraction(1, 10)
            )
        else:
            qa = finitary_extension_qa(1, 21, Fraction(20, 21))
        doc = json.loads(emit_certificate(qa, verify(qa)))
        doc["F"][0] = key
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="expected an array"):
            load_certificate(path.read_text())
        assert main(["verify", "--qa", str(path), "--epsilon", "1/10"]) == 2
        err = capsys.readouterr().err
        assert "expected an array" in err and "Traceback" not in err

    def test_out_rewrites_v1_as_v2(self, tmp_path):
        qa = regular_action(cyclic_group(4), epsilon=Fraction(1, 100))
        report = verify(qa)
        doc = json.loads(emit_certificate(qa, report))
        del doc["format"]
        doc["assignment"] = {
            qa.owner.element_key(e): m.to_list() for e, m in qa.assignment.items()
        }
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(doc))
        out = tmp_path / "v2.json"
        code = main(["verify", "--qa", str(v1), "--epsilon", "1/100", "--out", str(out)])
        assert code == 0
        assert out.read_text() == emit_certificate(qa, report)


class TestGirthSearchCommand:
    """The generator witness search, run as a {"construct": "girth_group"} request."""

    def search(self, tmp_path, labels, bound, order_cap):
        request = {
            "construct": "girth_group",
            "labels": labels,
            "girth_bound": bound,
            "order_cap": order_cap,
        }
        req = tmp_path / "request.json"
        req.write_text(json.dumps(request))
        out = tmp_path / "v.json"
        code = main(["construct", "--request", str(req), "--seed", "0", "--out", str(out)])
        return code, out

    def test_success(self, tmp_path):
        code, out = self.search(tmp_path, labels=2, bound=2, order_cap=500)
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"degree", "generators", "girth_bound", "order", "seed"}

    def test_unreachable_cap_exits_two(self, tmp_path, capsys):
        code, out = self.search(tmp_path, labels=4, bound=4, order_cap=30)
        assert code == 2
        assert "order cap" in capsys.readouterr().err
        assert not out.exists()


class TestConstructCommand:
    def run_construct(self, tmp_path, request, name="out.json", seed=0):
        req = tmp_path / "request.json"
        req.write_text(json.dumps(request))
        out = tmp_path / name
        code = main(
            ["construct", "--request", str(req), "--seed", str(seed), "--out", str(out)]
        )
        return code, out

    def test_product(self, tmp_path):
        request = {
            "construct": "product",
            "epsilon": "1/10",
            "factors": [
                {"regular": {"group": {"kind": "finite", "table": [[0, 1], [1, 0]]}}},
                {"cyclic": {"f": [1], "modulus": 5}},
            ],
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 0
        qa, report = load_certificate(out.read_text())
        assert qa.carrier_n == 10 and report.passed

    def test_good_action(self, tmp_path):
        request = {
            "construct": "good_action",
            "epsilon": "1/10",
            "base": {"cyclic": {"f": [1], "modulus": 12, "support": [-4, -3, -2, 2, 3, 4]}},
            "f": [1],
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 0
        qa, report = load_certificate(out.read_text())
        assert qa.carrier_n == 24 and report.passed

    def test_free_product_small(self, tmp_path):
        request = {
            "construct": "free_product",
            "epsilon": "1/10",
            "left_group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
            "right_group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
            "f_left": [0, 1],
            "f_right": [0, 1],
            "syllable_bound": 1,
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 0
        qa, report = load_certificate(out.read_text())
        assert report.passed

    def test_extension_product_factor(self, tmp_path):
        request = {
            "construct": "extension",
            "extension_kind": "product_factor",
            "epsilon": "1/20",
            "quotient": {"kind": "integers"},
            "normal": {"kind": "finite", "table": [[0, 1], [1, 0]]},
            "f": [[1, 0], [-1, 0], [0, 1]],
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 0
        qa, report = load_certificate(out.read_text())
        assert report.passed and qa.claimed_epsilon == Fraction(3, 20)

    def test_extension_integer_subgroup(self, tmp_path):
        request = {
            "construct": "extension",
            "extension_kind": "integer_subgroup",
            "epsilon": "1/10",
            "index": 2,
            "psi_modulus": 24,
            "f": [1],
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 0
        _, report = load_certificate(out.read_text())
        assert report.passed

    @pytest.mark.parametrize(
        "cyclic",
        [
            {"f": [1.5], "modulus": 5},
            {"f": ["1"], "modulus": 5},
            {"f": [True], "modulus": 5},
            {"f": [1], "modulus": 5, "support": [2.5]},
            {"f": [1], "modulus": 5.9},
            {"f": [1], "modulus": "5"},
        ],
    )
    def test_cyclic_lists_take_integers_only(self, tmp_path, capsys, cyclic):
        request = {"construct": "product", "epsilon": "1/10", "factors": [{"cyclic": cyclic}]}
        code, out = self.run_construct(tmp_path, request)
        assert code == 2
        assert "expected an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_subgroup_f_takes_integers_only(self, tmp_path, capsys):
        request = {
            "construct": "extension",
            "extension_kind": "integer_subgroup",
            "epsilon": "1/10",
            "index": 2,
            "psi_modulus": 24,
            "f": [1.5],
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 2
        assert "expected an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "request_doc",
        [
            {"construct": "finitary_extension", "n": True, "modulus": 21, "epsilon": "20/21"},
            {"construct": "finitary_extension", "n": 1, "modulus": 21.0, "epsilon": "20/21"},
            {"construct": "extension", "extension_kind": "integer_subgroup",
             "epsilon": "1/10", "index": 2.5, "psi_modulus": 24, "f": [1]},
            {"construct": "extension", "extension_kind": "integer_subgroup",
             "epsilon": "1/10", "index": 2, "psi_modulus": 24.5, "f": [1]},
            {"construct": "free_product", "epsilon": "1/10",
             "left_group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
             "right_group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
             "f_left": [0, 1], "f_right": [0, 1], "syllable_bound": 1.5},
            {"construct": "free_product", "epsilon": "1/10",
             "left_group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
             "right_group": {"kind": "finite", "table": [[0, 1], [1, 0]]},
             "f_left": [0, 1], "f_right": [0, 1], "syllable_bound": 1, "order_cap": 1e4},
            {"construct": "girth_group", "labels": 2.0, "girth_bound": 2, "order_cap": 500},
            {"construct": "girth_group", "labels": 2, "girth_bound": "2", "order_cap": 500},
            {"construct": "girth_group", "labels": 2, "girth_bound": 2, "order_cap": 500.5},
        ],
    )
    def test_scalar_fields_take_integers_only(self, tmp_path, capsys, request_doc):
        code, out = self.run_construct(tmp_path, request_doc)
        assert code == 2
        assert "expected an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_forged_certificate_source_exits_two(self, tmp_path, forged_c4_certificate):
        request = {
            "construct": "product",
            "epsilon": "1/2",
            "factors": [{"certificate": str(forged_c4_certificate)}],
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 2
        assert not out.exists()

    def test_finitary_extension(self, tmp_path):
        request = {
            "construct": "finitary_extension",
            "n": 1,
            "modulus": 21,
            "epsilon": "20/21",
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 0

    def test_girth_group_request(self, tmp_path):
        request = {
            "construct": "girth_group",
            "labels": 2,
            "girth_bound": 2,
            "order_cap": 500,
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 0
        assert "generators" in json.loads(out.read_text())

    def test_unknown_construct(self, tmp_path, capsys):
        code, _ = self.run_construct(tmp_path, {"construct": "mystery"})
        assert code == 2

    def test_inputs_not_mutated(self, tmp_path):
        request = {
            "construct": "finitary_extension",
            "n": 1,
            "modulus": 21,
            "epsilon": "20/21",
        }
        req = tmp_path / "request.json"
        text = json.dumps(request)
        req.write_text(text)
        out = tmp_path / "out.json"
        main(["construct", "--request", str(req), "--seed", "0", "--out", str(out)])
        assert req.read_text() == text
