import json
import os
import resource
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quasiact
from quasiact import cyclic_group, emit_certificate, load_certificate, verify
from quasiact import quasiaction
from quasiact import cli
from quasiact.cli import main
from quasiact.constructions import load_girth_witness, regular_action
from quasiact.errors import DomainError

from certificate_tables import assignment, set_slot_rows, slot_rows


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
    images, _ = slot_rows(doc, 0)
    [i] = assignment(doc)["1"]
    images[i] = [1, 2, 3, 1]
    set_slot_rows(doc, 0, images)
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
        from quasiact import FiniteSubset, QuasiAction, TableGroup
        from test_finmap import swap_map

        g = TableGroup([[0]])
        qa = QuasiAction(
            g, 10, {0: swap_map(10, 0, 1)}, FiniteSubset(g, [0]), Fraction(1, 5)
        )
        path = tmp_path / "swap.json"
        path.write_text(emit_certificate(qa, verify(qa)))
        assert main(["verify", "--qa", str(path), "--epsilon", "1/10"]) == 1
        assert main(["verify", "--qa", str(path), "--epsilon", "1/5"]) == 0

    def test_summary_names_the_worst_pair_and_element(self, tmp_path, capsys):
        from quasiact import FiniteMap, FiniteSubset, QuasiAction

        g = cyclic_group(4)
        assign = {k: FiniteMap([(x + 2 * k) % 8 for x in range(8)]) for k in range(4)}
        assign[3] = FiniteMap([0, 7, 0, 1, 2, 3, 4, 5])  # fixes 0; 6 is never reached
        qa = QuasiAction(g, 8, assign, FiniteSubset(g, range(4)), Fraction(1, 2))
        report = verify(qa)
        path = tmp_path / "perturbed.json"
        path.write_text(emit_certificate(qa, report))
        worst = max(report.pair_defects, key=lambda p: p.defect.disagreements)
        d = worst.defect.disagreements
        assert 0 < d < 8
        # eps*n is 1 or 7 points; element 3 agrees with the identity on 1.
        for eps, limit, verdict in [("1/8", 1, "FAIL"), ("7/8", 7, "PASS")]:
            main(["verify", "--qa", str(path), "--epsilon", eps])
            lines = capsys.readouterr().out.splitlines()
            assert (f"condition (a): worst pair ({worst.left_key}, {worst.right_key}) defect "
                    f"{d}/8, margin eps*n - d = {limit - d} (threshold {eps}): {verdict}") in lines
            [c] = [line for line in lines if line.startswith("condition (c)")]
            assert c.startswith("condition (c): worst element 3 agrees on 1/8, "
                                f"margin eps*n - agreements = {limit - 1} ")
            assert all("FAIL" not in line for line in lines if line.endswith("PASS"))

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

    @pytest.mark.parametrize("epsilon,strict", [("1/100", False), ("1/2", False), ("1/50", True)])
    def test_counts_are_measured_once(self, c4_certificate, monkeypatch, epsilon, strict):
        # Loading counts (a)/(b)/(c) on the claimed F; the command's verify,
        # at any epsilon, derives its verdicts from those counts.
        calls = []
        for name in ("_count", "_count_strict"):
            counter = getattr(quasiaction, name)
            monkeypatch.setattr(quasiaction, name,
                                lambda *a, _c=counter, _n=name: calls.append(_n) or _c(*a))
        argv = ["verify", "--qa", str(c4_certificate), "--epsilon", epsilon]
        assert main(argv + ["--strict"] * strict) == 0
        assert calls == ["_count"] + ["_count_strict"] * strict

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
        assert capsys.readouterr().err == ("error: certificate field 'report.a_pass' states true, "
                                           "where format 13 writes false\n")

    @pytest.mark.parametrize("field,value", [
        (("epsilon",), 0.01),
        (("F",), [1, 2]),
        (("report", "epsilon"), 0.01),
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

    @pytest.mark.parametrize("fmt", [None, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_old_formats_exit_two(self, c4_certificate, tmp_path, capsys, fmt):
        # Formats 1-12 are refused by name; a missing "format" is format 1.
        doc = json.loads(c4_certificate.read_text())
        if fmt is None:
            del doc["format"]
        else:
            doc["format"] = fmt
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--qa", str(path), "--epsilon", "1/100"]) == 2
        err = capsys.readouterr().err
        assert f"certificate format {fmt or 1} is not read" in err and "Traceback" not in err


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

    def test_verify_earns_the_witness_again(self, tmp_path, capsys):
        # verify reads a witness, which has no "format", with the witness
        # loader, and --out writes it again byte for byte.
        code, out = self.search(tmp_path, labels=2, bound=2, order_cap=500)
        group = load_girth_witness(out.read_text())
        capsys.readouterr()
        again = tmp_path / "again.json"
        assert main(["verify", "--qa", str(out), "--epsilon", "1/10", "--out", str(again)]) == 0
        assert capsys.readouterr().out == (f"girth witness: 2 labels, order {group.order}, "
                                           "girth bound 2: PASS\n")
        assert again.read_bytes() == out.read_bytes()

    def test_verify_reads_the_witness_once(self, tmp_path, monkeypatch):
        # The certificate loader refuses it, and the witness loader judges the
        # same text, not a second reading of the file.
        code, out = self.search(tmp_path, labels=2, bound=2, order_cap=500)
        reads = []
        real = cli._read_text
        monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path) or real(path))
        assert main(["verify", "--qa", str(out), "--epsilon", "1/10"]) == 0
        assert reads == [str(out)]

    @pytest.mark.parametrize("edit,epsilon,message", [
        (lambda d: d, "1/0", "zero denominator"),
        (lambda d: d, "0.1", "expected an exact rational"),
        (lambda d: d.update(order=d["order"] + 1), "1/10", "girth witness field 'order' states"),
        (lambda d: d.update(note=1), "1/10",
         "girth witness field 'note' is not written by to_witness_json"),
        (lambda d: d.update(girth_bound=99), "1/10", "does not satisfy its own certificate"),
    ])
    def test_verify_refuses_a_bad_witness_or_epsilon(self, tmp_path, capsys, edit, epsilon,
                                                     message):
        code, out = self.search(tmp_path, labels=2, bound=2, order_cap=500)
        doc = json.loads(out.read_text())
        edit(doc)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--qa", str(out), "--epsilon", epsilon]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


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

    def test_forged_certificate_source_exits_two(self, tmp_path, capsys, forged_c4_certificate):
        request = {
            "construct": "product",
            "epsilon": "1/2",
            "factors": [{"certificate": str(forged_c4_certificate)}],
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 2
        assert ("error: field 'factors': certificate field 'report.a_pass' states true, where "
                "format 13 writes false" in capsys.readouterr().err)
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

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        # The mode open(path, "w") gives a new file, also when the
        # certificate replaces one written before.
        request = {"construct": "cyclic", "f": [1], "modulus": 5}
        old = os.umask(umask)
        try:
            for _ in range(2):
                code, out = self.run_construct(tmp_path, request)
                assert code == 0 and stat.S_IMODE(out.stat().st_mode) == mode
        finally:
            os.umask(old)

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

    def test_nested_construction_as_product_factor(self, tmp_path):
        good_action = {
            "epsilon": "1/10",
            "base": {"cyclic": {"f": [1], "modulus": 12, "support": [-4, -3, -2, 2, 3, 4]}},
            "f": [1],
        }
        request = {
            "construct": "product",
            "epsilon": "1/4",
            "factors": [{"good_action": good_action}, {"cyclic": {"f": [1], "modulus": 5}}],
        }
        code, out = self.run_construct(tmp_path, request)
        assert code == 0
        qa, report = load_certificate(out.read_text())
        assert qa.carrier_n == 24 * 5 and report.passed

    def test_top_level_cyclic(self, tmp_path):
        code, out = self.run_construct(tmp_path, {"construct": "cyclic", "f": [1], "modulus": 5})
        assert code == 0
        qa, report = load_certificate(out.read_text())
        assert qa.carrier_n == 5 and qa.claimed_epsilon == Fraction(1, 100) and report.passed

    def test_cyclic_with_empty_f(self, tmp_path):
        code, out = self.run_construct(tmp_path, {"construct": "cyclic", "f": [], "modulus": 5})
        assert code == 0
        qa, report = load_certificate(out.read_text())
        assert len(qa.claimed_f) == 0 and report.passed

    def test_cyclic_support_past_int64(self, tmp_path, capsys):
        # 2**64 + 5 is no int64: its shift is reduced mod 5 in Python, to 1.
        request = {"construct": "cyclic", "f": [1], "modulus": 5, "support": [2**64 + 5]}
        code, out = self.run_construct(tmp_path, request)
        assert code == 0 and "Traceback" not in capsys.readouterr().err
        again = tmp_path / "again.json"
        assert main(["verify", "--qa", str(out), "--epsilon", "1/100", "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()
        qa, report = load_certificate(out.read_text())
        assert report.passed and qa.map_for(2**64 + 5) == qa.map_for(1)

    def test_carrier_past_int32_exits_two(self, tmp_path, capsys):
        # Refused before np.arange allocates 16 GiB of int64 images.
        request = {"construct": "cyclic", "f": [1], "modulus": 2**31}
        code, out = self.run_construct(tmp_path, request)
        assert code == 2
        err = capsys.readouterr().err
        assert "carrier size 2147483648" in err and "Traceback" not in err
        assert not out.exists()

    def test_certificate_source_is_a_path(self, tmp_path, capsys):
        request = {"construct": "product", "epsilon": "1/10", "factors": [{"certificate": 5}]}
        code, _ = self.run_construct(tmp_path, request)
        assert code == 2
        assert "'factors': expected a string, got 5" in capsys.readouterr().err


def _set(path, value):
    def mutate(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return mutate


def _format_1(doc):
    del doc["format"]
    doc["assignment"]["0"] = [0, [1]]


C4_TABLE = [[(i + j) % 4 for j in range(4)] for i in range(4)]


class TestOversizedRanges:
    """An extension shape or a finitary extension refuses a range past
    check_carrier_size's bound (2**31 - 1) by the field that set it, before
    enumerating it.  Each
    request runs in a child under timeout and a 1 GiB address-space limit,
    so a shape that starts to enumerate fails the test instead of stalling
    the suite or filling memory."""

    @staticmethod
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    EXTENSION = {"construct": "extension", "epsilon": "1/10", "psi_modulus": 24}

    def construct(self, tmp_path, request_doc) -> str:
        """The stderr of the construct command, which must exit 2 writing nothing."""
        req, out = tmp_path / "request.json", tmp_path / "out.json"
        req.write_text(json.dumps(request_doc))
        src = str(Path(quasiact.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        run = subprocess.run(["timeout", "30", sys.executable, "-m", "quasiact.cli", "construct",
                              "--request", str(req), "--out", str(out)],
                             capture_output=True, text=True, env=env,
                             preexec_fn=self.limit_memory)
        assert run.returncode == 2, run.stderr[-500:]
        assert not out.exists()
        return run.stderr

    @pytest.mark.parametrize("request_doc,field,size", [
        # integer_folner_interval's {0..10**22 - 1}
        ({"construct": "extension", "extension_kind": "product_factor", "epsilon": "1/100",
          "quotient": {"kind": "integers"}, "normal": {"kind": "finite", "table": [[0, 1], [1, 0]]},
          "f": [[10**20, 0]]}, "f", 10**22),
        # the inner action's span of multiples, 4 * 10**20 + 9 of them
        ({**EXTENSION, "extension_kind": "integer_subgroup", "index": 3, "f": [10**20]},
         "f", 4 * 10**20 + 9),
        # cyclic_group(10**7)'s table of 10**14 entries
        ({**EXTENSION, "extension_kind": "integer_subgroup", "index": 10**7, "f": [1]},
         "index", 10**14),
        # a finitary extension's carrier, before its support is counted
        ({"construct": "finitary_extension", "n": 1, "modulus": 2**31}, "modulus", 2**31),
    ], ids=["product_factor_f", "integer_subgroup_f", "integer_subgroup_index", "finitary_modulus"])
    def test_exits_two_naming_the_field(self, tmp_path, request_doc, field, size):
        assert self.construct(tmp_path, request_doc) == (
            f"error: field {field!r}: carrier size {size} is outside 1..2147483647\n")

    def test_finitary_support_past_the_bound(self, tmp_path):
        # F_3 has 7 * 7! = 35,280 elements, so F_3 * F_3 is about 1.2e9 pairs:
        # multiplying them would fill memory.
        request_doc = {"construct": "finitary_extension", "n": 3, "modulus": 61}
        assert self.construct(tmp_path, request_doc) == (
            "error: field 'n': F_3 * F_3 holds up to (7 * 7!)^2 elements of 61 images each, "
            "more than 2147483647 entries\n")


class TestMalformedInputs:
    """Each malformed input exits 2, naming the field or value, with no traceback."""

    @pytest.mark.parametrize("mutate,named", [
        (_set(("group", "table"), 5), "'table': expected an array"),
        (_set(("group", "table"), C4_TABLE[:3] + [[3, 0, 1, 2.0]]), "'table': expected an integer"),
        (_set(("group", "table"), C4_TABLE[:3] + [[3, 0, 1, "2"]]), "'table': expected an integer"),
        (_set(("group",), {"kind": "product", "factors": 5}), "'factors': expected an array"),
        (lambda doc: doc.pop("slots"), "missing field 'slots'"),
        (_format_1, "certificate format 1 is not read"),
        (_set(("F", 0), "[1,"), "element key '[1,' is not JSON"),
    ])
    def test_certificate(self, tmp_path, capsys, c4_certificate, mutate, named):
        doc = json.loads(c4_certificate.read_text())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--qa", str(path), "--epsilon", "1/100"]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("request_doc,named", [
        ({"construct": "good_action", "epsilon": "1/10",
          "base": {"cyclic": {"f": [1], "modulus": 12, "support": [-4, -3, -2, 2, 3, 4]}},
          "f": 5}, "'f': expected an array"),
        ({"construct": "product", "epsilon": "1/10", "factors": 5}, "'factors': expected an array"),
        ({"construct": "product", "epsilon": "1/10",
          "factors": [{"cyclic": {"f": [1], "modulus": 5}, "regular": {}}]}, "one key"),
        ({"construct": "product", "epsilon": "1/10",
          "factors": [{"cyclic": {"f": [1], "modulus": 5}, "certificate": "c4.json"}]}, "one key"),
        (["x"], "expected a JSON object"),
        ({"construct": "product", "epsilon": "1/10",
          "factors": [{"girth_group": {"labels": 2, "girth_bound": 2, "order_cap": 500}}]},
         "builds no quasi-action"),
        ({"construct": "extension", "extension_kind": "mystery", "epsilon": "1/10"},
         "'extension_kind': unknown extension kind 'mystery'"),
        ({"construct": ["cyclic"]}, "unknown construction ['cyclic']"),
    ])
    def test_request(self, tmp_path, capsys, c4_certificate, request_doc, named):
        req = tmp_path / "request.json"
        req.write_text(json.dumps(request_doc).replace("c4.json", str(c4_certificate)))
        out = tmp_path / "out.json"
        assert main(["construct", "--request", str(req), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_undecodable_request_bytes(self, tmp_path, capsys):
        req = tmp_path / "request.json"
        req.write_bytes(b'\xff{"construct": "cyclic"}')
        assert main(["construct", "--request", str(req), "--out", str(tmp_path / "o")]) == 2
        assert "Traceback" not in capsys.readouterr().err


# JSON that json.loads refuses with ValueError or RecursionError, not JSONDecodeError.
HUGE_MODULUS = '{"construct": "cyclic", "f": [1], "modulus": ' + "9" * 5000 + "}"
DEEP_F = '{"construct": "cyclic", "f": ' + "[" * 100000 + "]" * 100000 + ', "modulus": 5}'


class TestUnparsableJson:
    @pytest.mark.parametrize("text,cause", [
        (HUGE_MODULUS, "ValueError"), (DEEP_F, "RecursionError"), ("{", "JSONDecodeError"),
    ])
    def test_request(self, tmp_path, capsys, text, cause):
        req = tmp_path / "request.json"
        req.write_text(text)
        out = tmp_path / "out.json"
        assert main(["construct", "--request", str(req), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"request is not JSON: {cause}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value,cause", [
        ("9" * 5000, "ValueError"), ("[" * 100000 + "]" * 100000, "RecursionError"),
    ])
    def test_certificate(self, tmp_path, capsys, c4_certificate, value, cause):
        old = c4_certificate.read_text()
        text = old.replace('"carrier_n":4', f'"carrier_n":{value}')  # the report's carrier
        assert text != old
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["verify", "--qa", str(path), "--epsilon", "1/100"]) == 2
        err = capsys.readouterr().err
        assert f"certificate is not JSON: {cause}" in err and "Traceback" not in err

    def test_element_key(self):
        qa = regular_action(cyclic_group(4), epsilon=Fraction(1, 100))
        doc = json.loads(emit_certificate(qa, verify(qa)))
        doc["F"][0] = "9" * 5000
        with pytest.raises(DomainError, match="element key '9999.* is not JSON: ValueError"):
            load_certificate(json.dumps(doc))


class TestCommandLine:
    """The option reader: one table of options per command, read whole (no
    abbreviation), each value after its option or an "="; a usage error
    exits 2 with one "error:" line that names the command and the option."""

    @pytest.mark.parametrize("argv,message", [
        ([], "quasiact: command '' is not verify or construct"),
        (["verfy", "--qa", "x"], "quasiact: command 'verfy' is not verify or construct"),
        (["construct", "--requets", "r", "--out", "o"],
         "quasiact construct: option '--requets' is unknown"),
        (["verify", "--eps", "1/2", "--qa", "x"], "quasiact verify: option '--eps' is unknown"),
        (["verify", "--qa", "x", "--epsilon", "1/2", "y"],
         "quasiact verify: option 'y' is unknown"),
        (["verify", "--epsilon", "1/2", "--qa"], "quasiact verify: option '--qa' needs a value"),
        (["verify", "--qa", "--epsilon", "1/2"], "quasiact verify: option '--qa' needs a value"),
        (["verify", "--qa", "x"], "quasiact verify: option '--epsilon' is required"),
        (["construct", "--out", "o"], "quasiact construct: option '--request' is required"),
        (["verify", "--qa", "x", "--qa=y", "--epsilon", "1/2"],
         "quasiact verify: option '--qa' is given twice"),
        (["verify", "--strict", "--qa", "x", "--strict", "--epsilon", "1/2"],
         "quasiact verify: option '--strict' is given twice"),
        (["construct", "--request", "r", "--out", "o", "--seed", "x"],
         "quasiact construct: option '--seed' takes an integer"),
        (["construct", "--request", "r", "--out", "o", "--seed=1.5"],
         "quasiact construct: option '--seed' takes an integer"),
    ])
    def test_usage_error_exits_two_naming_the_option(self, tmp_path, capsys, argv, message):
        argv = [str(tmp_path / a) if a in ("x", "r", "o") else a for a in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_equals_spelling_writes_the_same_bytes(self, c4_certificate, tmp_path):
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main(["verify", "--qa", str(c4_certificate), "--epsilon", "1/100",
                     "--out", str(spaced)]) == 0
        assert main(["verify", f"--qa={c4_certificate}", "--epsilon=1/100",
                     f"--out={joined}"]) == 0
        assert joined.read_bytes() == spaced.read_bytes() == c4_certificate.read_bytes()

    def test_negative_seed_is_a_value(self, tmp_path):
        req, out = tmp_path / "request.json", tmp_path / "v.json"
        req.write_text(json.dumps({"construct": "girth_group", "labels": 2, "girth_bound": 2,
                                   "order_cap": 500}))
        assert main(["construct", "--request", str(req), "--seed", "-3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == -3

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"],
                                      ["construct", "--request", "r", "-h"]])
    def test_help_prints_the_usage_lines(self, capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == cli.USAGE
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"```\n{out}```\n" in readme  # README's "Command line" section states them

    def test_importing_the_cli_leaves_argparse_and_gettext_out(self):
        # Building argparse's parsers cost every command 2-3 ms of start-up
        # (gettext lookups, locale, regex compiles); no import may bring it back.
        src = str(Path(quasiact.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, quasiact.cli; "
                "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert run.returncode == 0, run.stderr[-500:]
        assert run.stdout == "[]\n"
