"""The benchmark's workloads: the steps each runs and the checks on them.

A step is one quasiact command, run in its own interpreter. ``construct``
steps write a certificate (or a girth witness); ``verify`` steps re-check
one. The seed is passed to ``construct --seed`` (it drives the girth
search behind free products and girth witnesses) and shuffles the order in
which request lists are written; neither changes the sizes or the facts
checked below.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

Check = Callable[[str], list]

C2 = {"kind": "finite", "table": [[0, 1], [1, 0]]}
C3 = {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}

GIRTH_LABELS = 6
GIRTH_BOUND = 5
GIRTH_ORDER = 181440


@dataclass(frozen=True)
class Step:
    name: str
    phase: str  # "construct" or "verify"
    argv: tuple
    output: str | None = None  # file the step writes
    check_output: Check | None = None  # full check of that file's text
    check_stdout: Check | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: Callable  # (seed, directory) -> list[Step]


def _mismatches(facts: dict, expected: dict) -> list:
    return [
        f"{key} is {facts.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if facts.get(key) != value
    ]


def certificate_facts(expected: dict) -> Check:
    """Reload a certificate with load_certificate and compare its report."""

    def check(text: str) -> list:
        from quasiact import load_certificate

        qa, report = load_certificate(text)
        facts = {
            "carrier_n": qa.carrier_n,
            "maps": len(qa.assignment),
            "pairs": len(report.pair_defects),
            "max_defect": str(report.max_defect),
            "passes": (report.a_pass, report.b_pass, report.c_pass),
        }
        return _mismatches(facts, expected)

    return check


def summary_lines(max_defect: str, strict: bool = False) -> Check:
    """The verify summary reports no failure, the pinned max defect and,
    with --strict, a strict pass."""

    def check(text: str) -> list:
        lines = text.splitlines()
        errors = [f"failing line: {line}" for line in lines if "FAIL" in line]
        wanted = [f"max defect {max_defect}"]
        if strict:
            wanted.append("strict (b')/(c'): PASS")
        errors += [f"missing line: {w}" for w in wanted if w not in lines]
        return errors

    return check


def witness_facts(seed: int) -> Check:
    def check(text: str) -> list:
        doc = json.loads(text)
        facts = {
            "labels": len(doc["generators"]),
            "order": doc["order"],
            "girth_bound": doc["girth_bound"],
            "seed": doc["seed"],
        }
        expected = {
            "labels": GIRTH_LABELS,
            "order": GIRTH_ORDER,
            "girth_bound": GIRTH_BOUND,
            "seed": seed,
        }
        return _mismatches(facts, expected)

    return check


def recertified_facts(text: str) -> list:
    """The girth-verify step re-earned the pinned certificate."""
    facts = json.loads(text.strip().splitlines()[-1])
    expected = {"labels": GIRTH_LABELS, "order": GIRTH_ORDER, "girth_bound": GIRTH_BOUND}
    return _mismatches(facts, expected)


def _request(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name + ".request.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _construct(directory: str, name: str, request: dict, seed: int, **checks) -> Step:
    out = os.path.join(directory, name + ".json")
    argv = ("construct", "--request", _request(directory, name, request),
            "--seed", str(seed), "--out", out)
    return Step(name + ".construct", "construct", argv, out, **checks)


def _verify(certificate: str, name: str, epsilon: str, check: Check, strict=False) -> Step:
    argv = ("verify", "--qa", certificate, "--epsilon", epsilon)
    if strict:
        argv += ("--strict",)
    return Step(name + ".verify", "verify", argv, check_stdout=check)


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def freeprod_steps(seed: int, directory: str) -> list:
    rng = random.Random(seed)
    request = {
        "construct": "free_product",
        "epsilon": "1/10",
        "left_group": C2,
        "right_group": C3,
        "f_left": _shuffled(rng, [0, 1]),
        "f_right": _shuffled(rng, [0, 1]),
        "syllable_bound": 2,
    }
    expected = {
        "carrier_n": 483840,
        "maps": 28,
        "pairs": 64,
        "max_defect": "0/483840",
        "passes": (True, True, True),
    }
    build = _construct(directory, "freeprod", request, seed,
                       check_output=certificate_facts(expected))
    return [build, _verify(build.output, "freeprod", "1/10", summary_lines("0/483840"))]


def girth_steps(seed: int, directory: str) -> list:
    request = {
        "construct": "girth_group",
        "labels": GIRTH_LABELS,
        "girth_bound": GIRTH_BOUND,
        "order_cap": 200000,
    }
    build = _construct(directory, "girth", request, seed, check_output=witness_facts(seed))
    recertify = Step("girth.verify", "verify", ("girth-verify", build.output),
                     check_stdout=recertified_facts)
    return [build, recertify]


def many_pairs_steps(seed: int, directory: str) -> list:
    rng = random.Random(seed)
    extension = {
        "construct": "extension",
        "extension_kind": "product_factor",
        "epsilon": "1/100",
        "quotient": {"kind": "integers"},
        "normal": C2,
        "f": _shuffled(rng, [[1, 0], [-1, 0], [0, 1], [1, 1], [-1, 1]]),
    }
    big = [k for i in range(1, 21) for k in (i, -i)]
    product = {
        "construct": "product",
        "epsilon": "1/10",
        "factors": [
            {"cyclic": {"f": _shuffled(rng, big), "modulus": 83}},
            {"cyclic": {"f": _shuffled(rng, [1, -1, 2, -2]), "modulus": 11}},
        ],
    }
    ext = _construct(directory, "extension", extension, seed, check_output=certificate_facts({
        "carrier_n": 200, "maps": 10, "pairs": 25, "max_defect": "2/200",
        "passes": (True, True, True),
    }))
    prod = _construct(directory, "product", product, seed, check_output=certificate_facts({
        "carrier_n": 913, "maps": 729, "pairs": 25600, "max_defect": "0/913",
        "passes": (True, True, True),
    }))
    return [
        ext,
        _verify(ext.output, "extension", "3/100", summary_lines("2/200")),
        prod,
        _verify(prod.output, "product", "1/5", summary_lines("0/913", strict=True), strict=True),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "freeprod_n2",
            "C2*C3 free product at syllable bound 2: 28 dense maps on 483,840 points and a "
            "187 MB certificate; carrier certificate, word maps and codec dominate",
            freeprod_steps,
        ),
        Workload(
            "girth_search",
            "6-label girth-5 generator search: 193,260 reduced words and a 181,440-element "
            "closure; only constructions.girth runs, so other layers predict no move",
            girth_steps,
        ),
        Workload(
            "many_pairs",
            "extension plus a 160-element product on 913 points: 25,600 pairs and 12,880 "
            "strict checks; group algebra, per-pair verify and report JSON dominate",
            many_pairs_steps,
        ),
    )
}
