"""Command line front end: verify certificates and run construction
requests, the generator witness search among them.

Exit status: 0 when every requested verification passes its bound, 1 when a
bound is violated, 2 on parse or precondition errors (the message names the
offending element or field).  Output files are written to a temporary name
and renamed, so interrupted runs never leave partial certificates.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import QuasiactError
from .groups import (
    FiniteSubset,
    GroupHandle,
    IntegerGroup,
    ProductGroup,
    SubgroupHandle,
    _decode_int,
    group_from_json,
)
from .quasiaction import (
    QuasiAction,
    VerificationReport,
    emit_certificate,
    load_certificate,
    verify,
)
from .util import atomic_write_text, parse_epsilon
from .constructions import (
    ExtensionData,
    amenable_extension_qa,
    build_free_product_action,
    cyclic_quasi_action,
    direct_product_qa,
    finitary_extension_qa,
    girth_group_search,
    good_action_upgrade,
    integer_folner_interval,
    regular_action,
    transport_qa,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2


def _print_summary(report: VerificationReport) -> None:
    eps = report.epsilon

    def verdict(ok: bool) -> str:
        return "PASS" if ok else "FAIL"

    if report.pair_defects:  # every count is out of carrier_n: the largest is the worst
        worst_a = max((p.defect for p in report.pair_defects), key=lambda d: d.disagreements)
        print(f"condition (a): worst defect {worst_a} (threshold {eps}): {verdict(report.a_pass)}")
    print(f"condition (b): defect {report.identity_defect} (threshold {eps}): "
          f"{verdict(report.b_pass)}")
    if report.identity_agreements:
        worst_c = max(a for _, a in report.identity_agreements)
        print(f"condition (c): worst agreement {worst_c}/{report.carrier_n} (must disagree "
              f"on more than {1 - eps} of the carrier): {verdict(report.c_pass)}")
    if report.strict is not None:
        print(f"strict (b')/(c'): {verdict(report.strict.passed)}")
    print(f"max defect {report.max_defect}")


def _qa_from_source(source: dict) -> tuple[QuasiAction, Fraction]:
    """Build a quasi-action from an inline source description.

    Shapes: {"regular": {"group": ..., "f": [...]?, "epsilon": "p/q"?}},
            {"cyclic": {"f": [...], "modulus": m, "support": [...]?,
                        "epsilon": "p/q"?}},
            {"certificate": "path.json"}.
    """
    if "certificate" in source:
        with open(source["certificate"]) as fh:
            qa, _ = load_certificate(fh.read())
        return qa, qa.claimed_epsilon
    if "regular" in source:
        spec = source["regular"]
        group = group_from_json(spec["group"])
        eps = parse_epsilon(spec.get("epsilon", "1/100"))
        f = None
        if "f" in spec:
            f = FiniteSubset(group, (group.decode(x) for x in spec["f"]))
        return regular_action(group, f, eps), eps
    if "cyclic" in source:
        spec = source["cyclic"]
        eps = parse_epsilon(spec.get("epsilon", "1/100"))
        z = IntegerGroup()
        qa = cyclic_quasi_action(
            [z.decode(k) for k in spec["f"]],
            _decode_int(spec["modulus"]),
            eps,
            extra_support=[z.decode(k) for k in spec.get("support", [])],
        )
        return qa, eps
    raise QuasiactError(f"unknown quasi-action source {sorted(source)!r}")


def _cmd_verify(args) -> int:
    with open(args.qa) as fh:
        qa, report = load_certificate(fh.read())
    epsilon = parse_epsilon(args.epsilon)
    # Loading measured the stored report's question; ask again only if the
    # command asks another one.
    asked = (epsilon, args.strict, tuple(map(qa.owner.element_key, qa.claimed_f)))
    if asked != (report.epsilon, report.strict is not None, report.f_keys):
        report = verify(qa, epsilon=epsilon, strict=args.strict)
    _print_summary(report)
    passed = report.passed and (report.strict is None or report.strict.passed)
    if args.out:
        atomic_write_text(args.out, emit_certificate(qa, report))
    return EXIT_OK if passed else EXIT_FAILED


def _construct_product(request: dict, seed: int) -> QuasiAction:
    epsilon = parse_epsilon(request["epsilon"])
    inputs = []
    for source in request["factors"]:
        qa, _ = _qa_from_source(source)
        inputs.append((qa, qa.claimed_f))
    return direct_product_qa(inputs, epsilon)


def _construct_good_action(request: dict, seed: int) -> QuasiAction:
    epsilon = parse_epsilon(request["epsilon"])
    qa, _ = _qa_from_source(request["base"])
    f = FiniteSubset(qa.owner, (qa.owner.decode(x) for x in request["f"]))
    return good_action_upgrade(qa, f, epsilon)


def _construct_free_product(request: dict, seed: int) -> QuasiAction:
    epsilon = parse_epsilon(request["epsilon"])
    left = group_from_json(request["left_group"])
    right = group_from_json(request["right_group"])
    qa, _ = build_free_product_action(
        left,
        right,
        [left.decode(x) for x in request["f_left"]],
        [right.decode(x) for x in request["f_right"]],
        _decode_int(request["syllable_bound"]),
        epsilon,
        seed=seed,
        order_cap=_decode_int(request.get("order_cap", 25000)),
    )
    return qa


def _construct_extension(request: dict, seed: int) -> QuasiAction:
    """Two concrete extension shapes.

    "product_factor": G = quotient x N for a finite N (the second factor is
    the normal subgroup, the first factor the quotient, split section).
    "integer_subgroup": G the integers, N = d*Z for a positive index d with
    the finite quotient Z/d; the inner action is shifts with modulus
    "psi_modulus" pulled back along k -> k/d.
    """
    epsilon = parse_epsilon(request["epsilon"])
    kind = request["extension_kind"]
    if kind == "product_factor":
        quotient = group_from_json(request["quotient"])
        normal = group_from_json(request["normal"])
        if not normal.is_finite:
            raise QuasiactError("the normal factor must be a finite group")
        g = ProductGroup([quotient, normal])
        f = FiniteSubset(g, (g.decode(x) for x in request["f"]))
        q_id = quotient.identity
        if quotient.is_finite:
            folner = FiniteSubset(quotient, quotient.elements())
        elif isinstance(quotient, IntegerGroup):
            folner = integer_folner_interval(
                [g_elem[0] for g_elem in f], epsilon
            )
        else:
            raise QuasiactError("quotient must be finite or the integers")
        ext = ExtensionData(
            group=g,
            normal_contains=lambda x: x[0] == q_id,
            quotient=quotient,
            project=lambda x: x[0],
            section=lambda q: (q, normal.identity),
            folner=folner,
        )
        members = [(q_id, t) for t in normal.elements()]
        psi = regular_action(SubgroupHandle(g, members=members), epsilon=epsilon)
        return amenable_extension_qa(psi, ext, f, epsilon)
    if kind == "integer_subgroup":
        d = _decode_int(request["index"])
        if d < 1:
            raise QuasiactError("index must be positive")
        z = IntegerGroup()
        sub = SubgroupHandle(z, contains_fn=lambda k: k % d == 0)
        f = FiniteSubset(z, (z.decode(x) for x in request["f"]))
        modulus = _decode_int(request["psi_modulus"])
        bound = max((abs(k) for k in f), default=1)
        base = cyclic_quasi_action(
            [1],
            modulus,
            epsilon,
            extra_support=range(-2 * bound - 2, 2 * bound + 3),
        )
        span = range(-2 * d * (bound + 2), 2 * d * (bound + 2) + 1, d)
        psi = transport_qa(base, sub, [d, -d], {k: k // d for k in span})
        from .groups import cyclic_group

        q = cyclic_group(d)
        ext = ExtensionData(
            group=z,
            normal_contains=lambda k: k % d == 0,
            quotient=q,
            project=lambda k: k % d,
            section=lambda t: t,
            folner=FiniteSubset(q, q.elements()),
        )
        return amenable_extension_qa(psi, ext, f, epsilon)
    raise QuasiactError(f"unknown extension kind {kind!r}")


def _construct_finitary_extension(request: dict, seed: int) -> QuasiAction:
    return finitary_extension_qa(
        _decode_int(request["n"]),
        _decode_int(request["modulus"]),
        parse_epsilon(request.get("epsilon", "1/2")),
    )


_CONSTRUCTORS = {
    "product": _construct_product,
    "good_action": _construct_good_action,
    "free_product": _construct_free_product,
    "extension": _construct_extension,
    "finitary_extension": _construct_finitary_extension,
}


def _cmd_construct(args) -> int:
    with open(args.request) as fh:
        request = json.load(fh)
    kind = request.get("construct")
    if kind == "girth_group":
        group = girth_group_search(
            _decode_int(request["labels"]),
            _decode_int(request["girth_bound"]),
            order_cap=_decode_int(request["order_cap"]),
            seed=args.seed,
        )
        atomic_write_text(args.out, group.to_witness_json())
        print(f"girth witness written to {args.out}")
        return EXIT_OK
    builder = _CONSTRUCTORS.get(kind)
    if builder is None:
        raise QuasiactError(f"unknown construction {kind!r}")
    qa = builder(request, args.seed)
    report = verify(qa)
    atomic_write_text(args.out, emit_certificate(qa, report))
    _print_summary(report)
    print(f"certificate written to {args.out}")
    return EXIT_OK if report.passed else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiact",
        description="construct and verify quasi-actions of groups on finite sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="re-verify a certificate file")
    p_verify.add_argument("--qa", required=True, help="certificate file")
    p_verify.add_argument("--epsilon", required=True, help="exact rational p/q")
    p_verify.add_argument("--strict", action="store_true")
    p_verify.add_argument("--out", help="write the re-verified certificate here")
    p_verify.set_defaults(handler=_cmd_verify)

    p_construct = sub.add_parser("construct", help="run a construction request")
    p_construct.add_argument("--request", required=True, help="request JSON file")
    p_construct.add_argument("--seed", type=int, default=0)
    p_construct.add_argument("--out", required=True, help="output certificate file")
    p_construct.set_defaults(handler=_cmd_construct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except QuasiactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
