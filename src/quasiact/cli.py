"""Command line front end: verify certificates and run construction
requests, the generator witness search among them.

Exit status: 0 when every requested verification passes its bound, 1 when a
bound is violated, 2 on parse or precondition errors (the message names the
offending element or field).  Output files are written to a temporary name
and renamed, so interrupted runs never leave partial certificates.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import DomainError, QuasiactError
from .finmap import check_carrier_size
from .groups import (
    FiniteSubset,
    GroupHandle,
    IntegerGroup,
    ProductGroup,
    SubgroupHandle,
    _decode_int,
    _decode_ints,
    _decode_list,
    _decode_str,
    _field,
    cyclic_group,
    group_from_json,
)
from .quasiaction import (
    QuasiAction,
    VerificationReport,
    emit_certificate,
    load_certificate,
    report_to_json,
    verify,
)
from .util import atomic_write_text, parse_epsilon, parse_json
from .constructions import (
    ExtensionData,
    GirthGroup,
    amenable_extension_qa,
    build_free_product_action,
    check_support_size,
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

    # Every count is out of carrier_n: the first largest, which a certificate
    # stores, is the worst.
    n, limit, stored = report.carrier_n, eps * report.carrier_n, report_to_json(report)
    if a := stored["condition_a"]:
        e, f = divmod(a["at"], len(report.f_keys))
        d = a["max"]
        print(f"condition (a): worst pair ({report.f_keys[e]}, {report.f_keys[f]}) defect "
              f"{d}/{n}, margin eps*n - d = {limit - d} (threshold {eps}): "
              f"{verdict(report.a_pass)}")
    print(f"condition (b): defect {report.identity_defect} (threshold {eps}): "
          f"{verdict(report.b_pass)}")
    if c := stored["condition_c"]:
        agree = c["max"]
        print(f"condition (c): worst element {report.c_keys[c['at']]} agrees on {agree}/{n}, "
              f"margin eps*n - agreements = {limit - agree} (must disagree on more than "
              f"{1 - eps} of the carrier): {verdict(report.c_pass)}")
    if report.strict is not None:
        print(f"strict (b')/(c'): {verdict(report.strict.passed)}")
    print(f"max defect {report.max_defect}")


def _cmd_verify(args) -> int:
    qa, _ = load_certificate(_read_text(args.qa))
    # verify reuses the counts that loading measured on the claimed F.
    report = verify(qa, epsilon=parse_epsilon(args.epsilon), strict=args.strict)
    _print_summary(report)
    passed = report.passed and (report.strict is None or report.strict.passed)
    if args.out:
        atomic_write_text(args.out, emit_certificate(qa, report))
    return EXIT_OK if passed else EXIT_FAILED


def _read_text(path: str) -> str:
    with open(path, errors="surrogateescape") as fh:  # bad bytes then fail as JSON
        return fh.read()


def _elements(group: GroupHandle):  # decoder of a JSON array of the group's elements
    return lambda obj: [group.decode(x) for x in _decode_list(obj)]


def _row(table: dict, kind, what: str):
    if not isinstance(kind, str) or kind not in table:
        raise DomainError(f"unknown {what} {kind!r:.40}")
    return table[kind]


def _source(obj, seed: int) -> QuasiAction:
    """A nested construction {kind: fields}, built by the same table as a request."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise DomainError(f"a source is an object with one key, its kind; got {obj!r:.60}")
    [(kind, spec)] = obj.items()
    qa = _row(_BUILDERS, kind, "construction")(spec, seed)
    if not isinstance(qa, QuasiAction):
        raise DomainError(f"a {kind!r} source builds no quasi-action")
    return qa


def _certificate(path, seed: int) -> QuasiAction:
    return load_certificate(_read_text(_decode_str(path)))[0]


def _regular(spec: dict, seed: int) -> QuasiAction:
    group = _field(spec, "group", group_from_json)
    f = _field(spec, "f", _elements(group), None)
    return regular_action(group, f, _field(spec, "epsilon", parse_epsilon, Fraction(1, 100)))


def _cyclic(spec: dict, seed: int) -> QuasiAction:
    return cyclic_quasi_action(
        _field(spec, "f", _decode_ints),
        _field(spec, "modulus", _decode_int),
        _field(spec, "epsilon", parse_epsilon, Fraction(1, 100)),
        extra_support=_field(spec, "support", _decode_ints, []),
    )


def _product(spec: dict, seed: int) -> QuasiAction:
    epsilon = _field(spec, "epsilon", parse_epsilon)
    factors = _field(spec, "factors", lambda v: [_source(s, seed) for s in _decode_list(v)])
    return direct_product_qa([(qa, qa.claimed_f) for qa in factors], epsilon)


def _good_action(spec: dict, seed: int) -> QuasiAction:
    epsilon = _field(spec, "epsilon", parse_epsilon)
    qa = _field(spec, "base", lambda v: _source(v, seed))
    return good_action_upgrade(qa, _field(spec, "f", _elements(qa.owner)), epsilon)


def _free_product(spec: dict, seed: int) -> QuasiAction:
    epsilon = _field(spec, "epsilon", parse_epsilon)
    left, right = (_field(spec, k, group_from_json) for k in ("left_group", "right_group"))
    return build_free_product_action(
        left, right, _field(spec, "f_left", _elements(left)),
        _field(spec, "f_right", _elements(right)), _field(spec, "syllable_bound", _decode_int),
        epsilon, seed=seed, order_cap=_field(spec, "order_cap", _decode_int, 25000))[0]


def _named(name: str, build, *args):
    """build(*args), where a DomainError names the request field that set the
    range it refused (check_carrier_size's bound, before the range is built)."""
    try:
        return build(*args)
    except DomainError as exc:
        raise DomainError(f"field {name!r}: {exc}") from None


def _product_factor(spec: dict, epsilon: Fraction):
    """G = quotient x N for a finite N (the second factor is the normal
    subgroup, the first factor the quotient, split section)."""
    quotient = _field(spec, "quotient", group_from_json)
    normal = _field(spec, "normal", group_from_json)
    if not normal.is_finite:
        raise DomainError("the normal factor must be a finite group")
    g = ProductGroup([quotient, normal])
    f = FiniteSubset(g, _field(spec, "f", _elements(g)))
    q_id = quotient.identity
    if quotient.is_finite:
        folner = FiniteSubset(quotient, quotient.elements())
    elif isinstance(quotient, IntegerGroup):
        folner = _named("f", integer_folner_interval, [g_elem[0] for g_elem in f], epsilon)
    else:
        raise DomainError("quotient must be finite or the integers")
    ext = ExtensionData(
        group=g,
        quotient=quotient,
        project=lambda x: x[0],
        section=lambda q: (q, normal.identity),
        folner=folner,
    )
    members = [(q_id, t) for t in normal.elements()]
    psi = regular_action(SubgroupHandle(g, members=members), epsilon=epsilon)
    return psi, ext, f


def _integer_subgroup(spec: dict, epsilon: Fraction):
    """G the integers, N = d*Z for a positive index d with the finite
    quotient Z/d; the inner action is shifts with modulus "psi_modulus"
    pulled back along k -> k/d."""
    d = _field(spec, "index", _decode_int)
    if d < 1:
        raise DomainError("index must be positive")
    _named("index", check_carrier_size, d * d)  # cyclic_group(d)'s table
    z = IntegerGroup()
    sub = SubgroupHandle(z, contains_fn=lambda k: k % d == 0)
    f = FiniteSubset(z, _field(spec, "f", _elements(z)))
    bound = max((abs(k) for k in f), default=1)
    _named("f", check_carrier_size, 4 * bound + 9)  # span's count, the largest range below
    base = cyclic_quasi_action(
        [1],
        _field(spec, "psi_modulus", _decode_int),
        epsilon,
        extra_support=range(-2 * bound - 2, 2 * bound + 3),
    )
    span = range(-2 * d * (bound + 2), 2 * d * (bound + 2) + 1, d)
    psi_f = range(-d * (bound + 1), d * (bound + 2), d)  # past H: covers H*H, F*F's conjugates
    psi = transport_qa(base, sub, psi_f, {k: k // d for k in span})
    q = cyclic_group(d)
    ext = ExtensionData(
        group=z,
        quotient=q,
        project=lambda k: k % d,
        section=lambda t: t,
        folner=FiniteSubset(q, q.elements()),
    )
    return psi, ext, f


# extension_kind -> (request, epsilon) -> (inner action psi, ExtensionData, F)
_EXTENSIONS = {"product_factor": _product_factor, "integer_subgroup": _integer_subgroup}


def _extension(spec: dict, seed: int) -> QuasiAction:
    epsilon = _field(spec, "epsilon", parse_epsilon)
    shape = _field(spec, "extension_kind", lambda v: _row(_EXTENSIONS, v, "extension kind"))
    return amenable_extension_qa(*shape(spec, epsilon), epsilon)


def _finitary_extension(spec: dict, seed: int) -> QuasiAction:
    n, modulus = (_field(spec, k, _decode_int) for k in ("n", "modulus"))
    _named("modulus", check_carrier_size, modulus)
    _named("n", check_support_size, n, modulus)
    return finitary_extension_qa(n, modulus, _field(spec, "epsilon", parse_epsilon, Fraction(1, 2)))


def _girth_group(spec: dict, seed: int) -> GirthGroup:
    labels, bound, cap = (
        _field(spec, k, _decode_int) for k in ("labels", "girth_bound", "order_cap"))
    return girth_group_search(labels, bound, order_cap=cap, seed=seed)


# The one construction table: a request {"construct": kind, ...fields} and a nested
# source {kind: fields} (a certificate's fields are its path) build through row kind.
_BUILDERS = {
    "certificate": _certificate, "regular": _regular, "cyclic": _cyclic,
    "product": _product, "good_action": _good_action, "free_product": _free_product,
    "extension": _extension, "finitary_extension": _finitary_extension,
    "girth_group": _girth_group,
}


def _cmd_construct(args) -> int:
    request = parse_json(_read_text(args.request), "request")
    builder = _field(request, "construct", lambda v: _row(_BUILDERS, v, "construction"))
    built = builder(request, args.seed)
    if isinstance(built, GirthGroup):
        atomic_write_text(args.out, built.to_witness_json())
        print(f"girth witness written to {args.out}")
        return EXIT_OK
    report = verify(built)
    atomic_write_text(args.out, emit_certificate(built, report))
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
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
