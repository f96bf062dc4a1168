"""Command line front end: verify certificates and run construction
requests, the generator witness search among them.

One table, _COMMANDS, reads the options: a value follows its option or an "="
(--out=FILE), no name is abbreviated, and -h or --help prints USAGE.  Exit
status: 0 when every requested verification passes its bound, 1 when a bound
is violated, 2 on usage, parse or precondition errors (one "error:" line names
the offending option, element or field).  Output files are written to a
temporary name and renamed, so interrupted runs never leave partial certificates.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from types import SimpleNamespace

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
    load_girth_witness,
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
    text = _read_text(args.qa)  # read once: both readings judge the same document
    try:
        qa, _ = load_certificate(text)
    except DomainError:  # a girth witness states a girth bound and no format
        doc = parse_json(text, "certificate")
        if not isinstance(doc, dict) or "format" in doc or "girth_bound" not in doc:
            raise
        return _verify_witness(text, args)
    del text  # only the action is kept while verify runs
    # verify reuses the counts that loading measured on the claimed F.
    report = verify(qa, epsilon=parse_epsilon(args.epsilon), strict=args.strict)
    _print_summary(report)
    passed = report.passed and (report.strict is None or report.strict.passed)
    if args.out:
        atomic_write_text(args.out, emit_certificate(qa, report))
    return EXIT_OK if passed else EXIT_FAILED


def _verify_witness(text: str, args) -> int:
    """Earn a girth witness's certificate again; --out writes it again."""
    parse_epsilon(args.epsilon)  # required and checked, though a witness has no epsilon
    group = load_girth_witness(text)
    print(f"girth witness: {group.labels} labels, order {group.order}, "
          f"girth bound {group.certified_girth_bound}: PASS")
    if args.out:
        atomic_write_text(args.out, group.to_witness_json())
    return EXIT_OK


def _read_text(path: str) -> str:
    with open(path, "rb") as fh:  # its bytes as they are, no newline translation
        return fh.read().decode(errors="surrogateescape")  # bad bytes then fail as JSON


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


USAGE = ("usage: quasiact verify --qa FILE --epsilon P/Q [--strict] [--out FILE]\n"
         "       quasiact construct --request FILE [--seed N] --out FILE\n")
# command -> (handler, option -> (value parser, None for a flag; default, ... if required))
_COMMANDS = {
    "verify": (_cmd_verify, {"--qa": (str, ...), "--epsilon": (str, ...), "--strict": (None, False),
                             "--out": (str, None)}),
    "construct": (_cmd_construct, {"--request": (str, ...), "--seed": (int, 0), "--out": (str, ...)}),
}


def main(argv=None) -> int:
    """Run the command argv names, option --name setting its handler's args.name."""
    command, *rest = (sys.argv[1:] if argv is None else argv) or [""]
    if {"-h", "--help"} & {command, *rest}:
        print(USAGE, end="")
        return EXIT_OK
    try:
        if command not in _COMMANDS:
            raise DomainError(f"quasiact: command {command!r} is not verify or construct")
        (handler, options), given = _COMMANDS[command], {}
        rest = [part for a in rest for part in (a.split("=", 1) if a[:2] == "--" else [a])]
        while rest:
            option = rest.pop(0)
            where = f"quasiact {command}: option {option!r}"
            if option not in options or option in given:
                raise DomainError(f"{where} is {'given twice' if option in given else 'unknown'}")
            parse = options[option][0]
            if parse and (not rest or rest[0][:2] == "--"):
                raise DomainError(f"{where} needs a value")
            try:
                given[option] = parse(rest.pop(0)) if parse else True
            except ValueError:  # int, the one parser that refuses
                raise DomainError(f"{where} takes an integer") from None
        if missing := [o for o, (_, d) in options.items() if d is ... and o not in given]:
            raise DomainError(f"quasiact {command}: option {missing[0]!r} is required")
        return handler(SimpleNamespace(**{o[2:]: given.get(o, d) for o, (_, d) in options.items()}))
    except QuasiactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
