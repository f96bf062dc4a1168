"""Small shared helpers: exact rational parsing and deterministic JSON."""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction

from .errors import DomainError

_FRACTION_RE = re.compile(r"^(-?\d+)/(\d+)$")


def parse_fraction(text: str) -> Fraction:
    """Parse an exact "p/q" string. Decimals are rejected on purpose."""
    m = _FRACTION_RE.match(text.strip()) if isinstance(text, str) else None
    if not m:
        raise DomainError(f"expected an exact rational 'p/q', got {text!r}")
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise DomainError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def parse_epsilon(text: str) -> Fraction:
    eps = parse_fraction(text)
    return check_epsilon(eps)


def check_epsilon(eps: Fraction) -> Fraction:
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise DomainError(f"epsilon must lie in (0,1), got {eps}")
    return eps


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def canonical_json(obj) -> str:
    """Compact, key-sorted JSON; the canonical string form used for keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def document_json(obj, default=None) -> str:
    """Deterministic human-readable JSON for files (certificates, witnesses);
    default(o) gives the JSON value of an object json cannot encode."""
    return json.dumps(obj, sort_keys=True, indent=2, default=default) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
