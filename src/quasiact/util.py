"""Small shared helpers: exact rational parsing, JSON parsing and deterministic JSON."""

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
    """An exact epsilon in (0,1): an int or a Fraction, never a float, string or bool."""
    if isinstance(eps, bool) or not isinstance(eps, (int, Fraction)):
        raise DomainError(f"epsilon must be an exact Fraction, got {type(eps).__name__}")
    if not (0 < eps < 1):
        raise DomainError(f"epsilon must lie in (0,1), got {eps}")
    return Fraction(eps)


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def parse_json(text: str, what: str):
    """json.loads, where any failure is a DomainError naming what the text
    is: bad syntax, an integer past the interpreter's digit limit (both
    ValueError) or nesting too deep (RecursionError)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"{what} is not JSON: {type(exc).__name__}: {exc}") from None


def canonical_json(obj) -> str:
    """Compact, key-sorted JSON: the canonical string form used for keys,
    certificates and girth witnesses."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename.  The file
    gets open(path, "w")'s mode, 0o666 less the umask, not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.umask(umask := os.umask(0))  # reads the umask
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
