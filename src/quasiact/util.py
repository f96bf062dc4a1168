"""Small shared helpers: exact rational parsing, JSON parsing and deterministic JSON."""

from __future__ import annotations

import base64
import itertools
import json
import os
import re
import tempfile
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, InvariantViolationError

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


BLOCK = 3 << 16  # payload bytes per piece: a multiple of 3, so the pieces' base64 joins


def chunks(obj) -> Iterator[str]:
    """canonical_json(obj) in pieces, none holding a payload whole: objects
    and arrays of objects item by item, and a memoryview (bytes, written as
    their base64) block by block."""
    if isinstance(obj, dict):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + json.dumps(key) + ":"
            yield from chunks(obj[key])
        yield "}" if obj else "{}"
    elif isinstance(obj, list) and any(isinstance(x, (dict, memoryview)) for x in obj):
        for i, x in enumerate(obj):
            yield "," if i else "["
            yield from chunks(x)
        yield "]"
    elif isinstance(obj, memoryview):
        yield '"'
        for i in range(0, len(obj), BLOCK):
            yield base64.b64encode(obj[i : i + BLOCK]).decode("ascii")
        yield '"'
    else:
        yield canonical_json(obj)


def _mismatch(text: str, pieces: Iterable[str], r: int = 24) -> tuple[int, str, str] | None:
    """Where text first differs from the pieces joined: the position, and
    text and the piece it differs from, r characters each way; else None."""
    pos = 0
    for piece in pieces:
        if not text.startswith(piece, pos):
            i = len(os.path.commonprefix([text[pos : pos + len(piece)], piece]))
            return pos + i, text[max(0, pos + i - r) : pos + i + r], piece[max(0, i - r) : i + r]
        pos += len(piece)
    return None if pos == len(text) else (pos, text[max(0, pos - r) : pos + r], "")


def check_written(text: str, written, what: str, writer: str) -> None:
    """The one acceptance rule: a document loads only if its text is what its
    writer writes for it, canonical_json(written) and a newline, compared
    piece by piece (chunks), so no second copy of the text is made.  Else
    it is refused, naming the first JSON path where the text's document
    differs from written, with both values, or, when they are one document,
    the first differing character."""
    if found := _mismatch(text, itertools.chain(chunks(written), "\n")):
        raise InvariantViolationError(f"{what} " + (
            _difference(json.loads(text), written, "", writer)
            or "text differs from what {} writes at character {}: {!r}, where it writes {!r}".format(
                writer, *found)))


def _difference(stated, written, path: str, writer: str) -> str | None:
    """Where stated first differs from written, in written's order: an
    object's keys, then their order, before its values; the items of arrays
    of one length; any other value by its JSON, so 0 is not false or 0.0."""
    at = f"field {path!r}" if path else "top level"
    if isinstance(stated, dict) and isinstance(written, dict):
        keys = sorted(written)
        for key in (k for k in stated if k not in written):
            return f"field {f'{path}.{key}' if path else key!r} is not written by {writer}"
        if list(stated) != keys:
            return f"{at} states its keys as {list(stated)}, where {writer} writes {keys}"
        items = (_difference(stated[k], written[k], f"{path}.{k}" if path else k, writer) for k in keys)
        return next(filter(None, items), None)
    if isinstance(stated, list) and isinstance(written, list) and len(stated) == len(written):
        items = (_difference(s, w, f"{path}[{i}]", writer) for i, (s, w) in enumerate(zip(stated, written)))
        return next(filter(None, items), None)
    found = _mismatch(canonical_json(stated), ["".join(chunks(written))])
    return found and f"{at} states {found[1]}, where {writer} writes {found[2]}"


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
