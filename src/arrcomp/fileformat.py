"""Plain-text arrangement files.

Grammar, one item per line:

    arrangement <n>             header, ambient dimension n >= 1
    c_1 c_2 ... c_n ; b         one hyperplane: n coefficients, then the
                                constant, separated by a literal ';'
    # ...                       comment to end of line

A coefficient token is an integer ``p``, a fraction ``p/q``, or a complex
value ``re:im`` whose parts are each an integer or fraction.  All values
are exact; integers are arbitrary precision.  A trailing comment on a
hyperplane line is kept as that hyperplane's label, so labeled
arrangements survive a serialize/parse round trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, Hyperplane, make_arrangement
from .errors import (
    DimensionMismatchError,
    DuplicateHyperplaneError,
    ParseError,
    ZeroNormalError,
)
from .linalg import GaussianRational, gauss

_TOKEN = re.compile(r"[^\s;#]+|;")
_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_COEFFICIENT = re.compile(rf"^({_RATIONAL})(?::({_RATIONAL}))?$")
_TOO_LONG = "integer has too many digits"


def _parse_rational(text: str, line: int, column: int) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError("zero denominator", line=line, column=column) from None
    except ValueError:
        # the grammar already matched, so only CPython's digit limit is left
        raise ParseError(_TOO_LONG, line=line, column=column) from None


def _parse_coefficient(text: str, line: int, column: int) -> GaussianRational:
    match = _COEFFICIENT.match(text)
    if match is None:
        raise ParseError(f"bad number {text!r}", line=line, column=column)
    re_part = _parse_rational(match.group(1), line, column)
    im_text = match.group(2)
    im_part = Fraction(0) if im_text is None else _parse_rational(im_text, line, column)
    return gauss(re_part, im_part)


def _line_tokens(code: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]


def _parse_internal(text: str) -> tuple[Arrangement, tuple]:
    dim = None
    forms = []
    source_lines = []
    comments: dict[int, str] = {}
    seen: dict[tuple, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code, _, comment = raw.partition("#")
        tokens = _line_tokens(code)
        if not tokens:
            continue
        if dim is None:
            if len(tokens) != 2 or tokens[0][0] != "arrangement":
                raise ParseError(
                    "expected header 'arrangement <n>'", line=lineno, column=tokens[0][1]
                )
            word, column = tokens[1]
            if not word.isdecimal():
                raise ParseError("ambient dimension must be a positive integer",
                                 line=lineno, column=column)
            try:
                dim = int(word)
            except ValueError:
                raise ParseError(_TOO_LONG, line=lineno, column=column) from None
            if dim < 1:
                raise ParseError("ambient dimension must be at least 1",
                                 line=lineno, column=column)
            continue
        separators = [k for k, (word, _) in enumerate(tokens) if word == ";"]
        if not separators:
            raise ParseError("missing ';' before the constant", line=lineno)
        if len(separators) > 1:
            raise ParseError("more than one ';'", line=lineno,
                             column=tokens[separators[1]][1])
        cut = separators[0]
        if cut != dim:
            raise DimensionMismatchError(
                f"line {lineno}: expected {dim} coefficients before ';', found {cut}"
            )
        tail = tokens[cut + 1 :]
        if not tail:
            raise ParseError("missing constant after ';'", line=lineno)
        if len(tail) > 1:
            raise ParseError("unexpected token after the constant",
                             line=lineno, column=tail[1][1])
        normal = tuple(
            _parse_coefficient(word, lineno, column) for word, column in tokens[:cut]
        )
        constant = _parse_coefficient(tail[0][0], lineno, tail[0][1])
        if not any(normal):
            raise ZeroNormalError(f"line {lineno}: hyperplane normal is the zero vector")
        key = Hyperplane.make(normal, constant).canonical_form()
        if key in seen:
            raise DuplicateHyperplaneError(
                f"line {lineno}: same hyperplane as line {seen[key]}"
            )
        seen[key] = lineno
        label = comment.strip()
        if label:
            comments[len(forms)] = label
        forms.append((normal, constant))
        source_lines.append(lineno)
    if dim is None:
        raise ParseError("missing 'arrangement <n>' header", line=1)
    labels = None
    if comments:
        labels = tuple(comments.get(i, f"H{i}") for i in range(len(forms)))
    return make_arrangement(dim, forms, labels), tuple(source_lines)


def parse_arrangement(text: str) -> Arrangement:
    """Parse arrangement-file text; errors carry 1-based line numbers."""
    return _parse_internal(text)[0]


def serialize_arrangement(arrangement: Arrangement) -> str:
    """Render an arrangement in the file grammar; parsing the result gives
    back an equal arrangement."""
    lines = [f"arrangement {arrangement.ambient_dim}"]
    for i, h in enumerate(arrangement.hyperplanes):
        coeffs = " ".join(_format_value(c) for c in h.normal)
        entry = f"{coeffs} ; {_format_value(h.constant)}"
        if arrangement.labels:
            entry += f"  # {arrangement.labels[i]}"
        lines.append(entry)
    return "\n".join(lines) + "\n"


def _format_value(value: GaussianRational) -> str:
    if not value.im:
        return str(value.re)
    return f"{value.re}:{value.im}"


@dataclass(frozen=True)
class ArrangementFile:
    """A parsed arrangement plus where it came from: ``source_lines[i]``
    is the 1-based line of hyperplane i, for error reporting."""

    path: str
    arrangement: Arrangement
    source_lines: tuple


def load_arrangement_file(path: str) -> ArrangementFile:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    arrangement, source_lines = _parse_internal(text)
    return ArrangementFile(path=path, arrangement=arrangement, source_lines=source_lines)
