"""Parse bra-ket text into states, render states back, and read unitary files.

Grammar (whitespace insignificant, offsets reported in errors are byte
positions into the input)::

    state  := ['+'|'-'] term (('+'|'-') term)*
    term   := [coef '*']? ket
    ket    := '|' digit+ '>'            one digit per mode, counts 0-9
            | '|' uint (',' uint)* '>'  comma form, arbitrary counts
    coef   := additive expression over decimal literals of ASCII digits, 'i',
              'sqrt(<unsigned int>)', unary '-', binary '*' '/' '+' '-',
              and parentheses nested at most MAX_NESTING (100) deep; a
              decimal literal immediately followed by 'i' (as in '0.5i')
              is an imaginary literal.

Like kets merge by summing coefficients, and a merged coefficient must have
a finite modulus.  The result is normalized unless ``raw=True``.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from operator import add, itemgetter, mul, sub, truediv

import numpy as np

from .errors import KetParseError, UnitaryFileError
from .fock import (
    PRUNE_THRESHOLD,
    Occupation,
    PureState,
    _lead_phase_factor,
    normalize,
    require_normalized,
)
from .transform import ModeUnitary

# One token after optional whitespace, tried in this order: an operator, a
# ket's opening '|', a decimal literal, a name, or any other character.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>[-+*/()])|(?P<ket>\|)"
    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_]\w*)|(?P<other>\S))"
)
# Parentheses a coefficient may nest.  Each level costs at most four stack
# frames: three, or four inside the right operand of a '+' or '-'.
MAX_NESTING = 100
# How tightly each binary operator of a coefficient binds, and what it does.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}
_APPLY = {"+": add, "-": sub, "*": mul, "/": truediv}

def _scan_ket(text: str, start: int) -> tuple[Occupation, int]:
    """The counts of the ket opening at `start`, and the offset past its '>'."""
    end = text.find(">", start)
    if end < 0:
        raise KetParseError("unterminated ket, missing '>'", start)
    body = text[start + 1 : end]

    def is_uint(token: str) -> bool:
        return token.isascii() and token.isdigit()

    if "," in body:
        counts = []
        offset = start + 1
        for part in body.split(","):
            stripped = part.strip()
            # Where the count starts; a blank part's error is at the part.
            at = offset + part.find(stripped[:1])
            if not is_uint(stripped):
                raise KetParseError(
                    f"expected an unsigned integer mode count, got {stripped!r}", at
                )
            try:
                counts.append(int(stripped))
            except ValueError:  # more digits than Python turns into an int
                raise KetParseError("mode count has too many digits", at) from None
            offset += len(part) + 1
    else:
        compact = "".join(body.split())
        if not compact:
            raise KetParseError("empty ket", start)
        if not is_uint(compact):
            bad = next(
                i for i, ch in enumerate(body) if not (is_uint(ch) or ch.isspace())
            )
            raise KetParseError(
                f"unexpected character {body[bad]!r} inside ket", start + 1 + bad
            )
        counts = [int(ch) for ch in compact]
    return tuple(counts), end + 1


def _tokenize(text: str) -> list[tuple[str, object, int, int]]:
    """Every token of `text` as (kind, value, start, end), then two EOF
    tokens, so that the parser may look one token ahead of EOF and step onto
    it without a bounds check.  The kind is the operator itself, 'i',
    'sqrt', 'NUMBER' (value the float), 'KET' (value the counts) or 'EOF'.
    """
    tokens = []
    pos = 0
    while match := _TOKEN_RE.match(text, pos):
        kind = match.lastgroup
        start, pos, lexeme = match.start(kind), match.end(), match[kind]
        if kind == "ket":
            counts, pos = _scan_ket(text, start)
            tokens.append(("KET", counts, start, pos))
        elif kind == "number":
            tokens.append(("NUMBER", float(lexeme), start, pos))
        elif kind == "name" and lexeme not in ("i", "sqrt"):
            raise KetParseError(f"unknown identifier {lexeme!r}", start)
        elif kind == "other":
            raise KetParseError(f"unexpected character {lexeme!r}", start)
        else:
            tokens.append((lexeme, None, start, pos))
    eof = ("EOF", None, len(text), len(text))
    return tokens + [eof, eof]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> tuple:
        return self.tokens[self.idx + ahead]

    def advance(self) -> tuple:
        self.idx += 1
        return self.tokens[self.idx - 1]

    def expect(self, kind: str, message: str) -> None:
        """Step over the next token, which must be `kind`, else raise
        `message` at its offset."""
        if self.peek()[0] != kind:
            raise KetParseError(message, self.peek()[2])
        self.idx += 1

    def lexeme(self, token: tuple) -> str:
        return self.text[token[2] : token[3]]

    def parse_state(self) -> list[tuple[complex, Occupation, int]]:
        terms = []
        sign = 1.0
        if self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -1.0
        terms.append(self.parse_term(sign))
        while self.peek()[0] in ("+", "-"):
            sign = 1.0 if self.advance()[0] == "+" else -1.0
            terms.append(self.parse_term(sign))
        tok = self.peek()
        if tok[0] != "EOF":
            raise KetParseError(f"unexpected {self.lexeme(tok)!r}", tok[2])
        return terms

    def parse_term(self, sign: float) -> tuple[complex, Occupation, int]:
        kind, counts, start, _ = self.peek()
        if kind == "KET":
            self.advance()
            return complex(sign), counts, start
        coeff = self.parse_coefficient()
        self.expect("*", "expected '*' between coefficient and ket")
        # parse_coefficient stops at a '*' only when a ket follows it.
        _, counts, start, _ = self.advance()
        return sign * coeff, counts, start

    def parse_coefficient(self, floor: int = 0) -> complex:
        """The operators that bind tighter than `floor`, left to right.

        The right operand of '+' or '-' is what binds tighter than it, and
        that of '*' or '/' one unary, so a nesting level costs at most four
        stack frames.  A '*' that a ket follows ends the coefficient.
        """
        value = self.parse_unary()
        while True:
            kind, _, start, _ = self.peek()
            binding = _BINDING.get(kind, 0)
            if binding <= floor or kind == "*" and self.peek(1)[0] == "KET":
                return value
            self.advance()
            rhs = self.parse_coefficient(1) if binding == 1 else self.parse_unary()
            if kind == "/" and rhs == 0:
                raise KetParseError("division by zero in coefficient", start)
            value = _APPLY[kind](value, rhs)

    def parse_unary(self) -> complex:
        sign = 1.0
        while self.peek()[0] == "-":
            self.advance()
            sign = -sign
        return sign * self.parse_atom()

    def parse_atom(self) -> complex:
        tok = kind, value, start, end = self.advance()
        if kind == "NUMBER":
            follower = self.peek()
            if follower[0] == "i" and follower[2] == end:
                self.advance()
                return complex(0.0, value)
            return complex(value)
        if kind == "i":
            return 1j
        if kind == "sqrt":
            self.expect("(", "expected '(' after sqrt")
            arg = self.advance()
            if arg[0] != "NUMBER" or not self.lexeme(arg).isdigit():
                raise KetParseError("sqrt takes an unsigned integer literal", arg[2])
            self.expect(")", "expected ')' to close sqrt")
            return complex(np.sqrt(arg[1]))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise KetParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", start
                )
            self.depth += 1
            value = self.parse_coefficient()
            self.expect(")", "expected ')'")
            self.depth -= 1
            return value
        raise KetParseError(
            f"expected a number, 'i', sqrt(...), '(' or a ket, got {self.lexeme(tok)!r}",
            start,
        )


def parse_state(text: str, *, raw: bool = False) -> PureState:
    """Parse a ket expression into a PureState (normalized unless raw)."""
    terms = _Parser(text).parse_state()
    mode_count = len(terms[0][1])
    first_pos = terms[0][2]
    merged: dict[Occupation, complex] = {}
    for coeff, occ, pos in terms:
        if len(occ) != mode_count:
            raise KetParseError(
                f"ket has {len(occ)} modes but earlier kets have {mode_count}", pos
            )
        value = merged[occ] = merged.get(occ, 0j) + coeff
        if not math.isfinite(math.hypot(value.real, value.imag)):
            raise KetParseError("coefficient is not a number or too large", pos)
    # The parser made every occupation, a tuple of ints of equal length.
    state = PureState._of_checked(mode_count, merged, merged.values())
    if not state.amplitudes:
        raise KetParseError("state is zero after merging like terms", first_pos)
    if raw:
        return state
    return normalize(state)


def format_state(state: PureState, precision: int = 7) -> str:
    """Render a normalized state in canonical order.

    The global phase is canonicalized so the leading amplitude is real and
    positive.  The amplitudes are sorted by occupation once, which takes
    linear time on the canonical order ``apply_redefinition`` emits, and
    each is multiplied once by the lead's phase factor, without a
    canonicalized copy of the state; a product below PRUNE_THRESHOLD is
    left out, as `canonicalize_phase` would drop it, and the kets take the
    comma form when a count kept exceeds 9.  The kept terms then fill one
    joined template, whose kets are %d fields, with one %-format.  The
    output parses back to the same state within 10^(1-precision) per
    amplitude.
    """
    require_normalized(state)
    items = sorted(state.amplitudes.items(), reverse=True)
    factor = _lead_phase_factor(items[0][1])
    terms = [
        (occ, turned)
        for occ, amp in items
        if abs(turned := amp * factor) >= PRUNE_THRESHOLD
    ]
    # Counts above 9 need the comma form of a ket.  A dropped term may hold
    # the only such count, so the form is read off the kept terms.
    counts = chain.from_iterable(map(itemgetter(0), terms))
    ket = "|" + ("," if max(counts) > 9 else "").join(["%d"] * state.mode_count) + ">"
    eps = 0.5 * 10.0 ** (-precision)
    real_term = f" %s %.{precision}f*{ket}"
    unit_term = f" %s {ket}"
    complex_term = f" + (%.{precision}f%+.{precision}fi)*{ket}"

    pieces: list[str] = []
    fields: list = []
    for occ, amp in terms:
        sign = "+" if amp.real >= 0 else "-"
        if abs(amp.imag) >= eps:
            pieces.append(complex_term)
            fields += amp.real, amp.imag
        elif abs(abs(amp.real) - 1.0) < eps:
            pieces.append(unit_term)
            fields.append(sign)
        else:
            pieces.append(real_term)
            fields += sign, abs(amp.real)
        fields += occ
    # Every term opens with " + " or " - "; the first keeps only a minus.
    text = "".join(pieces) % tuple(fields)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _finite_number(value) -> float | None:
    """A JSON number (not a boolean) as a finite float, else None."""
    if type(value) not in (int, float):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def parse_unitary_file(content: bytes | str) -> ModeUnitary:
    """Read the unitary JSON document {"dim": M, "rows": [[[re, im], ..], ..]}.

    A malformed document raises UnitaryFileError, and a matrix that
    ModeUnitary refuses NotUnitaryError.
    """
    if isinstance(content, bytes):
        try:
            content = content.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnitaryFileError(f"not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(content)
    except json.JSONDecodeError as exc:
        raise UnitaryFileError(f"malformed JSON: {exc}") from exc
    except ValueError as exc:  # an integer with more digits than Python reads
        raise UnitaryFileError("integer literal with too many digits") from exc
    except RecursionError as exc:
        raise UnitaryFileError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise UnitaryFileError("top-level JSON value must be an object")
    if "dim" not in doc or "rows" not in doc:
        raise UnitaryFileError("document must have 'dim' and 'rows' fields")
    dim = doc["dim"]
    rows = doc["rows"]
    if type(dim) is not int or dim < 1:
        raise UnitaryFileError(f"'dim' must be a positive integer, got {dim!r}")
    if not isinstance(rows, list) or len(rows) != dim:
        raise UnitaryFileError(f"'rows' must be a list of {dim} rows")
    # Filled entry by entry, so memory follows the document, not dim².
    entries = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise UnitaryFileError(f"row {r} must be a list of {dim} entries")
        for c, entry in enumerate(row):
            parts = list(map(_finite_number, entry)) if isinstance(entry, list) else []
            if len(parts) != 2 or None in parts:
                raise UnitaryFileError(
                    f"entry ({r}, {c}) must be a [re, im] pair of finite numbers"
                )
            entries.append(complex(*parts))
    return ModeUnitary(np.reshape(entries, (dim, dim)))


def format_unitary_file(unitary: ModeUnitary) -> str:
    """Serialize a ModeUnitary to the JSON document format."""
    rows = [
        [[float(z.real), float(z.imag)] for z in row] for row in unitary.matrix
    ]
    return json.dumps({"dim": unitary.dim, "rows": rows})
