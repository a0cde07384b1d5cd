#!/usr/bin/env python3
"""The outcome of ``parse_state`` on many seeded inputs, one JSON line each.

    python3 tools/parse_outcomes.py --src PATH [--seed 0] [--count 200000]

Imports fockmodes from PATH (a checkout's ``src`` directory) and nowhere
else, and parses, in this order:

- `--count` seeded strings, half drawn from the ket grammar (coefficients,
  digit and comma kets, whitespace of several kinds, Unicode digits) with a
  few characters inserted, deleted or replaced, half random Unicode text;
- coefficients nested in 1 to 300 parentheses, in five shapes per depth;
- comma kets with counts of 4 300 to 5 000 digits, at and past Python's
  default int-to-str limit;
- the texts of ``bench/workloads.py``'s ``Rewrite(seed)`` and
  ``Objective(seed)`` in this checkout.

Each line holds the input, its deepest parenthesis nesting, and either the
state's amplitudes in dict order as float hex, or the exception's type,
message and offset (a ``RecursionError`` by its type alone).  The inputs
depend only on the seed and the count, so two trees are compared with
``diff`` of their outputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from checkout import use_src

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Whitespace of several kinds, a Unicode digit and a superscript two.
SPACES = " \t\n\xa0\x0b\x1c"
ALPHABET = "0123456789+-*/()|><,.eEisqrt²٣" + SPACES


def grammar_text(rng: random.Random) -> str:
    """A ket expression of one to four terms, maybe mutated."""

    def space() -> str:
        return rng.choice(["", "", "", " ", rng.choice(SPACES)])

    def number() -> str:
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 3)))
        return rng.choice([
            digits,
            f"{digits}.{rng.randint(0, 99)}",
            f".{digits}",
            f"{digits}.",
            f"{digits}e{rng.choice(['', '+', '-'])}{rng.randint(0, 400)}",
            "٣",
        ])

    def coefficient(depth: int) -> str:
        kind = rng.randrange(8 if depth < 3 else 4)
        if kind == 0:
            return number()
        if kind == 1:
            return number() + rng.choice(["i", " i", ""])
        if kind == 2:
            return rng.choice(["i", "sqrt(2)", "sqrt(2.5)", "sqrt(09)", "sqrt 3"])
        if kind == 3:
            return f"{number()}{space()}{rng.choice('+-*/')}{space()}{number()}"
        if kind == 4:
            return f"({space()}{coefficient(depth + 1)}{space()})"
        if kind == 5:
            return f"-{coefficient(depth + 1)}"
        op = rng.choice("+-*/")
        return f"{coefficient(depth + 1)}{space()}{op}{space()}{coefficient(depth + 1)}"

    def ket(modes: int) -> str:
        if rng.random() < 0.3:
            counts = [str(rng.randint(0, 12)) for _ in range(modes)]
            return "|" + ",".join(space() + c + space() for c in counts) + ">"
        return "|" + "".join(rng.choice("0123") + space() for _ in range(modes)) + ">"

    modes = rng.randint(1, 4)
    terms = []
    for _ in range(rng.randint(1, 4)):
        term = ket(modes if rng.random() < 0.9 else modes + 1)
        if rng.random() < 0.6:
            term = f"{coefficient(0)}{space()}*{space()}{term}"
        terms.append(term)
    text = rng.choice(["", "-", "+"]) + "".join(
        (f"{space()}{rng.choice('+-')}{space()}" if index else "") + term
        for index, term in enumerate(terms)
    )
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randint(0, len(text))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1 :]
    return text


def unicode_text(rng: random.Random) -> str:
    """Up to 30 characters, each from the grammar's alphabet or anywhere."""
    chars = []
    for _ in range(rng.randint(0, 30)):
        if rng.random() < 0.7:
            chars.append(rng.choice(ALPHABET))
        else:
            code = rng.randrange(0x110000)
            chars.append(chr(code if not 0xD800 <= code < 0xE000 else 0x20))
    return "".join(chars)


def nested_texts(depth: int) -> list[str]:
    """Five coefficients nested `depth` parentheses deep, before a ket; the
    last costs the parser the most stack frames per level."""
    return [
        "(" * depth + "1" + ")" * depth + "*|10>",
        "|01> - " + "(-" * depth + "2i" + ")" * depth + "*|10>",
        "(1+" * depth + "sqrt(2)" + ")" * depth + "*|1,0>",
        "(" * depth + "1" + ")" * (depth - 1) + "*|10>",
        "(1+2*" * depth + "1" + ")" * depth + "*|10>",
    ]


def long_count_texts() -> list[str]:
    """Comma kets with a count of 4 300 digits (the default int-to-str
    limit), 4 301 and 5 000, alone, after a space and in a later term."""
    return [
        text
        for digits in (4300, 4301, 5000)
        for text in (
            "|" + "9" * digits + ",0>",
            "|0, " + "1" * digits + " >",
            "2*|1,0> + |" + "9" * digits + ",0>",
        )
    ]


def nesting(text: str) -> int:
    """Deepest run of '(' not yet closed by ')' in `text`."""
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", required=True, help="directory holding the fockmodes package"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200000)
    args = parser.parse_args()
    if args.count < 0:
        raise SystemExit("error: --count must not be negative")

    use_src(args.src)
    sys.path.insert(1, str(BENCH))
    from fockmodes import ketparse
    from workloads import Objective, Rewrite

    rng = random.Random(args.seed)
    texts = [
        grammar_text(rng) if index % 2 == 0 else unicode_text(rng)
        for index in range(args.count)
    ]
    texts += [text for depth in range(1, 301) for text in nested_texts(depth)]
    texts += long_count_texts()
    texts += [item["text"] for item in Rewrite(args.seed).items]
    texts += [source["text"] for source in Objective(args.seed).sources]

    for text in texts:
        line = {"input": text, "nesting": nesting(text)}
        try:
            state = ketparse.parse_state(text)
        except RecursionError:
            line["error"] = "RecursionError"
        except Exception as exc:  # every outcome is recorded, not only parse errors
            line["error"] = type(exc).__name__
            line["message"] = str(exc)
            line["offset"] = getattr(exc, "position", None)
        else:
            line["amplitudes"] = [
                [list(occ), amp.real.hex(), amp.imag.hex()]
                for occ, amp in state.amplitudes.items()
            ]
        print(json.dumps(line))


if __name__ == "__main__":
    main()
