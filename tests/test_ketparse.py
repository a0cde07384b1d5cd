import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmodes import (
    KetParseError,
    NotUnitaryError,
    ParseError,
    PureState,
    UnitaryFileError,
    apply_redefinition,
    canonicalize_phase,
    format_state,
    format_unitary_file,
    inner_product,
    parse_state,
    parse_unitary_file,
)
from fockmodes.ketparse import MAX_NESTING
from fockmodes.suite import balanced_mixer

from conftest import random_state, random_unitary


def test_parse_compact_kets():
    state = parse_state("|20> + |02>")
    assert state.amplitudes[(2, 0)] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[(0, 2)] == pytest.approx(1 / math.sqrt(2))


def test_parse_four_mode_with_minus():
    state = parse_state("|0220> + |2002> - |1111>")
    target = 1 / math.sqrt(3)
    assert state.amplitudes[(0, 2, 2, 0)] == pytest.approx(target)
    assert state.amplitudes[(2, 0, 0, 2)] == pytest.approx(target)
    assert state.amplitudes[(1, 1, 1, 1)] == pytest.approx(-target)


def test_parse_explicit_coefficients_match_auto_normalization():
    explicit = parse_state("(1/sqrt(2))*|0,1> + (1/sqrt(2))*|1,0>")
    auto = parse_state("|01>+|10>")
    assert set(explicit.amplitudes) == set(auto.amplitudes)
    for occ in explicit.amplitudes:
        assert explicit.amplitudes[occ] == pytest.approx(auto.amplitudes[occ])


def test_parse_comma_form_allows_double_digits():
    state = parse_state("|10,0> + |0,10>", raw=True)
    assert set(state.amplitudes) == {(10, 0), (0, 10)}


def test_parse_coefficient_grammar():
    state = parse_state("2*i*|10> - (1-i)*|01>", raw=True)
    assert state.amplitudes[(1, 0)] == pytest.approx(2j)
    assert state.amplitudes[(0, 1)] == pytest.approx(-(1 - 1j))

    state = parse_state("0.5i*|10> + sqrt(9)/3*|01>", raw=True)
    assert state.amplitudes[(1, 0)] == pytest.approx(0.5j)
    assert state.amplitudes[(0, 1)] == pytest.approx(1.0)

    state = parse_state("-|10>", raw=True)
    assert state.amplitudes[(1, 0)] == pytest.approx(-1.0)


def test_parse_merges_like_kets():
    merged = parse_state("|10> + |10>")
    single = parse_state("|10>")
    assert merged.amplitudes == pytest.approx(single.amplitudes)


def test_parse_mode_count_mismatch():
    with pytest.raises(KetParseError) as err:
        parse_state("|01> + |001>")
    assert err.value.position == 7


def test_parse_zero_state():
    with pytest.raises(KetParseError):
        parse_state("|10> - |10>")


def test_parse_syntax_errors_carry_offsets():
    cases = {
        "|01> + ": 7,          # dangling separator
        "|0x1>": 2,            # bad char inside ket
        "2*": 2,               # missing ket after '*'
        "(1+2*|01>": 4,        # unclosed paren: '*' binds to ket, ')' missing
        "sqrt(2.5)*|01>": 5,   # sqrt wants an unsigned integer
        "foo*|01>": 0,         # unknown identifier
        "|01": 0,              # unterminated ket
    }
    for text, offset in cases.items():
        with pytest.raises(KetParseError) as err:
            parse_state(text)
        assert err.value.position == offset, text


@given(st.text(alphabet="0123456789+-*/()|><,.isqrt ", max_size=40))
@settings(max_examples=400, deadline=None)
def test_parser_totality(text):
    # Every input either parses or raises a positioned parse error.
    try:
        parse_state(text)
    except KetParseError as err:
        assert 0 <= err.position <= len(text)


@given(st.text(max_size=30))
@settings(max_examples=300, deadline=None)
def test_parser_totality_arbitrary_unicode(text):
    try:
        parse_state(text)
    except KetParseError as err:
        assert 0 <= err.position <= len(text)


@pytest.mark.parametrize("text", ["|1\n0>", "|1\r0>", "|1\x0b0>", "|1\xa00>"])
def test_any_whitespace_inside_a_digit_ket_is_insignificant(text):
    # Whitespace is insignificant inside a ket as everywhere else, not only
    # spaces and tabs; none of these may end in StopIteration.
    assert parse_state(text).amplitudes == {(1, 0): 1.0}


WHITESPACE = " \t\n\r\x0b\xa0"


@given(
    st.text(alphabet="0123456789+-*/()|><,.isqrt" + WHITESPACE, max_size=20),
    st.text(alphabet="0123456789," + WHITESPACE, max_size=10),
    st.text(alphabet="0123456789+-*/()|><,.isqrt" + WHITESPACE, max_size=20),
)
@settings(max_examples=400, deadline=None)
def test_parser_totality_with_any_whitespace(head, body, tail):
    # One ket body of counts, commas and whitespace among arbitrary text.
    text = f"{head}|{body}>{tail}"
    try:
        parse_state(text)
    except KetParseError as err:
        assert 0 <= err.position <= len(text)


def test_parse_rejects_non_ascii_digits():
    # Characters like a superscript two satisfy str.isdigit() but are not
    # valid mode counts.
    with pytest.raises(KetParseError):
        parse_state("|²>")


# Inputs and their outcomes (the normalized amplitudes, or the message and
# offset) as the parser gave them before it scanned with one compiled
# pattern; a changed outcome is a change of the grammar.
PINNED_OUTCOMES = [
    ('|20> + |02>', {(2, 0): (0.7071067811865475+0j), (0, 2): (0.7071067811865475+0j)}),
    ('|0220> + |2002> - |1111>', {(0, 2, 2, 0): (0.5773502691896258+0j), (2, 0, 0, 2): (0.5773502691896258+0j), (1, 1, 1, 1): (-0.5773502691896258+0j)}),
    ('-|01> + i*|10>', {(0, 1): (-0.7071067811865475+0j), (1, 0): 0.7071067811865475j}),
    ('2*i*|10> - (1-i)*|01>', {(1, 0): 0.8164965809277259j, (0, 1): (-0.40824829046386296+0.40824829046386296j)}),
    ('0.5i*|10> + |01>', {(1, 0): 0.4472135954999579j, (0, 1): (0.8944271909999159+0j)}),
    ('0.5 i*|10> + |01>', ("expected '*' between coefficient and ket (at offset 4)", 4)),
    ('0.5*i*|10> + |01>', {(1, 0): 0.4472135954999579j, (0, 1): (0.8944271909999159+0j)}),
    ('1 + 2*|10> + |01>', {(1, 0): (0.9486832980505138+0j), (0, 1): (0.31622776601683794+0j)}),
    ('1 + 2*|10>', {(1, 0): (1+0j)}),
    ('(1 + 2)*|10> - 3*|01>', {(1, 0): (0.7071067811865476+0j), (0, 1): (-0.7071067811865476+0j)}),
    ('2*3*|10> + |01>', {(1, 0): (0.9863939238321437+0j), (0, 1): (0.1643989873053573+0j)}),
    ('1/2/4*|10> + |01>', {(1, 0): (0.12403473458920847+0j), (0, 1): (0.9922778767136677+0j)}),
    ('--1*|10> + |01>', {(1, 0): (0.7071067811865475+0j), (0, 1): (0.7071067811865475+0j)}),
    ('- -|10> + |01>', ("expected a number, 'i', sqrt(...), '(' or a ket, got '|10>' (at offset 3)", 3)),
    ('sqrt(9)/3*|01> + sqrt(2)*|10>', {(0, 1): (0.5773502691896257+0j), (1, 0): (0.816496580927726+0j)}),
    ('.5e1*|10> + 5.*|01>', {(1, 0): (0.7071067811865475+0j), (0, 1): (0.7071067811865475+0j)}),
    ('1e-300*|10> + |01>', {(0, 1): (1+0j)}),
    ('1e200*|10> + 1e200*|01>', {(1, 0): (0.7071067811865475+0j), (0, 1): (0.7071067811865475+0j)}),
    ('1e400*|01>', ('coefficient is not a number or too large (at offset 6)', 6)),
    ('|10,0> + |0,10>', {(10, 0): (0.7071067811865475+0j), (0, 10): (0.7071067811865475+0j)}),
    (' |1 , 2 ,3> ', {(1, 2, 3): (1+0j)}),
    ('|1,\n0> - |0,1>', {(1, 0): (0.7071067811865475+0j), (0, 1): (-0.7071067811865475+0j)}),
    ('|1\xa00> + |0\u20031>', {(1, 0): (0.7071067811865475+0j), (0, 1): (0.7071067811865475+0j)}),
    ('\u3000|10>\x1c+\x1d|01>\u2028', {(1, 0): (0.7071067811865475+0j), (0, 1): (0.7071067811865475+0j)}),
    ('|1\x1c0>', {(1, 0): (1+0j)}),
    ('٣*|10> + |01>', ("unexpected character '٣' (at offset 0)", 0)),
    ('sqrt(٣)*|10> + |01>', ("unexpected character '٣' (at offset 5)", 5)),
    ('|٣0>', ("unexpected character '٣' inside ket (at offset 1)", 1)),
    ('|²>', ("unexpected character '²' inside ket (at offset 1)", 1)),
    ('i²*|10>', ("unknown identifier 'i²' (at offset 0)", 0)),
    ('2²*|10>', ("unexpected character '²' (at offset 1)", 1)),
    ('|01', ("unterminated ket, missing '>' (at offset 0)", 0)),
    ('|1,,0>', ("expected an unsigned integer mode count, got '' (at offset 3)", 3)),
    ('|1, x,0>', ("expected an unsigned integer mode count, got 'x' (at offset 4)", 4)),
    ('|10,0> + |0, 1x>', ("expected an unsigned integer mode count, got '1x' (at offset 13)", 13)),
    ('|1,2,>', ("expected an unsigned integer mode count, got '' (at offset 5)", 5)),
    ('| >', ('empty ket (at offset 0)', 0)),
    ('|>', ('empty ket (at offset 0)', 0)),
    ('|0x1>', ("unexpected character 'x' inside ket (at offset 2)", 2)),
    ('foo*|01>', ("unknown identifier 'foo' (at offset 0)", 0)),
    ('e*|01>', ("unknown identifier 'e' (at offset 0)", 0)),
    ('1e*|01>', ("unknown identifier 'e' (at offset 1)", 1)),
    ('|01> # |10>', ("unexpected character '#' (at offset 5)", 5)),
    ('|01> |10>', ("unexpected '|10>' (at offset 5)", 5)),
    ('|01>)', ("unexpected ')' (at offset 4)", 4)),
    ('2|01>', ("expected '*' between coefficient and ket (at offset 1)", 1)),
    ('2*', ("expected a number, 'i', sqrt(...), '(' or a ket, got '' (at offset 2)", 2)),
    ('2**|01>', ("expected a number, 'i', sqrt(...), '(' or a ket, got '*' (at offset 2)", 2)),
    ('1/0*|01>', ('division by zero in coefficient (at offset 1)', 1)),
    ('1/(1-1)*|01>', ('division by zero in coefficient (at offset 1)', 1)),
    ('sqrt 2*|01>', ("expected '(' after sqrt (at offset 5)", 5)),
    ('sqrt(2.5)*|01>', ('sqrt takes an unsigned integer literal (at offset 5)', 5)),
    ('sqrt(1e2)*|01>', ('sqrt takes an unsigned integer literal (at offset 5)', 5)),
    ('sqrt(2*|01>', ("expected ')' to close sqrt (at offset 6)", 6)),
    ('sqrt(-2)*|01>', ('sqrt takes an unsigned integer literal (at offset 5)', 5)),
    ('(1+2*|01>', ("expected ')' (at offset 4)", 4)),
    ('((1)*|01>', ("expected ')' (at offset 4)", 4)),
    ('|01> + ', ("expected a number, 'i', sqrt(...), '(' or a ket, got '' (at offset 7)", 7)),
    ('*|01>', ("expected a number, 'i', sqrt(...), '(' or a ket, got '*' (at offset 0)", 0)),
    ('', ("expected a number, 'i', sqrt(...), '(' or a ket, got '' (at offset 0)", 0)),
    ('   ', ("expected a number, 'i', sqrt(...), '(' or a ket, got '' (at offset 3)", 3)),
    ('+', ("expected a number, 'i', sqrt(...), '(' or a ket, got '' (at offset 1)", 1)),
    ('|01> + |001>', ('ket has 3 modes but earlier kets have 2 (at offset 7)', 7)),
    ('|01> + 2*|1,0,0>', ('ket has 3 modes but earlier kets have 2 (at offset 9)', 9)),
    ('|10> - |10>', ('state is zero after merging like terms (at offset 0)', 0)),
    ('1e-16*|10>', ('state is zero after merging like terms (at offset 6)', 6)),
    ('|01> + 1e308*|10> + 1e308*|10>', ('coefficient is not a number or too large (at offset 26)', 26)),
    ('i*|10> + 1>', ("unexpected character '>' (at offset 10)", 10)),
]


@pytest.mark.parametrize("text, outcome", PINNED_OUTCOMES)
def test_pinned_parser_outcomes(text, outcome):
    if isinstance(outcome, dict):
        amplitudes = parse_state(text).amplitudes
        assert list(amplitudes) == list(outcome)
        assert amplitudes == outcome
        return
    with pytest.raises(KetParseError) as err:
        parse_state(text)
    assert (str(err.value), err.value.position) == outcome


def nested(depth: int) -> str:
    return "|01> - " + "(" * depth + "2" + ")" * depth + "*|10>"


def test_nesting_at_the_bound_parses():
    state = parse_state(nested(MAX_NESTING), raw=True)
    assert state.amplitudes == {(0, 1): 1.0, (1, 0): -2.0}


def test_nesting_past_the_bound_is_a_parse_error_at_that_paren():
    text = nested(MAX_NESTING + 1)
    with pytest.raises(KetParseError) as err:
        parse_state(text)
    assert err.value.position == len("|01> - ") + MAX_NESTING
    assert text[err.value.position] == "("


# What opens one nesting level of a coefficient.
OPENERS = ["(", "(-", "(1+", "( ", "(2*"]


@st.composite
def nested_coefficients(draw) -> tuple[str, int, int]:
    """A coefficient nested up to three times the bound, maybe unbalanced,
    with its depth and the length of one level's opening."""
    depth = draw(st.integers(0, 3 * MAX_NESTING))
    opener = draw(st.sampled_from(OPENERS))
    inner = draw(st.sampled_from(["1", "-2i", "sqrt(2)", "1/0", "", "i*"]))
    closers = max(0, depth - draw(st.sampled_from([0, 0, 0, 1, 2])))
    tail = draw(st.sampled_from(["*|10>", "*|10> + |01>", "*|1,0>", ""]))
    return opener * depth + inner + ")" * closers + tail, depth, len(opener)


@given(nested_coefficients())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_parser_totality_with_nested_parentheses(case):
    text, depth, step = case
    try:
        parse_state(text)
    except KetParseError as err:
        assert 0 <= err.position <= len(text)
        if depth > MAX_NESTING:
            # The first '(' past the bound is the error, before any other.
            assert err.position == step * MAX_NESTING
    else:
        assert depth <= MAX_NESTING


def stack_depth() -> int:
    """Frames on the caller's stack, the caller's own included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("opener", OPENERS + ["(1+2*"])
def test_each_nesting_level_costs_at_most_four_stack_frames(opener):
    # In '(1+2*' the next level is the right operand of a '*' that is itself
    # the right operand of a '+'.
    text = "|01> - " + opener * MAX_NESTING + "2" + ")" * MAX_NESTING + "*|10>"
    limit = sys.getrecursionlimit()
    # Four frames a level, and 25 for the calls above the first level.
    sys.setrecursionlimit(stack_depth() + 4 * MAX_NESTING + 25)
    try:
        state = parse_state(text, raw=True)
    finally:
        sys.setrecursionlimit(limit)
    assert set(state.amplitudes) == {(0, 1), (1, 0)}


def test_comma_count_errors_point_at_the_count():
    # A blank part has no count, so its error is where the part starts.
    for text, offset in [("|1, ,0>", 3), ("|1,\t 7x>", 5)]:
        with pytest.raises(KetParseError) as err:
            parse_state(text)
        assert err.value.position == offset
    with pytest.raises(KetParseError, match="too many digits") as err:
        parse_state("|0, " + "1" * 5000 + " >")
    assert err.value.position == 4


def test_format_basic_examples():
    assert format_state(parse_state("|10>")) == "|10>"
    rendered = format_state(parse_state("|20> + |02>"))
    assert rendered == "0.7071068*|20> + 0.7071068*|02>"


def test_format_negative_and_complex_amplitudes():
    rendered = format_state(parse_state("|20> - |02>"))
    assert rendered == "0.7071068*|20> - 0.7071068*|02>"
    rendered = format_state(parse_state("|20> + i*|02>"))
    assert "i)*|02>" in rendered


@pytest.mark.parametrize(
    "text, precision, rendered",
    [
        (
            "|10,2> - 0.5i*|0,12> + 0.25*|6,6>",
            7,
            "0.8728716*|10,2> + 0.2182179*|6,6> + (0.0000000-0.4364358i)*|0,12>",
        ),
        ("-i*|021>", 7, "|021>"),
        ("|3,0,10>", 7, "|3,0,10>"),
        (
            "|20> + sqrt(2)*|11> - i*|02>",
            15,
            "0.500000000000000*|20> + 0.707106781186548*|11>"
            " + (0.000000000000000-0.500000000000000i)*|02>",
        ),
        (
            "(1+2i)*|101> - 0.3*|011> + 1e-9*|110>",
            15,
            "0.000000000443242*|110> + (0.443242207177936+0.886484414355873i)*|101>"
            " - 0.132972662153381*|011>",
        ),
    ],
)
def test_format_exact_strings(text, precision, rendered):
    assert format_state(parse_state(text), precision=precision) == rendered


def test_format_round_trip_on_random_states(rng):
    for _ in range(100):
        mode_count = int(rng.integers(1, 5))
        totals = tuple(rng.choice(4, size=int(rng.integers(1, 3)), replace=False))
        state = random_state(rng, mode_count, totals)
        recovered = parse_state(format_state(state, precision=7))
        reference = canonicalize_phase(state)
        recovered = canonicalize_phase(recovered)
        for occ in set(reference.amplitudes) | set(recovered.amplitudes):
            delta = abs(
                reference.amplitudes.get(occ, 0j) - recovered.amplitudes.get(occ, 0j)
            )
            assert delta < 1e-6


def test_format_round_trip_uniform_triple():
    state = parse_state("|11> + |20> + |02>")
    recovered = parse_state(format_state(state))
    assert abs(inner_product(state, recovered)) == pytest.approx(1.0, abs=1e-6)


def reference_format(state, precision=7):
    """Term-by-term renderer of a phase-canonicalized copy, kept as the oracle
    for `format_state`."""
    canon = canonicalize_phase(state)
    eps = 0.5 * 10.0 ** (-precision)
    spec = f".{precision}f"
    support = canon.support()
    separator = "," if max(map(max, support)) > 9 else ""
    pieces = []
    for occ in support:
        amp = canon.amplitudes[occ]
        ket = f"|{separator.join(map(str, occ))}>"
        if abs(amp.imag) < eps:
            magnitude = abs(amp.real)
            joiner = "+" if amp.real >= 0 else "-"
            if abs(magnitude - 1.0) < eps:
                body = ket
            else:
                body = f"{magnitude:{spec}}*{ket}"
        else:
            joiner = "+"
            im_sign = "+" if amp.imag >= 0 else "-"
            body = f"({amp.real:{spec}}{im_sign}{abs(amp.imag):{spec}}i)*{ket}"
        if not pieces:
            pieces.append(body if joiner == "+" else f"-{body}")
        else:
            pieces.append(f" {joiner} {body}")
    return "".join(pieces)


def edge_state(rng, precision):
    """Random state whose amplitudes sit on the renderer's decision edges.

    One to five terms in one to four modes, in digit or comma form, with
    mixed totals.  Each term but a filler is Gaussian-like, has an
    imaginary part within one ulp of the rounding half-width eps (either
    sign), a modulus near the prune threshold or up to 5e-8, or a share of
    a weight that leaves the filler within about eps of magnitude one.
    The filler makes the norm one; it may sit anywhere, so the lead (the
    first ket) is sometimes tiny.  Half of the states carry a global phase.
    """
    eps = 0.5 * 10.0 ** (-precision)
    mode_count = int(rng.integers(1, 5))
    high = int(rng.choice([3, 9, 12]))
    occs = {
        tuple(int(c) for c in rng.integers(0, high + 1, mode_count))
        for _ in range(int(rng.integers(1, 6)))
    }
    near_eps = [eps, math.nextafter(eps, 0.0), math.nextafter(eps, 1.0)]
    tiny = [1e-15, math.nextafter(1e-15, 1.0), 3e-15, 1e-12, 5e-8]
    near_unit = rng.random() < 0.25
    amps = []
    for _ in range(len(occs) - 1):
        # Every modulus is below 0.45, so four of them weigh less than one.
        kind = 3 if near_unit else int(rng.integers(0, 3))
        if kind == 0:
            amp = 0.45 * rng.random() * np.exp(1j * rng.uniform(-np.pi, np.pi))
        elif kind == 1:
            amp = complex(rng.uniform(-0.4, 0.4), rng.choice(near_eps) * rng.choice([-1, 1]))
        elif kind == 2:
            amp = rng.choice(tiny) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        else:
            amp = math.sqrt(2.0 * eps * rng.choice([0.5, 1.0, 1.5]) / len(occs))
        amps.append(complex(amp))
    filler = math.sqrt(1.0 - sum(abs(a) ** 2 for a in amps)) * rng.choice([1, -1, 1j, -1j])
    amps.insert(int(rng.integers(0, len(occs))), complex(filler))
    if rng.random() < 0.5:
        phase = complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))
        amps = [a * phase for a in amps]
    return PureState(mode_count, dict(zip(sorted(occs, reverse=True), amps)))


@pytest.mark.parametrize("precision", [1, 7, 15])
def test_format_matches_reference_renderer(precision):
    # Each state also renders from a copy whose dict lists it in shuffled order.
    rng = np.random.default_rng(1000 + precision)
    shuffle = np.random.default_rng(precision)
    for _ in range(700):
        state = edge_state(rng, precision)
        expected = reference_format(state, precision)
        assert format_state(state, precision) == expected
        items = list(state.amplitudes.items())
        shuffled = dict(items[i] for i in shuffle.permutation(len(items)))
        assert format_state(PureState(state.mode_count, shuffled), precision) == expected


@pytest.mark.parametrize(
    "ket",
    [
        "|2,1,1,1,0>",
        "|1,1,1,1,1,0> - 0.5i*|0,0,0,0,0,5>",
        "|2,2,1,0,0,1>",
        "|10,0,0,0>",
        "|4,0,6,0> + 0.3*|0,10,0,0>",
    ],
)
def test_format_matches_reference_renderer_on_rewritten_states(ket):
    # 126 to 462 terms in the order apply_redefinition emits them; the last
    # two need the comma form.
    rng = np.random.default_rng(53)
    state = parse_state(ket)
    for _ in range(2):
        rewritten = apply_redefinition(state, random_unitary(rng, state.mode_count))
        assert 100 <= len(rewritten) <= 462
        assert format_state(rewritten) == reference_format(rewritten)


def test_format_drops_a_lead_that_the_phase_factor_prunes():
    # |(1e-15 e^{i phi})|^2 / |1e-15 e^{i phi}| rounds below PRUNE_THRESHOLD,
    # so the lead |10,0> is dropped and the digit form applies to the rest.
    state = PureState(2, {
        (10, 0): 1.5640617756767192e-17 - 9.998776780567646e-16j,
        (0, 1): 0.9930469341054476 + 0.11771910067516933j,
    })
    assert format_state(state) == "(-0.1021728+0.9947667i)*|01>"
    assert format_state(state) == reference_format(state)


def test_unitary_file_round_trip():
    doc = format_unitary_file(balanced_mixer())
    unitary = parse_unitary_file(doc.encode())
    np.testing.assert_allclose(unitary.matrix, balanced_mixer().matrix, atol=1e-12)


def test_unitary_file_identity():
    content = json.dumps(
        {"dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    ).encode()
    unitary = parse_unitary_file(content)
    np.testing.assert_allclose(unitary.matrix, np.eye(2), atol=1e-15)


def test_unitary_file_errors():
    with pytest.raises(UnitaryFileError):
        parse_unitary_file(b"not json")
    with pytest.raises(UnitaryFileError):
        parse_unitary_file(json.dumps({"dim": 2, "rows": [[[1, 0]]]}).encode())
    with pytest.raises(UnitaryFileError):
        parse_unitary_file(json.dumps({"rows": []}).encode())
    with pytest.raises(NotUnitaryError) as err:
        parse_unitary_file(
            json.dumps(
                {"dim": 2, "rows": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]}
            ).encode()
        )
    assert err.value.residual is not None
    assert isinstance(err.value, Exception)
    # A splitter written to 8 digits misses unitarity by 3.4e-9, above the
    # 1e-10 that every ModeUnitary meets, and the message names the residual.
    a = 0.70710678
    with pytest.raises(NotUnitaryError, match=r"3\.356e-09") as err:
        parse_unitary_file(json.dumps({"dim": 2, "rows": [[[a, 0], [a, 0]], [[a, 0], [-a, 0]]]}))
    assert err.value.residual == pytest.approx(3.356e-9, rel=1e-3)
    for content in (b"\xff", b"[]"):
        with pytest.raises(UnitaryFileError):
            parse_unitary_file(content)
    # Booleans are not numbers here, and every entry must be a finite float.
    huge = "1" + "0" * 400
    for doc in [
        '{"dim": true, "rows": [[[1, 0]]]}',
        '{"dim": 1, "rows": [[[true, false]]]}',
        '{"dim": 1, "rows": [[[%s, 0]]]}' % huge,
        '{"dim": 1, "rows": [[[0, -%s]]]}' % huge,
        '{"dim": 1, "rows": [[[NaN, 0]]]}',
        '{"dim": 1, "rows": [[[1, Infinity]]]}',
        '{"dim": 1, "rows": [[[1e400, 0]]]}',
        # Rows are checked before any dim x dim array is allocated.
        '{"dim": 100000, "rows": [%s]}' % ", ".join(["[]"] * 100000),
    ]:
        with pytest.raises(UnitaryFileError):
            parse_unitary_file(doc)


def test_parse_errors_are_parse_error_subclass():
    assert issubclass(KetParseError, ParseError)
    assert issubclass(UnitaryFileError, ParseError)
