"""Hostile and random input to the command line ends in a documented exit
code, within a time bound, with no traceback."""

import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmodes.cli import run_cli

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
# Wall-time bound per case; the slowest cases (optimize in three modes) take
# well under a tenth of a second.
CASE_SECONDS = 3.0


@st.composite
def coefficients(draw) -> str:
    """'', or a decimal coefficient from 1e-300 to 1e400, maybe imaginary."""
    if draw(st.booleans()):
        return ""
    mantissa = draw(st.integers(1, 9))
    exponent = draw(st.integers(-300, 400))
    imaginary = draw(st.sampled_from(["", "i"]))
    return f"{mantissa}e{exponent}{imaginary}*"


@st.composite
def kets(
    draw, max_modes: int, max_count: int, max_terms: int, max_photons: int
) -> tuple[str, int]:
    """A ket expression in digit or comma form, and its mode count.

    Each term fills at most four modes, so hundreds of modes stay cheap to draw.
    """
    mode_count = draw(st.integers(1, max_modes))
    comma = max_count > 9 and draw(st.booleans())
    cap = max_count if comma else min(max_count, 9)
    filled = st.dictionaries(
        st.integers(0, mode_count - 1), st.integers(1, cap), max_size=4
    )
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        occ, left = [0] * mode_count, max_photons
        for mode, count in draw(filled).items():
            occ[mode] = min(count, left)
            left -= occ[mode]
        body = ",".join(map(str, occ)) if comma else "".join(map(str, occ))
        terms.append(draw(coefficients()) + f"|{body}>")
    signs = draw(
        st.lists(st.sampled_from("+-"), min_size=len(terms), max_size=len(terms))
    )
    text = terms[0] + "".join(f" {sign} {term}" for sign, term in zip(signs, terms[1:]))
    return text, mode_count


CUT_KINDS = ("valid", "overlap", "out-of-range", "empty-side")


@st.composite
def partitions(draw, mode_count: int, kinds=CUT_KINDS) -> str:
    """A cut that is valid, overlapping, out of range, or has an empty side."""
    kind = draw(st.sampled_from(kinds))
    modes = list(range(mode_count))
    draw(st.randoms(use_true_random=False)).shuffle(modes)
    split = draw(st.integers(1, max(1, mode_count - 1)))
    side_a, side_b = modes[:split], modes[split:]
    if kind == "overlap":
        side_b.append(side_a[0])
    elif kind == "out-of-range":
        side_b.append(mode_count + draw(st.integers(0, 5)))
    elif kind == "empty-side":
        side_a, side_b = (modes, []) if draw(st.booleans()) else ([], modes)
    return ",".join(map(str, side_a)) + "|" + ",".join(map(str, side_b))


def run_case(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    elapsed = time.perf_counter() - start
    assert code in DOCUMENTED_EXITS, (code, err.getvalue())
    assert elapsed < CASE_SECONDS, elapsed
    if code == 0:
        doc = json.loads(out.getvalue())
        entropy = doc.get("entropy_bits", 0.0)
        assert math.isfinite(entropy) and math.copysign(1.0, entropy) == 1.0
    else:
        assert "error: " in err.getvalue()


@given(
    st.sampled_from(["entropy", "rank-bound"]),
    kets(max_modes=300, max_count=10**7, max_terms=4, max_photons=10**9).flatmap(
        lambda ket: st.tuples(st.just(ket[0]), partitions(ket[1]))
    ),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fuzz_entropy_and_rank_bound(command, case):
    text, cut = case
    run_case([command, text, "--partition", cut, "--json"])


@given(
    kets(max_modes=3, max_count=4, max_terms=3, max_photons=4).flatmap(
        lambda ket: st.tuples(st.just(ket[0]), partitions(ket[1], kinds=("valid",)))
    ),
    st.sampled_from(["min", "max"]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fuzz_optimize(case, direction):
    text, cut = case
    run_case(["optimize", text, "--partition", cut, "--direction", direction,
              "--restarts", "1", "--json"])


# JSON values that a unitary entry or 'dim' must not pass for a number:
# booleans, integers past float range, NaN and infinities, and non-numbers.
HOSTILE_NUMBERS = st.one_of(
    st.booleans(),
    st.integers(309, 400).map(lambda exponent: 10**exponent),
    st.sampled_from([math.nan, math.inf, -math.inf, -(10**400), None, "1", [1]]),
)
DOCUMENT_KINDS = (
    "unitary", "other-modes", "hostile-entry", "hostile-dim", "ragged-row",
    "mis-sized", "bad-pair", "non-unitary",
)


@st.composite
def unitary_documents(draw, mode_count: int) -> str:
    """A unitary JSON document meant for `mode_count` modes: a permutation
    with phases, maybe spoiled by a hostile number, a ragged row, a wrong
    number of rows, an entry that is not a pair, or a non-unitary entry."""
    kind = draw(st.sampled_from(DOCUMENT_KINDS))
    dim = mode_count + (kind == "other-modes")
    order = draw(st.permutations(range(dim)))
    phases = st.sampled_from([[1, 0], [-1, 0], [0, 1], [0.0, -1.0]])
    rows = [
        [list(draw(phases)) if c == order[r] else [0, 0] for c in range(dim)]
        for r in range(dim)
    ]
    r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    if kind == "hostile-entry":
        rows[r][c][draw(st.integers(0, 1))] = draw(HOSTILE_NUMBERS)
    elif kind == "hostile-dim":
        dim = draw(st.one_of(HOSTILE_NUMBERS, st.sampled_from([0, -1, dim + 1, 1.0])))
    elif kind == "ragged-row":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + [[0, 0]]
    elif kind == "mis-sized":
        rows = rows[:-1] if draw(st.booleans()) else rows + [rows[0]]
    elif kind == "bad-pair":
        rows[r][c] = rows[r][c][:1] if draw(st.booleans()) else rows[r][c] + [0]
    elif kind == "non-unitary":
        rows[r][c] = [draw(st.floats(-3, 3)), draw(st.floats(-3, 3))]
    return json.dumps({"dim": dim, "rows": rows})


@pytest.fixture(scope="module")
def unitary_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "unitary.json"


@given(
    kets(max_modes=4, max_count=3, max_terms=3, max_photons=6).flatmap(
        lambda ket: st.tuples(st.just(ket[0]), unitary_documents(ket[1]))
    ),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fuzz_transform(unitary_path, case):
    text, document = case
    unitary_path.write_text(document)
    run_case(["transform", text, "--unitary", str(unitary_path), "--json"])
