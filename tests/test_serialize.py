"""The JSON writer and the problem-block reader against their references.

``dump_json`` must write exactly the bytes of the standard library's indented
encoder, and ``pairs_to_matrix`` must return the bits, and raise the
messages, of its per-entry loop, whichever path a value takes.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinspace import serialize
from kreinspace.serialize import (
    ProblemFormatError,
    complex_to_pair,
    dump_json,
    matrix_to_pairs,
    pair_to_complex,
    pairs_to_matrix,
)

CONTRACT = Path(__file__).parent / "data" / "contract"


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Float(float):
    """A float subclass, which the encoders write with ``float.__repr__``."""

    def __repr__(self):
        return f"Float({float(self)!r})"


class Int(int):
    def __repr__(self):
        return f"Int({int(self)!r})"


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.integers(2**53, 2**80) | st.integers(-(2**80), -(2**53)),
    st.sampled_from([-0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e308]),
)
# strings that read like the structure the splice edits
STRINGS = st.text() | st.sampled_from(
    ["], [", ", ", '"', '"], ["', "[]", "{}", "]]", "\\", "null", "é✓", "1e5"]
)
SCALARS = st.none() | st.booleans() | NUMBERS | STRINGS


def nested(leaves, min_size=1):
    """Lists nested to one random depth 1..3, ragged, with ``leaves`` at the bottom."""

    def wrap(depth):
        inner = leaves
        for _ in range(depth):
            inner = st.lists(inner, min_size=min_size, max_size=4)
        return inner

    return st.integers(1, 3).flatmap(wrap)


MATRICES = st.one_of(
    nested(NUMBERS),
    # empty lists, and bools or None among the numbers: the member-by-member walk
    nested(NUMBERS, min_size=0),
    nested(NUMBERS | st.booleans() | st.none()),
)
DOCUMENTS = st.recursive(
    SCALARS | MATRICES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_dump_json_writes_the_indented_encoders_bytes(doc):
    assert dump_json(doc) == oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [[[1.0, -0.0], [math.nan, math.inf]], [[-math.inf, 5e-324], [2**64, -3]]],
        [[1, 2], [3, 4, 5], [6]],  # ragged, one depth throughout
        [[[1]], [2]],  # two depths
        [[1], []],
        [[1, []]],
        [[{}], [[]]],
        [(1.0, 2.0), (3.0, 4.0)],
        {"é": {"ü": [1, [2]]}, "x": ["], [", ", "], "y": {}},
        {1: [[1]], 2: 3},
        {1.5: "a", 2.5: [[1]]},
        {None: [True, [1]]},
        [{"a": 1}, [1], "s"],
        {"f": Float(0.5), "i": Int(3), "m": [[Float(1.5), Int(2)]], "n": Float("nan")},
    ],
)
def test_dump_json_on_documents_that_probe_each_path(doc):
    assert dump_json(doc) == oracle(doc)


@pytest.mark.parametrize(
    "doc", [[{1, 2}], [[1.0, 2.0], [3.0, object()]], {(1,): 2}, {"a": {(1,): [1]}}]
)
def test_dump_json_rejects_what_the_encoder_rejects(doc):
    with pytest.raises(TypeError) as ours:
        dump_json(doc)
    with pytest.raises(TypeError) as theirs:
        oracle(doc)
    assert str(ours.value) == str(theirs.value)


# expected.json is written with indent=1 by tests/contract.py; every other
# file there is a problem file that the writer produced
@pytest.mark.parametrize(
    "path",
    sorted(p for p in CONTRACT.glob("*.json") if p.name != "expected.json"),
    ids=lambda p: p.name,
)
def test_contract_problem_files_round_trip_byte_for_byte(path):
    text = path.read_text()
    assert dump_json(json.loads(text)) == text


def test_matrix_to_pairs_gives_the_floats_of_complex_to_pair():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = complex(-0.0, -0.0)
    m[1, 2] = complex(math.nan, 5e-324)
    m[2, 3] = complex(math.inf, -math.inf)
    pairs = matrix_to_pairs(m.T)  # a non-contiguous view
    expected = [[complex_to_pair(z) for z in row] for row in m.T]
    assert {type(x) for row in pairs for pair in row for x in pair} == {float}
    assert np.array(pairs).tobytes() == np.array(expected).tobytes()
    assert dump_json(pairs) == oracle(expected)


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

# -0.0, subnormals, a small int, and ints past 2**53 and 2**63, which round
# on conversion
ENTRIES = [-0.0, 5e-324, -2.5e-310, 7]
ENTRIES += [2**53 + 1, -(2**53) - 3, 2**63 + 1025, 2**64 + 2049]


def loop_matrix(data):
    """The per-entry loop's matrix of a well-formed block."""
    return np.array([[pair_to_complex(p) for p in row] for row in data], dtype=complex)


@pytest.mark.parametrize("seed", range(8))
def test_bulk_block_has_the_bits_of_the_loop(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    scale = 10.0 ** rng.integers(-300, 300)
    values = (rng.standard_normal((rows, cols, 2)) * scale).tolist()
    for row in values:
        for pair in row:
            for k in range(2):
                if rng.random() < 0.3:
                    pair[k] = ENTRIES[int(rng.integers(len(ENTRIES)))]
    expected = loop_matrix(values)

    def no_loop(pair):
        raise AssertionError("the block left the bulk path")

    monkeypatch.setattr(serialize, "pair_to_complex", no_loop)
    got = pairs_to_matrix(values, (rows, cols), "A11")
    assert got.dtype == np.complex128 and got.shape == (rows, cols)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "data",
    [
        [[(1.0, -2.0), [3.0, 4.0]]],
        [[[Float(1.5), 0.0], [3.0, 4.0]]],
    ],
    ids=["tuple pair", "float subclass"],
)
def test_loop_still_accepts_tuples_and_float_subclasses(monkeypatch, data):
    calls = []

    def counting(pair):
        calls.append(pair)
        return pair_to_complex(pair)

    monkeypatch.setattr(serialize, "pair_to_complex", counting)
    got = pairs_to_matrix(data, (1, 2), "A11")
    assert calls
    assert got.tobytes() == loop_matrix(data).tobytes()


HUGE = 10**400
NUMERIC = "complex entries must be numeric, got "
PAIR = "complex entries must be [re, im], got "


@pytest.mark.parametrize(
    "data, message",
    [
        ([[[True, 0.0], [1.0, 0.0]]], f"{NUMERIC}[True, 0.0]"),
        ([[["1.5", 0.0], [1.0, 0.0]]], f"{NUMERIC}['1.5', 0.0]"),
        ([[[1.0, 0.0], [None, 0.0]]], f"{NUMERIC}[None, 0.0]"),
        ([[[1.0], [1.0, 0.0]]], f"{PAIR}[1.0]"),
        ([[[1.0, 0.0], [1.0, 0.0, 2.0]]], f"{PAIR}[1.0, 0.0, 2.0]"),
        ([[[1.0, 0.0]]], "A12 row 0 must have 2 entries"),
        ([([1.0, 0.0], [1.0, 0.0])], "A12 row 0 must have 2 entries"),
        ([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]], "A12 must have 1 rows"),
        (json.loads("[[[1e400, 0], [1, 0]]]"), "non-finite entry [inf, 0]"),
        ([[[1.0, 0.0], [0.0, HUGE]]], f"entry beyond the float range [0.0, {HUGE}]"),
    ],
    ids=[
        "bool",
        "numeric string",
        "None",
        "1-element pair",
        "3-element pair",
        "short row",
        "tuple row",
        "extra row",
        "1e400",
        "huge int",
    ],
)
def test_malformed_block_raises_the_loops_message(data, message):
    with pytest.raises(ProblemFormatError, match=re.escape(message) + "$"):
        pairs_to_matrix(data, (1, 2), "A12")


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"mu": [0.0, 3.0]}, "mu"),
        ({"contour_rule": "x"}, "contour_rule"),
        ({"riccati_tol": 1.0}, "riccati_tol"),
    ],
    ids=["mu", "contour_rule", "riccati_tol"],
)
def test_config_from_overrides_refuses_unknown_keys(overrides, key):
    # the one reader of the solver object names the key; the shift is always
    # selected, and the quadrature rule and the thresholds are fixed
    message = re.escape(f"unknown solver keys: ['{key}']") + "$"
    with pytest.raises(ProblemFormatError, match=message):
        serialize.config_from_overrides({"polish": False, **overrides})


@pytest.mark.parametrize("declared", [HUGE, 2**62], ids=["10**400", "2**62"])
def test_declared_size_is_checked_against_the_rows_before_allocating(declared):
    # numpy refuses both shapes without allocating: the short row must be
    # rejected before any array of the declared shape is asked for
    message = re.escape(f"A12 row 0 must have {declared} entries") + "$"
    with pytest.raises(ProblemFormatError, match=message):
        pairs_to_matrix([[[1.0, 0.0]]], (1, declared), "A12")
    doc = {
        "version": "1",
        "structure": {"p": 1, "m": declared},
        "blocks": {name: [[[1.0, 0.0]]] for name in ("A11", "A12", "A21", "A22")},
    }
    with pytest.raises(ProblemFormatError, match=message):
        serialize.problem_from_dict(doc)
