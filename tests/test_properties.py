"""Property-based tests (hypothesis) — the oracle-free invariant style the
reference uses for its Arabic fuzzy-alignment cases (SURVEY.md §5.4)."""

import duckdb
import pytest
from hypothesis import given, settings, strategies as st

from ontonotes_5_parsing_ray.functions.align import align_tokens
from ontonotes_5_parsing_ray.functions.rounding import round_half_away
from ontonotes_5_parsing_ray.functions.spans import (
    check_spans,
    insert_span,
    unite_overlapping_spans,
)
from ontonotes_5_parsing_ray.functions.text import tokenize_any_text

WORDS = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@st.composite
def sorted_disjoint_spans(draw):
    n = draw(st.integers(0, 6))
    spans = []
    pos = 0
    for _ in range(n):
        start = pos + draw(st.integers(1, 4))
        end = start + draw(st.integers(1, 4))
        spans.append((start, end))
        pos = end
    return spans


@given(sorted_disjoint_spans(), st.integers(0, 30), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_insert_span_preserves_invariants(spans, start, length):
    out = insert_span((start, start + length), spans)
    # sorted, disjoint, non-empty; and covers the union of inputs
    prev = -1
    for s, e in out:
        assert s < e
        assert s > prev
        prev = e
    covered = set()
    for s, e in out:
        covered |= set(range(s, e))
    expected = set(range(start, start + length))
    for s, e in spans:
        expected |= set(range(s, e))
    assert covered == expected


@given(st.lists(WORDS, min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_align_own_tokenization_roundtrip(words):
    """Aligning a text against its own tokenization is always exact and
    satisfies every span invariant (text-equality precondition)."""
    text = " ".join(words)
    tokens = tokenize_any_text(text)
    if not tokens:
        return
    bounds = align_tokens(text, tokens)
    assert len(bounds) == len(tokens)
    assert check_spans(text, bounds) == ""
    for (s, e), tok in zip(bounds, tokens):
        assert text[s:e] == tok
    # inter-token gaps are whitespace only
    prev = 0
    for s, e in bounds:
        assert text[prev:s].strip() == ""
        prev = e


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 5)),
                min_size=0, max_size=8))
@settings(max_examples=150, deadline=None)
def test_unite_idempotent_on_its_output(raw):
    spans = sorted((s, s + l) for s, l in raw)
    try:
        united = unite_overlapping_spans(spans)
    except ValueError:
        return  # unsorted-by-contract inputs may raise; not under test here
    assert unite_overlapping_spans(united) == united


@pytest.fixture(scope="module")
def duck():
    return duckdb.connect()


@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False),
       st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_round_half_away_matches_duckdb(x, digits):
    con = duckdb.connect()
    expected = con.execute(
        "SELECT round(?::DOUBLE, ?)", [x, digits]
    ).fetchone()[0]
    got = round_half_away(x, digits)
    assert got == expected, (x, digits, got, expected)


# Arbitrary unicode, plus sentence-shaped text so the draws also reach the
# parse / align / finalize steps, not only the tokenizer's early exits.
TURN_TEXT = st.one_of(
    st.text(max_size=120),
    st.lists(
        st.one_of(
            st.sampled_from(["Alice", "met", "Bob", "in", "Paris", ".", ",",
                             "she", "bought", "Acme", "Corp", "?", "the",
                             "<tool>", "[", "]", "(", ")", "42", "-", "'s"]),
            st.text(min_size=1, max_size=6),
        ),
        max_size=25,
    ).map(" ".join),
)


@given(TURN_TEXT, st.booleans())
@settings(max_examples=300, deadline=None)
def test_annotate_turn_text_dead_letter_contract(text, subwords):
    """Every turn yields ``(record, "")`` or ``(None, reason)`` and never
    raises: an escaped exception would fail the whole fused read+annotate
    task instead of dead-lettering one row."""
    import pyarrow as pa

    from ontonotes_5_parsing_ray.functions.record import annotate_turn_text
    from ontonotes_5_parsing_ray.stages.annotate import annotate_turns

    record, reason = annotate_turn_text(text, simulate_model_tokens=subwords)
    if record is None:
        assert isinstance(reason, str) and reason
    else:
        assert reason == ""
        assert set(record) == {"text", "morphology", "syntax", "entities"}
    out = annotate_turns(pa.table({
        "text": [text], "role": ["tool" if subwords else "user"]}),
        emit="both")
    assert out.column("ok").to_pylist() == [record is not None]
    assert out.column("error").to_pylist() == [reason]
