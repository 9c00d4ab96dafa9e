"""Property-based tests (hypothesis) — the oracle-free invariant style the
reference uses for its Arabic fuzzy-alignment cases (SURVEY.md §5.4)."""

import json

import duckdb
import pandas as pd
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


SURFACES = ["Acme", "acme", "ACME!", "Bolt Labs", "bolt labs", "Cora", "Dax"]


@st.composite
def link_payload(draw):
    """One turn's ``link_json`` payload: mentions and verbs laid out left to
    right (disjoint spans, sorted — ``turn_link_payload``'s contract)."""
    mentions, verbs, pos = [], [], 0
    for _ in range(draw(st.integers(0, 5))):
        start = pos + draw(st.integers(1, 3))
        pos = start + draw(st.integers(1, 4))
        slot = draw(st.sampled_from(["entity", "entity", "pronoun", "verb"]))
        if slot == "verb":
            verbs.append([start, pos, draw(st.sampled_from(["meet", "hire"]))])
        elif slot == "pronoun":
            mentions.append([start, pos, draw(st.sampled_from(["he", "It"])),
                             "PRON", True])
        else:
            mentions.append([start, pos, draw(st.sampled_from(SURFACES)),
                             draw(st.sampled_from(["ORG", "PERSON"])), False])
    return mentions, verbs


@st.composite
def annotated_convs(draw):
    """Annotated turns of 1-3 conversations: ids start at or below zero and
    have gaps (so runs straddle bucket boundaries); some turns dead-letter."""
    rows = []
    for c in range(draw(st.integers(1, 3))):
        turn = draw(st.integers(-6, 2))
        for _ in range(draw(st.integers(1, 14))):
            turn += draw(st.integers(1, 6))
            ok = draw(st.integers(0, 7)) > 0
            rows.append({
                "conv_id": f"c{c}", "turn_idx": turn, "ok": ok,
                "link_json": json.dumps(draw(link_payload())) if ok else "",
                "error": "" if ok else "cannot be aligned",
                "ts": 1000 + turn, "lang": "en"})
    order = draw(st.permutations(range(len(rows))))
    return pd.DataFrame([rows[i] for i in order])


def _union_sorted(df):
    return df.sort_values(list(df.columns), kind="mergesort") \
        .reset_index(drop=True)


@given(annotated_convs(), st.integers(1, 8), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_bucketed_link_equals_link_conversation(turns, bucket_turns, n_chunks):
    """The salted linker's kernels — phase A per bucket, then phase B
    summaries + merge and phase C apply, both co-partitioned
    (``finalize_partition``) and over arbitrary batches as the driver-dict
    route runs them — give exactly ``link_conversation``'s rows."""
    from ontonotes_5_parsing_ray.functions.kgrules import link_conversation
    from ontonotes_5_parsing_ray.stages.link import (
        _EMPTY,
        UNION_COLUMNS,
        _dtype,
        _parse_payload,
        _spanning_convs,
        apply_resolutions,
        bucket_summaries,
        finalize_partition,
        link_partition,
        resolve_buckets,
    )

    expected = []
    for conv, g in turns.sort_values("turn_idx").groupby("conv_id"):
        base = {**_EMPTY, "conv_id": conv}
        for r in g[~g["ok"]].itertuples():
            expected.append({**base, "row_kind": "error",
                             "turn_idx": r.turn_idx, "error": r.error})
        ok = g[g["ok"]]
        mentions, triples = link_conversation([
            (t, *_parse_payload(p)) for t, p in zip(ok["turn_idx"], ok["link_json"])])
        for m in mentions:
            expected.append({**base, **m, "row_kind": "mention",
                             "antecedent": m["antecedent"] or "",
                             "ts": 1000 + m["turn_idx"], "lang": "en"})
        for t in triples:
            expected.append({**base, **t, "row_kind": "triple"})
    expected = _union_sorted(pd.DataFrame(expected, columns=UNION_COLUMNS)
                             .astype({c: _dtype(c) for c in UNION_COLUMNS}))

    phase_a = link_partition(turns, bucket_turns)
    assert list(phase_a.columns) == UNION_COLUMNS
    co_partitioned = finalize_partition(phase_a, bucket_turns)
    pd.testing.assert_frame_equal(_union_sorted(co_partitioned), expected)

    chunks = [phase_a.iloc[i::n_chunks] for i in range(n_chunks)]
    convs = set(pd.concat([_spanning_convs(c, bucket_turns)
                           for c in chunks])["conv_id"])
    resolutions = resolve_buckets(pd.concat(
        [bucket_summaries(c, convs, bucket_turns) for c in chunks]))
    by_batch = pd.concat([apply_resolutions(c, resolutions, bucket_turns)
                          for c in chunks])
    pd.testing.assert_frame_equal(_union_sorted(by_batch), expected)
