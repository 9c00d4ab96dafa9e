"""Alignment tests: exact, fuzzy ladder, subword DP (reference utils.py:225-404)."""

import pytest

from ontonotes_5_parsing_ray.functions import align
from ontonotes_5_parsing_ray.functions.align import (
    align_tokens,
    exact_token_bounds,
    fuzzy_token_bounds,
    glue_wordpieces,
    split_word_into_subwords,
)
from ontonotes_5_parsing_ray.functions.spans import check_spans
from ontonotes_5_parsing_ray.functions.text import tokenize_any_text


def test_exact_bounds_greedy():
    text = "Alice Zhang founded Acme Corp ."
    toks = tokenize_any_text(text)
    bounds = exact_token_bounds(text, toks)
    assert bounds[0] == (0, 5)
    assert [text[s:e] for s, e in bounds] == toks


def test_exact_bounds_raises_on_missing_token():
    with pytest.raises(ValueError):
        exact_token_bounds("abc def", ["abc", "xyz"])


def test_subword_dp_earliest_split_tiebreak():
    bounds, dist = split_word_into_subwords("Corporation", ["Corp", "##orat", "##ion"])
    assert bounds == [(0, 4), (4, 8), (8, 11)]
    # equal-length base case: one char per subword
    bounds, _ = split_word_into_subwords("abc", ["a", "b", "c"])
    assert bounds == [(0, 1), (1, 2), (2, 3)]
    # single subword: whole word
    bounds, _ = split_word_into_subwords("abcdef", ["abq"])
    assert bounds == [(0, 6)]
    with pytest.raises(ValueError):
        split_word_into_subwords("ab", ["x", "y", "z"])


def test_fuzzy_alignment_covers_subword_tokens():
    text = "Corporation announced results"
    tokens = ["Corp", "##orat", "##ion", "anno", "##unce", "##d", "resu", "##lts"]
    bounds = align_tokens(text, tokens)
    assert bounds == [(0, 4), (4, 8), (8, 11), (12, 16), (16, 20), (20, 21),
                      (22, 26), (26, 29)]
    assert check_spans(text, bounds) == ""


def _spy(monkeypatch, name):
    """Count calls of ``align.<name>`` (looked up per call by the aligner)."""
    calls = []
    original = getattr(align, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(align, name, wrapper)
    return calls


def test_wordpieces_align_exactly_without_the_ladder(monkeypatch):
    fuzzy = _spy(monkeypatch, "fuzzy_token_bounds")
    text = "Corporation announced"
    bounds = align_tokens(text, ["Corp", "##orat", "##ion", "announced"])
    assert bounds == [(0, 4), (4, 8), (8, 11), (12, 21)]
    assert fuzzy == []


def test_punctuation_hash_tokens_stay_words():
    assert glue_wordpieces(["a", "##", "###", "##b"]) == [
        ["a"], ["##"], ["###", "b"]]
    text = "a ## b ###"
    assert align_tokens(text, ["a", "##", "b", "###"]) == [
        (0, 1), (2, 4), (5, 6), (7, 10)]


def test_leading_continuation_piece_is_a_word():
    assert glue_wordpieces(["##x", "y", "##z"]) == [["##x"], ["y", "z"]]
    assert align_tokens("##x yz", ["##x", "y", "##z"]) == [
        (0, 3), (4, 5), (5, 6)]


def test_glued_word_that_differs_from_text_takes_the_ladder(monkeypatch):
    """Lower-cased pieces: the glued word "corporation" is not in the text,
    so exact alignment fails, the fuzzy ladder places the word and
    ``split_word_into_subwords`` cuts its span into the pieces."""
    fuzzy = _spy(monkeypatch, "fuzzy_token_bounds")
    subword = _spy(monkeypatch, "split_word_into_subwords")
    text = "Corporation announced"
    bounds = align_tokens(text, ["corp", "##orat", "##ion", "announced"])
    assert bounds == [(0, 4), (4, 8), (8, 11), (12, 21)]
    assert len(fuzzy) == 1
    assert subword == [("Corporation", ["corp", "orat", "ion"])]


def test_fuzzy_equal_token_count_short_circuits():
    text = "hello world"
    bounds = fuzzy_token_bounds(text, ["xxxxx", "yyyyy"])
    assert bounds == [(0, 5), (6, 11)]


def test_align_raises_when_hopeless():
    with pytest.raises(ValueError):
        align_tokens("abc", ["zzzzzz", "qqqqqq", "wwwwww", "abc", "x", "y", "z", "q"])


def test_property_invariants_on_cjk():
    text = "他 访问 了 北京"
    toks = tokenize_any_text(text)
    bounds = align_tokens(text, toks)
    # property-style: monotone, in-range, stripped, whitespace-only gaps
    assert check_spans(text, bounds) == ""
    prev = 0
    for s, e in bounds:
        assert text[prev:s].strip() == ""
        prev = e


TOOL_PHRASES = [
    "retrieving comprehensive documentation results for {0}",
    "executing standardized reconciliation procedures against {0}",
    "aggregating intermediate representations for {0} deployment",
    "status ok rows {1} cache hit for {0}",
    "fetched {1} records from the index",
]
TOOL_NAMES = ["Graisk Gor", "Acme Corporation", "Brouthel Labs",
              "Zanderholm Group", "Klimpt", "Northwind Traders", "Ostrava"]


def _tool_output(nbytes):
    """A long tool output: templated phrases full of 9+ letter words, so
    most of its tokens become wordpieces."""
    parts, size = [], 0
    while size < nbytes:
        i = len(parts)
        parts.append(TOOL_PHRASES[i % len(TOOL_PHRASES)].format(
            TOOL_NAMES[i % len(TOOL_NAMES)], 37 * i % 1000))
        size += len(parts[-1]) + 3
    return " . ".join(parts)


@pytest.mark.parametrize("kb", [8, 50])
def test_long_tool_turn_annotates_in_bounded_time(monkeypatch, kb):
    """Multi-KB tool outputs annotate cleanly without the fuzzy ladder, in
    time linear in their length: the 50 KB turn takes a fraction of a
    second, so the 5 s bound is generous."""
    import time

    from ontonotes_5_parsing_ray.functions.record import annotate_turn_text

    fuzzy = _spy(monkeypatch, "fuzzy_token_bounds")
    text = _tool_output(kb * 1024)
    t0 = time.perf_counter()
    record, error = annotate_turn_text(text, simulate_model_tokens=True)
    elapsed = time.perf_counter() - t0
    assert error == ""
    assert record is not None and record["text"] == text
    assert fuzzy == []
    assert elapsed < 5.0
