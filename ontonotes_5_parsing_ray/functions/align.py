"""Token-to-text span alignment.

Re-implements the reference's alignment semantics:

* exact greedy alignment (reference ``ontonotes5/utils.py:225-239``),
* fuzzy alignment via a length-normalized Levenshtein DP over token sequences
  with configurable insertion/deletion costs plus path backtrace and 1-to-many
  grouping (``utils.py:287-404``),
* subword splitting — the reference's exponential recursion
  (``utils.py:242-284``) re-done as a memoized DP with identical outputs
  (same feasible segmentations, same earliest-split tie-breaking),
* the escalating-cost retry ladder (``utils.py:657-709``).

Wordpiece tokens (continuation pieces marked ``##``) are glued back into
words before alignment, so they align exactly and in linear time; the fuzzy
ladder runs only for real word-level mismatches between tokens and text.

All functions are pure; the Ray annotation stage calls them per row inside
``map_batches``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .distance import levenshtein_cached
from .spans import Span, check_spans
from .text import tokenize_any_text


def exact_token_bounds(text: str, tokens: Sequence[str]) -> List[Span]:
    """Greedy left-to-right ``str.find`` alignment (utils.py:225-239).

    Raises ``ValueError`` if any token cannot be found after the moving cursor.
    """
    bounds: List[Span] = []
    pos = 0
    for token in tokens:
        idx = text.find(token, pos)
        if idx < 0:
            raise ValueError(
                f'Token "{token}" is not found in the text "{text}"! start_pos = {pos}'
            )
        bounds.append((idx, idx + len(token)))
        pos = idx + len(token)
    return bounds


def split_word_into_subwords(
    word: str, subwords: Sequence[str]
) -> Tuple[List[Span], int]:
    """Partition ``word`` into ``len(subwords)`` contiguous non-empty pieces
    minimizing the total edit distance piece-vs-subword.

    Matches the reference recursion's outputs (utils.py:242-284) — including
    its earliest-split-point tie-breaking — but runs in polynomial time via a
    suffix DP (the reference is exponential in the number of subwords).
    """
    n, m = len(word), len(subwords)
    if n < m:
        raise ValueError(f"Word {word} does not correspond to sub-words {list(subwords)}.")
    if n == m:
        bounds = [(i, i + 1) for i in range(n)]
        dist = sum(levenshtein_cached(word[i], sw) for i, sw in enumerate(subwords))
        return bounds, dist
    if m == 1:
        return [(0, n)], levenshtein_cached(word, subwords[0])

    INF = float("inf")
    # best[j][i]: minimal cost of matching word[i:] against subwords[j:]
    best: List[Dict[int, float]] = [dict() for _ in range(m + 1)]
    choice: List[Dict[int, int]] = [dict() for _ in range(m)]
    best[m] = {n: 0.0}
    for j in range(m - 1, -1, -1):
        sw = subwords[j]
        remaining = m - 1 - j  # subwords after j, each needs >= 1 char
        for i in range(j, n - remaining + (0 if j else 1)):
            # feasible start positions: at least j chars consumed before,
            # leave >= remaining chars after this piece
            best_cost = INF
            best_k = -1
            for k in range(i + 1, n - remaining + 1):
                nxt = best[j + 1].get(k, INF)
                if nxt is INF:
                    continue
                c = levenshtein_cached(word[i:k], sw) + nxt
                if c < best_cost:  # strict < == earliest-split tie-break
                    best_cost = c
                    best_k = k
            if best_k >= 0:
                best[j][i] = best_cost
                choice[j][i] = best_k
    bounds: List[Span] = []
    i = 0
    for j in range(m):
        k = choice[j][i]
        bounds.append((i, k))
        i = k
    return bounds, int(best[0][0])


def fuzzy_token_bounds(
    text: str,
    tokens: Sequence[str],
    insertion_cost: float = 3.0,
    deletion_cost: float = 1.0,
) -> List[Span]:
    """Fuzzy alignment of a token sequence to raw text (utils.py:287-404).

    Re-tokenizes ``text`` with the language-agnostic tokenizer, aligns the two
    token sequences with a Needleman-Wunsch-style DP whose substitution cost is
    the length-normalized edit distance, backtraces an optimal path, groups
    path cells into 1-to-many source/target runs, and splits multi-token runs
    with :func:`split_word_into_subwords`.
    """
    if not text.strip():
        return []
    source_tokens = [t for t in (tok.strip() for tok in tokenize_any_text(text)) if t]
    token_bounds = exact_token_bounds(text, source_tokens)
    n_s, n_t = len(source_tokens), len(tokens)
    if n_s == n_t:
        return token_bounds

    target = list(tokens)
    # Substitution-cost matrix: 0 for equal tokens, else length-normalized
    # edit distance (memoized — tokens repeat heavily across turns).
    sub = np.empty((n_s, n_t), dtype=np.float32)
    for i, s_tok in enumerate(source_tokens):
        ls = len(s_tok)
        row = sub[i]
        for j, t_tok in enumerate(target):
            row[j] = 0.0 if s_tok == t_tok else (
                levenshtein_cached(s_tok, t_tok) / max(ls, len(t_tok))
            )
    # Row-vectorized DP: D[i,j] = min(D[i-1,j]+del, D[i,j-1]+ins, D[i-1,j-1]+sub)
    # The D[i,j-1] dependence is a prefix-min:
    #   A[j] = min(D[i-1,j]+del, D[i-1,j-1]+sub[j-1])
    #   D[i,j] = min_{k<=j} A[k] + (j-k)*ins
    #          = cummin(A - j*ins)[j] + j*ins
    D = np.zeros((n_s + 1, n_t + 1), dtype=np.float32)
    ins_ramp = (np.arange(n_t + 1, dtype=np.float32) * insertion_cost)
    D[0, :] = ins_ramp
    for i in range(1, n_s + 1):
        prev = D[i - 1]
        A = np.empty(n_t + 1, dtype=np.float32)
        A[0] = prev[0] + deletion_cost
        np.minimum(prev[1:] + deletion_cost, prev[:-1] + sub[i - 1], out=A[1:])
        D[i] = np.minimum.accumulate(A - ins_ramp) + ins_ramp

    # Backtrace with the reference's exact tie-breaking (utils.py:338-365).
    i, j = n_s, n_t
    path: List[Tuple[int, int]] = [(i - 1, j - 1)]
    while i > 1 and j > 1:
        if D[i - 1, j - 1] < D[i - 1, j]:
            if D[i - 1, j - 1] < D[i, j - 1]:
                i -= 1
                j -= 1
            else:
                j -= 1
        else:
            if D[i - 1, j] < D[i, j - 1]:
                i -= 1
            else:
                j -= 1
        path.insert(0, (i - 1, j - 1))
    while i > 1:
        i -= 1
        path.insert(0, (i - 1, j - 1))
    while j > 1:
        j -= 1
        path.insert(0, (i - 1, j - 1))

    # Group the monotone path into 1-to-many pairs (utils.py:367-386).
    pairs: List[Tuple[List[int], List[int]]] = [([path[0][0]], [path[0][1]])]
    for si, ti in path[1:]:
        if si > pairs[-1][0][-1]:
            if ti > pairs[-1][1][-1]:
                pairs.append(([si], [ti]))
            else:
                pairs[-1][0].append(si)
        else:
            if ti > pairs[-1][1][-1]:
                pairs[-1][1].append(ti)

    bounds: List[Span] = []
    for src_idx, tgt_idx in pairs:
        span_start = token_bounds[src_idx[0]][0]
        span_end = token_bounds[src_idx[-1]][1]
        if len(tgt_idx) > 1:
            sub_bounds, _ = split_word_into_subwords(
                text[span_start:span_end], target[tgt_idx[0]: tgt_idx[-1] + 1]
            )
            bounds += [(s + span_start, e + span_start) for s, e in sub_bounds]
        else:
            bounds.append((span_start, span_end))
    return bounds


# A continuation piece: the marker followed by a word character, so the
# punctuation tokens "##" and "###" stay words of their own.
_CONTINUATION_RE = re.compile(r"##\w")


def glue_wordpieces(tokens: Sequence[str]) -> List[List[str]]:
    """Group wordpiece tokens into words: each continuation piece
    ``"##" + w`` joins the token before it, with the marker removed.

    Returns one list of pieces per word; ``"".join(pieces)`` is the word. A
    continuation piece with no token before it starts a word of its own.
    """
    pieces: List[List[str]] = []
    for tok in tokens:
        if pieces and _CONTINUATION_RE.match(tok):
            pieces[-1].append(tok[2:])
        else:
            pieces.append([tok])
    return pieces


def split_word_bounds(
    text: str, word_bounds: Sequence[Span], pieces: Sequence[Sequence[str]]
) -> List[Span]:
    """Split each word's span into one span per piece.

    A word whose text equals its joined pieces is cut at the piece lengths;
    any other word (a fuzzy match) goes through
    :func:`split_word_into_subwords`.
    """
    bounds: List[Span] = []
    for (start, end), word_pieces in zip(word_bounds, pieces):
        if len(word_pieces) == 1:
            bounds.append((start, end))
        elif text[start:end] == "".join(word_pieces):
            for piece in word_pieces:
                bounds.append((start, start + len(piece)))
                start += len(piece)
        else:
            sub_bounds, _ = split_word_into_subwords(text[start:end], word_pieces)
            bounds += [(s + start, e + start) for s, e in sub_bounds]
    return bounds


def _ladder_costs(max_restarts: int) -> Iterator[Tuple[float, float]]:
    """(insertion, deletion) costs of the fuzzy attempts (utils.py:657-709):
    (1, 1); then insertion escalates by 1 for ``max_restarts`` attempts;
    then insertion resets to 1 and deletion escalates the same way."""
    yield 1.0, 1.0
    for step in range(1, max_restarts + 1):
        yield 1.0 + step, 1.0
    for step in range(1, max_restarts + 1):
        yield 1.0, 1.0 + step


def align_tokens(
    text: str,
    tokens: Sequence[str],
    max_restarts: int = 5,
) -> List[Span]:
    """Wordpiece-aware exact alignment with the escalating-cost fuzzy ladder.

    Continuation pieces are glued into words (:func:`glue_wordpieces`), the
    words are aligned, and each word's span is split back into its pieces
    (:func:`split_word_bounds`). Token lists without continuation pieces
    align their tokens as they are.

    Words align exactly first; only if that fails does the reference's
    fuzzy ladder run (utils.py:657-709, see :func:`_ladder_costs`), each
    attempt validated with :func:`check_spans` on the split spans.
    Raises ``ValueError`` when every attempt fails.
    """
    pieces = glue_wordpieces(tokens)
    words = ["".join(p) for p in pieces]

    def split(word_bounds: List[Span]) -> List[Span]:
        if len(pieces) == len(tokens):
            return word_bounds
        return split_word_bounds(text, word_bounds, pieces)

    try:
        return split(exact_token_bounds(text, words))
    except ValueError:
        pass
    for insertion, deletion in _ladder_costs(max_restarts):
        try:
            bounds = split(fuzzy_token_bounds(text, words, insertion, deletion))
            if check_spans(text, bounds) == "":
                break
        except Exception:
            pass
    else:
        raise ValueError(f'Text "{text}" cannot be aligned with tokens {list(tokens)}')
    if len(bounds) != len(tokens):
        raise ValueError(
            f"Alignment arity mismatch: {len(tokens)} tokens vs {len(bounds)} spans"
        )
    return bounds
