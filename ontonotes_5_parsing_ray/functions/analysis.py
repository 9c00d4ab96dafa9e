"""Text analysis kernels: language ID, quality scoring, token counting.

Vectorization contract: every function here has a scalar form plus the Ray
stage applies it over Arrow/pandas batches (``stages/textstats.py``). The
token-count and quality metrics are defined so an equivalent ANSI-SQL
expression exists (DuckDB oracle parity — see ``__ray_entry__.oracle_sql``):

* ``n_tokens(text)``  == ``len(regexp_split_to_array(trim(text), '\\s+'))``
* ``alpha_ratio``     == ``len(regexp_replace(text,'[^A-Za-z]','','g')) / greatest(length(text),1)``
"""

from __future__ import annotations

import re
from typing import Dict

from .text import tokenize_any_text

_WS_RE = re.compile(r"\s+")
_ALPHA_RE = re.compile(r"[A-Za-z]")
_DIGIT_RE = re.compile(r"[0-9]")
_CJK_RE = re.compile("[가-힣぀-ヿ一-鿿]")

STOPWORDS_EN = {
    "the", "a", "an", "and", "of", "to", "in", "is", "it", "that", "for",
    "on", "with", "as", "was", "at", "by", "be", "this", "are", "or",
}

# Per-language closed-class marker words for the n-gram/stopword language
# heuristic (SURVEY.md "language-ID (n-gram heuristic)").
_LANG_MARKERS: Dict[str, frozenset] = {
    "en": frozenset(STOPWORDS_EN),
    "es": frozenset({"el", "la", "los", "las", "de", "que", "y", "es", "en",
                     "un", "una", "por", "con", "para", "no", "se"}),
    "fr": frozenset({"le", "la", "les", "des", "et", "est", "une", "dans",
                     "pour", "que", "qui", "pas", "sur", "avec", "ce"}),
    "de": frozenset({"der", "die", "das", "und", "ist", "nicht", "ein",
                     "eine", "zu", "den", "von", "mit", "auf", "für"}),
}


def n_tokens_sqlish(text: str) -> int:
    """Whitespace token count, exactly matching the DuckDB expression
    ``len(regexp_split_to_array(trim(text), '\\s+'))`` (empty -> 1)."""
    return len(_WS_RE.split(text.strip()))


def count_alpha(text: str) -> int:
    return len(_ALPHA_RE.findall(text))


def count_digit(text: str) -> int:
    return len(_DIGIT_RE.findall(text))


def quality_metrics(text: str) -> Dict[str, float]:
    """Length / character-class / stopword quality features for one document.

    All ratios use ``greatest(len, 1)`` denominators so the SQL twin is exact.
    """
    n_chars = len(text)
    denom = max(n_chars, 1)
    toks = _WS_RE.split(text.strip())
    n_toks = len(toks)
    stop_hits = sum(1 for t in toks if t.lower() in STOPWORDS_EN)
    return {
        "n_chars": float(n_chars),
        "n_tokens": float(n_toks),
        "alpha_ratio": count_alpha(text) / denom,
        "digit_ratio": count_digit(text) / denom,
        "stopword_ratio": stop_hits / max(n_toks, 1),
        "mean_token_len": (len(text.strip()) - (n_toks - 1)) / max(n_toks, 1)
        if text.strip()
        else 0.0,
    }


def detect_language(text: str) -> str:
    """Heuristic language ID: CJK char ratio first, then per-language marker-
    word hit rates; 'und' when nothing fires."""
    if not text.strip():
        return "und"
    n_cjk = len(_CJK_RE.findall(text))
    if n_cjk / max(len(text), 1) > 0.2:
        return "zh"
    tokens = [t.lower() for t in tokenize_any_text(text)]
    if not tokens:
        return "und"
    best_lang, best_hits = "und", 0
    for lang in ("en", "es", "fr", "de"):  # fixed order -> deterministic ties
        hits = sum(1 for t in tokens if t in _LANG_MARKERS[lang])
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    if best_hits == 0:
        return "und"
    return best_lang


def bpe_ish_token_count(text: str) -> int:
    """Rough subword token count: wordpunct tokens, long alphabetic tokens
    counted as ceil(len/4) pieces (the BPE-ish estimate from SURVEY's
    'token counting (whitespace + a BPE-ish regex)')."""
    total = 0
    for tok in tokenize_any_text(text):
        if len(tok) > 4 and tok.isalpha():
            total += -(-len(tok) // 4)
        else:
            total += 1
    return total

