"""Tokenization and text normalization kernels.

Semantics mirror the reference's language-agnostic tokenizer and text cleanup
(reference ``ontonotes5/utils.py:12-49`` ``tokenize_any_text``,
``utils.py:651-656`` whitespace fixpoint, ``utils.py:505,627-648`` special-token
filtering) without depending on nltk: ``wordpunct_tokenize`` is equivalent to
``re.findall(r"\\w+|[^\\w\\s]+", s)``.
"""

from __future__ import annotations

import re
from typing import List, Pattern, Sequence, Tuple

# nltk.wordpunct_tokenize == regexp tokenizer over \w+|[^\w\s]+
_WORDPUNCT_RE = re.compile(r"\w+|[^\w\s]+", re.UNICODE)

# CJK runs: Hangul syllables, Hiragana+Katakana, CJK Unified Ideographs
# (same ranges the reference detects, utils.py:13-15).
_CJK_RE = re.compile("([가-힣]+|[぀-ヿ]+|[一-鿿]+)")

# Trace / disfluency markup dropped from the token stream and blanked out of
# the plain text (reference utils.py:505 `^(\-[A-Z]+\-|EDITED)$`).
SPECIAL_TOKEN_RE: Pattern = re.compile(r"^(\-[A-Z]+\-|EDITED)$")


def wordpunct_tokenize(s: str) -> List[str]:
    return _WORDPUNCT_RE.findall(s)


def tokenize_any_text(s: str) -> List[str]:
    """Language-agnostic tokenizer.

    CJK runs are split character-by-character; everything between/around them
    goes through the wordpunct tokenizer — matching the reference tokenizer's
    observable behaviour (utils.py:12-49).
    """
    cjk_spans: List[Tuple[int, int]] = [m.span() for m in _CJK_RE.finditer(s)]
    if not cjk_spans:
        return wordpunct_tokenize(s)
    tokens: List[str] = []
    pos = 0
    for start, end in cjk_spans:
        seg = s[pos:start].strip()
        if seg:
            tokens += wordpunct_tokenize(seg)
        tokens += list(s[start:end])
        pos = end
    tail = s[cjk_spans[-1][1]:].strip()
    if tail:
        tokens += wordpunct_tokenize(tail)
    return tokens


def collapse_double_spaces(text: str) -> str:
    """Fixpoint of ``'  ' -> ' '`` then strip (reference utils.py:651-656)."""
    nxt = text.replace("  ", " ")
    while nxt != text:
        text = nxt
        nxt = text.replace("  ", " ")
    return text.strip()


def is_special_token(token: str) -> bool:
    return SPECIAL_TOKEN_RE.search(token) is not None


def matches_any(pattern: Pattern, sequence: Sequence[str]) -> bool:
    """True if the regex matches any element (reference utils.py:489-499)."""
    return any(pattern.search(item) is not None for item in sequence)

