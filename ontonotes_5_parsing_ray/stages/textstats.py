"""Text-analysis stages over a documents table (Arrow/pandas batches).

LangId/quality/token-count/fingerprint — the training-data-pipeline text
operators. Each is a ``map_batches`` stage; the quality/token-count outputs
are defined to match an exact DuckDB SQL twin (see ``functions/analysis``),
which is how the driver's oracle comparison validates them.
"""

from __future__ import annotations

import re

import pandas as pd

from ..functions.analysis import (
    bpe_ish_token_count,
    detect_language,
    n_tokens_sqlish,
    quality_metrics,
)
from ..functions.hashing import rolling_fingerprint, simhash64
from ..functions.rounding import round_half_away


class TextStats:
    """Actor-pool stage: per-document token counts + quality metrics.

    Regexes compile once per actor (``__init__``); per batch the work is a
    pandas string pipeline. Output columns are rounded to 6 decimals so the
    value-hash comparison against the SQL twin is exact.
    """

    def __init__(self):
        self.ws = re.compile(r"\s+")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"]
        batch = batch.copy()
        batch["n_tokens"] = [n_tokens_sqlish(t) for t in texts]
        metrics = [quality_metrics(t) for t in texts]
        batch["alpha_ratio"] = [round_half_away(m["alpha_ratio"], 6) for m in metrics]
        batch["digit_ratio"] = [round_half_away(m["digit_ratio"], 6) for m in metrics]
        batch["stopword_ratio"] = [round_half_away(m["stopword_ratio"], 6) for m in metrics]
        return batch


def add_langid(batch: pd.DataFrame) -> pd.DataFrame:
    batch = batch.copy()
    batch["detected_lang"] = [detect_language(t) for t in batch["text"]]
    return batch


def add_fingerprints(batch: pd.DataFrame) -> pd.DataFrame:
    """Exact-hash + rolling (winnowing-min) fingerprint + simhash columns.

    All three hashes are md5-derived (``token_hash64_md5`` /
    md5-based simhash / the fingerprint's polynomial rolling hash), which
    is what gives ``docs_fingerprints`` a full DuckDB value-hash twin
    (``__ray_entry__._fingerprints_sql``) — the same trick that flipped the
    simhash/minhash operators to full oracles in round 3."""
    from ..functions.hashing import token_hash64_md5

    batch = batch.copy()
    batch["text_hash"] = [token_hash64_md5(t) & ((1 << 62) - 1)
                          for t in batch["text"]]
    batch["fingerprint"] = [rolling_fingerprint(t) for t in batch["text"]]
    batch["simhash"] = [
        simhash64(t.split()) & ((1 << 62) - 1) for t in batch["text"]
    ]
    return batch


def add_bpe_token_count(batch: pd.DataFrame) -> pd.DataFrame:
    batch = batch.copy()
    batch["n_bpe_tokens"] = [bpe_ish_token_count(t) for t in batch["text"]]
    return batch


def repetition_score(text: str, n: int = 2) -> float:
    """Within-document repetition: the fraction of word ``n``-gram
    occurrences taken by the single most frequent ``n``-gram (the
    Gopher-rules "duplicate n-gram fraction" family) — machine-generated
    or boilerplate text scores high and gets filtered before training.
    Returns -1.0 for documents with fewer than ``n`` tokens (no grams),
    letting callers drop them without a second tokenize."""
    from collections import Counter

    toks = text.split()
    total = len(toks) - n + 1
    if total < 1:
        return -1.0
    counts = Counter(tuple(toks[i: i + n]) for i in range(total))
    return max(counts.values()) / total


def add_repetition_score(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-doc ``rep2_ratio`` column (rounded to 6 decimals for the SQL
    value-hash twin); gram-less docs carry -1.0 and are filtered by the
    query layer."""
    batch = batch.copy()
    batch["rep2_ratio"] = [
        round_half_away(repetition_score(t, 2), 6) for t in batch["text"]
    ]
    return batch
