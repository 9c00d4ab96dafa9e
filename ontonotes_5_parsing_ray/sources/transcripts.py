"""Deterministic synthetic conversation-transcript generation.

Produces the ``input_hint`` table shape from BASELINE.json:
``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us])`` — fully seeded, no wall clock, no external data
(FIXTURES.md §1). Content exercises every annotation path: gazetteer
entities, verbs for SVO rules, pronouns for coref, EDITED disfluencies for
special-token blanking, CJK turns for the char tokenizer, tool turns with
long tokens for the fuzzy/subword alignment path, and surface variants
("Acme Corp" / "Acme Corporation") for MinHash/LSH canonicalization.

Rows are written deliberately out of turn order (seeded shuffle) so the
pipeline's stable-ordering stage (groupby(conv_id) + in-group sort by
turn_idx) is provably doing work. Output is sharded into multiple Parquet
files (conv -> shard by hash) so Ray's read planning parallelizes and so the
partitioned-checkpoint/resume story has real partitions.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.bio import _GPE, _ORG, _PERSON  # generator shares the gazetteer
from ..functions.hashing import stable_hash64

_BASE_TS_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00 UTC, fixed

_PRONOUN_BY_KIND = {"PERSON": "He", "ORG": "It", "GPE": "It"}

# (template, slots) — slots name the entity pools used to fill {0},{1},...
_TEMPLATES: List[Tuple[str, Tuple[str, ...]]] = [
    ("{0} founded {1} in {2} .", ("PERSON", "ORG", "GPE")),
    ("{0} met {1} at {2} .", ("PERSON", "PERSON", "GPE")),
    ("{0} acquired {1} .", ("ORG", "ORG")),
    ("{0} joined {1} on Monday .", ("PERSON", "ORG")),
    ("{0} visited {1} .", ("PERSON", "GPE")),
    ("{0} launched {1} in {2} .", ("ORG", "ORG", "GPE")),
    ("{0} praised {1} .", ("PERSON", "ORG")),
    ("the quarterly report was reviewed carefully .", ()),
    ("please summarize the findings for the team .", ()),
    ("EDITED {0} EDITED praised {1} .", ("PERSON", "ORG")),
    ("he praised {0} .", ("ORG",)),
    ("she joined {0} .", ("ORG",)),
    ("they visited {0} .", ("GPE",)),
    ("it acquired {0} .", ("ORG",)),
    ("他 访问 了 北京 的 公司 .", ()),
    ("彼 は 東京 を 訪問 した .", ()),
]

_TOOL_TEXTS = [
    "retrieving comprehensive documentation results for {0}",
    "executing standardized reconciliation procedures against {0}",
    "aggregating intermediate representations for {0} deployment",
]

_POOLS: Dict[str, List[str]] = {"PERSON": _PERSON, "ORG": _ORG, "GPE": _GPE}


# Bump when row content changes: invalidates cached parquet under /tmp.
GENERATOR_VERSION = 2


def _turn_rows(
    conv_id: str,
    n_turns: int,
    rng: np.random.RandomState,
    unique_refs: bool = False,
):
    rows = []
    conv_offset = stable_hash64(conv_id) % 86_400
    conv_tag = stable_hash64(conv_id) % 100_000
    for turn_idx in range(n_turns):
        r = rng.randint(0, 100)
        if r < 12:  # tool turn
            tool = "search" if r % 2 == 0 else "db_query"
            role = "tool"
            org = _POOLS["ORG"][rng.randint(0, len(_POOLS["ORG"]))]
            text = _TOOL_TEXTS[rng.randint(0, len(_TOOL_TEXTS))].format(org)
        else:
            tool = ""
            role = "user" if turn_idx % 2 == 0 else "assistant"
            tmpl, slots = _TEMPLATES[rng.randint(0, len(_TEMPLATES))]
            fills = []
            for slot in slots:
                pool = _POOLS[slot]
                fills.append(pool[rng.randint(0, len(pool))])
            # avoid self-referential triples like "X acquired X"
            if len(fills) >= 2 and fills[0] == fills[1]:
                pool = _POOLS[slots[1]]
                fills[1] = pool[(pool.index(fills[1]) + 1) % len(pool)]
            text = tmpl.format(*fills)
        if unique_refs:
            # Per-turn unique reference token: realistic text entropy so
            # bench runs measure real per-turn compute, not memo hits.
            text = f"{text} ref{conv_tag}x{turn_idx}"
        rows.append((
            conv_id,
            turn_idx,
            role,
            text,
            tool,
            _BASE_TS_US + conv_offset * 1_000_000 + turn_idx * 7_000_000,
        ))
    return rows


def build_transcripts_table(
    n_convs: int = 100,
    seed: int = 42,
    mean_turns: int = 8,
    skew_frac: float = 0.02,
    skew_turns: int = 400,
    unique_refs: bool = False,
) -> pa.Table:
    """Build the full transcript table in memory (test/small scales).

    ``skew_frac`` of conversations get ``skew_turns`` turns to exercise the
    salted-key repartitioning path for skewed long conversations.
    Rows are shuffled (seeded) so turn_idx arrives out of order.
    """
    rng = np.random.RandomState(seed)
    all_rows = []
    n_skewed = max(1, int(n_convs * skew_frac)) if n_convs >= 10 else 0
    for c in range(n_convs):
        conv_id = f"conv{c:06d}"
        if c < n_skewed:
            n_turns = skew_turns
        else:
            n_turns = 2 + int(rng.poisson(mean_turns))
        all_rows.extend(_turn_rows(conv_id, n_turns, rng, unique_refs))
    order = rng.permutation(len(all_rows))
    all_rows = [all_rows[i] for i in order]
    conv_id, turn_idx, role, text, tool, ts = zip(*all_rows)
    return pa.table({
        "conv_id": pa.array(conv_id, pa.string()),
        "turn_idx": pa.array(turn_idx, pa.int32()),
        "role": pa.array(role, pa.string()),
        "text": pa.array(text, pa.string()),
        "tool": pa.array(tool, pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })


def generate_transcripts(
    out_dir: str,
    n_convs: int = 100,
    seed: int = 42,
    mean_turns: int = 8,
    skew_frac: float = 0.02,
    skew_turns: int = 400,
    shard_count: int = 8,
    unique_refs: bool = False,
) -> str:
    """Write the deterministic transcript table as sharded Parquet.

    Conversations map to shards by stable hash of ``conv_id`` — the same
    partitioning key the pipeline's checkpointing uses, so a resumable run can
    skip whole finished shards. Idempotent: skips generation when the marker
    file with identical parameters exists.
    """
    params = (f"v{GENERATOR_VERSION}:{n_convs}:{seed}:{mean_turns}:"
              f"{skew_frac}:{skew_turns}:{shard_count}:{unique_refs}")
    marker = os.path.join(out_dir, "_GENERATED")
    if os.path.isfile(marker):
        with open(marker) as fh:
            if fh.read().strip() == params:
                return out_dir
    os.makedirs(out_dir, exist_ok=True)
    table = build_transcripts_table(n_convs, seed, mean_turns, skew_frac,
                                    skew_turns, unique_refs)
    conv_ids = table["conv_id"].to_pylist()
    shard = np.array([stable_hash64(c) % shard_count for c in conv_ids])
    for s in range(shard_count):
        mask = pa.array(shard == s)
        pq.write_table(
            table.filter(mask), os.path.join(out_dir, f"part-{s:04d}.parquet")
        )
    with open(marker, "w") as fh:
        fh.write(params)
    return out_dir


def default_transcripts_dir(tag: str) -> str:
    return os.path.join("/tmp", "onr_transcripts", tag)
