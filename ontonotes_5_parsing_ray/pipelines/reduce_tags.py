"""Tag-vocabulary reduction — the ``reduce_entities`` pipeline re-expressed
(SURVEY.md §2.9, §3.2).

Two-phase aggregate-then-rewrite:

1. PASS 1 (A3): global (kind, tag) frequency via pre-aggregated groupby —
   the aggregate result is tiny (tag vocabulary) and becomes a driver
   object.
2. Rules (C0): per kind, top-N seeds + nearest-seed assignment + shortest-
   then-lexicographic canonical renaming (``functions.tagdist``).
3. PASS 2 (C2): broadcast-rules ``map_batches`` rewrite of the long-form
   annotation table; spans of tags that collapse into the same canonical
   tag are merged per (conv_id, turn_idx, kind, canonical) group with the
   O(k) interval merge (C1, ``functions.spans.insert_span`` semantics ==
   bitmap ``insert_new_bounds``).

At 10^12 scale the second pass re-reads from Parquet instead of
materializing between passes (SURVEY.md §4 'Two-pass structure').
"""

from __future__ import annotations

from typing import Dict

import pandas as pd
import ray
import ray.data as rd

import pyarrow as pa

from ..functions.spans import insert_span
from ..functions.tagdist import build_reduction_rules
from ..stages.relational import partition_map_groups
from .stats import tag_frequencies_by_kind

OUT_COLUMNS = ["conv_id", "turn_idx", "kind", "tag", "start", "end"]


def rewrite_frame(df: pd.DataFrame, rules: Dict[str, Dict[str, str]]) -> pd.DataFrame:
    """Pure rewrite kernel over one frame (any set of whole turns).

    Vectorized rename first; the C1 insert-merge runs ONLY for the rare
    (turn, kind, canonical) groups fed by >1 original tag — everything else
    passes through columnar. Semantics identical to the reference's per-turn
    rewrite loop (``reduce_entities.py:154-173``): within such a group the
    first original tag's spans seed the list, later tags' spans are merged
    in via ``insert_span``, original-tag-sorted."""
    if not len(df):
        return pd.DataFrame(columns=OUT_COLUMNS)
    df = df.copy()
    df["tag_orig"] = df["tag"]
    df["tag"] = [rules.get(k, {}).get(t, t)
                 for k, t in zip(df["kind"], df["tag_orig"])]
    group_keys = ["conv_id", "turn_idx", "kind", "tag"]
    nuniq = df.groupby(group_keys, sort=False)["tag_orig"].transform("nunique")
    simple = df[nuniq <= 1]
    frames = [simple[OUT_COLUMNS]]
    multi = df[nuniq > 1]
    if len(multi):
        rows = []
        for (conv, turn, kind, canon), sub in multi.groupby(group_keys, sort=True):
            merged = None
            for _tag, tsub in sub.groupby("tag_orig", sort=True):
                spans = sorted(zip(tsub["start"], tsub["end"]))
                if merged is None:
                    merged = [tuple(s) for s in spans]
                else:
                    for span in spans:
                        merged = insert_span(span, merged)
            for start, end in merged:
                rows.append({"conv_id": conv, "turn_idx": int(turn),
                             "kind": kind, "tag": canon,
                             "start": int(start), "end": int(end)})
        frames.append(pd.DataFrame(rows, columns=OUT_COLUMNS))
    out = pd.concat(frames, ignore_index=True)
    return out.astype({"turn_idx": "int64", "start": "int64", "end": "int64"})


def build_rules(annotations: rd.Dataset, max_types: int) -> Dict[str, Dict[str, str]]:
    """PASS 1 + rule construction; returns rules[kind][tag] -> canonical."""
    freqs = tag_frequencies_by_kind(annotations)
    rules: Dict[str, Dict[str, str]] = {}
    for kind, group in freqs.groupby("kind"):
        tag_freqs = dict(zip(group["tag"], group["n_spans"]))
        rules[kind], _clusters = build_reduction_rules(tag_freqs, max_types)
    return rules


def rewrite_annotations(
    annotations: rd.Dataset,
    rules: Dict[str, Dict[str, str]],
) -> rd.Dataset:
    """PASS 2: rename tags via broadcast rules and merge collapsing spans.

    Spans merge *within a turn's (kind, canonical-tag) list* — which needs
    the rows of one turn together. Shuffling one group PER TURN (round 1)
    meant one pandas UDF call per corpus turn — the measured 76k-tiny-groups
    anti-pattern. Instead one :func:`relational.partition_map_groups`
    exchange on ``conv_id`` moves every turn's rows whole into a bounded
    number of partitions, and the vectorized :func:`rewrite_frame` kernel
    runs once per partition. The partition count comes from
    :func:`relational.exchange_partitions` (a CPU floor, raised by the
    input bytes the plan knows).
    """
    rules_ref = ray.put(rules)

    def rewrite_part(group: pd.DataFrame) -> pa.Table:
        out = rewrite_frame(group, ray.get(rules_ref))
        return pa.Table.from_pandas(out[OUT_COLUMNS], preserve_index=False)

    return partition_map_groups(annotations, "conv_id", rewrite_part)


def reduce_tags(annotations: rd.Dataset, max_types: int) -> rd.Dataset:
    """The full two-pass pipeline (materializes the input once so the two
    passes share the annotation scan at test scale; at production scale pass
    a re-readable Parquet-backed dataset instead)."""
    annotations = annotations.materialize()
    rules = build_rules(annotations, max_types)
    return rewrite_annotations(annotations, rules)
