"""Single-process golden KG extraction over a transcript table.

Mirrors the reference's lifecycle (sequential loop over documents,
``ontonotes5_to_json.py:93-126``) but for the target semantics:
annotate each turn -> conversation-scoped coref + SVO triples ->
cross-conversation MinHash/LSH canonicalization -> node/edge tables.

This is the oracle for the P/R gate; it shares every kernel with the Ray
stages (``functions/``), so the distributed result must match exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import pandas as pd
import pyarrow as pa

from ..functions.canon import canonical_entity_id, cluster_surfaces
from ..functions.kgrules import (
    link_conversation,
    normalize_surface,
    turn_link_payload,
)
from ..functions.record import annotate_turn_text, record_to_long_form


def extract_kg_single_process(
    transcripts: pa.Table,
    canon_threshold: float = 0.5,
) -> Dict[str, pd.DataFrame]:
    """Run the full golden pipeline in one process.

    Returns DataFrames: ``annotations`` (long form), ``mentions`` (with
    chain ids), ``triples`` (canonicalized subj/pred/obj + provenance),
    ``nodes``, ``edges``, ``errors`` (dead-letter rows).
    """
    df = transcripts.to_pandas()
    df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")

    ann_rows: List[dict] = []
    err_rows: List[dict] = []
    mention_rows: List[dict] = []
    raw_triples: List[dict] = []

    for conv_id, group in df.groupby("conv_id", sort=True):
        turns: List[Tuple[int, dict]] = []
        for row in group.itertuples(index=False):
            record, err = annotate_turn_text(
                row.text, simulate_model_tokens=(row.role == "tool")
            )
            if record is None:
                err_rows.append({
                    "conv_id": conv_id, "turn_idx": int(row.turn_idx),
                    "error": err,
                })
                continue
            mentions, verbs = turn_link_payload(record)
            turns.append((int(row.turn_idx), mentions, verbs))
            for kind, tag, start, end in record_to_long_form(record):
                ann_rows.append({
                    "conv_id": conv_id, "turn_idx": int(row.turn_idx),
                    "kind": kind, "tag": tag, "start": start, "end": end,
                })
        m_rows, t_rows = link_conversation(turns)
        for m in m_rows:
            m["conv_id"] = conv_id
            mention_rows.append(m)
        for t in t_rows:
            t["conv_id"] = conv_id
            raw_triples.append(t)

    # Cross-conversation canonicalization over distinct normalized surfaces.
    surf_norms = sorted({
        normalize_surface(m["surface"])
        for m in mention_rows if not m["is_pronoun"]
    } | {
        normalize_surface(t[k]) for t in raw_triples for k in ("subj", "obj")
    })
    canon_map = cluster_surfaces(surf_norms, threshold=canon_threshold)

    triples = pd.DataFrame(raw_triples) if raw_triples else pd.DataFrame(
        columns=["conv_id", "turn_idx", "pred", "subj", "obj",
                 "subj_type", "obj_type"]
    )
    if len(triples):
        triples["subj_canon"] = [
            canon_map[normalize_surface(s)] for s in triples["subj"]
        ]
        triples["obj_canon"] = [
            canon_map[normalize_surface(o)] for o in triples["obj"]
        ]
        triples["subj_id"] = [canonical_entity_id(c) for c in triples["subj_canon"]]
        triples["obj_id"] = [canonical_entity_id(c) for c in triples["obj_canon"]]
    else:
        for col in ("subj_canon", "obj_canon", "subj_id", "obj_id"):
            triples[col] = pd.Series(dtype=object)

    # Node table: one row per canonical entity.
    node_acc: Dict[str, dict] = {}
    for m in mention_rows:
        if m["is_pronoun"]:
            continue
        norm = normalize_surface(m["surface"])
        canon = canon_map[norm]
        acc = node_acc.setdefault(canon, {
            "canonical_id": canonical_entity_id(canon),
            "canonical_surface": canon,
            "surface_forms": set(),
            "type_counts": defaultdict(int),
            "n_mentions": 0,
            "first_conv_id": m["conv_id"],
            "first_turn_idx": m["turn_idx"],
        })
        acc["surface_forms"].add(m["surface"])
        acc["type_counts"][m["entity_type"]] += 1
        acc["n_mentions"] += 1
        if (m["conv_id"], m["turn_idx"]) < (acc["first_conv_id"], acc["first_turn_idx"]):
            acc["first_conv_id"], acc["first_turn_idx"] = m["conv_id"], m["turn_idx"]
    nodes = pd.DataFrame([
        {
            "canonical_id": a["canonical_id"],
            "canonical_surface": canon,
            "entity_type": sorted(
                a["type_counts"].items(), key=lambda kv: (-kv[1], kv[0])
            )[0][0],
            "surface_forms": sorted(a["surface_forms"]),
            "n_mentions": a["n_mentions"],
            "first_conv_id": a["first_conv_id"],
            "first_turn_idx": a["first_turn_idx"],
        }
        for canon, a in sorted(node_acc.items())
    ])

    # Edge table: exact-dedup (subj_id, pred, obj_id) with counts + provenance.
    if len(triples):
        edges = (
            triples.groupby(["subj_id", "pred", "obj_id"], sort=True)
            .agg(
                subj_canon=("subj_canon", "first"),
                obj_canon=("obj_canon", "first"),
                n_occurrences=("conv_id", "size"),
                first_conv_id=("conv_id", "min"),
            )
            .reset_index()
        )
    else:
        edges = pd.DataFrame(columns=[
            "subj_id", "pred", "obj_id", "subj_canon", "obj_canon",
            "n_occurrences", "first_conv_id",
        ])

    return {
        "annotations": pd.DataFrame(ann_rows),
        "mentions": pd.DataFrame(mention_rows),
        "triples": triples,
        "nodes": nodes,
        "edges": edges,
        "errors": pd.DataFrame(err_rows),
    }


def triple_set(triples: pd.DataFrame) -> set:
    """The canonical (subj, pred, obj) set used by the P/R gate."""
    return set(zip(triples["subj_canon"], triples["pred"], triples["obj_canon"]))


def precision_recall(predicted: set, golden: set) -> Tuple[float, float]:
    if not predicted and not golden:
        return 1.0, 1.0
    tp = len(predicted & golden)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(golden) if golden else 0.0
    return precision, recall
