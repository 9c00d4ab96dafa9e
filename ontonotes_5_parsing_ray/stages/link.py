"""Conversation-scoped linking: stable turn ordering + coref + SVO triples,
in salted turn buckets so no group grows with a conversation's length.

Every turn is keyed by ``(conv_id, max(turn_idx, 0) // bucket_turns)``
and exchanged on that key by ``relational.partition_map_groups`` (see
``pipelines/kg.py:link``). Phase A, :func:`link_partition`, is that
exchange's kernel: it runs over one partition's buckets after a single sort by
``(conv_id, turn_idx)`` — the stable-turn-ordering invariant, SURVEY.md
K3/J2a: never rely on global dataset order. Bucket 0 has no earlier bucket,
so it is finalized in place, which finishes every conversation shorter than
one bucket. Rows of later buckets are *deferred*: their chain ids are
bucket-local and their leading pronouns ``PENDING``. Phases B and C touch
only the conversations that have deferred rows: :func:`bucket_summaries`
and :func:`resolve_buckets` merge per-bucket summaries into global chain
ids and the entity carried into each bucket, and :func:`apply_resolutions`
finalizes the deferred rows (:func:`finalize_partition` runs all three over
a partition that holds whole conversations).

Output is a single union table (``UNION_COLUMNS``) with a ``row_kind``
discriminator (``mention`` | ``triple`` | ``error``); deferred rows use the
same schema, so downstream splits with vectorized filters.
"""

from __future__ import annotations

import json
from typing import Dict, Hashable, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.kgrules import (
    PENDING,
    link_bucket_partial,
    merge_bucket_summaries,
    normalize_surface,
)

UNION_COLUMNS = [
    "row_kind", "conv_id", "turn_idx", "start", "end", "surface",
    "entity_type", "is_pronoun", "chain_id", "antecedent",
    "pred", "subj", "obj", "subj_type", "obj_type", "error",
    "ts", "lang",
]

_EMPTY = {
    "start": -1, "end": -1, "surface": "", "entity_type": "",
    "is_pronoun": False, "chain_id": -1, "antecedent": "",
    "pred": "", "subj": "", "obj": "", "subj_type": "", "obj_type": "",
    "error": "", "ts": -1, "lang": "",
}

_MENTION_FIELDS = ["turn_idx", "start", "end", "surface", "entity_type",
                   "is_pronoun", "chain_id", "antecedent"]
_TRIPLE_FIELDS = ["turn_idx", "pred", "subj", "obj", "subj_type", "obj_type"]

# Per (conv_id, bucket): (global chain id by local chain id, the carried-in
# entity as (surface, entity_type, chain_id) or None).
Resolutions = Dict[Tuple[Hashable, int],
                   Tuple[np.ndarray, Optional[Tuple[str, str, int]]]]


def _turn_bucket(turn_idx: np.ndarray, bucket_turns: int) -> np.ndarray:
    """Salted bucket of each turn: negative ids share bucket 0, so bucket
    order is turn order."""
    return np.maximum(turn_idx, 0) // bucket_turns


def _dtype(col: str):
    if col in ("turn_idx", "start", "end", "chain_id", "ts"):
        return "int64"
    if col == "is_pronoun":
        return "bool"
    return "object"


def union_schema() -> pa.Schema:
    """Arrow schema of the union table as :func:`link_partition` writes it
    (its object columns hold strings)."""
    arrow = {"int64": pa.int64(), "bool": pa.bool_(), "object": pa.string()}
    return pa.schema([(c, arrow[_dtype(c)]) for c in UNION_COLUMNS])


def _parse_payload(payload: str):
    raw_mentions, raw_verbs = json.loads(payload)
    mentions = [
        {"start": s, "end": e, "surface": surf, "entity_type": et,
         "is_pronoun": bool(pron)}
        for s, e, surf, et, pron in raw_mentions
    ]
    verbs = [((s, e), lemma) for s, e, lemma in raw_verbs]
    return mentions, verbs


def link_partition(group: pd.DataFrame, bucket_turns: int) -> pd.DataFrame:
    """Phase A over one shuffle partition of annotated turns: one sort, then
    :func:`link_bucket_partial` per ``(conv_id, bucket)`` run of rows, with
    the output built column-wise as ONE frame per partition. Bucket 0 is
    finalized in place; later buckets stay deferred."""
    g = group.sort_values(["conv_id", "turn_idx"], kind="mergesort")
    conv = g["conv_id"].to_numpy(object)
    turn = g["turn_idx"].to_numpy(np.int64)
    ok = g["ok"].to_numpy(bool)
    bucket = _turn_bucket(turn, bucket_turns)
    cuts = np.flatnonzero((conv[1:] != conv[:-1])
                          | (bucket[1:] != bucket[:-1])) + 1
    turns, payloads = turn.tolist(), g["link_json"].tolist()
    ts, lang = g["ts"].tolist(), g["lang"].tolist()
    err = np.flatnonzero(~ok)
    kinds = {
        "error": {"conv_id": conv[err].tolist(), "turn_idx": turn[err].tolist(),
                  "error": g["error"].to_numpy(object)[err].tolist()},
        "mention": {c: [] for c in ["conv_id", *_MENTION_FIELDS, "ts", "lang"]},
        "triple": {c: [] for c in ["conv_id", *_TRIPLE_FIELDS]},
    }
    mentions, triples = kinds["mention"], kinds["triple"]
    for lo, hi in zip([0, *cuts], [*cuts, len(g)]):
        prov = {turns[i]: (ts[i], lang[i]) for i in range(lo, hi)}
        m_rows, t_rows = link_bucket_partial(
            [(turns[i], *_parse_payload(payloads[i]))
             for i in range(lo, hi) if ok[i]],
            first=bucket[lo] == 0)
        for m in m_rows:
            mentions["conv_id"].append(conv[lo])
            for c in _MENTION_FIELDS:
                mentions[c].append(m[c])
            t_s, t_lang = prov[m["turn_idx"]]
            mentions["ts"].append(t_s)
            mentions["lang"].append(t_lang)
        for t in t_rows:
            triples["conv_id"].append(conv[lo])
            for c in _TRIPLE_FIELDS:
                triples[c].append(t[c])
    mentions["antecedent"] = ["" if a is None else a
                              for a in mentions["antecedent"]]
    frame = {}
    for c in UNION_COLUMNS:
        values: list = []
        for kind, cols in kinds.items():
            values += cols[c] if c in cols else (
                [kind if c == "row_kind" else _EMPTY[c]] * len(cols["conv_id"]))
        frame[c] = np.array(values, dtype=_dtype(c))
    return pd.DataFrame(frame)


def _deferred(linked: pd.DataFrame, bucket_turns: int) -> np.ndarray:
    """Rows that phase A left unfinished: mentions and triples past bucket 0."""
    return ((linked["turn_idx"].to_numpy() >= bucket_turns)
            & (linked["row_kind"].to_numpy(object) != "error"))


def _spanning_convs(linked: pd.DataFrame, bucket_turns: int) -> pd.DataFrame:
    """The distinct conversations with deferred rows in a phase-A batch."""
    return linked.loc[_deferred(linked, bucket_turns), ["conv_id"]] \
        .drop_duplicates()


_SUMMARY_COLUMNS = ["conv_id", "bucket", "chain_id", "turn_idx", "start",
                    "end", "surface", "entity_type"]


def _last_per_chain(rows: pd.DataFrame) -> pd.DataFrame:
    return rows.sort_values(
        ["conv_id", "bucket", "chain_id", "turn_idx", "start", "end"],
        kind="mergesort",
    ).drop_duplicates(["conv_id", "bucket", "chain_id"], keep="last")


def bucket_summaries(linked: pd.DataFrame, convs, bucket_turns: int
                     ) -> pd.DataFrame:
    """Phase B partial over one batch of phase-A rows: for each bucket of
    the given conversations, the last mention of every local chain (any of
    its surfaces gives the chain's norm) plus one ``chain_id = -1`` row for
    its pronouns, so a bucket with only leading pronouns is still listed.
    Partials from any batching combine by the same reduction."""
    m = linked[(linked["row_kind"] == "mention")
               & linked["conv_id"].isin(convs)]
    m = m.assign(
        bucket=_turn_bucket(m["turn_idx"].to_numpy(np.int64), bucket_turns),
        chain_id=np.where(m["is_pronoun"].to_numpy(bool), -1,
                          m["chain_id"].to_numpy(np.int64)))
    return _last_per_chain(m[_SUMMARY_COLUMNS])


def resolve_buckets(summaries: pd.DataFrame) -> Resolutions:
    """Phase B: per conversation, the buckets' summaries (new norms by local
    chain id; last entity = the named mention latest in turn order, since a
    payload lists a turn's mentions by span) go through
    :func:`merge_bucket_summaries`; each bucket gets its local -> global
    chain-id map and its carried-in entity."""
    out: Resolutions = {}
    for conv, g in _last_per_chain(summaries).groupby("conv_id", sort=False):
        keys, summary = [], []
        for b, bg in g.groupby("bucket", sort=True):
            named = bg[bg["chain_id"] >= 0]
            norms = [normalize_surface(s) for s in named["surface"]]
            last = None
            if len(named):
                i = np.lexsort((named["end"], named["start"], named["turn_idx"]))[-1]
                last = {"surface": named["surface"].iloc[i],
                        "entity_type": named["entity_type"].iloc[i],
                        "norm": norms[i]}
            keys.append(b)
            summary.append({"new_norms": norms, "last_entity": last})
        chain_of_norm, carried_in = merge_bucket_summaries(summary)
        for b, s, c in zip(keys, summary, carried_in):
            out[(conv, b)] = (
                np.array([chain_of_norm[n] for n in s["new_norms"]], np.int64),
                None if c is None else
                (c["surface"], c["entity_type"], chain_of_norm[c["norm"]]))
    return out


def apply_resolutions(linked: pd.DataFrame, resolutions: Resolutions,
                      bucket_turns: int) -> pd.DataFrame:
    """Phase C: finalize a batch's deferred rows with their bucket's
    resolution — local chain ids map to global ones, and leading pronouns
    and their triple arguments take the carried entity. With nothing
    carried, a leading pronoun stays unresolved (``PRON``, chain -1) and its
    triples are dropped, the ``link_conversation`` rule. A batch without
    deferred rows passes through."""
    rows = np.flatnonzero(_deferred(linked, bucket_turns))
    if not len(rows):
        return linked
    kind = linked["row_kind"].to_numpy(object)
    chain = linked["chain_id"].to_numpy(np.int64).copy()
    cols = {c: linked[c].to_numpy(object).copy() for c in (
        "entity_type", "antecedent", "subj", "subj_type", "obj", "obj_type")}
    keep = np.ones(len(linked), dtype=bool)
    keys = pd.DataFrame({
        "conv_id": linked["conv_id"].to_numpy(object)[rows],
        "bucket": _turn_bucket(linked["turn_idx"].to_numpy(np.int64)[rows],
                               bucket_turns),
    }).groupby(["conv_id", "bucket"], sort=False).indices
    for key, idx in keys.items():
        remap, carried = resolutions[key]
        pos = rows[idx]
        m = pos[kind[pos] == "mention"]
        named = m[chain[m] >= 0]
        chain[named] = remap[chain[named]]
        pending = m[cols["entity_type"][m] == PENDING]
        surface, ent, cid = carried if carried is not None else ("", "PRON", -1)
        cols["antecedent"][pending] = surface
        cols["entity_type"][pending] = ent
        chain[pending] = cid
        t = pos[kind[pos] == "triple"]
        for side in ("subj", "obj"):
            arg = t[cols[side][t] == PENDING]
            if carried is None:
                keep[arg] = False
            else:
                cols[side][arg] = surface
                cols[f"{side}_type"][arg] = ent
    return linked.assign(chain_id=chain, **cols)[keep].reset_index(drop=True)


def finalize_partition(linked: pd.DataFrame, bucket_turns: int) -> pd.DataFrame:
    """Phases B and C over phase-A rows holding whole conversations (one
    hash(conv) partition): the same kernels, with partition-local state."""
    convs = _spanning_convs(linked, bucket_turns)["conv_id"]
    return apply_resolutions(
        linked,
        resolve_buckets(bucket_summaries(linked, convs, bucket_turns)),
        bucket_turns)
