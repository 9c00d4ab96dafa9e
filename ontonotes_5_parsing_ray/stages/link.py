"""Conversation-scoped linking: stable turn ordering + coref + SVO triples.

The shuffle key is ``hash(conv_id) % P`` (see ``pipelines/kg.py:link``):
every conversation lands whole inside one of P bounded partitions
(coref locality is inherent to the semantics), and
:func:`link_partition_group` runs the per-conversation kernel — which sorts
by ``turn_idx`` *inside* each conversation (the stable-turn-ordering
invariant, SURVEY.md K3/J2a: never rely on global dataset order) — over all
of a partition's conversations, emitting ONE frame per partition.

Output is a single union table with a ``row_kind`` discriminator
(``mention`` | ``triple``) so one grouping pass yields both products;
downstream splits with vectorized filters. Skew note: a conversation too
large even for a partition is handled by the salted two-phase variant
(``link_salted``), which bounds groups by turn-bucket.
"""

from __future__ import annotations

import json
from typing import List

import pandas as pd

from ..functions.kgrules import link_conversation

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


def link_partition_group(group: pd.DataFrame) -> pd.DataFrame:
    """One conv-hash PARTITION of annotated turns: run the per-conversation
    kernel conversation by conversation but build ONE output frame for the
    whole partition — the bounded-group shape (P pandas constructions per
    corpus instead of one per conversation)."""
    rows: List[dict] = []
    for _conv, g in group.groupby("conv_id", sort=False):
        rows.extend(_conv_rows(g))
    if not rows:
        return pd.DataFrame({c: pd.Series(dtype=_dtype(c)) for c in UNION_COLUMNS})
    return pd.DataFrame(rows, columns=UNION_COLUMNS)


def _conv_rows(group: pd.DataFrame) -> List[dict]:
    """The linking kernel for ONE conversation's turns -> UNION row dicts."""
    group = group.sort_values("turn_idx", kind="mergesort")
    conv_id = group["conv_id"].iloc[0]
    prov = {int(t): (int(ts), lang) for t, ts, lang in zip(
        group["turn_idx"], group["ts"], group["lang"])}
    turns = []
    for turn_idx, ok, payload in zip(
        group["turn_idx"], group["ok"], group["link_json"]
    ):
        if not ok:
            continue
        turns.append((int(turn_idx), *_parse_payload(payload)))
    mention_rows, triple_rows = link_conversation(turns)
    rows: List[dict] = []
    for turn_idx, ok, err in zip(group["turn_idx"], group["ok"], group["error"]):
        if not ok:
            rows.append({**_EMPTY, "row_kind": "error", "conv_id": conv_id,
                         "turn_idx": int(turn_idx), "error": err})
    for m in mention_rows:
        ts, lang = prov.get(m["turn_idx"], (-1, ""))
        rows.append({
            **_EMPTY, "row_kind": "mention", "conv_id": conv_id,
            "turn_idx": m["turn_idx"], "start": m["start"], "end": m["end"],
            "surface": m["surface"], "entity_type": m["entity_type"],
            "is_pronoun": bool(m["is_pronoun"]), "chain_id": m["chain_id"],
            "antecedent": m["antecedent"] if m["antecedent"] is not None else "",
            "ts": ts, "lang": lang,
        })
    for t in triple_rows:
        rows.append({
            **_EMPTY, "row_kind": "triple", "conv_id": conv_id,
            "turn_idx": t["turn_idx"],
            "pred": t["pred"], "subj": t["subj"], "obj": t["obj"],
            "subj_type": t["subj_type"], "obj_type": t["obj_type"],
        })
    return rows


def _dtype(col: str):
    if col in ("turn_idx", "start", "end", "chain_id", "ts"):
        return "int64"
    if col == "is_pronoun":
        return "bool"
    return "object"


def _parse_payload(payload: str):
    raw_mentions, raw_verbs = json.loads(payload)
    mentions = [
        {"start": s, "end": e, "surface": surf, "entity_type": et,
         "is_pronoun": bool(pron)}
        for s, e, surf, et, pron in raw_mentions
    ]
    verbs = [((s, e), lemma) for s, e, lemma in raw_verbs]
    return mentions, verbs


# --------------------------------------------------------------------------
# Salted two-phase linking (explicit skew handling, north_rule)
# --------------------------------------------------------------------------

BULK_COLUMNS = [
    "row_kind", "conv_id", "bucket", "turn_idx", "start", "end", "surface",
    "entity_type", "is_pronoun", "norm", "antecedent", "pending_key",
    "pred", "subj", "obj", "subj_type", "obj_type",
    "subj_pending", "obj_pending", "error", "summary_json", "ts", "lang",
]

_BULK_EMPTY = {
    "turn_idx": -1, "start": -1, "end": -1, "surface": "", "entity_type": "",
    "is_pronoun": False, "norm": "", "antecedent": "", "pending_key": "",
    "pred": "", "subj": "", "obj": "", "subj_type": "", "obj_type": "",
    "subj_pending": "", "obj_pending": "", "error": "", "summary_json": "",
    "ts": -1, "lang": "",
}


def link_bucket_partition(group: pd.DataFrame) -> pd.DataFrame:
    """One hash((conv,bucket)) partition: run the bucket kernel per
    (conv_id, bucket) but emit ONE frame per partition (bounded groups)."""
    rows: List[dict] = []
    for _key, g in group.groupby(["conv_id", "bucket"], sort=False):
        rows.extend(_bucket_rows(g))
    return pd.DataFrame(rows, columns=BULK_COLUMNS)


def _bucket_rows(group: pd.DataFrame) -> List[dict]:
    from ..functions.kgrules import link_bucket_partial

    group = group.sort_values("turn_idx", kind="mergesort")
    conv_id = group["conv_id"].iloc[0]
    bucket = int(group["bucket"].iloc[0])
    prov = {int(t): (int(ts), lang) for t, ts, lang in zip(
        group["turn_idx"], group["ts"], group["lang"])}
    turns = []
    rows = []
    for turn_idx, ok, err, payload in zip(
        group["turn_idx"], group["ok"], group["error"], group["link_json"]
    ):
        if not ok:
            rows.append({**_BULK_EMPTY, "row_kind": "error", "conv_id": conv_id,
                         "bucket": bucket, "turn_idx": int(turn_idx),
                         "error": err})
            continue
        mentions, verbs = _parse_payload(payload)
        turns.append((int(turn_idx), mentions, verbs))
    part = link_bucket_partial(turns)
    for m in part["mentions"]:
        ts, lang = prov.get(m["turn_idx"], (-1, ""))
        rows.append({
            **_BULK_EMPTY, "row_kind": "mention", "conv_id": conv_id,
            "bucket": bucket, "turn_idx": m["turn_idx"],
            "start": m["start"], "end": m["end"], "surface": m["surface"],
            "entity_type": m["entity_type"], "is_pronoun": bool(m["is_pronoun"]),
            "norm": m["norm"],
            "antecedent": m["antecedent"] if m["antecedent"] is not None else "",
            "pending_key": m["pending_key"], "ts": ts, "lang": lang,
        })
    for t in part["triples"]:
        rows.append({
            **_BULK_EMPTY, "row_kind": "triple", "conv_id": conv_id,
            "bucket": bucket, "turn_idx": t["turn_idx"], "pred": t["pred"],
            "subj": t["subj"] if t["subj"] is not None else "",
            "obj": t["obj"] if t["obj"] is not None else "",
            "subj_type": t["subj_type"], "obj_type": t["obj_type"],
            "subj_pending": t["subj_pending"], "obj_pending": t["obj_pending"],
        })
    rows.append({
        **_BULK_EMPTY, "row_kind": "summary", "conv_id": conv_id,
        "bucket": bucket,
        "summary_json": json.dumps({
            "new_norms": part["new_norms"],
            "last_entity": part["last_entity"],
            "pending_keys": part["pending_keys"],
        }, ensure_ascii=False),
    })
    return rows


def resolve_conv_partition(group: pd.DataFrame) -> pd.DataFrame:
    """Phase B over one hash(conv) partition of summaries: per-conv merge
    kernels inside one frame (bounded groups, not one UDF per conv)."""
    rows: List[dict] = []
    for _conv, g in group.groupby("conv_id", sort=False):
        rows.extend(_resolve_rows(g))
    return pd.DataFrame(
        rows, columns=["conv_id", "kind", "key", "chain_id", "surface",
                       "norm", "entity_type"],
    )


def _resolve_rows(group: pd.DataFrame) -> List[dict]:
    from ..functions.kgrules import merge_bucket_summaries

    group = group.sort_values("bucket", kind="mergesort")
    conv_id = group["conv_id"].iloc[0]
    summaries = [json.loads(s) for s in group["summary_json"]]
    chain_of_norm, resolutions = merge_bucket_summaries(summaries)
    rows = []
    for norm, cid in chain_of_norm.items():
        rows.append({"conv_id": conv_id, "kind": "chain", "key": norm,
                     "chain_id": cid, "surface": "", "norm": "",
                     "entity_type": ""})
    for key, res in resolutions.items():
        rows.append({
            "conv_id": conv_id, "kind": "pending", "key": key,
            "chain_id": -1,
            "surface": res["surface"] if res else "",
            "norm": res["norm"] if res else "",
            "entity_type": res["entity_type"] if res else "",
        })
    if not rows:
        rows.append({"conv_id": conv_id, "kind": "noop", "key": "",
                     "chain_id": -1, "surface": "", "norm": "",
                     "entity_type": ""})
    return rows


def _union_section(n: int, **cols) -> pd.DataFrame:
    """A UNION-schema frame: defaults from ``_EMPTY`` + provided columns."""
    data = {}
    for c in UNION_COLUMNS:
        if c in cols:
            data[c] = cols[c]
        elif c in _EMPTY:
            data[c] = [_EMPTY[c]] * n
        else:
            data[c] = [""] * n
    return pd.DataFrame(data, columns=UNION_COLUMNS)


def resolution_dicts(res: pd.DataFrame):
    """(chain_maps, pendings) driver/partition dicts from resolution rows
    (the ``resolve_conv_*`` output schema); ``noop`` rows are ignored."""
    chain_maps: dict = {}
    pendings: dict = {}
    for row in res.itertuples(index=False):
        if row.kind == "chain":
            chain_maps.setdefault(row.conv_id, {})[row.key] = int(row.chain_id)
        elif row.kind == "pending":
            pendings[(row.conv_id, row.key)] = (
                {"surface": row.surface, "norm": row.norm,
                 "entity_type": row.entity_type}
                if row.surface else None
            )
    return chain_maps, pendings


def finalize_partition_group(group: pd.DataFrame) -> pd.DataFrame:
    """Phase C without a driver dict: ONE hash(conv) partition containing
    both bulk rows and that partition's resolution rows (co-partitioned by
    the same key, ``row_kind == 'resolution'`` discriminates). Builds the
    partition-local dicts and applies the same :func:`finalize_bulk_rows`
    kernel as the broadcast path — identical output, tested equal."""
    is_res = group["row_kind"] == "resolution"
    chain_maps, pendings = resolution_dicts(group[is_res])
    return finalize_bulk_rows(group[~is_res], chain_maps, pendings)


def finalize_bulk_rows(
    batch: pd.DataFrame, chain_maps: dict, pendings: dict
) -> pd.DataFrame:
    """Phase C: apply resolutions to bulk rows -> the unsalted UNION schema.

    Columnar: the common no-pending case never touches Python row objects;
    only the rare pending rows (bucket-leading pronouns / their triples) take
    a per-row resolution loop."""
    import numpy as np

    from ..functions.kgrules import PENDING

    frames = []

    err = batch[batch["row_kind"] == "error"]
    if len(err):
        frames.append(_union_section(
            len(err), row_kind=["error"] * len(err),
            conv_id=err["conv_id"].to_numpy(),
            turn_idx=err["turn_idx"].astype("int64").to_numpy(),
            error=err["error"].to_numpy(),
        ))

    m = batch[batch["row_kind"] == "mention"]
    if len(m):
        conv = m["conv_id"].to_numpy(object)
        ent = m["entity_type"].to_numpy(object).copy()
        norm = m["norm"].to_numpy(object).copy()
        ante = m["antecedent"].to_numpy(object).copy()
        pk = m["pending_key"].to_numpy(object)
        for i in np.nonzero(pk != "")[0]:
            res = pendings.get((conv[i], pk[i]))
            if res is None:
                ent[i], norm[i], ante[i] = "PRON", "", ""
            else:
                ent[i] = res["entity_type"]
                norm[i] = res["norm"]
                ante[i] = res["surface"]
        chain = np.fromiter(
            (chain_maps.get(c, {}).get(n, -1) if n else -1
             for c, n in zip(conv, norm)),
            dtype=np.int64, count=len(m),
        )
        frames.append(_union_section(
            len(m), row_kind=["mention"] * len(m), conv_id=conv,
            turn_idx=m["turn_idx"].astype("int64").to_numpy(),
            start=m["start"].astype("int64").to_numpy(),
            end=m["end"].astype("int64").to_numpy(),
            surface=m["surface"].to_numpy(), entity_type=ent,
            is_pronoun=m["is_pronoun"].astype(bool).to_numpy(),
            chain_id=chain, antecedent=ante,
            ts=m["ts"].astype("int64").to_numpy(),
            lang=m["lang"].to_numpy(),
        ))

    t = batch[batch["row_kind"] == "triple"]
    if len(t):
        conv = t["conv_id"].to_numpy(object)
        subj = t["subj"].to_numpy(object).copy()
        subj_type = t["subj_type"].to_numpy(object).copy()
        obj = t["obj"].to_numpy(object).copy()
        obj_type = t["obj_type"].to_numpy(object).copy()
        sp = t["subj_pending"].to_numpy(object)
        op = t["obj_pending"].to_numpy(object)
        drop = np.zeros(len(t), dtype=bool)
        for i in np.nonzero((sp != "") | (op != ""))[0]:
            if sp[i]:
                res = pendings.get((conv[i], sp[i]))
                if res is None:
                    drop[i] = True
                else:
                    subj[i], subj_type[i] = res["surface"], res["entity_type"]
            if op[i]:
                res = pendings.get((conv[i], op[i]))
                if res is None:
                    drop[i] = True
                else:
                    obj[i], obj_type[i] = res["surface"], res["entity_type"]
        # unresolved-pronoun triples are dropped (same rule as unsalted)
        drop |= (subj == PENDING) | (obj == PENDING)
        keep = ~drop
        if keep.any():
            frames.append(_union_section(
                int(keep.sum()), row_kind=["triple"] * int(keep.sum()),
                conv_id=conv[keep],
                turn_idx=t["turn_idx"].astype("int64").to_numpy()[keep],
                pred=t["pred"].to_numpy()[keep],
                subj=subj[keep], obj=obj[keep],
                subj_type=subj_type[keep], obj_type=obj_type[keep],
            ))

    if not frames:
        return pd.DataFrame({c: pd.Series(dtype=_dtype(c)) for c in UNION_COLUMNS})
    out = pd.concat(frames, ignore_index=True)
    return out.astype({c: _dtype(c) for c in ("turn_idx", "start", "end",
                                              "chain_id", "ts")})
