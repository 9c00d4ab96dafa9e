"""Per-turn annotation stage (the fused M1-M16 transform).

``ray.data.Dataset.map_batches(annotate_turns, fn_kwargs={"emit": ...},
batch_format="pyarrow")`` — a stateless per-batch function, so Ray Data
fuses it with the read and the follow-on per-batch maps into one task per
block and runs it on every CPU. Importing ``functions.*`` compiles the
regexes and lexicons once per worker process; no state outlives a batch.

Input batch:  ``conv_id, turn_idx, role, text`` (Arrow, zero-copy).
Output batch: input columns + ``ok:bool, error:string, lang:string`` and
``record_json`` and/or ``link_json`` (strings) per ``emit`` — semantic
failures are data (the reference's ``(records, err_msg)`` dead-letter
channel, ``ontonotes5_to_json.py:80,106-107``), never exceptions, so one
malformed turn cannot kill a block at 10^12-turn scale.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

import pyarrow as pa

from ..functions.analysis import detect_language
from ..functions.kgrules import turn_link_payload
from ..functions.record import annotate_turn_text, record_to_long_form


def _link_payload_json(record) -> str:
    """Compact mentions+verbs payload — the only bytes the conv_id shuffle
    has to move (full records stay out of the all-to-all)."""
    mentions, verbs = turn_link_payload(record)
    return json.dumps(
        [
            [[m["start"], m["end"], m["surface"], m["entity_type"],
              1 if m["is_pronoun"] else 0] for m in mentions],
            [[s, e, lemma] for (s, e), lemma in verbs],
        ],
        ensure_ascii=False,
    )


def _annotate(text: str, subwords: bool, emit: str) -> Tuple[str, str, str, str]:
    """``(record_json, link_json, error, lang)`` for one turn."""
    lang = detect_language(text)
    record, e = annotate_turn_text(text, simulate_model_tokens=subwords)
    if record is None:
        return "", "", e, lang
    rec_json = (json.dumps(record, ensure_ascii=False)
                if emit != "link" else "")
    link_json = _link_payload_json(record) if emit != "record" else ""
    return rec_json, link_json, "", lang


def annotate_turns(batch: pa.Table, emit: str = "record") -> pa.Table:
    """Annotate each turn of an Arrow batch; tool turns take the wordpiece
    (subword) alignment path.

    Real transcript corpora repeat boilerplate turns (greetings, tool
    preambles) heavily, so each distinct ``(text, is_tool)`` in the batch is
    annotated once — dedup-before-compute. The memo is local to this call,
    so its size is bounded by the batch and nothing carries over between
    batches or builds. Results are byte-identical to the oracle's.
    """
    if emit not in ("record", "link", "both"):
        raise ValueError(emit)
    memo: Dict[Tuple[str, bool], Tuple[str, str, str, str]] = {}
    rows = []
    for text, role in zip(batch.column("text").to_pylist(),
                          batch.column("role").to_pylist()):
        key = (text, role == "tool")
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _annotate(text, key[1], emit)
        rows.append(hit)
    rec_json, link_json, err, langs = (
        [r[i] for r in rows] for i in range(4))
    out = (
        batch
        .append_column("ok", pa.array([e == "" for e in err], pa.bool_()))
        .append_column("error", pa.array(err, pa.string()))
        .append_column("lang", pa.array(langs, pa.string()))
    )
    if emit != "link":
        out = out.append_column("record_json", pa.array(rec_json, pa.string()))
    if emit != "record":
        out = out.append_column("link_json", pa.array(link_json, pa.string()))
    return out


def annotations_long_form(batch: pa.Table) -> pa.Table:
    """Explode annotated turns to long-form rows
    ``(conv_id, turn_idx, kind, tag, start, end)``.

    The shuffle-friendly representation (SURVEY.md §1.4): dynamic tag
    vocabularies stay *data*, so Arrow schemas unify across blocks.
    """
    conv_ids = batch.column("conv_id").to_pylist()
    turn_idxs = batch.column("turn_idx").to_pylist()
    oks = batch.column("ok").to_pylist()
    recs = batch.column("record_json").to_pylist()
    out = {"conv_id": [], "turn_idx": [], "kind": [], "tag": [],
           "start": [], "end": []}
    for conv_id, turn_idx, ok, rec in zip(conv_ids, turn_idxs, oks, recs):
        if not ok:
            continue
        record = json.loads(rec)
        for kind, tag, start, end in record_to_long_form(record):
            out["conv_id"].append(conv_id)
            out["turn_idx"].append(turn_idx)
            out["kind"].append(kind)
            out["tag"].append(tag)
            out["start"].append(start)
            out["end"].append(end)
    return pa.table({
        "conv_id": pa.array(out["conv_id"], pa.string()),
        "turn_idx": pa.array(out["turn_idx"], pa.int32()),
        "kind": pa.array(out["kind"], pa.string()),
        "tag": pa.array(out["tag"], pa.string()),
        "start": pa.array(out["start"], pa.int32()),
        "end": pa.array(out["end"], pa.int32()),
    })
