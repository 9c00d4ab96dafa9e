"""Knowledge-graph extraction rules shared by the oracle and the Ray stages.

The target generalizes what the reference *drops*: ``coref:`` chains and
``prop:`` predicate-argument frames in the OnF fixtures
(reference ``tests/data/sample_of_data.onf:65-98,102,158,163`` — the parser
matches only ``name:`` lines at ``ontonotes5/utils.py:117,187``). Here those
structures are first-class: SVO triples from verb + nearest-mention rules over
the per-turn annotation record, pronoun mentions feeding conversation-scoped
coreference, and normalized surfaces feeding MinHash/LSH canonicalization.

Everything is pure and deterministic; the Ray pipeline and the single-process
golden extractor (``oracle/``) call exactly these functions, which is what the
triple P/R >= 0.95 gate rests on.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .record import AnnotationRecord

Span = Tuple[int, int]

PRONOUN_SURFACES = {
    "he", "she", "it", "they", "him", "her", "them", "we", "us", "i", "you",
}
_VERB_TAGS = ("VB", "VBD")
_NORM_RE = re.compile(r"[^0-9a-z一-鿿가-힣぀-ヿ ]+")
_WS_RE = re.compile(r"\s+")


def normalize_surface(surface: str) -> str:
    """Canonical-form key for an entity surface: casefold, strip punctuation,
    collapse whitespace. The clustering key for LSH blocking."""
    s = _NORM_RE.sub(" ", surface.casefold())
    return _WS_RE.sub(" ", s).strip()


def mentions_from_record(record: AnnotationRecord) -> List[Dict[str, object]]:
    """Flatten a record into mention rows, entities plus pronoun mentions.

    Returns dicts with keys ``start, end, surface, entity_type, is_pronoun``,
    sorted by (start, end). Pronouns come from PRP morphology spans whose
    surface is a known pronoun; they carry ``entity_type='PRON'``.
    """
    text: str = record["text"]  # type: ignore[assignment]
    out: List[Dict[str, object]] = []
    for ent_type, spans in record["entities"].items():  # type: ignore[union-attr]
        for start, end in spans:
            out.append({
                "start": start, "end": end, "surface": text[start:end],
                "entity_type": ent_type, "is_pronoun": False,
            })
    for start, end in record["morphology"].get("PRP", []):  # type: ignore[union-attr]
        surface = text[start:end]
        if surface.lower() in PRONOUN_SURFACES:
            out.append({
                "start": start, "end": end, "surface": surface,
                "entity_type": "PRON", "is_pronoun": True,
            })
    out.sort(key=lambda m: (m["start"], m["end"]))
    return out


def verbs_from_record(record: AnnotationRecord) -> List[Tuple[Span, str]]:
    """Ordered verb spans + lemmas from the morphology dict (VB/VBD tags)."""
    from .treeparse import verb_lemma

    text: str = record["text"]  # type: ignore[assignment]
    verbs: List[Tuple[Span, str]] = []
    for tag in _VERB_TAGS:
        for span in record["morphology"].get(tag, []):  # type: ignore[union-attr]
            verbs.append((span, verb_lemma(text[span[0]: span[1]])))
    verbs.sort(key=lambda v: v[0])
    return verbs


def turn_link_payload(
    record: AnnotationRecord,
) -> Tuple[List[Dict[str, object]], List[Tuple[Span, str]]]:
    """The compact per-turn payload conversation linking needs: mentions +
    verbs. This — not the full record — is what crosses the groupby(conv_id)
    shuffle (an order of magnitude fewer bytes per turn than the full
    morphology/syntax record)."""
    return mentions_from_record(record), verbs_from_record(record)


def extract_turn_triples(
    mentions: Sequence[Dict[str, object]],
    verbs: Sequence[Tuple[Span, str]],
) -> List[Dict[str, object]]:
    """Dependency-pattern-style SVO rules over one turn.

    For each verb (left to right): subject = the last mention ending at or
    before the verb's start; object = the first mention starting at or after
    the verb's end. Both must exist and differ. Pronoun mentions are legal
    subjects/objects; conversation-scoped coref later rewrites them.

    Returns dicts ``{pred, subj_start, subj_end, obj_start, obj_end}``.
    """
    if not mentions:
        return []
    triples: List[Dict[str, object]] = []
    for (v_start, v_end), lemma in verbs:
        subj = None
        for m in mentions:
            if m["end"] <= v_start:  # type: ignore[operator]
                subj = m
            else:
                break
        obj = None
        for m in mentions:
            if m["start"] >= v_end:  # type: ignore[operator]
                obj = m
                break
        if subj is None or obj is None or subj is obj:
            continue
        triples.append({
            "pred": lemma,
            "subj_start": subj["start"], "subj_end": subj["end"],
            "obj_start": obj["start"], "obj_end": obj["end"],
        })
    return triples


def link_conversation(
    turns: Sequence[Tuple[int, Sequence[Dict[str, object]], Sequence[Tuple[Span, str]]]],
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """Conversation-scoped coreference + triple resolution.

    ``turns`` is a sequence of ``(turn_idx, mentions, verbs)`` payloads (see
    :func:`turn_link_payload`) and must be sorted by ``turn_idx`` (the
    stable-turn-ordering invariant; the Ray stage sorts inside
    ``groupby(conv_id).map_groups``).

    Chains: each distinct normalized non-pronoun surface gets a chain id in
    first-appearance order; a pronoun mention joins the chain of the most
    recent preceding non-pronoun mention (document order), or stays unresolved
    (chain_id -1). Triples with pronoun arguments are rewritten to the
    antecedent's surface; unresolved-pronoun triples are dropped.

    Returns ``(mention_rows, triple_rows)`` where mention rows carry
    ``turn_idx, start, end, surface, entity_type, chain_id, antecedent`` and
    triple rows carry ``turn_idx, pred, subj, obj, subj_type, obj_type``
    (surfaces after pronoun resolution, pre-canonicalization).
    """
    chain_of_norm: Dict[str, int] = {}
    next_chain = 0
    last_entity: Optional[Dict[str, object]] = None
    mention_rows: List[Dict[str, object]] = []
    triple_rows: List[Dict[str, object]] = []
    for turn_idx, mentions, verbs in turns:
        resolved: Dict[Tuple[int, int], Dict[str, object]] = {}
        for m in mentions:
            if m["is_pronoun"]:
                if last_entity is not None:
                    chain_id = last_entity["chain_id"]
                    antecedent = last_entity["surface"]
                    ent_type = last_entity["entity_type"]
                else:
                    chain_id, antecedent, ent_type = -1, None, "PRON"
            else:
                norm = normalize_surface(m["surface"])  # type: ignore[arg-type]
                if norm not in chain_of_norm:
                    chain_of_norm[norm] = next_chain
                    next_chain += 1
                chain_id = chain_of_norm[norm]
                antecedent = None
                ent_type = m["entity_type"]
            row = {
                "turn_idx": turn_idx,
                "start": m["start"], "end": m["end"],
                "surface": m["surface"],
                "entity_type": ent_type,
                "is_pronoun": m["is_pronoun"],
                "chain_id": chain_id,
                "antecedent": antecedent,
            }
            mention_rows.append(row)
            resolved[(m["start"], m["end"])] = row  # type: ignore[index]
            if not m["is_pronoun"]:
                last_entity = {
                    "surface": m["surface"], "chain_id": chain_id,
                    "entity_type": m["entity_type"],
                }
        for t in extract_turn_triples(mentions, verbs):
            s = resolved[(t["subj_start"], t["subj_end"])]  # type: ignore[index]
            o = resolved[(t["obj_start"], t["obj_end"])]  # type: ignore[index]
            subj = s["antecedent"] if s["is_pronoun"] else s["surface"]
            obj = o["antecedent"] if o["is_pronoun"] else o["surface"]
            if subj is None or obj is None:
                continue  # unresolved pronoun
            triple_rows.append({
                "turn_idx": turn_idx,
                "pred": t["pred"],
                "subj": subj, "obj": obj,
                "subj_type": s["entity_type"], "obj_type": o["entity_type"],
            })
    return mention_rows, triple_rows


# --------------------------------------------------------------------------
# Salted (bucketed) linking: bounded groups for skewed long conversations
# --------------------------------------------------------------------------
# A 10^7-turn conversation cannot be one map_groups group. The fold above
# decomposes: the only cross-bucket state is (ordered first-appearance norm
# list, last entity). So ``pipelines/kg.py:link`` runs it per turn bucket
# (``max(turn_idx, 0) // LINK_BUCKET_TURNS``):
#   phase A: link_bucket_partial per (conv_id, bucket) -> rows final EXCEPT
#            local chain ids and "leading pronouns" (pronouns before the
#            bucket's first entity, PENDING on the previous buckets' last
#            entity). Bucket 0 has no earlier bucket, so it is finalized in
#            place: local ids are global, leading pronouns unresolved;
#   phase B: only for conversations with rows past bucket 0 —
#            merge_bucket_summaries over per-bucket summaries -> global
#            chain ids + the entity carried into each bucket;
#   phase C: apply them to those conversations' later-bucket rows.
# Identical output to link_conversation — asserted row for row (errors too)
# by tests/test_salted_link.py::test_salted_equals_plain,
# ::test_salted_copartition_phase_c_equals_broadcast,
# ::test_adversarial_routes_triple_equality and
# ::test_default_bucket_giant_conversation_equals_oracle, and on random
# payloads, bucket sizes 1-8 and negative / gapped turn ids by
# tests/test_properties.py::test_bucketed_link_equals_link_conversation.

PENDING = "\x00PENDING"


def link_bucket_partial(
    turns: Sequence[Tuple[int, Sequence[Dict[str, object]], Sequence[Tuple[Span, str]]]],
    first: bool,
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """Phase A: :func:`link_conversation` over one turn-bucket.

    Returns the same ``(mention_rows, triple_rows)``, with chain ids in the
    bucket's own first-appearance order of norms. For the ``first`` bucket
    nothing precedes it, so these ARE ``link_conversation``'s rows. For a
    later bucket two parts are deferred: its chain ids are LOCAL, and a
    leading pronoun — one before the bucket's first entity — has
    ``entity_type`` and ``antecedent`` ``PENDING`` (chain id -1), as does a
    triple argument that is one (``subj``/``obj`` and its type). Every
    leading pronoun of a bucket resolves to the same carried entity.
    """
    unknown = (None, "PRON") if first else (PENDING, PENDING)
    chain_of_norm: Dict[str, int] = {}
    last_entity: Optional[Dict[str, object]] = None
    mention_rows: List[Dict[str, object]] = []
    triple_rows: List[Dict[str, object]] = []
    for turn_idx, mentions, verbs in turns:
        resolved: Dict[Tuple[int, int], Dict[str, object]] = {}
        for m in mentions:
            if not m["is_pronoun"]:
                norm = normalize_surface(m["surface"])  # type: ignore[arg-type]
                last_entity = {
                    "surface": m["surface"], "entity_type": m["entity_type"],
                    "chain_id": chain_of_norm.setdefault(norm, len(chain_of_norm)),
                }
                chain_id, antecedent = last_entity["chain_id"], None
                ent_type = m["entity_type"]
            elif last_entity is not None:
                chain_id = last_entity["chain_id"]
                antecedent = last_entity["surface"]
                ent_type = last_entity["entity_type"]
            else:
                chain_id, (antecedent, ent_type) = -1, unknown
            row = {
                "turn_idx": turn_idx, "start": m["start"], "end": m["end"],
                "surface": m["surface"], "entity_type": ent_type,
                "is_pronoun": m["is_pronoun"], "chain_id": chain_id,
                "antecedent": antecedent,
            }
            mention_rows.append(row)
            resolved[(m["start"], m["end"])] = row  # type: ignore[index]
        for t in extract_turn_triples(mentions, verbs):
            s = resolved[(t["subj_start"], t["subj_end"])]  # type: ignore[index]
            o = resolved[(t["obj_start"], t["obj_end"])]  # type: ignore[index]
            subj = s["antecedent"] if s["is_pronoun"] else s["surface"]
            obj = o["antecedent"] if o["is_pronoun"] else o["surface"]
            if subj is None or obj is None:
                continue  # unresolved pronoun
            triple_rows.append({
                "turn_idx": turn_idx, "pred": t["pred"],
                "subj": subj, "obj": obj,
                "subj_type": s["entity_type"], "obj_type": o["entity_type"],
            })
    return mention_rows, triple_rows


def merge_bucket_summaries(
    summaries: Sequence[Dict[str, object]],
) -> Tuple[Dict[str, int], List[Optional[Dict[str, str]]]]:
    """Phase B: combine one conversation's bucket summaries (sorted by
    bucket index; ``new_norms`` in first-appearance order, ``last_entity``
    out or ``None``) into its ``norm -> chain_id`` map and, per summary, the
    entity carried into that bucket (``None`` when no entity precedes it in
    the whole conversation).
    """
    chain_of_norm: Dict[str, int] = {}
    carried_in: List[Optional[Dict[str, str]]] = []
    carried: Optional[Dict[str, str]] = None
    for s in summaries:
        carried_in.append(carried)
        for norm in s["new_norms"]:  # type: ignore[union-attr]
            chain_of_norm.setdefault(norm, len(chain_of_norm))
        if s["last_entity"] is not None:
            carried = s["last_entity"]  # type: ignore[assignment]
    return chain_of_norm, carried_in
