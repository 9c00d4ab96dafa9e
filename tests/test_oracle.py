"""Oracle (golden extractor) tests: record invariants + KG semantics."""

from ontonotes_5_parsing_ray.functions.kgrules import (
    extract_turn_triples,
    link_conversation,
    normalize_surface,
    turn_link_payload,
)
from ontonotes_5_parsing_ray.functions.record import annotate_turn_text
from ontonotes_5_parsing_ray.functions.spans import check_spans
from ontonotes_5_parsing_ray.oracle import extract_kg_single_process


def test_annotate_record_shape_and_invariants():
    record, err = annotate_turn_text("Alice Zhang founded Acme Corp in Hong Kong .")
    assert err == ""
    assert set(record.keys()) == {"text", "morphology", "syntax", "entities"}
    text = record["text"]
    for kind in ("morphology", "syntax", "entities"):
        for tag, spans in record[kind].items():
            assert check_spans(text, spans) == "", (kind, tag)
    assert record["entities"]["PERSON"] == [(0, 11)]
    assert record["entities"]["ORG"] == [(20, 29)]
    assert record["entities"]["GPE"] == [(33, 42)]


def test_dead_letter_not_exception():
    record, err = annotate_turn_text("")
    assert record is None and err != ""
    record, err = annotate_turn_text("EDITED")
    assert record is None and err != ""


def test_special_token_blanked_only_as_a_whole_token():
    """A special token is blanked where it stands as a token; the same
    letters inside a longer word stay."""
    record, err = annotate_turn_text(
        "Alice met UNEDITED Bob EDITED in Paris .")
    assert err == ""
    assert record["text"] == "Alice met UNEDITED Bob in Paris ."
    assert record["entities"]["GPE"] == [(26, 31)]  # "Paris"
    record, err = annotate_turn_text("Bob EDITED EDITED met Alice .")
    assert record["text"] == "Bob met Alice ."


def test_triple_extraction_svo_rule():
    record, _ = annotate_turn_text("Grace Hopper joined Initech .")
    mentions, verbs = turn_link_payload(record)
    triples = extract_turn_triples(mentions, verbs)
    assert len(triples) == 1
    t = triples[0]
    text = record["text"]
    assert text[t["subj_start"]:t["subj_end"]] == "Grace Hopper"
    assert t["pred"] == "join"
    assert text[t["obj_start"]:t["obj_end"]] == "Initech"


def test_coref_resolves_pronoun_to_previous_entity():
    turns = []
    for i, text in enumerate([
        "Grace Hopper joined Initech .",
        "she praised Globex .",
    ]):
        record, err = annotate_turn_text(text)
        assert err == ""
        mentions, verbs = turn_link_payload(record)
        turns.append((i, mentions, verbs))
    mentions, triples = link_conversation(turns)
    pron = [m for m in mentions if m["is_pronoun"]]
    assert pron and pron[0]["antecedent"] == "Initech"  # most recent mention
    resolved = [t for t in triples if t["turn_idx"] == 1]
    assert resolved and resolved[0]["subj"] == "Initech"
    assert resolved[0]["obj"] == "Globex"


def test_normalize_surface():
    assert normalize_surface("  Acme,  Corp.  ") == "acme corp"
    assert normalize_surface("ACME-CORP") == "acme corp"


def test_oracle_end_to_end_counts(tiny_table):
    out = extract_kg_single_process(tiny_table)
    assert len(out["triples"]) > 100
    assert len(out["nodes"]) > 20
    assert len(out["edges"]) > 50
    # canonicalization merged the Acme surface variants into one node
    acme = out["nodes"][out["nodes"]["canonical_surface"] == "acme corp"]
    assert len(acme) == 1
    assert set(acme.iloc[0]["surface_forms"]) >= {"Acme Corp", "Acme Corporation"}
    # per-turn text equality invariant: triples reference real turns
    assert (out["triples"]["turn_idx"] >= 0).all()
