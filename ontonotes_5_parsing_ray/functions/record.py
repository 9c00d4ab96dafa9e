"""Per-turn annotation record construction.

This is the fused per-turn transform at the heart of the engine — the target
analogue of the reference's ``parse_file`` sentence loop (reference
``ontonotes5/utils.py:607-860``): tokenize -> rule-parse -> BIO mentions ->
special-token filtering -> whitespace fixpoint -> exact/fuzzy alignment ->
morphology fold -> entity fold -> syntax-span projection -> finalize
(strip / check / unite).

The output record is ``{'text', 'morphology', 'syntax', 'entities'}`` with
per-tag half-open char-span lists — exactly the reference's sentence record
shape (utils.py:732-737). Both the single-process oracle and the Ray
``map_batches`` annotation stage call :func:`annotate_turn_text`, which is what
makes the distributed pipeline bit-identical to the golden extractor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .align import align_tokens
from .bio import bio_label_tokens, fold_bio_to_entity_spans
from .spans import (
    Span,
    check_spans,
    drop_nested_spans,
    spans_sorted_long_form,
    strip_spans,
    unite_overlapping_spans,
)
from .text import (
    collapse_double_spaces,
    is_special_token,
    matches_any,
    SPECIAL_TOKEN_RE,
    tokenize_any_text,
)
from .treeparse import rule_parse, TokenWithPath

AnnotationRecord = Dict[str, object]  # {'text': str, 'morphology'|'syntax'|'entities': {tag: [span...]}}


def project_syntax_spans(
    tokens_with_labels: Sequence[Tuple[str, List[str], str]],
    bounds: Sequence[Span],
    text_len: int,
) -> Tuple[Dict[str, List[Span]], Optional[Dict[str, List[Span]]]]:
    """Depth-level projection of tag paths into per-tag syntax spans.

    Reference semantics (utils.py:769-834): for every tree depth, scan tokens
    left-to-right merging runs of the same tag at that depth into one span;
    then per tag sort by (start, start-end), peel spans covering the whole
    sentence into a separate whole-sentence tag (restored by the caller only
    when nothing else remains), and drop nested spans.
    """
    syntax: Dict[str, List[Span]] = {}
    paths = [lab[:-1] for _, lab, _ in tokens_with_labels]
    max_depth = max((len(p) for p in paths), default=0)
    if max_depth > 0:
        for depth in range(max_depth):
            tag_text = ""
            tag_start = -1
            tag_end = -1
            for path, (b_start, b_end) in zip(paths, bounds):
                if len(path) > depth:
                    if tag_text == path[depth]:
                        tag_end = b_end
                    else:
                        if tag_text:
                            syntax.setdefault(tag_text, []).append((tag_start, tag_end))
                        tag_text = path[depth]
                        tag_start = b_start
                        tag_end = b_end
                else:
                    if tag_text:
                        syntax.setdefault(tag_text, []).append((tag_start, tag_end))
                        tag_text = ""
                        tag_start = -1
                        tag_end = -1
            if tag_text:
                syntax.setdefault(tag_text, []).append((tag_start, tag_end))
    whole_sentence: Optional[Dict[str, List[Span]]] = None
    for tag in sorted(syntax.keys()):
        spans = spans_sorted_long_form(syntax[tag])
        while spans:
            start, end = spans[0]
            if start != 0 or end != text_len:
                break
            if whole_sentence is None:
                whole_sentence = {tag: [(0, text_len)]}
            spans = spans[1:]
        spans = drop_nested_spans(spans)
        if spans:
            syntax[tag] = spans
        else:
            del syntax[tag]
    return syntax, whole_sentence


def subword_split_tokens(
    tokens_with_labels: Sequence[Tuple[str, List[str], str]],
    min_len: int = 9,
    piece: int = 4,
) -> List[Tuple[str, List[str], str]]:
    """Deterministic BPE-ish re-tokenization: long alphabetic tokens become
    ``piece``-char chunks, continuation chunks prefixed ``##``.

    This simulates a model tokenizer whose continuation tokens are *not*
    substrings of the raw text. :func:`align_tokens` glues the chunks back
    into words, aligns the words exactly and cuts each word's span at the
    chunk lengths, so each chunk's span covers exactly the chunk without
    its marker. BIO labels propagate B- to the first chunk and I- to
    continuations; tag paths are inherited.
    """
    out: List[Tuple[str, List[str], str]] = []
    for tok, path, lab in tokens_with_labels:
        if len(tok) >= min_len and tok.isalpha():
            chunks = [tok[i: i + piece] for i in range(0, len(tok), piece)]
            out.append((chunks[0], path, lab))
            cont = ("I-" + lab[2:]) if lab.startswith("B-") else lab
            for chunk in chunks[1:]:
                out.append(("##" + chunk, path, cont))
        else:
            out.append((tok, path, lab))
    return out


def _blank_tokens(text: str, tokens: List[str], which: Set[int]) -> str:
    """``text`` with each token at an index in ``which`` of its own token
    stream ``tokens`` replaced by one space: whole tokens only, never the
    same letters inside a longer word. Tokens are consecutive substrings of
    the text, so a search from the end of the previous token finds each
    token's own start."""
    pieces, cut, pos = [], 0, 0
    for i, tok in enumerate(tokens):
        pos = text.index(tok, pos)
        if i in which:
            pieces += [text[cut:pos], " "]
            cut = pos + len(tok)
        pos += len(tok)
    return "".join(pieces) + text[cut:]


def annotate_turn_text(
    text: str, simulate_model_tokens: bool = False
) -> Tuple[Optional[AnnotationRecord], str]:
    """Annotate one turn's raw text into a reference-shaped record.

    Returns ``(record, error)``; on semantic failure the record is ``None`` and
    ``error`` carries the message — the dead-letter data path (the reference's
    ``(records, err_msg)`` channel, utils.py:866-868). Never raises for
    malformed content. With ``simulate_model_tokens`` the token stream is
    re-chunked via :func:`subword_split_tokens` so alignment takes the
    wordpiece path of :func:`align_tokens`.
    """
    try:
        raw_tokens = tokenize_any_text(text)
        if not raw_tokens:
            return None, "empty token stream"
        parsed: List[TokenWithPath] = rule_parse(raw_tokens)
        bio = bio_label_tokens([t for t, _ in parsed])
        # Filter tokens whose *tag path* hits the special-token pattern, then
        # blank special surface tokens from the text (utils.py:627-648).
        kept = [i for i, (_, path) in enumerate(parsed)
                if not matches_any(SPECIAL_TOKEN_RE, path)]
        if not kept:
            return None, "no tokens after special filtering"
        special = {i for i in kept if is_special_token(parsed[i][0])}
        tokens_with_labels: List[Tuple[str, List[str], str]] = [
            (*parsed[i], bio[i]) for i in kept if i not in special]
        plain_text = collapse_double_spaces(
            _blank_tokens(text, raw_tokens, special) if special else text)
        if not tokens_with_labels or not plain_text:
            return None, "empty after normalization"
        if simulate_model_tokens:
            tokens_with_labels = subword_split_tokens(tokens_with_labels)
        bounds = align_tokens(plain_text, [t for t, _, _ in tokens_with_labels])
        record: AnnotationRecord = {
            "text": plain_text,
            "morphology": {},
            "syntax": {},
            "entities": {},
        }
        morph: Dict[str, List[Span]] = record["morphology"]  # type: ignore[assignment]
        for (tok, path, lab), span in zip(tokens_with_labels, bounds):
            morph.setdefault(path[-1], []).append(span)
        record["entities"] = fold_bio_to_entity_spans(
            [lab for _, _, lab in tokens_with_labels], bounds, len(plain_text)
        )
        syntax, whole_sentence = project_syntax_spans(
            tokens_with_labels, bounds, len(plain_text)
        )
        if not syntax:
            if whole_sentence is None:
                return None, "no syntax spans"
            syntax = whole_sentence
        record["syntax"] = syntax
        # Finalize: strip -> check -> unite for every tag list (utils.py:842-860).
        for key in ("morphology", "syntax", "entities"):
            tag_dict: Dict[str, List[Span]] = record[key]  # type: ignore[assignment]
            for tag in list(tag_dict.keys()):
                new_spans = strip_spans(plain_text, tag_dict[tag])
                err = check_spans(plain_text, new_spans)
                if err:
                    return None, f"{tag} in {key}: {err}"
                tag_dict[tag] = unite_overlapping_spans(sorted(new_spans))
        if not record["morphology"] or not record["syntax"]:
            return None, "morphology/syntax empty"
        return record, ""
    except ValueError as exc:
        return None, str(exc)


def record_to_long_form(record: AnnotationRecord) -> List[Tuple[str, str, int, int]]:
    """Explode a record's tag dicts to ``(kind, tag, start, end)`` rows.

    The shuffle-friendly long form (SURVEY.md §1.4): dynamic tags stay data,
    never column names, so Arrow schemas unify across blocks.
    """
    rows: List[Tuple[str, str, int, int]] = []
    for kind in ("morphology", "syntax", "entities"):
        for tag, spans in sorted(record[kind].items()):  # type: ignore[union-attr]
            for start, end in spans:
                rows.append((kind, tag, start, end))
    return rows
