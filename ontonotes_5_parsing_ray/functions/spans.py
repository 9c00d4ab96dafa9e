"""Span (half-open character interval) algebra.

Re-implements the reference's span post-processing semantics (reference
``ontonotes5/utils.py``: ``strip_bounds`` :421-431, ``megre_bounds`` :407-418,
``unite_overlapped_bounds`` :434-451, ``check_bounds`` :454-486,
``insert_new_bounds`` :1002-1044) as pure functions over ``List[Tuple[int,int]]``.
``insert_span`` replaces the reference's O(text-length) occupancy bitmap with an
O(k) interval merge producing identical results.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Span = Tuple[int, int]


def strip_spans(text: str, spans: Sequence[Span]) -> List[Span]:
    """Shrink each span so its text equals its stripped text (utils.py:421-431)."""
    out: List[Span] = []
    for start, end in spans:
        raw = text[start:end]
        stripped = raw.strip()
        off = raw.find(stripped)
        assert off >= 0
        out.append((start + off, start + off + len(stripped)))
    return out


def drop_nested_spans(spans: Sequence[Span]) -> List[Span]:
    """Keep the first span, drop following spans overlapping the kept one.

    Dedups nested same-tag constituents (utils.py:407-418). Input order is
    preserved; assumes caller sorted by (start, start-end) when that matters.
    """
    out: List[Span] = []
    prev_end = None
    for span in spans:
        if prev_end is None or span[0] >= prev_end:
            out.append(span)
            prev_end = span[1]
    return out


def unite_overlapping_spans(spans: Sequence[Span]) -> List[Span]:
    """Merge overlapping/adjacent *sorted* spans into maximal spans.

    Raises ``ValueError`` on unsorted input — same contract as
    utils.py:434-451 (adjacency ``start == prev_end`` merges).
    """
    if not spans:
        return []
    out: List[Span] = [tuple(spans[0])]
    for start, end in spans[1:]:
        if start > out[-1][1]:
            out.append((start, end))
        else:
            if start < out[-1][0]:
                raise ValueError(
                    f"Item {(start, end)} in bounds list {list(spans)} is wrong!"
                )
            out[-1] = (out[-1][0], end)
    return out


def check_spans(text: str, spans: Sequence[Span]) -> str:
    """Validate span invariants; returns '' if OK else an error message.

    Invariants (utils.py:454-486): sorted & non-overlapping, non-empty,
    within the text, and stripped (no leading/trailing whitespace). The
    message, which lists every span, is built only for the failing span, so
    a passing check is O(n log n).
    """
    prev_pos = 0
    for start, end in sorted(spans, key=lambda s: (s[0], s[1])):
        chunk = text[start:end]
        stripped = chunk.strip()
        if start >= end:
            problem = f" start={start} >= end={end}"
        elif start < prev_pos:
            problem = f" start={start} < prev_end={prev_pos}"
        elif end > len(text):
            problem = f" end={end} > len(text)={len(text)}"
        elif not stripped:
            problem = f" text[{start}:{end}] is empty!"
        elif chunk != stripped:
            problem = f" text[{start}:{end}] is not stripped!"
        else:
            prev_pos = end
            continue
        return (f"Item {(start, end)} in the bounds list {list(spans)} is wrong!"
                + problem)
    return ""


def insert_span(new_span: Span, spans: Sequence[Span]) -> List[Span]:
    """Insert a span into a sorted disjoint span list, merging overlaps.

    Same semantics as the reference's bitmap-based ``insert_new_bounds``
    (utils.py:1002-1044) — note that like the bitmap version, *adjacent*
    spans (touching endpoints) merge into one — but O(k) in the number of
    spans instead of O(text length).
    """
    if not spans:
        return [tuple(new_span)]
    ordered = sorted(spans, key=lambda s: (s[0], s[1]))
    prev_pos = -1
    for start, end in ordered:
        if start >= end or start <= prev_pos:
            raise ValueError(
                f"Item {(start, end)} of bounds list {ordered} is wrong!"
            )
        prev_pos = end
    # strictly before the first / after the last: no merge (utils.py:1018-1021)
    if new_span[1] < ordered[0][0]:
        return [tuple(new_span)] + ordered
    if new_span[0] > ordered[-1][1]:
        return ordered + [tuple(new_span)]
    out: List[Span] = []
    ns, ne = new_span
    placed = False
    for start, end in ordered:
        if placed or end < ns:
            out.append((start, end))
        elif start > ne:
            if not placed:
                out.append((ns, ne))
                placed = True
            out.append((start, end))
        else:  # overlaps or touches the pending new span — absorb
            ns, ne = min(ns, start), max(ne, end)
    if not placed:
        out.append((ns, ne))
    out.sort()
    return out


def spans_sorted_long_form(spans: Sequence[Span]) -> List[Span]:
    """Sort by (start, start-end): earliest first, longest first on ties.

    The ordering the reference uses before peeling whole-sentence syntax spans
    (utils.py:811-815).
    """
    return sorted(spans, key=lambda s: (s[0], s[0] - s[1]))
