"""Tag-similarity distance and canonicalization-rule construction.

Re-implements the reference's tag canonicalizer semantics: the custom
part-aware distance (reference ``ontonotes5/utils.py:1047-1103``), the
nearest-seed assignment (``reduce_entities.py:12-20``) and the cluster / rule
construction with shortest-then-lexicographic canonical naming
(``reduce_entities.py:88-117``). Used by the tag-reduction pipeline; the same
deterministic-min canonical-naming rule is reused for entity canonical IDs.
"""

from __future__ import annotations

import re
from typing import Dict, Sequence, Set, Tuple

from .distance import levenshtein_cached

_ALPHA_RE = re.compile(r"\w+")
_SPLIT_RE = re.compile(r"[.+:\-=]")


def tag_distance(tag1: str, tag2: str) -> int:
    """Part-aware tag distance (utils.py:1047-1103).

    0 if equal; huge (10x combined length) if exactly one side has no word
    characters; otherwise both tags are split on ``[.+:-=]``, joined with
    ``-``: 1 if normalized-equal, 2 if one is a prefix of the other,
    ``lev+2`` when they share leading parts, else ``lev*10+2``.
    """
    if tag1.strip() == tag2.strip():
        return 0
    has_alpha1 = _ALPHA_RE.search(tag1) is not None
    has_alpha2 = _ALPHA_RE.search(tag2) is not None
    if has_alpha1 != has_alpha2:
        return (len(tag1) + len(tag2)) * 10
    parts1 = [p for p in (q.strip() for q in _SPLIT_RE.split(tag1)) if p]
    parts2 = [p for p in (q.strip() for q in _SPLIT_RE.split(tag2)) if p]
    if not parts1 and not parts2:
        return 0
    if not parts1:
        return len("-".join(parts2)) + 2
    if not parts2:
        return len("-".join(parts1)) + 2
    s1, s2 = "-".join(parts1), "-".join(parts2)
    if s1 == s2:
        return 1
    if s1.startswith(s2) or s2.startswith(s1):
        return 2
    identical = 0
    for p1, p2 in zip(parts1, parts2):
        if p1 != p2:
            break
        identical += 1
    if identical > 0:
        return levenshtein_cached(
            "-".join(parts1[identical:]), "-".join(parts2[identical:])
        ) + 2
    return levenshtein_cached(s1, s2) * 10 + 2


def nearest_seed_index(tag: str, seeds: Sequence[str]) -> int:
    """argmin of :func:`tag_distance` over seeds, first-wins on ties
    (reduce_entities.py:12-20)."""
    best_idx = 0
    best = tag_distance(seeds[0], tag)
    for idx, seed in enumerate(seeds[1:], start=1):
        d = tag_distance(seed, tag)
        if d < best:
            best = d
            best_idx = idx
    return best_idx


def canonical_member(members: Sequence[str]) -> str:
    """Deterministic cluster representative: shortest, then lexicographic
    (reduce_entities.py:110-115)."""
    return sorted(members, key=lambda m: (len(m), m))[0]


def build_reduction_rules(
    tag_freqs: Dict[str, int], max_types: int
) -> Tuple[Dict[str, str], Dict[str, Set[str]]]:
    """Build ``tag -> canonical_tag`` rules for one annotation class.

    Top-``max_types`` tags by (-freq, name) seed singleton clusters; every
    remaining tag joins its nearest seed; each cluster is renamed to its
    shortest-then-lexicographic member (reduce_entities.py:88-117).
    Returns ``(rules, clusters)``.
    """
    entities = sorted(tag_freqs.items(), key=lambda kv: (-kv[1], kv[0]))
    n = min(len(entities), max_types)
    clusters: Dict[str, Set[str]] = {tag: {tag} for tag, _ in entities[:n]}
    seeds = [tag for tag, _ in entities[:n]]
    for tag, _freq in entities[n:]:
        clusters[seeds[nearest_seed_index(tag, seeds)]].add(tag)
    rules: Dict[str, str] = {}
    renamed: Dict[str, Set[str]] = {}
    for seed in sorted(clusters.keys()):
        members = sorted(clusters[seed], key=lambda m: (len(m), m))
        canon = members[0]
        renamed[canon] = set(members)
        for member in members:
            rules[member] = canon
    return rules, renamed
