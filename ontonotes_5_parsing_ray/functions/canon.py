"""Cross-conversation entity canonicalization: MinHash/LSH + clustering.

Generalizes the reference's tag canonicalizer (cluster seeds + nearest-form
assignment + shortest-then-lexicographic renaming, ``reduce_entities.py:88-117``)
to entity surface forms at scale: LSH blocking over MinHash signatures of char
3-shingles, exact-Jaccard verification of the candidate pairs, connected
components, and a deterministic canonical representative per component
(min by (len, lex) — the same rule as ``reduce_entities.py:110-115``).

Clusters are defined over CAPPED candidate pairs: pairs come from the
shared LSH pair engine (:func:`hashing.bucket_pair_arrays`), over ids that
rank the distinct norms by (len, norm), with each band bucket capped at
its ``max_bucket`` smallest ids — ``hashing.LSH_MAX_BUCKET``, tightened by
``hashing.LSH_PAIR_BUDGET`` from the band-size histogram (logged when it
binds). Below the cap every pair sharing a band is a candidate; above it,
a hot bucket (e.g. ten thousand ID-like ``"acme corp 01234"`` surfaces in
one band) costs bounded work, and only pairs that share nothing but a
capped bucket can be missed.

The functions here define the *semantics*; ``stages/canonicalize.py`` runs
the same steps distributed (``relational.global_row_number`` ranks ->
band rows -> ``dedup._candidate_pairs`` with the same cap from the same
histogram -> ``dedup.near_dup_clusters`` star-contraction components), and
produces identical cluster assignments, also when a cap binds.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

import pandas as pd

from . import hashing
from .hashing import MinHasher, char_shingles, jaccard

DEFAULT_NUM_PERM = 64
DEFAULT_BANDS = 16
DEFAULT_THRESHOLD = 0.5
SHINGLE_K = 3


def surface_band_keys(
    norm: str, hasher: MinHasher, bands: int = DEFAULT_BANDS
) -> List[str]:
    return hasher.band_keys(hasher.signature(char_shingles(norm, SHINGLE_K)), bands)


def verify_pair(a: str, b: str, threshold: float = DEFAULT_THRESHOLD) -> bool:
    return jaccard(char_shingles(a, SHINGLE_K), char_shingles(b, SHINGLE_K)) >= threshold


def connected_components(
    nodes: Iterable[str], edges: Iterable[Tuple[str, str]]
) -> Dict[str, str]:
    """Union-find components; returns node -> component representative where
    the representative is the (len, lex)-minimal member (deterministic,
    independent of edge order)."""
    parent: Dict[str, str] = {n: n for n in nodes}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        if a not in parent:
            parent[a] = a
        if b not in parent:
            parent[b] = b
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    comps: Dict[str, List[str]] = {}
    for n in parent:
        comps.setdefault(find(n), []).append(n)
    out: Dict[str, str] = {}
    for members in comps.values():
        rep = min(members, key=lambda m: (len(m), m))
        for m in members:
            out[m] = rep
    return out


def cluster_surfaces(
    norms: Sequence[str],
    threshold: float = DEFAULT_THRESHOLD,
    num_perm: int = DEFAULT_NUM_PERM,
    bands: int = DEFAULT_BANDS,
) -> Dict[str, str]:
    """Single-process reference clustering: norm -> canonical norm.

    The golden semantics for the distributed canonicalization stage: the
    distinct norms, ranked by (len, norm), are the ids; band rows
    ``(band_key, id)`` go through the shared capped pair engine (cap from
    the band-size histogram), and each distinct candidate pair is verified
    once before connected components."""
    hasher = MinHasher(num_perm)
    uniq = sorted(set(norms), key=lambda n: (len(n), n))
    keys = [surface_band_keys(norm, hasher, bands) for norm in uniq]
    rows = pd.DataFrame({  # band keys as int codes: an int sort is cheaper
        "band_key": pd.Series([k for ks in keys for k in ks]).factorize()[0],
        "id": [i for i, ks in enumerate(keys) for _ in ks],
    })
    cap, _ = hashing.effective_bucket_cap(
        rows["band_key"].value_counts().to_numpy(), 0, hashing.LSH_MAX_BUCKET)
    a, b, _ = hashing.bucket_pair_arrays(rows, "band_key", "id", None, cap)
    if len(a):
        a, b = hashing.pair_unique(a, b)
    verified = [(uniq[i], uniq[j]) for i, j in zip(a.tolist(), b.tolist())
                if verify_pair(uniq[i], uniq[j], threshold)]
    return connected_components(uniq, verified)


def canonical_entity_id(canonical_norm: str) -> str:
    """Stable opaque id for a canonical surface form."""
    return "ent_" + hashlib.blake2b(
        canonical_norm.encode("utf-8"), digest_size=8
    ).hexdigest()
