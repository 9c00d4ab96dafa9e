"""Hashing / sketching kernels: shingles, MinHash, SimHash, fingerprints.

Vectorized (numpy) where it pays; all deterministic (fixed-seed permutation
parameters, no wall clock). These back the near-dedup operators and the
MinHash/LSH entity-canonicalization blocking stage (SURVEY.md §2.4 J2b,
§2.7) — sketches are mergeable, so per-batch partials combine in a tiny
second-stage groupby (see ``stages/dedup.py``).

The capped candidate-pair kernels (:func:`effective_bucket_cap`,
:func:`bucket_pair_arrays`, :func:`pair_unique`) are the one LSH pair
engine: the near-dup operators (``stages/dedup.py``) and entity
canonicalization (``functions/canon.py``, ``stages/canonicalize.py``) all
enumerate bucket pairs through them, under the same cap and pair budget.
"""

from __future__ import annotations

import hashlib
import logging
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import pandas as pd

logger = logging.getLogger(__name__)

_MERSENNE = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def stable_hash64(s: str) -> int:
    """Deterministic 64-bit hash (Python's builtin hash() is salted per
    process, which would break cross-worker determinism). Per-call Python
    cost: use for persisted identifiers and data-value derivation; for
    partition assignment over whole columns use :func:`hash64_vec`."""
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def hash64_vec(values) -> np.ndarray:
    """Vectorized deterministic 64-bit hash of a column (uint64 array).

    C-speed siphash13 via ``pandas.util.hash_array`` with its FIXED default
    key — identical across processes and workers (unlike builtin ``hash``).
    Accepts numpy arrays, pandas Series, or any sequence; numeric dtypes are
    hashed natively, everything else as strings/objects. NOT the same
    function as :func:`stable_hash64` (blake2b): use it for partition
    assignment and other within-pipeline keys on hot paths, never for
    persisted identifiers (those keep blake2b so outputs are independent of
    the partitioner).
    """
    arr = values.to_numpy() if hasattr(values, "to_numpy") else np.asarray(values)
    if arr.size == 0:
        return np.array([], dtype=np.uint64)
    if arr.dtype.kind not in ("i", "u", "f", "b"):
        arr = arr.astype(object)
    return pd.util.hash_array(arr, categorize=False)


def partition_vec(values, num_buckets: int) -> np.ndarray:
    """Vectorized ``hash64_vec(values) % num_buckets`` as int32 (the
    partition-column builder for every hash-bucketed shuffle stage)."""
    return (hash64_vec(values) % np.uint64(num_buckets)).astype(np.int32)


def hash64_pair(a, b) -> np.ndarray:
    """Vectorized 64-bit hash of each pair ``(a[i], b[i])`` (uint64 array):
    the single key column a pair-keyed exchange partitions on."""
    return hash64_vec(a) * np.uint64(0x9E3779B97F4A7C15) ^ hash64_vec(b)


def char_shingles(s: str, k: int = 3) -> Set[str]:
    """Character k-shingles of a normalized string; whole string if shorter."""
    if len(s) <= k:
        return {s} if s else set()
    return {s[i: i + k] for i in range(len(s) - k + 1)}


def word_shingles(tokens: Sequence[str], k: int = 3) -> Set[str]:
    if len(tokens) <= k:
        return {" ".join(tokens)} if tokens else set()
    return {" ".join(tokens[i: i + k]) for i in range(len(tokens) - k + 1)}


def jaccard(a: Set[str], b: Set[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


class MinHasher:
    """Fixed-permutation MinHash over string shingle sets.

    ``num_perm`` universal-hash permutations ``(a*x + b) mod p`` with
    parameters drawn once from a seeded RNG — identical across every worker
    and process, which is what makes distributed signatures reproducible.

    ``base_hash`` picks the shingle hash: ``"blake2b"`` (default — entity
    canonicalization keeps it so canonical clusters are stable across
    rounds) or ``"md5_32"`` (low 32 bits of :func:`token_hash64_md5` — the
    document near-dup operators use it so the ENTIRE signature pipeline is
    reproducible in DuckDB SQL, see ``__ray_entry__.oracle_sql``'s
    ``docs_minhash_pairs``).
    """

    MERSENNE = _MERSENNE
    MAX_HASH = _MAX_HASH

    def __init__(self, num_perm: int = 64, seed: int = 13,
                 base_hash: str = "blake2b"):
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        if base_hash not in ("blake2b", "md5_32"):
            raise ValueError(base_hash)
        self.base_hash = base_hash
        # a < 2^29 and x < 2^32 keep a*x + b < 2^62: no uint64 overflow, so
        # the (a*x + b) mod p universal-hash family stays exact.
        self.a = rng.randint(1, 1 << 29, size=num_perm).astype(np.uint64)
        self.b = rng.randint(0, 1 << 61, size=num_perm).astype(np.uint64)

    def _base(self, shingles: Iterable[str]) -> np.ndarray:
        if self.base_hash == "md5_32":
            return np.fromiter(
                (token_hash64_md5(s) & _MAX_HASH for s in shingles),
                dtype=np.uint64)
        return np.fromiter(
            (stable_hash64(s) & _MAX_HASH for s in shingles), dtype=np.uint64)

    def signature(self, shingles: Iterable[str]) -> np.ndarray:
        base = self._base(shingles)
        if base.size == 0:
            return np.full(self.num_perm, _MAX_HASH, dtype=np.uint64)
        # (num_perm, n) universal hashes -> row-wise min
        vals = (np.outer(self.a, base) + self.b[:, None]) % _MERSENNE & _MAX_HASH
        return vals.min(axis=1)

    def band_keys(self, sig: np.ndarray, bands: int) -> List[str]:
        """LSH band keys: hash of each contiguous signature band."""
        rows = self.num_perm // bands
        keys = []
        for band in range(bands):
            chunk = sig[band * rows: (band + 1) * rows]
            digest = hashlib.blake2b(chunk.tobytes(), digest_size=8).hexdigest()
            keys.append(f"{band}:{digest}")
        return keys


# Per-bucket representative cap: a residual bucket (distinct members sharing
# one band) larger than this enumerates pairs only among its max_bucket
# smallest ids, logging the drop. All-pairs on 4096 reps is ~8.4M candidate
# rows (~130 MB per task) — the bounded-work ceiling. Sub-splitting a
# bucket by another band key would be a no-op: any pair agreeing on a
# second band is already a candidate via that band's own bucket, so the
# only pairs a cap can lose are those agreeing on NOTHING but the hot band
# — exactly the low-signal tail.
LSH_MAX_BUCKET = 4096

# Total candidate-pair budget across ALL buckets: max_bucket bounds one
# bucket, but a corpus whose signatures correlate (Zipf-headed real text,
# ID-like entity surfaces) has MANY near-cap buckets — measured 52M capped
# candidates at 200k docs even with max_bucket=512. The effective cap
# therefore derives from the bucket-size histogram so the estimated
# capped-pair total stays under this budget (deterministic ladder, logged
# when it tightens). Read at call time by :func:`effective_bucket_cap`.
LSH_PAIR_BUDGET = 20_000_000
_CAP_LADDER = (4096, 2048, 1024, 512, 256, 128, 64, 32)


def pair_unique(a: np.ndarray, b: np.ndarray):
    """Distinct (a, b) pairs via lexsort + adjacency — pandas
    drop_duplicates / np.unique(axis=0) are ~20x slower at tens of
    millions of rows (measured 300s vs ~15s on 52M pairs)."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.empty(len(a), dtype=bool)
    keep[0] = True
    np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=keep[1:])
    return a[keep], b[keep]


def effective_bucket_cap(
    sizes: np.ndarray,
    small_pairs: int,
    max_bucket: Optional[int],
) -> Tuple[Optional[int], int]:
    """The bucket cap to enumerate with, and the estimated pair total under
    it: the largest ladder cap at or below ``max_bucket`` whose estimated
    capped-pair total fits ``LSH_PAIR_BUDGET`` (logged when it tightens
    ``max_bucket``; ``max_bucket=None`` stays uncapped).

    ``sizes`` are bucket sizes; those at or below 64 count exactly (a cap
    never shrinks them), so a caller holding only the big sizes passes the
    small buckets' exact pair total as ``small_pairs`` and gets the same
    answer as one passing every size."""
    sizes = np.asarray(sizes, dtype=np.int64)
    small = sizes[sizes <= 64]
    small_pairs += int((small * (small - 1) // 2).sum())
    big_sizes = sizes[sizes > 64]
    top = max_bucket if max_bucket is not None else _CAP_LADDER[0]
    cap, est = _CAP_LADDER[-1], small_pairs
    for rung in _CAP_LADDER:
        if rung > top:
            continue
        capped = np.minimum(big_sizes, rung)
        rung_est = int((capped * (capped - 1) // 2).sum()) + small_pairs
        if rung_est <= LSH_PAIR_BUDGET:
            cap, est = rung, rung_est
            break
    if max_bucket is None:
        return None, est
    if cap < max_bucket:
        logger.warning(
            "LSH pair budget tightened max_bucket %d -> %d "
            "(estimated capped pairs %.1fM, budget %.1fM)",
            max_bucket, cap, est / 1e6, LSH_PAIR_BUDGET / 1e6)
        return cap, est
    return max_bucket, est


def bucket_pair_arrays(
    df: pd.DataFrame,
    bucket_col: str,
    id_col: str,
    collapse_cols: Optional[List[str]],
    max_bucket: Optional[int],
    filter_cols: Optional[List[str]] = None,
    pair_filter=None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Vectorized per-bucket pair enumeration over a (bucket, id[, collapse])
    frame: collapse exact-dup groups to their min id, cap residual buckets
    at their ``max_bucket`` smallest ids, emit triu pairs (a < b, not yet
    deduplicated across buckets — see :func:`pair_unique`).

    ``filter_cols`` + ``pair_filter``: per-row attribute columns (e.g. set
    size and prefix position for PPJoin-style pruning) and a vectorized
    ``pair_filter(attrs_a, attrs_b) -> bool mask`` applied to each bucket's
    enumerated pairs BEFORE they are emitted — pruning happens in-kernel,
    so filtered pairs never hit the dedupe shuffle. Exact-dup collapse
    takes the group min of each attribute (collapse groups share identical
    text, hence identical attributes)."""
    filter_cols = filter_cols or []
    if collapse_cols:
        aggs = {id_col: "min", **{c: "min" for c in filter_cols}}
        df = df.groupby([bucket_col] + collapse_cols, as_index=False,
                        sort=False).agg(aggs)
    # one vectorized pass instead of a Python loop per bucket (76k tiny
    # buckets cost ~5 s iterating pandas groups; this is ~0.2 s): sort by
    # (bucket, id), then every SIZE CLASS s reshapes its buckets into an
    # (n_buckets, s) matrix and emits all triu pairs with one gather.
    df = (df.drop_duplicates([bucket_col, id_col])
          .sort_values([bucket_col, id_col], kind="mergesort"))
    sizes = df.groupby(bucket_col, sort=False)[id_col] \
        .transform("size").to_numpy()
    ids_all = df[id_col].to_numpy()
    attrs_all = {c: df[c].to_numpy() for c in filter_cols}
    a_chunks: List[np.ndarray] = []
    b_chunks: List[np.ndarray] = []
    dropped = 0

    def emit(A: np.ndarray, B: np.ndarray, attr_pairs) -> None:
        if pair_filter is not None and filter_cols:
            keep = np.asarray(pair_filter(*attr_pairs), dtype=bool)
            A, B = A[keep], B[keep]
        if len(A):
            a_chunks.append(A.astype(np.int64))
            b_chunks.append(B.astype(np.int64))

    for s in np.unique(sizes):
        s = int(s)
        if s < 2 or (max_bucket is not None and s > max_bucket):
            continue
        mask = sizes == s
        ids2 = ids_all[mask].reshape(-1, s)
        iu, ju = np.triu_indices(s, 1)
        at = {c: attrs_all[c][mask].reshape(-1, s) for c in filter_cols}
        emit(ids2[:, iu].ravel(), ids2[:, ju].ravel(),
             ({c: v[:, iu].ravel() for c, v in at.items()},
              {c: v[:, ju].ravel() for c, v in at.items()}))

    if max_bucket is not None and (sizes > max_bucket).any():
        # over-cap buckets: rare by construction — per-bucket loop with
        # truncation to the first max_bucket (sorted) ids, drop logged
        for _bucket, g in df[sizes > max_bucket].groupby(bucket_col,
                                                         sort=False):
            ids = g[id_col].to_numpy()
            dropped += len(ids) - max_bucket
            ids = ids[:max_bucket]
            iu, ju = np.triu_indices(len(ids), 1)
            at = {c: g[c].to_numpy()[:max_bucket] for c in filter_cols}
            emit(ids[iu], ids[ju],
                 ({c: v[iu] for c, v in at.items()},
                  {c: v[ju] for c, v in at.items()}))
    if dropped:
        logger.warning(
            "LSH hot-bucket cap dropped %d representatives beyond "
            "max_bucket=%d (recall loss limited to pairs sharing ONLY "
            "capped buckets)", dropped, max_bucket)
    if not a_chunks:
        e = np.array([], dtype=np.int64)
        return e, e, dropped
    return np.concatenate(a_chunks), np.concatenate(b_chunks), dropped


def token_hash64_md5(tok: str) -> int:
    """64-bit token hash = little-endian first 8 bytes of md5 — chosen
    because it is exactly reproducible in ANSI-ish SQL (DuckDB's
    ``md5_number_upper``), which is what makes simhash SQL-oracle-checkable."""
    return int.from_bytes(hashlib.md5(tok.encode("utf-8")).digest()[:8], "little")


def simhash64(tokens: Sequence[str]) -> int:
    """64-bit SimHash over token features (near-dup by Hamming distance).

    Token hash is md5-based (:func:`token_hash64_md5`) so the whole
    signature has an exact DuckDB twin (see ``__ray_entry__.oracle_sql``'s
    ``docs_simhash_pairs``); the bit accumulation is one vectorized numpy
    pass over the (tokens x 64) bit matrix."""
    if not tokens:
        return 0
    hs = np.fromiter((token_hash64_md5(t) for t in tokens),
                     dtype=np.uint64, count=len(tokens))
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
            & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    out = 0
    for i in np.nonzero(acc > 0)[0]:
        out |= 1 << int(i)
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def rolling_fingerprint(text: str, window: int = 16, base: int = 257) -> int:
    """Document fingerprint: min of a polynomial rolling hash over char windows
    (winnowing-style min-selection, deterministic). Every branch is
    SQL-reproducible (see ``__ray_entry__._fingerprints_sql``): the rolling
    hash is exact integer math mod 2^61-1 and the short-text fallback is
    the md5-based token hash (``md5_number_upper`` in DuckDB)."""
    n = len(text)
    if n == 0:
        return 0
    if n <= window:
        return token_hash64_md5(text) & _MAX_HASH
    mod = _MERSENNE
    power = pow(base, window - 1, mod)
    h = 0
    for ch in text[:window]:
        h = (h * base + ord(ch)) % mod
    best = h
    for i in range(window, n):
        h = ((h - ord(text[i - window]) * power) * base + ord(text[i])) % mod
        if h < best:
            best = h
    return best & _MAX_HASH
