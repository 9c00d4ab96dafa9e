"""Hashing / sketching kernels: shingles, MinHash, SimHash, fingerprints.

Vectorized (numpy) where it pays; all deterministic (fixed-seed permutation
parameters, no wall clock). These back the near-dedup operators and the
MinHash/LSH entity-canonicalization blocking stage (SURVEY.md §2.4 J2b,
§2.7) — sketches are mergeable, so per-batch partials combine in a tiny
second-stage groupby (see ``stages/dedup.py``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Set

import numpy as np

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
    import pandas as pd

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
