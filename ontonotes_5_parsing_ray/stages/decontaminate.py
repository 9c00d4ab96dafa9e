"""Benchmark decontamination: flag corpus documents that share word n-grams
with an evaluation ("benchmark") set — the standard pre-training hygiene
step (strip eval-set text from the training corpus so measured benchmark
scores reflect generalization, not memorization).

Shape at 100 TB: benchmark sets are tiny next to the corpus (a few hundred
MB of grams for every public eval suite combined), so the default route
broadcasts the distinct benchmark gram set ONCE via ``ray.put`` and every
corpus batch does a C-speed set-intersection against it — one corpus scan,
zero shuffle. When the benchmark gram set exceeds ``broadcast_limit`` the
operator auto-routes to a gram-keyed semi-join (both sides shuffle once
through :func:`relational.partition_map_groups` on the gram, per-partition
vectorized merge, then a distributed per-doc sum combine) — same output,
parity-tested.

Gram construction reuses :func:`functions.hashing.word_shingles` (the
MinHash shingle builder), so the DuckDB oracle twin is the identical
``list_transform(generate_series(...))`` expression already proven by the
``docs_minhash_pairs`` oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.hashing import word_shingles
from .relational import partition_map_groups, preagg_groupby_ds, to_arrow

# Above this many distinct benchmark grams the broadcast set stops being
# "small side" and the gram-partitioned join route runs instead. 2M grams
# of ~40 chars is ~100 MB in a frozenset — comfortably broadcastable; real
# eval suites are far below this.
BENCH_BROADCAST_LIMIT = 2_000_000


def _gram_rows(texts, ids, gram_n: int) -> pd.DataFrame:
    """Distinct (doc_id, gram) pairs for a batch of documents (blank docs
    contribute nothing, mirroring the oracle's ``trim(text) <> ''``)."""
    out_ids: list = []
    out_grams: list = []
    for i, t in zip(ids, texts):
        t = t.strip()
        if not t:
            continue
        grams = word_shingles(t.split(), gram_n)
        out_ids.extend([i] * len(grams))
        out_grams.extend(grams)
    return pd.DataFrame({"doc_id": out_ids, "gram": out_grams})


def contamination_overlap(
    docs: rd.Dataset,
    bench: rd.Dataset,
    gram_n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    broadcast_limit: int = BENCH_BROADCAST_LIMIT,
) -> rd.Dataset:
    """Per-document count of DISTINCT word ``gram_n``-grams shared with the
    benchmark set; only contaminated documents (count >= 1) are returned as
    ``(doc_id, n_overlap)``.

    ``docs`` and ``bench`` are both ``(id_col, text_col)`` datasets; a doc
    appearing in both should be excluded from ``docs`` by the caller (the
    query-layer composition filters the benchmark slice out of the corpus
    side before calling).
    """

    def bench_gram_partials(b: pd.DataFrame) -> pa.Table:
        rows = _gram_rows(b[text_col], b[id_col], gram_n)
        # distinct per batch: the driver/join side only needs the gram set
        return to_arrow(pd.DataFrame({"gram": rows["gram"].unique()}))

    # Materialize once: .count() routes, then whichever branch runs reuses
    # the same blocks (no double scan of the benchmark side).
    bench_grams = bench.map_batches(
        bench_gram_partials, batch_format="pandas").materialize()

    if bench_grams.count() <= broadcast_limit:
        return _overlap_broadcast(docs, bench_grams, gram_n,
                                  id_col, text_col)
    return _overlap_join(docs, bench_grams, gram_n, id_col, text_col)


def _overlap_broadcast(
    docs: rd.Dataset, bench_grams: rd.Dataset, gram_n: int,
    id_col: str, text_col: str,
) -> rd.Dataset:
    """Small-benchmark fast path: ship the distinct gram set to every task
    once (``ray.put``), one intersection per document, zero shuffle."""
    gram_set = frozenset(
        s
        for blk in bench_grams.iter_batches(batch_format="pandas")
        for s in blk["gram"]
    )
    ref = ray.put(gram_set)

    def count_overlap(b: pd.DataFrame) -> pa.Table:
        bset = ray.get(ref)
        ids: list = []
        ns: list = []
        for i, t in zip(b[id_col], b[text_col]):
            t = t.strip()
            if not t:
                continue
            n = len(word_shingles(t.split(), gram_n) & bset)
            if n:
                ids.append(i)
                ns.append(n)
        return to_arrow(pd.DataFrame({
            "doc_id": pd.Series(ids, dtype=np.int64),
            "n_overlap": pd.Series(ns, dtype=np.int64),
        }))

    return docs.map_batches(count_overlap, batch_format="pandas")


def _overlap_join(
    docs: rd.Dataset, bench_grams: rd.Dataset, gram_n: int,
    id_col: str, text_col: str,
) -> rd.Dataset:
    """Huge-benchmark route: co-partition corpus (doc_id, gram) pairs and
    benchmark grams in one keyed exchange on the gram
    (:func:`relational.partition_map_groups`), semi-join per partition,
    then one distributed per-doc sum. Exact: a gram's every occurrence
    lands in one partition, and per-doc pairs are distinct by
    construction."""

    def doc_side(b: pd.DataFrame) -> pa.Table:
        rows = _gram_rows(b[text_col], b[id_col], gram_n)
        rows["doc_id"] = rows["doc_id"].astype(np.int64)
        return to_arrow(rows)

    def bench_side(b: pd.DataFrame) -> pa.Table:
        out = pd.DataFrame({"gram": b["gram"]})
        out["doc_id"] = np.int64(-1)  # marker: benchmark row
        return to_arrow(out[["doc_id", "gram"]])

    tagged = docs.map_batches(doc_side, batch_format="pandas").union(
        bench_grams.map_batches(bench_side, batch_format="pandas"))

    def join_partition(g: pd.DataFrame) -> pa.Table:
        is_bench = g["doc_id"].to_numpy() == -1
        bset = pd.unique(g["gram"].to_numpy()[is_bench])
        d = g[~is_bench]
        hit = d[d["gram"].isin(bset)]
        part = (hit.groupby("doc_id", sort=False).size()
                .reset_index(name="n_overlap"))
        part["n_overlap"] = part["n_overlap"].astype(np.int64)
        return to_arrow(part)

    partials = partition_map_groups(tagged, "gram", join_partition)
    return preagg_groupby_ds(partials, ["doc_id"],
                             {"n_overlap": ("n_overlap", "sum")})
