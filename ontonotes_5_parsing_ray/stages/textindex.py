"""Partitioned on-disk inverted index over a document corpus.

The text-retrieval sibling of the LSH / IVF embedding indexes
(``stages/ann.py``): one streaming pass tokenizes the corpus into distinct
``(token, doc_id)`` postings and writes them hive-partitioned by
``hash(token) % num_buckets``. A keyword query then opens ONLY its query
tokens' bucket directories — at 100 TB a search touches
``len(query_tokens) / num_buckets`` of the postings instead of scanning the
corpus, and the pruning happens at the READ (partition directories never
opened), not as a post-read filter.

Same atomic build lifecycle as the ANN indexes: callers build into a
scratch dir and ``os.replace`` into place, with ``_META`` written last (see
``pipelines.queries._ensure_inverted_index``).
"""

from __future__ import annotations

import json
import os
from typing import List, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import partition_vec
from .relational import preagg_groupby_ds, to_arrow

__all__ = ["build_inverted_index", "search_keywords", "search_bm25"]


def build_inverted_index(
    docs: rd.Dataset,
    out_dir: str,
    num_buckets: int = 64,
) -> str:
    """Build the bucket-partitioned postings layout under ``out_dir``.

    Per-batch: vectorized whitespace tokenize (explode) and one groupby
    producing ``(token, doc_id, tf)`` — postings are globally unique
    because a document is exactly one input row, so ``(token, doc_id)``
    can never recur across batches. The bucket column is the deterministic
    siphash partitioner (``functions.hashing.partition_vec``) shared with
    every other shuffle in the engine, so a query process recomputes
    identical buckets.

    Layout: ``bucket=<k>/*.parquet`` postings, a ``_doclen`` parquet dir
    (``doc_id, dl`` — derived FROM the postings by a column-pruned
    re-read, never a second tokenization pass), and ``_META`` json
    (num_buckets + the BM25 corpus stats ``n_docs``/``total_len``),
    written LAST so a half-built index is never mistaken for a whole one.
    """

    def postings(b: pd.DataFrame) -> pa.Table:
        b = b.reset_index(drop=True)
        ex = b["text"].str.strip().str.split().explode().dropna()
        post = (pd.DataFrame({
            "token": ex.to_numpy(dtype=object),
            "doc_id": b["doc_id"].to_numpy()[ex.index.to_numpy()],
        }).groupby(["token", "doc_id"], sort=False)
            .size().reset_index(name="tf"))
        post["tf"] = post["tf"].astype("int64")
        post["bucket"] = partition_vec(post["token"].to_numpy(), num_buckets)
        return to_arrow(post)

    os.makedirs(out_dir, exist_ok=True)
    docs.map_batches(postings, batch_format="pandas").write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    # doc lengths = sum of tf per doc: a pruned (doc_id, tf) re-read of
    # the postings we just wrote, combined distributed, written as the
    # _doclen sidecar for BM25's length normalization
    post_files = _bucket_files(out_dir, range(num_buckets))
    doclen = preagg_groupby_ds(
        rd.read_parquet(post_files, columns=["doc_id", "tf"]),
        ["doc_id"], {"dl": ("tf", "sum")},
    ).materialize()
    doclen.write_parquet(os.path.join(out_dir, "_doclen"))
    total_len = doclen.sum("dl")  # native agg over the small table
    n_docs = doclen.count()
    with open(os.path.join(out_dir, "_META"), "w") as fh:
        json.dump({
            "num_buckets": num_buckets,
            "n_docs": int(n_docs),
            "total_len": int(total_len),
        }, fh)
    return out_dir


def _bucket_files(index_dir: str, buckets: Sequence[int]) -> List[str]:
    # ray.data.read_parquet expands ONE directory but not a list of them —
    # enumerate the partition files explicitly
    files: List[str] = []
    for b in buckets:
        part_dir = os.path.join(index_dir, f"bucket={int(b)}")
        if os.path.isdir(part_dir):
            files.extend(
                os.path.join(part_dir, f)
                for f in sorted(os.listdir(part_dir))
                if f.endswith(".parquet")
            )
    return files


def search_keywords(
    index_dir: str,
    tokens: Sequence[str],
    mode: str = "and",
) -> rd.Dataset:
    """Keyword search through a :func:`build_inverted_index` layout.

    Opens only the query tokens' bucket partitions, filters the postings to
    the exact tokens, then one distributed pre-aggregated combine counts
    distinct query tokens per document (postings are distinct by
    construction). ``mode='and'`` keeps docs matching ALL tokens,
    ``'or'`` any. The result stays a Dataset — a common token can match a
    corpus-scale doc set.
    """
    if mode not in ("and", "or"):
        raise ValueError(mode)
    with open(os.path.join(index_dir, "_META")) as fh:
        meta = json.load(fh)
    toks = sorted(set(tokens))
    if not toks:
        raise ValueError("empty token list")
    buckets = np.unique(
        partition_vec(np.asarray(toks, dtype=object), meta["num_buckets"]))
    files = _bucket_files(index_dir, buckets)
    if not files:
        return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))

    import pyarrow.parquet as pq

    did_type = pq.read_schema(files[0]).field("doc_id").type
    postings = rd.read_parquet(files, columns=["token", "doc_id"])
    tok_set = set(toks)

    # explicit Arrow types: a zero-hit batch must not degrade to
    # null-typed columns (empty object-dtype frames lose their schema,
    # and the final to_pandas of an all-empty result would drop doc_id)
    def hits(b: pd.DataFrame) -> pa.Table:
        h = b[b["token"].isin(tok_set)]
        return pa.table({
            "doc_id": pa.Array.from_pandas(h["doc_id"], type=did_type),
            "token": pa.array(h["token"].astype(str), pa.string()),
        })

    counts = preagg_groupby_ds(
        postings.map_batches(hits, batch_format="pandas"),
        ["doc_id"], {"n": ("token", "count")},
    )
    need = len(toks) if mode == "and" else 1

    def keep(b: pd.DataFrame) -> pa.Table:
        if "n" not in b.columns:  # schema-less empty block
            return pa.table({"doc_id": pa.array([], did_type)})
        return pa.table({"doc_id": pa.Array.from_pandas(
            b.loc[b["n"] >= need, "doc_id"], type=did_type)})

    # NB: the Dataset's schema() is always (doc_id: <type>), but Ray's
    # to_pandas() drops columns from any EMPTY dataset — a zero-match
    # search consumed via to_pandas yields a 0x0 frame (Ray limitation;
    # iter_batches / write_parquet keep the schema)
    return counts.map_batches(keep, batch_format="pandas")


def search_bm25(
    index_dir: str,
    tokens: Sequence[str],
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """BM25 ranked retrieval through the inverted index: top-``k`` docs for
    a bag-of-words query (Lucene idf variant,
    ``ln((N - df + 0.5)/(df + 0.5) + 1)``).

    Only the query tokens' bucket partitions are opened. The matched
    postings (docs containing ANY query token) are pinned once; document
    frequencies are a |query|-row driver combine over them; doc lengths
    attach with one ``hash_join`` on the doc id (``_doclen`` broadcast
    while it fits one exchange bucket, exchanged above). Scores
    combine distributed (per-batch partial sums -> one vocabulary
    combine), ranked by (rounded score desc, doc_id) so float ties cut
    deterministically; the driver sees blocks x k rows."""
    import math

    from ..functions.rounding import round_half_away
    from .relational import distributed_topk, hash_join, preagg_groupby

    if not tokens:
        raise ValueError("empty token list")
    with open(os.path.join(index_dir, "_META")) as fh:
        meta = json.load(fh)
    n_docs = meta["n_docs"]
    avgdl = meta["total_len"] / n_docs if n_docs else 1.0
    toks = sorted(set(tokens))
    empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "score": pd.Series([], dtype="float64")})
    buckets = np.unique(
        partition_vec(np.asarray(toks, dtype=object), meta["num_buckets"]))
    files = _bucket_files(index_dir, buckets)
    if not files:
        return empty
    tok_set = set(toks)

    def hits(batch: pd.DataFrame) -> pa.Table:
        h = batch[batch["token"].isin(tok_set)]
        return pa.table({
            "doc_id": pa.Array.from_pandas(h["doc_id"]),
            "token": pa.array(h["token"].astype(str), pa.string()),
            "tf": pa.array(h["tf"].astype("int64"), pa.int64()),
        })

    matched = rd.read_parquet(
        files, columns=["token", "doc_id", "tf"]
    ).map_batches(hits, batch_format="pandas").materialize()

    dfs = preagg_groupby(matched, ["token"], {"df": ("tf", "count")})
    if not len(dfs):
        return empty
    idf = {t: math.log((n_docs - d + 0.5) / (d + 0.5) + 1.0)
           for t, d in zip(dfs["token"], dfs["df"])}

    def score_with_dl(h: pd.DataFrame) -> pa.Table:
        w = np.array([idf[t] for t in h["token"]], np.float64)
        tf = h["tf"].to_numpy(np.float64)
        dl = h["dl"].to_numpy(np.float64)
        # keep the arithmetic shape identical to the SQL twin:
        # idf * (tf / (tf + k1*(1 - b + b*dl/avgdl)))
        contrib = w * (tf / (tf + k1 * (1.0 - b + b * dl / avgdl)))
        part = (pd.DataFrame({"doc_id": h["doc_id"], "score": contrib})
                .groupby("doc_id", sort=False)["score"].sum().reset_index())
        return pa.table({
            "doc_id": pa.Array.from_pandas(part["doc_id"]),
            "score": pa.array(part["score"].to_numpy(np.float64),
                              pa.float64()),
        })

    partials = hash_join(
        matched, rd.read_parquet(os.path.join(index_dir, "_doclen")),
        on=["doc_id"]).map_batches(score_with_dl, batch_format="pandas")

    combined = preagg_groupby_ds(
        partials, ["doc_id"], {"score": ("score", "sum")})

    def rounded(bt: pd.DataFrame) -> pa.Table:
        return pa.table({
            "doc_id": pa.Array.from_pandas(bt["doc_id"]),
            "score": pa.array(round_half_away(
                bt["score"].to_numpy(np.float64), 6), pa.float64()),
        })

    top = distributed_topk(
        combined.map_batches(rounded, batch_format="pandas"),
        ["score", "doc_id"], [False, True], k)
    return top[["doc_id", "score"]].reset_index(drop=True)
