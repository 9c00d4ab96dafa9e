"""Similarity search over an embedding column (``list<float>``).

* :func:`knn_bruteforce` — exact cosine top-k: the query matrix is broadcast
  once (``ray.put``), each batch does one numpy matmul, per-batch top-k
  partials are combined in a final tiny reduce. Never materializes the
  corpus; the combine moves only ``batches x k`` rows.
* :func:`knn_lsh` — the scale path: random-hyperplane buckets prune the
  corpus to the query's bucket (+ optional multi-probe neighbors), exact
  rerank inside. Recall < 1 by construction; the brute-force result is the
  baseline it is measured against in tests.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.rounding import round_half_away
from .relational import _empty_frame, two_phase_aggregate


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    n[n == 0] = 1.0
    return v / n


def knn_bruteforce(
    embeddings: rd.Dataset,
    query: np.ndarray,
    k: int = 10,
) -> pd.DataFrame:
    """Exact top-k by cosine vs one query vector.

    Returns a DataFrame ``(vec_id, cosine)`` sorted by (-cosine, vec_id) —
    ties broken by id so results are deterministic and SQL-comparable.
    """
    q = _unit(np.asarray(query, dtype=np.float64).reshape(1, -1))
    q_ref = ray.put(q)

    def partial_topk(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        vecs = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        # round BEFORE the per-batch truncation so partial selection uses the
        # same (rounded cosine, vec_id) order as the final combine and the
        # SQL oracle — otherwise a tie created by rounding can rank
        # oppositely at the k-boundary and drop the row the oracle keeps
        cos = round_half_away((_unit(vecs) @ qv.T).ravel().astype(np.float64), 6)
        order = np.lexsort((ids, -cos))[:k]
        return pa.table({
            "vec_id": pa.array(ids[order], pa.int64()),
            "cosine": pa.array(cos[order]),
        })

    partials = embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        partial_topk, batch_format="pyarrow"
    ).to_pandas()  # at most (num_blocks x k) rows — tiny
    partials = partials.sort_values(
        ["cosine", "vec_id"], ascending=[False, True]
    ).head(k)
    return partials.reset_index(drop=True)


def knn_bruteforce_multi(
    embeddings: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
) -> pd.DataFrame:
    """Exact top-k for a BATCH of query vectors in one corpus pass: the
    (q x dim) query matrix is broadcast once (``ray.put``), each batch does
    ONE numpy matmul against all queries, and per-(batch, query) top-k
    partials combine on the driver (``blocks x q x k`` rows). Returns
    ``(query_id, vec_id, cosine)`` with the same round-before-truncate tie
    handling as the single-query path."""
    q = _unit(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q)
    n_q = q.shape[0]

    def partial_topk(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        vecs = np.asarray(batch.column("embedding").to_pylist(),
                          dtype=np.float64)
        cos = round_half_away((_unit(vecs) @ qm.T).astype(np.float64), 6)
        out_q, out_id, out_cos = [], [], []
        for qi in range(qm.shape[0]):
            col = cos[:, qi]
            order = np.lexsort((ids, -col))[:k]
            out_q.append(np.full(len(order), qi, dtype=np.int64))
            out_id.append(ids[order])
            out_cos.append(col[order])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
            "cosine": pa.array(np.concatenate(out_cos)),
        })

    partials = embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        partial_topk, batch_format="pyarrow"
    ).to_pandas()
    out = partials.sort_values(
        ["query_id", "cosine", "vec_id"], ascending=[True, False, True],
        kind="mergesort",
    ).groupby("query_id", sort=True).head(k)
    assert out["query_id"].nunique() <= n_q
    return out.reset_index(drop=True)


def knn_graph(
    embeddings: rd.Dataset,
    k: int = 5,
    broadcast_limit: int = 2_000_000,
) -> rd.Dataset:
    """Exact all-pairs kNN graph: every vector's top-``k`` cosine
    neighbors (self excluded) as directed edges ``(src_id, dst_id,
    cosine)`` — the similarity-graph constructor feeding clustering,
    dedup-cluster seeding, and manifold statistics.

    Plan: the unit-normalized corpus matrix is broadcast ONCE
    (``ray.put``); each corpus batch does ONE ``(batch x dim) @ (dim x n)``
    matmul and a vectorized per-row top-k (argpartition + the same
    round-before-truncate tie rule as :func:`knn_bruteforce`), so the
    n^2 similarity matrix never materializes — live memory is
    ``batch x n`` per task and output is exactly ``n x k`` edges.

    Scale boundary: the broadcast side is the whole corpus (n x dim
    float64), enforced by ``broadcast_limit`` rows — exact all-pairs above
    that is the wrong tool; route through :func:`build_ivf_index` /
    :func:`knn_ivf_indexed` per source row instead (the ANN scale path).
    """
    # materialize the pruned selection ONCE: both the driver collect (for
    # the broadcast matrix) and the distributed top-k pass consume it, so
    # the parquet scan doesn't run twice; pinned size is bounded by
    # broadcast_limit by construction
    sel = embeddings.select_columns(["vec_id", "embedding"]).materialize()
    mat_parts: List[np.ndarray] = []
    id_parts: List[np.ndarray] = []
    n_rows = 0
    for blk in sel.iter_batches(batch_format="pyarrow"):
        ids = np.asarray(blk.column("vec_id").to_pylist(), dtype=np.int64)
        vecs = np.asarray(blk.column("embedding").to_pylist(),
                          dtype=np.float64)
        n_rows += len(ids)
        if n_rows > broadcast_limit:
            raise ValueError(
                f"knn_graph is the exact small/medium-corpus tool: "
                f"{n_rows}+ rows exceeds broadcast_limit="
                f"{broadcast_limit}; use the IVF index for ANN graphs "
                "at this scale")
        id_parts.append(ids)
        # float64 end-to-end: cosine rounding must match the
        # DOUBLE-precision SQL twin (same rule as knn_bruteforce)
        mat_parts.append(_unit(vecs))
    all_ids = np.concatenate(id_parts) if id_parts else np.array([], np.int64)
    mat = (np.vstack(mat_parts) if mat_parts
           else np.zeros((0, 1), np.float64))
    ref = ray.put((all_ids, mat))

    def batch_topk(batch: pa.Table) -> pa.Table:
        ids_all, m = ray.get(ref)
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        vecs = _unit(np.asarray(batch.column("embedding").to_pylist(),
                                dtype=np.float64))
        cos = round_half_away(vecs @ m.T, 6)
        # self-exclusion: a vec_id may sit anywhere in the corpus matrix
        cos[ids[:, None] == ids_all[None, :]] = -np.inf
        kk = min(k, cos.shape[1] - 1) if cos.shape[1] > 1 else 0
        if kk <= 0:
            return pa.table({"src_id": pa.array([], pa.int64()),
                             "dst_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        # coarse cut by argpartition (first kk are the kk largest,
        # unordered), then expand every element TIED with the cut value so
        # the (cosine desc, id asc) rule is exact at the boundary — the
        # lexsort runs over ~kk elements, not n
        part = np.argpartition(-cos, kk - 1, axis=1)[:, :kk]
        rows = []
        for r in range(cos.shape[0]):
            cand = part[r]
            v = cos[r, cand].min()
            cand = np.union1d(cand, np.nonzero(cos[r] == v)[0])
            order = np.lexsort((ids_all[cand], -cos[r, cand]))[:kk]
            rows.append(cand[order])
        picked = np.asarray(rows)
        return pa.table({
            "src_id": pa.array(np.repeat(ids, kk), pa.int64()),
            "dst_id": pa.array(ids_all[picked].ravel(), pa.int64()),
            "cosine": pa.array(cos[np.arange(len(ids))[:, None],
                                   picked].ravel(), pa.float64()),
        })

    return sel.map_batches(
        batch_topk, batch_format="pyarrow")


class HyperplaneBuckets:
    """Actor-pool stage: embedding -> LSH bucket key (seed-fixed planes)."""

    def __init__(self, dim: int, n_planes: int = 10, seed: int = 7):
        # float64 end-to-end: the plane dots (and therefore the bucket
        # keys) are then exactly reproducible by a SQL twin summing the
        # same constants in DOUBLE (float32 matmul order diverges too far)
        self.planes = np.random.RandomState(seed).randn(n_planes, dim)

    def key_of(self, vecs: np.ndarray) -> List[str]:
        signs = (np.asarray(vecs, dtype=np.float64) @ self.planes.T) >= 0
        return ["".join("1" if b else "0" for b in row) for row in signs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        return batch.append_column(
            "bucket", pa.array(self.key_of(vecs), pa.string())
        )


def knn_lsh(
    embeddings: rd.Dataset,
    query: np.ndarray,
    k: int = 10,
    n_planes: int = 10,
    seed: int = 7,
    multiprobe: int = 1,
) -> pd.DataFrame:
    """Approximate top-k: prune to the query's hyperplane bucket (plus
    ``multiprobe`` single-bit-flip neighbor buckets), exact rerank inside.

    At cluster scale the bucket column is precomputed once and the corpus is
    written partitioned by bucket, so a query touches only its partitions.
    """
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    dim = query.shape[1]
    bucketer = HyperplaneBuckets(dim, n_planes, seed)
    q_key = bucketer.key_of(_unit(query))[0]
    probe_keys = {q_key}
    for flip in range(min(multiprobe * n_planes, n_planes)):
        flipped = list(q_key)
        flipped[flip] = "0" if q_key[flip] == "1" else "1"
        probe_keys.add("".join(flipped))
        if len(probe_keys) > multiprobe + 1:
            break
    keys_ref = ray.put(probe_keys)
    q_ref = ray.put(_unit(query))

    def prune_and_score(batch: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        qv = ray.get(q_ref)
        vecs = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        bucket = bucketer.key_of(vecs)
        mask = np.array([b in keys for b in bucket])
        if not mask.any():
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            })
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)[mask]
        # round before truncation: see partial_topk
        cos = round_half_away((_unit(vecs[mask]) @ qv.T).ravel(), 6)
        order = np.lexsort((ids, -cos))[:k]
        return pa.table({
            "vec_id": pa.array(ids[order], pa.int64()),
            "cosine": pa.array(cos[order]),
        })

    partials = embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        prune_and_score, batch_format="pyarrow"
    ).to_pandas()
    return partials.sort_values(
        ["cosine", "vec_id"], ascending=[False, True]
    ).head(k).reset_index(drop=True)


def build_lsh_index(
    embeddings: rd.Dataset,
    out_dir: str,
    n_planes: int = 10,
    seed: int = 7,
) -> str:
    """The documented scale path for :func:`knn_lsh`: compute each vector's
    hyperplane bucket ONCE and write the corpus hive-partitioned by bucket.
    Queries then read only their probe buckets' partitions — pruning happens
    at the READ (row groups never leave storage), not as a post-read filter.

    Returns ``out_dir``. Layout: ``bucket=<key>/*.parquet`` + ``_META`` json
    (n_planes, seed) so a query reconstructs the identical planes."""
    import json as _json
    import os

    bucketer_state: dict = {"b": None}

    def add_bucket(batch: pa.Table) -> pa.Table:
        # ONE bucketing implementation for the whole LSH family: reuse
        # HyperplaneBuckets so the stored index keys are float64 like the
        # query keys and the generated SQL twin (an inline f32 copy here
        # is what the round-5 float64 migration originally missed)
        vecs = np.asarray(batch.column("embedding").to_pylist(),
                          dtype=np.float64)
        if (bucketer_state["b"] is None
                or bucketer_state["b"].planes.shape[1] != vecs.shape[1]):
            bucketer_state["b"] = HyperplaneBuckets(
                vecs.shape[1], n_planes, seed)
        keys = bucketer_state["b"].key_of(vecs)
        return batch.append_column("bucket", pa.array(keys, pa.string()))

    os.makedirs(out_dir, exist_ok=True)
    embeddings.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    with open(os.path.join(out_dir, "_META"), "w") as fh:
        _json.dump({"n_planes": n_planes, "seed": seed}, fh)
    return out_dir


def knn_lsh_indexed(
    index_dir: str,
    query: np.ndarray,
    k: int = 10,
    multiprobe: int = 1,
) -> pd.DataFrame:
    """Approximate top-k over a :func:`build_lsh_index` layout: only the
    probe buckets' partition directories are opened — at 100 TB a query
    touches ~(1+multiprobe)/2^n_planes of the corpus instead of scanning it.
    """
    import json as _json
    import os

    with open(os.path.join(index_dir, "_META")) as fh:
        meta = _json.load(fh)
    n_planes, seed = meta["n_planes"], meta["seed"]
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    bucketer = HyperplaneBuckets(query.shape[1], n_planes, seed)
    q_key = bucketer.key_of(_unit(query))[0]
    probe_keys = {q_key}
    for flip in range(n_planes):
        flipped = list(q_key)
        flipped[flip] = "0" if q_key[flip] == "1" else "1"
        probe_keys.add("".join(flipped))
        if len(probe_keys) > multiprobe + 1:
            break

    files = [
        os.path.join(d, f)
        for key in sorted(probe_keys)
        for d in [os.path.join(index_dir, f"bucket={key}")]
        if os.path.isdir(d)
        for f in sorted(os.listdir(d)) if f.endswith(".parquet")
    ]
    if not files:
        return pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                             "cosine": pd.Series(dtype="float64")})
    qv = _unit(query)
    q_ref = ray.put(qv)

    def score(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        vecs = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        cos = round_half_away(
            (_unit(vecs) @ ray.get(q_ref).T).ravel(), 6)
        order = np.lexsort((ids, -cos))[:k]
        return pa.table({
            "vec_id": pa.array(ids[order], pa.int64()),
            "cosine": pa.array(cos[order]),
        })

    partials = rd.read_parquet(files, columns=["vec_id", "embedding"]) \
        .map_batches(score, batch_format="pyarrow").to_pandas()
    return partials.sort_values(
        ["cosine", "vec_id"], ascending=[False, True]
    ).head(k).reset_index(drop=True)


def kmeans_fit(
    embeddings: rd.Dataset,
    n_clusters: int = 16,
    n_iter: int = 5,
) -> np.ndarray:
    """Distributed spherical k-means (the IVF coarse quantizer).

    Lloyd iterations, Ray-Data-shaped: per round the (k x dim) centroid
    matrix is broadcast once via ``ray.put``; each batch does one numpy
    argmax assignment and emits MERGEABLE per-cluster (sum, count) partials
    (k rows per batch, never per-vector rows); the driver combine is
    O(k x dim x blocks). Deterministic: init = the k lowest-vec_id vectors
    (selected with the same partial-top-k pattern as knn), ties impossible
    (vec_id unique); empty clusters keep their previous centroid.

    SQL-replayable contract (what makes ``emb_knn_ivf`` oracle-checkable):
    centroid components are rounded to 6 decimals after every update and
    assignment scores are rounded to 6 before the argmax (ties -> lowest
    cluster index) — both sides of the comparison then compute identical
    doubles, the repo's established round-before-compare trick.
    """

    def init_partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        order = np.argsort(ids)[:n_clusters]
        return pa.table({
            "vec_id": pa.array(ids[order], pa.int64()),
            "embedding": batch.column("embedding").take(pa.array(order)),
        })

    seed_df = embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        init_partial, batch_format="pyarrow"
    ).to_pandas().sort_values("vec_id").head(n_clusters)
    cents = round_half_away(
        _unit(np.asarray(seed_df["embedding"].tolist(), dtype=np.float64)), 6)

    for _ in range(n_iter):
        c_ref = ray.put(cents)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(c_ref)
            vecs = np.asarray(batch.column("embedding").to_pylist(),
                              dtype=np.float64)
            assign = np.argmax(
                round_half_away(_unit(vecs) @ c.T, 6), axis=1)
            out_c, out_sum, out_n = [], [], []
            for ci in np.unique(assign):
                mask = assign == ci
                out_c.append(int(ci))
                out_sum.append(vecs[mask].sum(axis=0).tolist())
                out_n.append(int(mask.sum()))
            return pa.table({
                "cluster": pa.array(out_c, pa.int32()),
                "vec_sum": pa.array(out_sum, pa.list_(pa.float64())),
                "n": pa.array(out_n, pa.int64()),
            })

        parts = embeddings.select_columns(["embedding"]).map_batches(
            partials, batch_format="pyarrow"
        ).to_pandas()
        new_cents = cents.copy()
        for ci, group in parts.groupby("cluster"):
            total = np.sum(np.asarray(group["vec_sum"].tolist()), axis=0)
            n = group["n"].sum()
            if n:
                # normalize + round PER UPDATED ROW: empty clusters keep
                # their previous (already rounded) centroid byte-for-byte,
                # matching the SQL twin's COALESCE
                new_cents[int(ci)] = round_half_away(
                    _unit((total / n).reshape(1, -1)).ravel(), 6)
        cents = new_cents
    return cents


def build_ivf_index(
    embeddings: rd.Dataset,
    out_dir: str,
    n_clusters: int = 16,
    n_iter: int = 5,
) -> str:
    """IVF index: k-means coarse quantizer + corpus written hive-partitioned
    by nearest-centroid cluster. Queries probe only their ``n_probe``
    nearest clusters' partitions — like the LSH index, pruning happens at
    the READ. ``_META`` carries the centroid matrix so a query reconstructs
    the identical assignment geometry."""
    import json as _json
    import os

    cents = kmeans_fit(embeddings, n_clusters=n_clusters, n_iter=n_iter)
    c_ref = ray.put(cents)

    def add_cluster(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        vecs = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        assign = np.argmax(
            round_half_away(_unit(vecs) @ c.T, 6), axis=1).astype(np.int32)
        return batch.append_column("cluster", pa.array(assign, pa.int32()))

    os.makedirs(out_dir, exist_ok=True)
    embeddings.map_batches(add_cluster, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["cluster"]
    )
    with open(os.path.join(out_dir, "_META"), "w") as fh:
        _json.dump({"n_clusters": n_clusters,
                    "centroids": cents.tolist()}, fh)
    return out_dir


def knn_ivf_indexed(
    index_dir: str,
    query: np.ndarray,
    k: int = 10,
    n_probe: int = 4,
) -> pd.DataFrame:
    """Approximate top-k over a :func:`build_ivf_index` layout: only the
    ``n_probe`` nearest clusters' partitions are opened; exact cosine rerank
    inside. ``n_probe == n_clusters`` degenerates to the exact scan
    (asserted against brute force in tests)."""
    import json as _json
    import os

    with open(os.path.join(index_dir, "_META")) as fh:
        meta = _json.load(fh)
    cents = np.asarray(meta["centroids"], dtype=np.float64)
    q = _unit(np.asarray(query, dtype=np.float64).reshape(1, -1))
    probe_scores = round_half_away(cents @ q.ravel(), 6)
    order = np.lexsort(
        (np.arange(len(cents)), -probe_scores))[:n_probe]
    files = [
        os.path.join(d, f)
        for ci in sorted(int(c) for c in order)
        for d in [os.path.join(index_dir, f"cluster={ci}")]
        if os.path.isdir(d)
        for f in sorted(os.listdir(d)) if f.endswith(".parquet")
    ]
    if not files:
        return pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                             "cosine": pd.Series(dtype="float64")})
    q_ref = ray.put(q)

    def score(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        vecs = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        cos = round_half_away(
            (_unit(vecs) @ ray.get(q_ref).T).ravel().astype(np.float64), 6)
        order = np.lexsort((ids, -cos))[:k]
        return pa.table({
            "vec_id": pa.array(ids[order], pa.int64()),
            "cosine": pa.array(cos[order]),
        })

    partials = rd.read_parquet(files, columns=["vec_id", "embedding"]) \
        .map_batches(score, batch_format="pyarrow").to_pandas()
    return partials.sort_values(
        ["cosine", "vec_id"], ascending=[False, True]
    ).head(k).reset_index(drop=True)


def label_centroids(embeddings: rd.Dataset) -> pd.DataFrame:
    """Per-label mean vector via mergeable per-batch partial sums
    (sum + count per label per batch — the combine moves one row per
    (batch, label)), then one vector-sum combine per label, on the driver
    or per partition as :func:`relational.two_phase_aggregate` picks."""

    def partials(batch: pd.DataFrame) -> pa.Table:
        if batch.empty:   # may have lost its columns upstream
            batch = batch.reindex(columns=["label", "embedding"])
        labels = batch["label"].to_numpy()
        vecs = np.asarray(batch["embedding"].tolist(), dtype=np.float64)
        out_label, out_sum, out_n = [], [], []
        for lab in np.unique(labels):
            mask = labels == lab
            out_label.append(int(lab))
            out_sum.append(vecs[mask].sum(axis=0).tolist())
            out_n.append(int(mask.sum()))
        return pa.table({
            "label": pa.array(out_label, pa.int32()),
            "vec_sum": pa.array(out_sum, pa.list_(pa.float64())),
            "n": pa.array(out_n, pa.int64()),
        })

    def combine(parts: pd.DataFrame) -> pa.Table:
        labels, ns, cents = [], [], []
        for label, group in parts.groupby("label"):
            total = np.sum(np.asarray(group["vec_sum"].tolist()), axis=0)
            n = int(group["n"].sum())
            labels.append(int(label))
            ns.append(n)
            cents.append((total / n).tolist())
        return pa.table({
            "label": pa.array(labels, pa.int64()),
            "n": pa.array(ns, pa.int64()),
            "centroid": pa.array(cents, pa.list_(pa.float64())),
        })

    out_ds = two_phase_aggregate(
        embeddings.select_columns(["label", "embedding"]), ["label"],
        partials, combine)
    out = out_ds.to_pandas()
    if not len(out):
        # Ray's to_pandas of 0 rows has no columns: type them from the schema
        return _empty_frame(out_ds.schema())
    return out.sort_values("label").reset_index(drop=True)
