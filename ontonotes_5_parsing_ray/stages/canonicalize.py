"""Distributed cross-conversation canonicalization (MinHash/LSH + components).

The distributed twin of ``functions/canon.cluster_surfaces`` — same
semantics, shuffle-aware execution (SURVEY.md §7.1 step 6):

1. distinct normalized surfaces, pre-aggregated inside ``map_batches``
   before the ``groupby`` (map-side combine: the shuffle moves unique
   surfaces, not mentions);
2. every surface's (len, norm) rank as its int id
   (:func:`relational.global_row_number`) — the oracle's ids;
3. MinHash signatures + LSH band rows ``(band_key, id, norm)`` per surface
   (``map_batches``, fixed-seed permutations so every worker agrees);
4. verified candidate pairs from dedup's capped pair engine
   (``dedup._candidate_pairs`` with ``verify_pair`` as its in-kernel pair
   filter): the same cap, from the same band-size histogram over the same
   ids, as the oracle, so both agree even when a cap binds;
5. connected components by large/small-star contraction
   (``dedup.near_dup_clusters``): every id's cluster is the smallest id it
   reaches, i.e. the (len, lex)-minimal norm — the oracle's
   shortest-then-lexicographic representative
   (``reduce_entities.py:110-115``) — looked up back to norms with one
   join on the id and one exchange on the cluster id;
6. the resulting ``norm -> canon`` map is applied back by
   ``kg.build_graph`` with one left ``relational.hash_join`` per surface
   column, which broadcasts a map that fits one exchange bucket and
   exchanges both sides otherwise.

Components and the min-rep rule are order-free, so the result is
independent of block arrival order (determinism requirement, SURVEY.md §4).
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Min

from ..functions.canon import (
    DEFAULT_BANDS,
    DEFAULT_NUM_PERM,
    DEFAULT_THRESHOLD,
    cluster_surfaces,
    surface_band_keys,
    verify_pair,
)
from ..functions import hashing
from .dedup import _candidate_pairs, near_dup_clusters
from .relational import global_row_number, hash_join, partition_map_groups

# canon_map_to_dict's fail-stop: the most entries it collects on the driver.
BROADCAST_LIMIT = 5_000_000


def _band_rows(batch: pa.Table) -> pa.Table:
    """Ranked surface -> LSH band rows ``(band_key, doc_id, norm)``
    (signature computed once per surface). Stateless per batch: the
    fixed-seed hasher is cheap to rebuild."""
    hasher = hashing.MinHasher(DEFAULT_NUM_PERM)
    keys = [surface_band_keys(n, hasher, DEFAULT_BANDS)
            for n in batch.column("norm").to_pylist()]
    rows = batch.select(["doc_id", "norm"]).take(
        np.repeat(np.arange(len(keys)), [len(k) for k in keys]))
    return rows.add_column(0, "band_key", pa.array(
        [k for ks in keys for k in ks], pa.string()))


# Below this vocabulary size, clustering runs on the driver with the oracle
# kernel itself (functions.canon.cluster_surfaces) — the "small side ->
# driver object" pattern. Above it, the distributed rank + band pairs +
# star-components route takes over. Both produce identical cluster
# assignments, verified by tests at the boundary and with a binding cap.
DRIVER_CLUSTER_LIMIT = 100_000


def build_canon_map(
    surfaces: rd.Dataset,
    threshold: float = DEFAULT_THRESHOLD,
) -> rd.Dataset:
    """``Dataset[norm] -> Dataset[norm, canon]`` clustering (auto small/large
    path at ``DRIVER_CLUSTER_LIMIT``, read at call time)."""

    def per_batch_distinct(batch: pa.Table) -> pa.Table:
        norms = sorted(set(batch.column("norm").to_pylist()))
        return pa.table({"norm": pa.array(norms, pa.string())})

    deduped = surfaces.map_batches(
        per_batch_distinct, batch_format="pyarrow"
    ).materialize()  # per-batch distinct only: O(vocab x blocks), reused below

    # Small-side fast path with NO shuffle: if the per-batch distinct stream
    # is small, the global set union + clustering happen on the driver with
    # the exact oracle kernel (columnar transfer, no row dicts).
    if deduped.count() <= DRIVER_CLUSTER_LIMIT * 4:
        # Ray's to_pandas of 0 rows has no columns
        norms = sorted(set(deduped.to_pandas().get("norm", ())))
        if len(norms) <= DRIVER_CLUSTER_LIMIT:
            mapping = cluster_surfaces(norms, threshold=threshold)
            items = sorted(mapping.items())
            return rd.from_arrow(pa.table({
                "norm": pa.array([k for k, _ in items], pa.string()),
                "canon": pa.array([v for _, v in items], pa.string()),
            }))

    # Distributed path: global distinct via groupby, (len, norm) ranks as
    # ids, capped + verified band pairs, star-contraction components.
    uniq = deduped.groupby("norm").aggregate(
        Min("norm", alias_name="norm_min")
    ).map_batches(
        lambda t: pa.table({"norm": t.column("norm"),
                            "len": pc.utf8_length(t.column("norm"))}),
        batch_format="pyarrow",
    )
    # read three times: band rows, cluster members, the final lookup join
    ranked = global_row_number(
        uniq, ["len", "norm"], out_col="doc_id").select_columns(
            ["doc_id", "norm"]).materialize()

    def verified(attrs_a: Dict, attrs_b: Dict) -> np.ndarray:
        return np.fromiter(
            (verify_pair(a, b, threshold)
             for a, b in zip(attrs_a["norm"], attrs_b["norm"])),
            dtype=bool, count=len(attrs_a["norm"]))

    pairs = _candidate_pairs(
        ranked.map_batches(_band_rows, batch_format="pyarrow"),
        "band_key", "doc_id", max_bucket=hashing.LSH_MAX_BUCKET,
        filter_cols=["norm"], pair_filter=verified)
    clusters = near_dup_clusters(ranked, pairs)

    def canon_partition(g: pd.DataFrame) -> pa.Table:
        # a cluster's root (doc_id == cluster_id) is one of its own rows
        roots = g.loc[g["doc_id"] == g["cluster_id"]] \
            .set_index("cluster_id")["norm"]
        return pa.table({
            "norm": pa.array(g["norm"].to_numpy(), pa.string()),
            "canon": pa.array(g["cluster_id"].map(roots).to_numpy(),
                              pa.string()),
        })

    return partition_map_groups(
        hash_join(clusters, ranked, on=["doc_id"]), "cluster_id",
        canon_partition)


def canon_map_to_dict(
    canon_map: rd.Dataset, limit: int = BROADCAST_LIMIT
) -> Dict[str, str]:
    """Collect the canon map on the driver as a dict; fail-stops above
    ``limit`` entries. The pipeline never calls this (``kg.build_graph``
    joins the map Dataset); an empty map gives ``{}``."""
    n = canon_map.count()
    if n > limit:
        raise ValueError(
            f"canon map has {n} entries > broadcast limit {limit}; "
            "use the hash-partitioned join path"
        )
    if not n:   # Ray's to_pandas of 0 rows has no columns
        return {}
    df = canon_map.to_pandas()  # columnar; bounded by the guard above
    return dict(zip(df["norm"], df["canon"]))
