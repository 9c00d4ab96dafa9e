"""Distributed graph analytics over edge Datasets.

Connected components live in ``stages/dedup.py`` (large/small-star
contraction); this module adds iterative rank propagation. PageRank is the
canonical "iterative algorithm on Ray Data" shape: the driver orchestrates
a fixed number of rounds; each round is one distributed join + one
combine, and per-round state (the rank vector) auto-routes — broadcast via
``ray.put`` while the node table fits, a node-hash ``hash_join`` when it
does not.

Graph contract: callers pass WEIGHTED directed edges ``(src, dst, w)``
with no dangling nodes — every node must appear as a ``src`` (undirected
graphs, encoded as both edge directions, satisfy this automatically).
Dangling-node mass redistribution is intentionally out of scope.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .relational import (
    hash_join,
    partition_map_groups,
    preagg_groupby_ds,
    to_arrow,
)

import logging

logger = logging.getLogger(__name__)

__all__ = ["pagerank", "triangle_counts", "label_propagation",
           "symmetrize_int_edges"]


def pagerank(
    edges: rd.Dataset,
    damping: float = 0.85,
    iterations: int = 5,
    broadcast_limit: int = 2_000_000,
) -> Union[pd.DataFrame, rd.Dataset]:
    """Weighted PageRank by power iteration:
    ``r'(v) = (1-d)/N + d * sum_{(u,v,w)} r(u) * w / outdeg(u)``.

    The edge table is pinned once; out-degrees are one distributed
    combine. Each iteration then either (node count ≤ ``broadcast_limit``)
    broadcasts the rank/out-degree vectors and runs one vectorized
    contributions pass + a driver combine, or (above the limit) joins the
    rank Dataset onto the out-degree-augmented edges by node hash and
    combines distributed — per-round state is materialized so iteration
    ``k+1`` never re-executes rounds ``1..k`` through lineage.

    Returns a ``pd.DataFrame`` (broadcast route) or ``rd.Dataset`` (join
    route) of ``(node, rank)``; ranks are raw doubles — callers round.
    The contribution arithmetic is shaped ``(rank * w) / outdeg`` so a SQL
    twin using the same expression reproduces it bit-for-bit.
    """
    edges = edges.materialize()
    outdeg = preagg_groupby_ds(
        edges, ["src"], {"outdeg": ("w", "sum")}).materialize()
    n_nodes = outdeg.count()
    if n_nodes == 0:
        return pd.DataFrame({"node": pd.Series([], dtype=object),
                             "rank": pd.Series([], dtype="float64")})
    base = (1.0 - damping) / n_nodes

    if n_nodes <= broadcast_limit:
        state = outdeg.to_pandas().set_index("src")["outdeg"]
        nodes = state.index.to_numpy()
        ranks = pd.Series(1.0 / n_nodes, index=state.index)
        for _ in range(iterations):
            ref = ray.put(pd.DataFrame({"rank": ranks, "outdeg": state}))

            def contribs(b: pd.DataFrame) -> pa.Table:
                st = ray.get(ref)
                r = st["rank"].reindex(b["src"]).to_numpy(np.float64)
                od = st["outdeg"].reindex(b["src"]).to_numpy(np.float64)
                c = (r * b["w"].to_numpy(np.float64)) / od
                part = (pd.DataFrame({"node": b["dst"], "c": c})
                        .groupby("node", sort=False)["c"].sum()
                        .reset_index())
                return to_arrow(part)

            summed = preagg_groupby_ds(
                edges.map_batches(contribs, batch_format="pandas"),
                ["node"], {"c": ("c", "sum")},
            ).to_pandas().set_index("node")["c"]
            ranks = base + damping * summed.reindex(
                ranks.index).fillna(0.0)
        return (pd.DataFrame({"node": nodes, "rank": ranks.to_numpy()})
                .reset_index(drop=True))

    # join route: node table too big to broadcast. Node ids keep their
    # ORIGINAL dtype end-to-end (int-keyed edge tables must match the
    # inner join on src), and each round's rank state is re-seeded from
    # the FULL node set (outdeg) — a node with out-edges but no in-edges
    # receives no contributions, but must stay at base rank AND keep
    # contributing in later rounds; keying the state off the contribution
    # sums alone would drop it after round 1 (r4 ADVICE).
    edges_aug = hash_join(edges, outdeg, on=["src"]).materialize()

    def init_ranks(b: pd.DataFrame) -> pa.Table:
        out = b[["src"]].rename(columns={"src": "node"})
        out["rank"] = np.full(len(b), 1.0 / n_nodes)
        return to_arrow(out)

    ranks_ds = outdeg.map_batches(
        init_ranks, batch_format="pandas").materialize()
    for _ in range(iterations):
        joined = hash_join(edges_aug, ranks_ds, on=["src"],
                           right_on=["node"])

        def contribs_j(b: pd.DataFrame) -> pa.Table:
            c = ((b["rank"].to_numpy(np.float64)
                  * b["w"].to_numpy(np.float64))
                 / b["outdeg"].to_numpy(np.float64))
            part = (pd.DataFrame({"node": b["dst"], "c": c})
                    .groupby("node", sort=False)["c"].sum().reset_index())
            return to_arrow(part)

        summed = preagg_groupby_ds(
            joined.map_batches(contribs_j, batch_format="pandas"),
            ["node"], {"c": ("c", "sum")},
        )
        # left-join the contribution sums onto the full node set so every
        # node survives the round
        full = hash_join(outdeg, summed,
                         join_type="left_outer",
                         on=["src"], right_on=["node"])

        def finish(b: pd.DataFrame) -> pa.Table:
            c = np.nan_to_num(b["c"].to_numpy(np.float64), nan=0.0)
            out = b[["src"]].rename(columns={"src": "node"})
            out["rank"] = base + damping * c
            return to_arrow(out)

        ranks_ds = full.map_batches(
            finish, batch_format="pandas").materialize()
    return ranks_ds


# Per-node wedge cap: a node of degree d expands to d(d-1)/2 wedge rows —
# the same quadratic shape as an LSH hot bucket. Nodes beyond the cap keep
# only their max_degree smallest-id neighbors (logged), bounding any
# partition's expansion at max_degree^2/2 regardless of input skew. kNN
# graphs (deg <= 2k) never hit it.
TRIANGLE_MAX_DEGREE = 4096


def triangle_counts(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    max_degree: int = TRIANGLE_MAX_DEGREE,
) -> rd.Dataset:
    """Per-node triangle counts over an undirected simple graph (edges may
    arrive directed/duplicated; they are canonicalized first). Returns
    ``(node, n_triangles)`` for nodes in at least one triangle — the local
    clustering-coefficient numerator (community structure / similarity-
    graph quality analytics).

    Plan (wedge-check, 2 keyed exchanges through
    :func:`relational.partition_map_groups`, no driver state):
    1. canonicalize: orient each edge ``(a=min, b=max)`` and key it by the
       pair hash, batch-local dedupe — the edge SET, still distributed.
    2. wedges: symmetrize the edges into per-node adjacency (exchange on
       the center node), one vectorized triu expansion per partition emits
       every neighbor pair ``(u < v, center)``. A triangle produces
       exactly one wedge per corner, so closed-wedge counts grouped by
       center ARE per-node triangle counts.
    3. closure: wedges co-partition with the edge set on the pair hash; a
       per-partition semi-join keeps wedges whose ``(u, v)`` is an edge,
       then one distributed combine sums by center.

    Partitioning assumption: per-node degree must fit a partition's wedge
    expansion (deg^2/2 rows) — guaranteed for kNN graphs (deg <= 2k) and
    any degree-capped similarity graph, which is this operator's intended
    input; ``max_degree`` fail-safes the assumption (hotter nodes keep
    their max_degree smallest-id neighbors, with a logged drop count, so
    a degenerate hub cannot go quadratic). Power-law webgraphs wanting
    exact counts need the degree-ordered orientation refinement (each
    wedge charged to its LOWEST-degree corner), intentionally out of
    scope.
    """
    from ..functions.hashing import hash64_pair

    # -- 1. canonical edge set, pair-keyed ---------------------------------
    def orient(batch: pd.DataFrame) -> pa.Table:
        s = batch[src_col].to_numpy(np.int64)
        d = batch[dst_col].to_numpy(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        a, b = np.minimum(s, d), np.maximum(s, d)
        out = pd.DataFrame({"a": a, "b": b}).drop_duplicates()
        out["pair"] = hash64_pair(out["a"], out["b"])
        return to_arrow(out)

    # No standalone dedupe shuffle: batch-level drop_duplicates above
    # bounds the redundancy, and the residual cross-batch duplicates are
    # absorbed downstream — np.unique per node in the wedge kernel,
    # drop_duplicates in the closure kernel (all copies of a pair/node
    # land in one partition, so kernel-local dedupe is globally exact).
    edge_set = edges.map_batches(
        orient, batch_format="pandas").materialize()  # reused by 2 and 3

    # -- 2. wedges from per-node adjacency ---------------------------------
    def adj_rows(batch: pd.DataFrame) -> pa.Table:
        a = batch["a"].to_numpy(np.int64)
        b = batch["b"].to_numpy(np.int64)
        return to_arrow(pd.DataFrame({
            "node": np.concatenate([a, b]),
            "nbr": np.concatenate([b, a]),
        }))

    def wedge_rows(g: pd.DataFrame) -> pa.Table:
        sv = g.sort_values(["node", "nbr"], kind="mergesort")
        nodes = sv["node"].to_numpy(np.int64)
        nbrs = sv["nbr"].to_numpy(np.int64)
        starts = np.flatnonzero(
            np.r_[True, nodes[1:] != nodes[:-1]])
        ends = np.r_[starts[1:], len(nodes)]
        w_u, w_v, w_c = [], [], []
        dropped = 0
        for s, e in zip(starts, ends):
            nb = np.unique(nbrs[s:e])  # dedupes cross-batch edge copies
            if len(nb) > max_degree:
                dropped += len(nb) - max_degree
                nb = nb[:max_degree]
            if len(nb) < 2:
                continue
            iu, ju = np.triu_indices(len(nb), 1)
            w_u.append(nb[iu])
            w_v.append(nb[ju])
            w_c.append(np.full(len(iu), nodes[s], dtype=np.int64))
        if dropped:
            logger.warning(
                "triangle_counts max_degree=%d dropped %d neighbor slots "
                "on hub nodes (counts on those hubs are lower bounds)",
                max_degree, dropped)
        if not w_u:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "center": pa.array([], pa.int64()),
                             "pair": pa.array([], pa.uint64())})
        u, v = np.concatenate(w_u), np.concatenate(w_v)
        return to_arrow(pd.DataFrame({
            "a": u, "b": v, "center": np.concatenate(w_c),
            "pair": hash64_pair(u, v),
        }))

    wedges = partition_map_groups(
        edge_set.map_batches(adj_rows, batch_format="pandas"), "node",
        wedge_rows)

    # -- 3. closure check: wedge (a,b) is an edge --------------------------
    def edge_tag(batch: pd.DataFrame) -> pa.Table:
        out = batch[["a", "b", "pair"]].copy()
        out["center"] = np.int64(-1)  # marker: edge row
        return to_arrow(out[["a", "b", "center", "pair"]])

    tagged = wedges.union(
        edge_set.map_batches(edge_tag, batch_format="pandas"))

    def close_partition(g: pd.DataFrame) -> pa.Table:
        is_edge = g["center"].to_numpy() == -1
        e = g[is_edge][["a", "b"]].drop_duplicates()
        w = g[~is_edge]
        hit = w.merge(e, on=["a", "b"], how="inner")
        part = (hit.groupby("center", sort=False).size()
                .reset_index(name="n_triangles"))
        part = part.rename(columns={"center": "node"})
        part["n_triangles"] = part["n_triangles"].astype(np.int64)
        return to_arrow(part)

    closed = partition_map_groups(tagged, "pair", close_partition)
    return preagg_groupby_ds(closed, ["node"],
                             {"n_triangles": ("n_triangles", "sum")})


def label_propagation(
    edges: rd.Dataset,
    seeds: rd.Dataset,
    rounds: int = 3,
    broadcast_limit: int = 2_000_000,
) -> Union[pd.DataFrame, rd.Dataset]:
    """Semi-supervised label propagation: seed nodes hold fixed labels;
    each round every node adopts the label with the LARGEST summed edge
    weight among its labeled in-neighbors (ties -> smallest label id);
    nodes with no labeled neighbor stay unlabeled until one appears.

    Contract: ``edges`` is ``(u, v, w)`` with BOTH directions present for
    undirected graphs and ``w`` an INTEGER weight — integer sums are
    order-independent, so the per-node argmax is exactly reproducible by
    a SQL twin regardless of distributed summation order (the reason the
    cosine weights are pre-scaled to ints by callers). ``seeds`` is
    ``(node, label)``.

    Routing mirrors :func:`pagerank`: the label state broadcasts via
    ``ray.put`` while the graph's node count fits ``broadcast_limit``
    (one vectorized contributions pass per round + a distributed
    (node,label) combine), else the state stays a Dataset and each round
    is a node-hash join + combine + partition-local argmax. Per-round
    state is materialized so round ``k+1`` never replays rounds ``1..k``.
    """
    edges = edges.materialize()
    # routing only: the edge count bounds the node count from above (so it
    # can only route TOWARD the distributed path), and it's free on a
    # materialized Dataset — a distinct-count here would cost a shuffle
    n_nodes = edges.count()

    def argmax_frame(df: pd.DataFrame) -> pd.DataFrame:
        """(node, label, s) -> winner per node by (s desc, label asc)."""
        sv = df.sort_values(["node", "s", "label"],
                            ascending=[True, False, True],
                            kind="mergesort")
        return sv.drop_duplicates("node")[["node", "label"]]

    if n_nodes <= broadcast_limit:
        seed_df = seeds.to_pandas()
        seed_s = seed_df.set_index("node")["label"]
        state = seed_s.copy()
        for _ in range(rounds):
            ref = ray.put(state)

            def contribs(b: pd.DataFrame) -> pa.Table:
                st = ray.get(ref)
                lab = st.reindex(b["u"]).to_numpy()
                has = ~pd.isna(lab)
                part = (pd.DataFrame({
                    "node": b["v"].to_numpy()[has],
                    "label": lab[has].astype(np.int64),
                    "s": b["w"].to_numpy(np.int64)[has],
                }).groupby(["node", "label"], sort=False)["s"].sum()
                    .reset_index())
                return to_arrow(part)

            # broadcast route = state fits the driver by definition, so the
            # per-round combine is driver-side too: partials are map-side
            # pre-summed (<= nodes x labels rows per batch), and a driver
            # groupby beats a distributed sort-shuffle by its whole fixed
            # cost (~3x round latency measured at bench scale)
            summed = (edges.map_batches(contribs, batch_format="pandas")
                      .to_pandas()
                      .groupby(["node", "label"], sort=False)["s"].sum()
                      .reset_index())
            won = argmax_frame(summed).set_index("node")["label"]
            won.update(seed_s)          # seeds are clamped
            state = won.combine_first(seed_s).astype(np.int64)
        return (state.rename("label").reset_index()
                [["node", "label"]].reset_index(drop=True))

    # join route: state stays distributed
    state_ds = seeds.materialize()
    for _ in range(rounds):
        joined = hash_join(edges, state_ds, on=["u"], right_on=["node"])

        def contribs_j(b: pd.DataFrame) -> pa.Table:
            part = (pd.DataFrame({
                "node": b["v"],
                "label": b["label"].astype(np.int64),
                "s": b["w"].to_numpy(np.int64),
            }).groupby(["node", "label"], sort=False)["s"].sum()
                .reset_index())
            return to_arrow(part)

        summed = preagg_groupby_ds(
            joined.map_batches(contribs_j, batch_format="pandas"),
            ["node", "label"], {"s": ("s", "sum")},
        )

        # distributed argmax + seed clamp, co-partitioned by node hash
        def tag_cand(b: pd.DataFrame) -> pa.Table:
            out = b[["node", "label", "s"]].copy()
            out["pri"] = np.int8(1)
            return to_arrow(out)

        def tag_seed(b: pd.DataFrame) -> pa.Table:
            out = b[["node", "label"]].copy()
            out["s"] = np.int64(0)
            out["pri"] = np.int8(0)    # seeds sort first -> always win
            return to_arrow(out)

        def pick(g: pd.DataFrame) -> pa.Table:
            sv = g.sort_values(["node", "pri", "s", "label"],
                               ascending=[True, True, False, True],
                               kind="mergesort")
            return to_arrow(sv.drop_duplicates("node")[["node", "label"]])

        both = summed.map_batches(tag_cand, batch_format="pandas").union(
            seeds.map_batches(tag_seed, batch_format="pandas"))
        state_ds = partition_map_groups(both, "node", pick).materialize()
    return state_ds


def symmetrize_int_edges(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str = "w",
    scale: float = 1.0,
) -> rd.Dataset:
    """Directed weighted edges -> deduped undirected edges with BOTH
    directions present and integer weights ``round(w * scale)`` — the
    input contract of :func:`label_propagation`. Assumes the weight is a
    symmetric function of the endpoints (cosine is), so duplicate
    (a, b) rows agree; dedupe is one pair-keyed
    :func:`relational.partition_map_groups` exchange."""
    from ..functions.hashing import hash64_pair

    def orient(batch: pd.DataFrame) -> pa.Table:
        s = batch[src_col].to_numpy(np.int64)
        d = batch[dst_col].to_numpy(np.int64)
        keep = s != d
        out = pd.DataFrame({
            "a": np.minimum(s[keep], d[keep]),
            "b": np.maximum(s[keep], d[keep]),
            "w": np.rint(batch[weight_col].to_numpy(np.float64)[keep]
                         * scale).astype(np.int64),
        }).drop_duplicates(["a", "b"])
        out["pair"] = hash64_pair(out["a"], out["b"])
        return to_arrow(out)

    def dedupe_and_mirror(g: pd.DataFrame) -> pa.Table:
        e = g.drop_duplicates(["a", "b"])
        return to_arrow(pd.DataFrame({
            "u": np.concatenate([e["a"].to_numpy(), e["b"].to_numpy()]),
            "v": np.concatenate([e["b"].to_numpy(), e["a"].to_numpy()]),
            "w": np.concatenate([e["w"].to_numpy()] * 2),
        }))

    return partition_map_groups(
        edges.map_batches(orient, batch_format="pandas"), "pair",
        dedupe_and_mirror)
