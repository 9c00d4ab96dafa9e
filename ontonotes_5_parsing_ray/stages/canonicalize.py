"""Distributed cross-conversation canonicalization (MinHash/LSH + components).

The distributed twin of ``functions/canon.cluster_surfaces`` — same
semantics, shuffle-aware execution (SURVEY.md §7.1 step 6):

1. distinct normalized surfaces, pre-aggregated inside ``map_batches``
   before the ``groupby`` (map-side combine: the shuffle moves unique
   surfaces, not mentions);
2. MinHash signatures + LSH band keys per surface (``map_batches``,
   fixed-seed permutations so every worker agrees);
3. ``groupby(band_key).map_groups`` -> verified candidate pairs
   (exact Jaccard inside blocks only);
4. connected components by iterative min-label propagation
   (``groupby(norm).aggregate(Min)`` per round, driver loop until the label
   sum is stable — labels encode (len, lex) order so the converged label IS
   the oracle's shortest-then-lexicographic representative,
   ``reduce_entities.py:110-115``);
5. the resulting ``norm -> canon`` map is applied back either by broadcast
   (``ray.put`` once, dict lookup per batch — the small-side fast path) or
   by a hash-partitioned groupby join when the map is too big to broadcast.

Label-propagation correctness: each round every node takes the min label in
its closed neighborhood; at fixpoint labels equal per-component minima ==
union-find components, independent of block arrival order (determinism
requirement, SURVEY.md §4).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.aggregate import Min

from ..functions.canon import (
    DEFAULT_BANDS,
    DEFAULT_NUM_PERM,
    DEFAULT_THRESHOLD,
    SHINGLE_K,
    verify_pair,
)
from ..functions.hashing import (
    MinHasher,
    char_shingles,
    hash64_vec,
    partition_vec,
    stable_hash64,
)

# Broadcast-vs-shuffle switchover for applying the canon map. Tuned for a
# 128 GiB-heap driver: ~50M short strings; beyond that, use the groupby join.
BROADCAST_LIMIT = 5_000_000


def _label_key(norm: str) -> str:
    """Order-encoding so min(label) == min by (len, lex): zero-padded length
    prefix, then the string itself.

    Separator is \\x01, NOT \\x00: pandas DataFrame.drop_duplicates and
    groupby hash object keys with C-string semantics and silently truncate
    at the first NUL byte, merging distinct keys (measured: 2466 distinct
    rows -> 7 'duplicates'). Any key that may pass through pandas must be
    NUL-free."""
    return f"{len(norm):06d}\x01{norm}"


def _label_to_norm(label: str) -> str:
    return label.split("\x01", 1)[1]


def band_keys(batch: pa.Table, num_perm: int = DEFAULT_NUM_PERM,
              bands: int = DEFAULT_BANDS) -> pa.Table:
    """Surface -> LSH band-key rows (signature computed once per surface).
    Stateless per batch: the fixed-seed hasher is cheap to rebuild."""
    hasher = MinHasher(num_perm)
    out_norm, out_band = [], []
    for norm in batch.column("norm").to_pylist():
        sig = hasher.signature(char_shingles(norm, SHINGLE_K))
        for key in hasher.band_keys(sig, bands):
            out_norm.append(norm)
            out_band.append(key)
    return pa.table({
        "band_key": pa.array(out_band, pa.string()),
        "norm": pa.array(out_norm, pa.string()),
    })


# Bounded shuffle width for the star-contraction rounds: directed edge rows
# are bucketed by hash(center) so each round is P vectorized pandas groups,
# never one group per node. Size so one bucket's edges fit a worker heap.
STAR_PARTITIONS = 64


def _star_round(D: rd.Dataset, large: bool, num_partitions: int) -> rd.Dataset:
    """One large-star or small-star contraction over undirected edges (a<b).

    large-star(x): m = min(N(x) ∪ {x}); connect every LARGER neighbor to m.
    small-star(x): over smaller neighbors only; m = min(N⁻(x)); connect
    every y ∈ N⁻(x) ∪ {x} (≠ m) to m. Both emit (a=m, b=other) with m < other,
    preserving the a<b invariant. Per-center state is vectorized pandas
    (transform('min')) inside hash(center)-bucketed groups.
    """

    def directed(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_pylist()
        b = batch.column("b").to_pylist()
        if large:
            xs, ys = a + b, b + a
        else:
            xs, ys = b, a  # center = larger endpoint
        part = partition_vec(np.asarray(xs, dtype=object), num_partitions)
        return pa.table({
            "x": pa.array(xs, pa.string()),
            "y": pa.array(ys, pa.string()),
            "part": pa.array(part, pa.int32()),
        })

    def star(group: pd.DataFrame) -> pa.Table:
        df = group[["x", "y"]].drop_duplicates()
        gmin = df.groupby("x", sort=False)["y"].transform("min")
        if large:
            m = np.where(gmin < df["x"], gmin, df["x"])
            keep = (df["y"] > df["x"]).to_numpy()
            out = pd.DataFrame({"a": m[keep], "b": df["y"].to_numpy()[keep]})
        else:
            m = gmin.to_numpy()
            keep = (df["y"] != gmin).to_numpy()
            out1 = pd.DataFrame({"a": m[keep], "b": df["y"].to_numpy()[keep]})
            heads = df.assign(m=gmin).drop_duplicates("x")
            h2 = heads[heads["x"] != heads["m"]]
            out2 = pd.DataFrame({"a": h2["m"].to_numpy(),
                                 "b": h2["x"].to_numpy()})
            out = pd.concat([out1, out2], ignore_index=True)
        out = out.drop_duplicates()
        return pa.Table.from_pandas(out, preserve_index=False)

    return D.map_batches(directed, batch_format="pyarrow").groupby(
        "part"
    ).map_groups(star, batch_format="pandas")


def _star_components(D: rd.Dataset, max_rounds: int = 64) -> rd.Dataset:
    """Alternate large/small star until the canonical edge set is stable.
    Returns the converged star forest (every non-root connected straight to
    its component's (len,lex)-min root)."""
    from ray.data.aggregate import Count

    prev_sig = None
    for _ in range(max_rounds):
        D2 = _star_round(_star_round(D, True, STAR_PARTITIONS),
                         False, STAR_PARTITIONS)
        # canonical dedupe (cross-partition duplicates) + convergence signature
        D = D2.groupby(["a", "b"]).aggregate(Count(alias_name="n")).map_batches(
            lambda t: t.select(["a", "b"]), batch_format="pyarrow"
        ).materialize()
        def sig_batch(t: pa.Table) -> pa.Table:
            import pandas as pd

            pairs_str = (pd.Series(t.column("a").to_pylist(), dtype=object)
                         + "\x01"
                         + pd.Series(t.column("b").to_pylist(), dtype=object))
            # batch partial = uint64 WRAPAROUND sum: addition mod 2^64 is
            # associative+commutative, so the final signature is independent
            # of how rows split into blocks. (The previous per-batch
            # `sum % (2^40-1)` partials were NOT: a stable edge set under a
            # different block split changed the signature, so convergence
            # was only detected when two consecutive rounds happened to
            # batch identically — tiny star forests ran 20+ rounds and
            # occasionally blew the 64-round limit.)
            h = int(hash64_vec(pairs_str).sum(dtype=np.uint64))
            return pa.table({"h": pa.array([h], pa.uint64())})

        parts = D.map_batches(sig_batch, batch_format="pyarrow").to_pandas()
        # empty Datasets lose their schema through to_pandas — no edges
        # means signature 0
        hsum = (sum(int(v) for v in parts["h"])
                if len(parts) and "h" in parts.columns else 0)
        sig = (D.count(), int(hsum % (1 << 64)))
        if sig == prev_sig:
            return D
        prev_sig = sig
    raise RuntimeError(
        f"star contraction did not converge in {max_rounds} rounds; "
        "raise max_rounds"
    )


def _block_pairs_partition(group: pd.DataFrame, threshold: float) -> pa.Table:
    """Verified pairs for ONE hash(band) partition: band blocks are
    enumerated inside the partition (P bounded pandas groups for the whole
    vocabulary, not one UDF call per LSH band)."""
    a_out, b_out = [], []
    for _band, g in group.groupby("band_key", sort=False):
        uniq = sorted(set(g["norm"]))
        for i in range(len(uniq)):
            for j in range(i + 1, len(uniq)):
                if verify_pair(uniq[i], uniq[j], threshold):
                    a_out.append(uniq[i])
                    b_out.append(uniq[j])
    return pa.table({"a": pa.array(a_out, pa.string()),
                     "b": pa.array(b_out, pa.string())})


# Below this vocabulary size, clustering runs on the driver with the exact
# same kernel the oracle uses (functions.canon.cluster_surfaces) — the
# "small side -> driver object" pattern. Above it, the distributed
# band-groupby + min-label-propagation path takes over. Both produce
# identical cluster assignments (components + (len,lex)-min representative
# are order-free), verified by tests at the boundary.
DRIVER_CLUSTER_LIMIT = 100_000


def build_canon_map(
    surfaces: rd.Dataset,
    threshold: float = DEFAULT_THRESHOLD,
    max_rounds: int = 64,
    driver_limit: Optional[int] = None,
) -> rd.Dataset:
    """``Dataset[norm] -> Dataset[norm, canon]`` clustering (auto small/large
    path). ``driver_limit`` defaults to ``DRIVER_CLUSTER_LIMIT``, read at
    call time."""
    if driver_limit is None:
        driver_limit = DRIVER_CLUSTER_LIMIT

    def per_batch_distinct(batch: pa.Table) -> pa.Table:
        norms = sorted(set(batch.column("norm").to_pylist()))
        return pa.table({"norm": pa.array(norms, pa.string())})

    deduped = surfaces.map_batches(
        per_batch_distinct, batch_format="pyarrow"
    ).materialize()  # per-batch distinct only: O(vocab x blocks), reused below

    if driver_limit > 0:
        # Small-side fast path with NO shuffle: if the per-batch distinct
        # stream is small, the global set union + clustering happen on the
        # driver with the exact oracle kernel (columnar transfer, no row
        # dicts).
        if deduped.count() <= driver_limit * 4:
            norms = sorted(set(deduped.to_pandas()["norm"]))
            if len(norms) <= driver_limit:
                from ..functions.canon import cluster_surfaces

                mapping = cluster_surfaces(norms, threshold=threshold)
                items = sorted(mapping.items())
                return rd.from_arrow(pa.table({
                    "norm": pa.array([k for k, _ in items], pa.string()),
                    "canon": pa.array([v for _, v in items], pa.string()),
                }))

    # Distributed path: global distinct via groupby, then LSH + components.
    uniq = deduped.groupby("norm").aggregate(
        Min("norm", alias_name="norm_min")
    ).map_batches(
        lambda t: pa.table({"norm": t.column("norm")}),
        batch_format="pyarrow",
    ).materialize()

    banded = uniq.map_batches(band_keys, batch_format="pyarrow",
                              batch_size=4096)

    def add_band_part(t: pa.Table) -> pa.Table:
        parts = partition_vec(
            t.column("band_key").to_numpy(zero_copy_only=False),
            STAR_PARTITIONS)
        return t.append_column("part", pa.array(parts, pa.int32()))

    pairs = banded.map_batches(add_band_part, batch_format="pyarrow") \
        .groupby("part").map_groups(
            lambda g: _block_pairs_partition(g, threshold),
            batch_format="pandas",
        )
    # duplicate band hits for the same pair collapse via a native aggregate
    from ray.data.aggregate import Count

    pairs = pairs.groupby(["a", "b"]).aggregate(
        Count(alias_name="n_bands")
    ).map_batches(lambda t: t.select(["a", "b"]),
                  batch_format="pyarrow").materialize()

    # Connected components over the (tiny relative to input) surface graph
    # by alternating large-star / small-star contractions (Kiveris et al.,
    # "Connected Components in MapReduce and Beyond", SoCC'14 — public
    # algorithm): O(log^2 n) rounds vs O(eccentricity) for naive min-label
    # propagation (measured: 6 rounds vs 24 on a 1.2k-surface test graph
    # containing a 159-node chained component). Norms are pre-encoded as
    # (len, lex)-order label keys so plain string min == the oracle's
    # shortest-then-lexicographic representative.
    # everything below runs in (len, lex)-encoded key space; decoded at the end
    self_labels = uniq.map_batches(
        lambda t: pa.table({
            "norm": pa.array(
                [_label_key(n) for n in t.column("norm").to_pylist()],
                pa.string(),
            ),
            "label": pa.array(
                [_label_key(n) for n in t.column("norm").to_pylist()],
                pa.string(),
            ),
        }),
        batch_format="pyarrow",
    ).materialize()

    def encode_pairs(batch: pa.Table) -> pa.Table:
        a = [_label_key(n) for n in batch.column("a").to_pylist()]
        b = [_label_key(n) for n in batch.column("b").to_pylist()]
        lo = [min(x, y) for x, y in zip(a, b)]
        hi = [max(x, y) for x, y in zip(a, b)]
        return pa.table({"a": pa.array(lo, pa.string()),
                         "b": pa.array(hi, pa.string())})

    D = pairs.map_batches(encode_pairs, batch_format="pyarrow").materialize()
    if D.count() == 0:
        return self_labels.map_batches(
            lambda t: pa.table({
                "norm": pa.array(
                    [_label_to_norm(n) for n in t.column("norm").to_pylist()],
                    pa.string(),
                ),
                "canon": pa.array(
                    [_label_to_norm(l) for l in t.column("label").to_pylist()],
                    pa.string(),
                ),
            }),
            batch_format="pyarrow",
        )

    D = _star_components(D, max_rounds=max_rounds)

    # canon(x) = min(x, min neighbor in the converged star forest); isolated
    # norms keep themselves. One union + groupby — no join needed.
    def node_min_rows(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_pylist()
        b = batch.column("b").to_pylist()
        return pa.table({"norm": pa.array(a + b, pa.string()),
                         "label": pa.array(b + a, pa.string())})

    merged = self_labels.union(
        D.map_batches(node_min_rows, batch_format="pyarrow")
    )
    labels = merged.groupby("norm").aggregate(Min("label", alias_name="label"))

    return labels.map_batches(
        lambda t: pa.table({
            "norm": pa.array(
                [_label_to_norm(n) for n in t.column("norm").to_pylist()],
                pa.string(),
            ),
            "canon": pa.array(
                [_label_to_norm(l) for l in t.column("label").to_pylist()],
                pa.string(),
            ),
        }),
        batch_format="pyarrow",
    )


def canon_map_to_dict(
    canon_map: rd.Dataset, limit: int = BROADCAST_LIMIT
) -> Dict[str, str]:
    """Materialize the canon map to a broadcastable dict (small-side path).

    Fail-stops above ``limit`` for direct callers; ``kg.build_graph`` checks
    the count itself and applies a bigger map with hash-partitioned joins
    instead of calling this."""
    n = canon_map.count()
    if n > limit:
        raise ValueError(
            f"canon map has {n} entries > broadcast limit {limit}; "
            "use the hash-partitioned join path"
        )
    df = canon_map.to_pandas()  # columnar; bounded by the guard above
    return dict(zip(df["norm"], df["canon"]))
