"""Relational building blocks: broadcast joins, distributed hash joins,
pre-aggregated groupbys, top-k, windowed event aggregates.

These power the TPC-H-ish queries in ``__ray_entry__`` and correspond to the
reference's lookup/aggregate operators (SURVEY.md J1 broadcast semi-join,
A1-A4 aggregates, K1 top-k): the small side is materialized once, shipped
via ``ray.put``, and probed per batch — no shuffle; the wide aggregates
pre-combine inside ``map_batches`` before the (tiny) final groupby; fact-to-
fact joins go through :func:`hash_join` (both sides hash-partitioned on the
key — never materialized to the driver).

Every hash exchange in the module is one keyed exchange (:func:`_exchange`)
whose partition count comes from :func:`exchange_partitions`:
:func:`partition_map_groups` runs a pandas kernel per partition, and
:func:`hash_join` runs ``pa.Table.join`` on the two sides of a tagged union.
The as-of, interval and salted-session operators exchange on key lists
through :func:`partition_map_groups`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.rounding import round_half_away


def to_arrow(df: pd.DataFrame) -> pa.Table:
    """Convert a UDF's pandas result to an Arrow table.

    Blocks produced by pandas-returning UDFs are STORED as pandas blocks,
    and every downstream shuffle (groupby / sort / join) over pandas blocks
    pays a per-block conversion + slow path (~13x measured on a 140k-row
    combine: 18s pandas-blocks vs 1.4s arrow-blocks). Any map_batches whose
    output feeds a shuffle must return Arrow.
    """
    return pa.Table.from_pandas(df, preserve_index=False)


def broadcast_join(
    left: rd.Dataset,
    right_df: pd.DataFrame,
    on: Sequence[str],
    how: str = "inner",
) -> rd.Dataset:
    """Broadcast hash join: ``right_df`` (small side, already driver-resident)
    is ``ray.put`` once; every batch does a pandas merge against it.

    The J1 pattern (``utils.py:952-983``) generalized: O(1) dict probe per
    row, zero shuffle. The small side must fit a worker heap — caller's
    contract, same as the reference's driver-resident split dict. For two
    fact tables use :func:`hash_join` instead.
    """
    right_ref = ray.put(right_df)
    on = list(on)

    def probe(batch: pd.DataFrame) -> pa.Table:
        right = ray.get(right_ref)
        return to_arrow(batch.merge(right, on=on, how=how))

    return left.map_batches(probe, batch_format="pandas")


def broadcast_semi_join(
    left: rd.Dataset, keys: set, key_col: str, anti: bool = False
) -> rd.Dataset:
    """Semi/anti join: broadcast the key set, filter inside map_batches."""
    keys_ref = ray.put(keys)

    def fil(batch: pd.DataFrame) -> pa.Table:
        ks = ray.get(keys_ref)
        mask = batch[key_col].isin(ks)
        return to_arrow(batch[~mask] if anti else batch[mask])

    return left.map_batches(fil, batch_format="pandas")


def bloom_semi_join(
    left: rd.Dataset,
    keys_ds: rd.Dataset,
    key_col: str,
    keys_col: Optional[str] = None,
    m_bits: int = 1 << 23,
    n_hashes: int = 7,
) -> rd.Dataset:
    """Bloom-prefiltered semi join: the scale path when the key SET is too
    big to broadcast exactly (a billion distinct keys as a Python set is
    tens of GB; the same keys as a Bloom filter are ``m_bits/8`` bytes at
    a tunable false-positive rate).

    Build is fully distributed and mergeable: each keys batch folds into a
    local bit array, partials OR together (commutative/idempotent — safe
    under re-execution) on the driver, and ONE array ships via
    ``ray.put``. The filtered stream is a SUPERSET of the true semi-join
    (no false negatives, ~fpr extra rows) — compose with an exact verify
    (:func:`broadcast_semi_join` or :func:`hash_join`) downstream when
    exactness is required; the verify then touches only the surviving
    ~(match + fpr) fraction instead of the whole fact stream.
    """
    from ..functions.sketches import bloom_add, bloom_contains, bloom_new

    kc = keys_col or key_col

    def build_partial(b: pd.DataFrame) -> pd.DataFrame:
        bits = bloom_new(m_bits)
        bloom_add(bits, b[kc].to_numpy(), n_hashes)
        return pd.DataFrame({"bits": [bits.tobytes()]})

    merged = bloom_new(m_bits)
    for blk in keys_ds.map_batches(
            build_partial, batch_format="pandas").iter_batches(
            batch_format="pandas"):
        for blob in blk["bits"]:
            np.bitwise_or(merged, np.frombuffer(blob, dtype=np.uint8),
                          out=merged)
    ref = ray.put(merged)

    def fil(batch: pd.DataFrame) -> pa.Table:
        bits = ray.get(ref)
        mask = bloom_contains(bits, batch[key_col].to_numpy(), n_hashes)
        return to_arrow(batch[mask])

    return left.map_batches(fil, batch_format="pandas")


# One join bucket of the larger side should fit comfortably in a worker
# heap alongside the build table: 256 MiB target per bucket.
TARGET_JOIN_BUCKET_BYTES = 256 << 20
MAX_AUTO_JOIN_PARTITIONS = 4096


def _known_size_bytes(ds: rd.Dataset):
    """Size estimate WITHOUT triggering execution: an op whose size the
    plan metadata lacks (a map, a filter) takes the size of its nearest
    upstream ops that know theirs (reads, materialized data), summed over
    the inputs of a ``Union``, each op counted once. ``Dataset.size_bytes()``
    itself executes lazy plans — never call it to pick a partition count."""
    seen: set = set()

    def walk(op):
        if id(op) in seen:
            return None
        seen.add(id(op))
        size = op.infer_metadata().size_bytes
        if size is not None:
            return size
        sizes = [s for s in map(walk, op.input_dependencies) if s]
        return sum(sizes) if sizes else None

    try:
        return walk(ds._logical_plan.dag)
    except Exception:
        return None


def _auto_join_partitions(cpus: int, *input_bytes) -> int:
    """CPU-derived floor, raised by known input size so one bucket of the
    largest input stays under ``TARGET_JOIN_BUCKET_BYTES``."""
    floor = max(2, min(16, cpus // 4))
    sizes = [s for s in input_bytes if s]
    if not sizes:
        return floor
    by_size = -(-max(sizes) // TARGET_JOIN_BUCKET_BYTES)  # ceil-div
    return max(floor, min(int(by_size), MAX_AUTO_JOIN_PARTITIONS))


def exchange_partitions(*inputs: Optional[rd.Dataset]) -> int:
    """Partition count of the package's hash exchanges — the one place
    that picks it: every :func:`partition_map_groups` exchange (the KG
    linker's included) and every :func:`hash_join` (only ``materialize_kg``'s
    on-disk layout is a fixed count of its own).

    The count is a physical choice derived from the input, not an operator
    option: the CPU floor of :func:`_auto_join_partitions`, raised by the
    input bytes the logical plans already know (``None`` inputs are
    skipped). Outputs never depend on it — every key co-locates at any
    count — and the sort-shuffle's fixed per-partition cost dominates small
    inputs (measured 4.5 s -> 2 s on a 600k-row pre-agg going 64 -> 8
    partitions)."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return _auto_join_partitions(
        cpus, *(_known_size_bytes(d) for d in inputs if d is not None))


def _hash_canon(values: np.ndarray) -> np.ndarray:
    """A key column as HASH PARTITIONING sees it: numeric dtypes cast to
    float64, so int64 5 and float64 5.0 land in one partition
    (``pd.util.hash_array`` hashes one value differently per dtype, which
    would silently drop matches across mismatched key dtypes). Huge ints
    collapsing to one float only co-locate. Kernels see the originals."""
    if values.dtype.kind in "iufb":
        return values.astype(np.float64)
    return values


def _with_part(t: pa.Table, cols: Sequence[str], num_partitions: int
               ) -> pa.Table:
    """``t`` plus the int32 ``part`` column every exchange groups on: one
    hash of the ``cols`` tuple (through :func:`_hash_canon`) mod
    ``num_partitions``."""
    from ..functions.hashing import hash64_pair, hash64_vec

    vals = [_hash_canon(t.column(c).to_numpy(zero_copy_only=False))
            for c in cols]
    h = hash64_vec(vals[0])
    for v in vals[1:]:
        h = hash64_pair(h, v)
    part = (h % np.uint64(num_partitions)).astype(np.int32)
    return t.append_column("part", pa.array(part, pa.int32()))


def _exchange(ds: rd.Dataset, num_partitions: int, kernel,
              batch_format: str) -> rd.Dataset:
    """The one keyed exchange under :func:`partition_map_groups` and
    :func:`hash_join`: a sort of ``ds`` on its ``part`` column (see
    :func:`_with_part`) with fixed boundaries, so each partition is one
    block (nothing is sampled, and the width is ``num_partitions``, not the
    input's block count), then one ``kernel`` call per non-empty block, on
    a batch of ``batch_format`` without ``part``. Plain tasks, no actor."""
    def run(g):
        return kernel(g.drop_columns(["part"]) if isinstance(g, pa.Table)
                      else g.drop(columns=["part"]))
    bounds = list(range(1, max(num_partitions, 2)))
    return ds.sort("part", boundaries=bounds).map_batches(
        run, batch_size=None, batch_format=batch_format)


def _arrow_schema(schema) -> Optional[pa.Schema]:
    """A Ray Data schema (or ``None``) as an Arrow schema. Of a pandas
    block Ray types the numpy columns; an object (or extension) column is
    taken as a string column."""
    if schema is None:
        return None
    if isinstance(schema.base_schema, pa.Schema):
        return schema.base_schema
    return pa.schema([(n, t if isinstance(t, pa.DataType) else pa.string())
                      for n, t in zip(schema.names, schema.types)])


def _join_input(ds: rd.Dataset):
    """``(ds, its Arrow schema)``, running ``ds`` at most once: a side whose
    plan does not know its schema is materialized, since fetching it would
    run the plan (all of it when it ends in an exchange) before the join."""
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        ds = ds.materialize()
        schema = ds.schema(fetch_if_missing=False)
    return ds, _arrow_schema(schema)


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: Sequence[str],
    join_type: str = "inner",
    right_on: Optional[Sequence[str]] = None,
) -> rd.Dataset:
    """Distributed hash join: both sides are hash-partitioned on the key into
    :func:`exchange_partitions` co-located buckets, joined bucket-locally.

    This is the fact-to-fact path (orders ⋈ lineitem): neither side is ever
    driver-resident. Each side's rows get a ``_side`` tag and side-prefixed
    column names, and the union takes ONE keyed exchange (:func:`_exchange`:
    plain tasks, no aggregator actors). Each partition splits back into its
    two Arrow tables and runs ``pa.Table.join(keys, right_keys, join_type)``
    (``inner``, ``left_outer``, ``right_outer`` or ``full_outer``). A side
    with no rows in a partition joins as a 0-row table typed by that side's
    schema, so an empty block, first or not, never loses a side's columns;
    a key missing from an unknown schema takes the other side's key type.
    Equal key values of different numeric dtypes co-locate. Each input runs
    once: a side whose plan does not know its schema is materialized here
    (:func:`_join_input`), so callers never materialize for the join.

    The partition count scales with either side's size when the plan knows
    it, so one bucket of the larger side stays under
    ``TARGET_JOIN_BUCKET_BYTES``. Skewed keys concentrate in one bucket —
    pre-aggregate, salt or use :func:`skew_join` on a hot key.
    """
    keys = [list(on), list(right_on) if right_on is not None else list(on)]
    left, left_schema = _join_input(left)
    right, right_schema = _join_input(right)
    schemas = [left_schema, right_schema]
    num_partitions = exchange_partitions(left, right)
    prefixes = ["l:", "r:"]

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            t = _with_part(t, keys[side], num_partitions)
            return t.rename_columns(
                [prefixes[side] + c for c in t.column_names[:-1]] + ["part"]
            ).append_column("_side", pa.array(
                np.full(t.num_rows, side, np.int8), pa.int8()))
        return fn

    def join(g: pa.Table) -> pa.Table:
        sides = []
        for side, prefix in enumerate(prefixes):
            names = [c for c in g.column_names if c.startswith(prefix)]
            sides.append(
                g.filter(pc.equal(g.column("_side"), side)).select(names)
                .rename_columns([c[len(prefix):] for c in names]))
        for side, other in ((0, 1), (1, 0)):
            if not sides[side].num_columns:   # no rows here: type them
                schema = schemas[side] or pa.schema([])
                fields = dict(zip(schema.names, schema.types))
                for k, ok in zip(keys[side], keys[other]):
                    fields.setdefault(k, sides[other].schema.field(ok).type)
                sides[side] = pa.schema(list(fields.items())).empty_table()
        return sides[0].join(sides[1], keys=keys[0], right_keys=keys[1],
                             join_type=join_type.replace("_", " "))

    tagged = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow"))
    return _exchange(tagged, num_partitions, join, "pyarrow")


# Partial-row count at or below which :func:`two_phase_aggregate` combines
# on the driver. Below it, shipping vocabulary-sized partials to the driver
# (columnar, via to_pandas — never row dicts) is faster than an all-to-all.
PREAGG_DRIVER_LIMIT = 200_000


def two_phase_aggregate(
    ds: rd.Dataset,
    keys: Sequence[str],
    partial: Callable[[pd.DataFrame], pa.Table],
    combine: Callable[[pd.DataFrame], pa.Table],
) -> rd.Dataset:
    """THE partial-then-combine aggregate, and the one place that picks
    where the combine runs.

    ``partial`` runs per batch (map-side pre-aggregation) and its output is
    materialized once; ``combine`` merges partial rows into final rows and
    must be correct over any subset of partials that holds every row of its
    ``keys`` values. The partial-row count is the only measure: at or below
    ``PREAGG_DRIVER_LIMIT`` rows, ONE ``combine`` call on the driver (a sort
    shuffle for a few hundred groups is pure fixed cost); above it the same
    ``combine`` runs per partition of :func:`partition_map_groups`,
    exchanged on one hash of the whole ``keys`` tuple (so a first key column
    with few values does not unbalance the partitions).

    Ray Data runs no batch function on a 0-row block, so with no partials
    the result is the kernels' own typed 0-row output: ``combine`` of
    ``partial`` of an empty frame typed like the input, or of a
    column-less one when no upstream step kept the input's schema (a
    ``partial`` that names its own output columns still types them)."""
    # materialized before either route: a sort-based exchange re-executes
    # an unmaterialized upstream while sampling partition boundaries
    # (measured 14s vs 2.7s on a 140k-partial combine)
    parts = ds.map_batches(partial, batch_format="pandas").materialize()
    n = parts.count()
    if not n:
        empty = _empty_frame(ds.schema())
        return rd.from_arrow(combine(partial(empty).to_pandas()))
    if n <= PREAGG_DRIVER_LIMIT:
        return rd.from_arrow(combine(parts.to_pandas()))
    return partition_map_groups(parts, keys, combine)


def _empty_frame(schema) -> pd.DataFrame:
    """A 0-row frame typed by a Dataset schema (column-less for ``None``)."""
    if schema is None:
        return pd.DataFrame()
    return pd.DataFrame({
        name: pd.Series(dtype=t.to_pandas_dtype()
                        if isinstance(t, pa.DataType) else t)
        for name, t in zip(schema.names, schema.types)})


def _agg_partials(
    batch: pd.DataFrame, keys: List[str], aggs: Dict[str, tuple]
) -> pa.Table:
    """Per-batch pandas partial aggregates of an agg spec (map-side
    combine). An empty batch may have lost its columns upstream; it still
    yields the spec's key and aggregate columns."""
    if batch.empty:
        batch = batch.reindex(columns=list(dict.fromkeys(
            [*keys, *(c for c, _ in aggs.values())])))
    g = batch.groupby(keys, sort=False, dropna=False)
    out = {}
    for out_col, (in_col, kind) in aggs.items():
        if kind == "sum":
            out[out_col] = g[in_col].sum()
        elif kind == "count":
            out[out_col] = g[in_col].size()
        elif kind == "min":
            out[out_col] = g[in_col].min()
        elif kind == "max":
            out[out_col] = g[in_col].max()
        else:
            raise ValueError(kind)
    return to_arrow(pd.DataFrame(out).reset_index())


def _partials_ds(
    ds: rd.Dataset, keys: List[str], aggs: Dict[str, tuple]
) -> rd.Dataset:
    """:func:`_agg_partials` over every batch of ``ds``."""
    return ds.map_batches(lambda b: _agg_partials(b, keys, aggs),
                          batch_format="pandas")


def _combine_pandas(
    parts: pd.DataFrame, keys: List[str], aggs: Dict[str, tuple]
) -> pd.DataFrame:
    if not len(parts):
        return parts
    g = parts.groupby(keys, sort=True, dropna=False)
    final = {}
    for out_col, (_in, kind) in aggs.items():
        if kind in ("sum", "count"):
            final[out_col] = g[out_col].sum()
        elif kind == "min":
            final[out_col] = g[out_col].min()
        elif kind == "max":
            final[out_col] = g[out_col].max()
    return pd.DataFrame(final).reset_index()


def preagg_groupby_ds(
    ds: rd.Dataset, keys: Sequence[str], aggs: Dict[str, tuple]
) -> rd.Dataset:
    """Pre-aggregated groupby of an agg spec, as a Dataset:
    :func:`two_phase_aggregate` with pandas groupby partials and combine.

    ``aggs`` maps output column -> (input column, kind) with kind in
    {sum, count, min, max} (sum-of-counts == count, so count partials merge
    with a sum); means are derived by the caller from sum+count (mergeable
    decomposition). Correct for distributive/algebraic aggregates only —
    exactly the ones the reference's statistics need (A1-A3)."""
    keys = list(keys)
    return two_phase_aggregate(
        ds, keys, lambda b: _agg_partials(b, keys, aggs),
        lambda p: to_arrow(_combine_pandas(p, keys, aggs)))


def preagg_groupby(
    ds: rd.Dataset, keys: Sequence[str], aggs: Dict[str, tuple]
) -> pd.DataFrame:
    """:func:`preagg_groupby_ds` collected to the driver, sorted by
    ``keys``; an empty input gives an empty frame with the key and
    aggregate columns."""
    out_ds = preagg_groupby_ds(ds, keys, aggs)
    out = out_ds.to_pandas()
    if not len(out):
        # Ray's to_pandas of 0 rows has no columns: type them from the schema
        return _empty_frame(out_ds.schema())
    return out.sort_values(list(keys)).reset_index(drop=True)


def topk(df: pd.DataFrame, by: List[str], ascending: List[bool], k: int) -> pd.DataFrame:
    """Deterministic driver-side top-k of an already-small aggregate."""
    return df.sort_values(by, ascending=ascending, kind="mergesort").head(k).reset_index(drop=True)


def global_row_number(
    ds: rd.Dataset,
    by: Sequence[str],
    ascending: Optional[Sequence[bool]] = None,
    out_col: str = "row_number",
    keep_cols: Optional[Sequence[str]] = None,
) -> rd.Dataset:
    """Global ORDER BY + ``row_number()`` — the total-order rank assignment
    Ray Data lacks natively (``Dataset.sort`` totally orders the blocks but
    attaches no positions).

    Plan: one native distributed sort (Ray's range-partitioned sort moves
    every row once — the unavoidable all-to-all for a total order), then
    rank attachment WITHOUT a second pass: the sorted blocks' row counts
    are read from metadata (no block is fetched), prefix-summed on the
    driver (O(blocks) ints), and one raw Ray task per block appends
    ``offset + arange(n)`` zero-copy. This is a documented
    raw-task drop-down: the Dataset API has no order-aware map, and the
    alternative (a count-preceding-rows join) would shuffle twice.

    Determinism contract: ``by`` must be a TOTAL order (include a unique
    tie-breaker column, as every SQL ``row_number`` twin does); the native
    sort is not stable, so without it tied rows would rank arbitrarily.
    Ranks are 1-based int64, matching SQL ``row_number()``."""
    from ray.data.dataset import MaterializedDataset

    by = list(by)
    ascending = list(ascending) if ascending is not None \
        else [True] * len(by)
    cols = sorted({*by, *(keep_cols or [])}) if keep_cols is not None \
        else None
    if cols is not None:
        ds = ds.select_columns(cols)
    srt = ds.sort(by, descending=[not a for a in ascending])
    mat = srt if isinstance(srt, MaterializedDataset) else srt.materialize()

    pairs = [(blk, meta.num_rows)
             for bundle in mat.iter_internal_ref_bundles()
             for blk, meta in bundle.blocks if meta.num_rows]
    if not pairs:
        # typed empty WITH the rank column — same schema as the non-empty
        # path, so unions / typed consumers don't break on an empty corpus
        names = mat.schema().names if mat.schema() is not None else []
        types = mat.schema().types if mat.schema() is not None else []
        cols = {n: pa.array([], t if isinstance(t, pa.DataType)
                            else pa.from_numpy_dtype(t))
                for n, t in zip(names, types)}
        cols[out_col] = pa.array([], pa.int64())
        return rd.from_arrow(pa.table(cols))

    @ray.remote
    def _attach(block, start: int) -> pa.Table:
        from ray.data.block import BlockAccessor

        # normalize: ray's sort preserves the input block type, so a
        # pandas-block dataset arrives here as a DataFrame
        tbl = BlockAccessor.for_block(block).to_arrow()
        n = tbl.num_rows
        return tbl.append_column(
            out_col, pa.array(np.arange(start + 1, start + n + 1,
                                        dtype=np.int64), pa.int64()))

    offsets = np.concatenate(
        ([0], np.cumsum([n for _, n in pairs])[:-1]))
    out_refs = [_attach.remote(blk, int(off))
                for (blk, _), off in zip(pairs, offsets)]
    return rd.from_arrow_refs(out_refs)


def distributed_topk(
    ds: rd.Dataset, by: List[str], ascending: List[bool], k: int
) -> pd.DataFrame:
    """Top-k over an arbitrarily large Dataset: per-batch partial top-k
    (vectorized sort+head inside ``map_batches``), then a driver combine of
    at most ``blocks x k`` rows — the K1 pattern without ever sorting or
    materializing the full dataset."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(by, ascending=ascending, kind="mergesort").head(k)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return topk(parts, by, ascending, k)


def grouped_quantiles(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    qs: Sequence[float] = (0.5,),
    col_names: Optional[Sequence[str]] = None,
    n_buckets: int = 2048,
    driver_limit: int = 500_000,
    key_driver_limit: int = 200_000,
    _force_driver: bool = False,
) -> pd.DataFrame:
    """EXACT per-key interpolated quantiles of a float column (SQL-standard
    ``quantile_cont`` semantics: rank h = (n-1)*q, result =
    (ceil(h)-h)*v[floor(h)] + (h-floor(h))*v[ceil(h)] — what DuckDB and the
    oracle compute; ``median`` is the qs=(0.5,) special case and
    :func:`grouped_median` delegates here).

    Small-key route (at or below ``key_driver_limit`` distinct keys): three
    streaming passes with NO sort or shuffle — the iterative
    histogram-refinement selection:

    1. per-key (count, min, max) via mergeable partials;
    2. per-key fixed-width histogram (one vectorized clip/floor per batch,
       partial counts combined by a tiny groupby) locates the bucket(s)
       holding every needed rank;
    3. a filtered pass collects ONLY the candidate buckets' values
       (expected n/n_buckets per key) for the exact rank picks.

    This is also the ONLY route that never co-locates a key's rows, so it
    doubles as the offload target for individually-huge keys. Degenerate
    keys (constant value, single row) shortcut after pass 1; non-null
    values assumed (SQL aggregates skip NULLs — filter first).

    High-cardinality route: rows take ONE key-hash shuffle and each
    partition computes its keys' quantiles with a vectorized sort+gather
    kernel (:func:`_grouped_quantiles_distributed`); keys larger than the
    partition budget are detected map-side from the partials and offloaded
    back here with ``_force_driver``. A pathological key putting more than
    ``driver_limit`` values into one candidate bucket (massive duplicate
    concentration beside a target rank) would need another refinement
    round — fail-stop rather than OOM."""
    qs = [float(q) for q in qs]
    if col_names is None:
        col_names = ["q" + format(q, "g").replace(".", "_") for q in qs]
    col_names = list(col_names)
    assert len(col_names) == len(qs)
    aggs = {
        "n": (value_col, "count"),
        "mn": (value_col, "min"),
        "mx": (value_col, "max"),
    }
    parts = _partials_ds(
        ds.select_columns([key_col, value_col]), [key_col], aggs
    ).materialize()
    if _force_driver or parts.count() <= PREAGG_DRIVER_LIMIT:
        stats = _combine_pandas(parts.to_pandas(), [key_col], aggs) \
            .sort_values(key_col).reset_index(drop=True)
        if not _force_driver and len(stats) > key_driver_limit:
            return _grouped_quantiles_distributed(
                ds, key_col, value_col, qs, col_names, n_buckets, parts,
                driver_limit=driver_limit)
    else:
        # partial rows alone exceed the driver budget — high cardinality;
        # route distributed without paying a combine shuffle just to count
        return _grouped_quantiles_distributed(
            ds, key_col, value_col, qs, col_names, n_buckets, parts,
            driver_limit=driver_limit)
    stats = stats.set_index(key_col)
    done: Dict = {}
    spec: Dict = {}
    for key, row in stats.iterrows():
        n, mn, mx = int(row["n"]), float(row["mn"]), float(row["mx"])
        if n == 1 or mn == mx:
            done[key] = [mn] * len(qs)
            continue
        ranks = sorted({r for q in qs
                        for h in ((n - 1) * q,)
                        for r in (int(np.floor(h)), int(np.ceil(h)))})
        spec[key] = (mn, mx, (mx - mn) / n_buckets, n, tuple(ranks))
    if spec:
        import ray

        spec_ref = ray.put(spec)

        def hist_partials(batch: pd.DataFrame) -> pa.Table:
            sp = ray.get(spec_ref)
            out_key, out_bucket, out_n = [], [], []
            for key, g in batch.groupby(key_col, sort=False):
                s = sp.get(key)
                if s is None:
                    continue
                mn, mx, width, _n, _ranks = s
                v = g[value_col].to_numpy(dtype=np.float64)
                b = np.clip(((v - mn) / width).astype(np.int64),
                            0, n_buckets - 1)
                counts = np.bincount(b, minlength=n_buckets)
                nz = np.nonzero(counts)[0]
                out_key += [key] * len(nz)
                out_bucket += nz.tolist()
                out_n += counts[nz].tolist()
            return to_arrow(pd.DataFrame({
                key_col: pd.Series(out_key, dtype=batch[key_col].dtype),
                "bucket": pd.Series(out_bucket, dtype="int64"),
                "cnt": pd.Series(out_n, dtype="int64"),
            }))

        hist = preagg_groupby(
            ds.select_columns([key_col, value_col]).map_batches(
                hist_partials, batch_format="pandas"),
            [key_col, "bucket"], {"cnt": ("cnt", "sum")},
        )
        # locate the bucket holding each target rank + its preceding count
        targets: Dict = {}
        for key, g in hist.groupby(key_col):
            g = g.sort_values("bucket")
            cum = g["cnt"].cumsum().to_numpy()
            buckets = g["bucket"].to_numpy()
            want = {}
            for k in spec[key][4]:
                i = int(np.searchsorted(cum, k + 1))
                before = int(cum[i - 1]) if i else 0
                want.setdefault(int(buckets[i]), []).append((k, k - before))
            targets[key] = want

        t_ref = ray.put({k: set(v.keys()) for k, v in targets.items()})
        s_ref = ray.put(spec)

        def candidates(batch: pd.DataFrame) -> pa.Table:
            tg = ray.get(t_ref)
            sp = ray.get(s_ref)
            frames = []
            for key, g in batch.groupby(key_col, sort=False):
                want = tg.get(key)
                if not want:
                    continue
                mn, _mx, width, _n, _ranks = sp[key]
                v = g[value_col].to_numpy(dtype=np.float64)
                b = np.clip(((v - mn) / width).astype(np.int64),
                            0, n_buckets - 1)
                mask = np.isin(b, list(want))
                if mask.any():
                    frames.append(pd.DataFrame({
                        key_col: key, "bucket": b[mask], "v": v[mask]}))
            if not frames:
                return to_arrow(pd.DataFrame({
                    key_col: pd.Series([], dtype=batch[key_col].dtype),
                    "bucket": pd.Series([], dtype="int64"),
                    "v": pd.Series([], dtype="float64"),
                }))
            return to_arrow(pd.concat(frames, ignore_index=True))

        cand = ds.select_columns([key_col, value_col]).map_batches(
            candidates, batch_format="pandas").to_pandas()
        if len(cand) > driver_limit:
            raise ValueError(
                f"{len(cand)} candidate values exceed driver_limit="
                f"{driver_limit}; raise n_buckets (duplicate-heavy key "
                "near a target rank)")
        for key, want in targets.items():
            picked: Dict[int, float] = {}
            kg = cand[cand[key_col] == key]
            for bucket, rankpairs in want.items():
                vals = np.sort(kg.loc[kg["bucket"] == bucket, "v"].to_numpy())
                for k, within in rankpairs:
                    picked[k] = float(vals[within])
            n = spec[key][3]
            done[key] = [_interp_rank(picked, (n - 1) * q) for q in qs]
    keys_sorted = sorted(done)
    data = {key_col: keys_sorted}
    for i, c in enumerate(col_names):
        data[c] = [done[k][i] for k in keys_sorted]
    return pd.DataFrame(data).reset_index(drop=True)


def _interp_rank(picked: Dict[int, float], h: float) -> float:
    """SQL-standard continuous-quantile interpolation at fractional rank h
    over exact rank->value picks (same arithmetic as DuckDB quantile_cont:
    (ceil(h)-h)*v_lo + (h-floor(h))*v_hi; exact rank hits pass through)."""
    lo, hi = int(np.floor(h)), int(np.ceil(h))
    if lo == hi:
        return picked[lo]
    return (hi - h) * picked[lo] + (h - lo) * picked[hi]


def grouped_median(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    n_buckets: int = 2048,
    driver_limit: int = 500_000,
    key_driver_limit: int = 200_000,
) -> pd.DataFrame:
    """EXACT per-key median — the qs=(0.5,) case of
    :func:`grouped_quantiles` (interpolated: mean of the two middle values
    for even counts, DuckDB ``median(DOUBLE)`` semantics)."""
    return grouped_quantiles(
        ds, key_col, value_col, qs=(0.5,), col_names=["median_value"],
        n_buckets=n_buckets, driver_limit=driver_limit,
        key_driver_limit=key_driver_limit)


def grouped_quantiles_ds(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    qs: Sequence[float] = (0.5,),
    col_names: Optional[Sequence[str]] = None,
    n_buckets: int = 2048,
    big_key_limit: int = 2_000_000,
    driver_limit: int = 500_000,
) -> rd.Dataset:
    """Dataset-returning :func:`grouped_quantiles`: identical arithmetic
    (SQL-standard interpolation, same big-key histogram offload), but the
    per-key result STAYS a Dataset — the surface a 10^8-key grouped
    quantile needs at cluster scale, where even the answer is too big for
    the driver. Always takes the one-shuffle distributed route (the
    driver-histogram route exists to keep hot keys off a partition, not to
    shrink the result); consume with ``write_parquet`` / ``iter_batches``.
    Output: ``(key_col, *col_names)``, unsorted."""
    qs = [float(q) for q in qs]
    if col_names is None:
        col_names = ["q" + format(q, "g").replace(".", "_") for q in qs]
    col_names = list(col_names)
    assert len(col_names) == len(qs)
    # counts only: the distributed route reads just "n" for big-key
    # detection, and its offload recomputes full stats itself — min/max
    # partials here would widen every shuffled row for no consumer
    aggs = {"n": (value_col, "count")}
    parts = _partials_ds(
        ds.select_columns([key_col, value_col]), [key_col], aggs
    ).materialize()
    return _grouped_quantiles_distributed(
        ds, key_col, value_col, qs, col_names, n_buckets, parts,
        big_key_limit=big_key_limit, driver_limit=driver_limit,
        as_dataset=True)


def _grouped_quantiles_distributed(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    qs: List[float],
    col_names: List[str],
    n_buckets: int,
    parts: rd.Dataset,
    big_key_limit: int = 2_000_000,
    driver_limit: int = 500_000,
    as_dataset: bool = False,
) -> Union[pd.DataFrame, rd.Dataset]:
    """High-cardinality branch of :func:`grouped_quantiles`: NO per-key
    driver control state. Rows take ONE key-hash shuffle
    (:func:`partition_map_groups`) and each partition — which by
    construction holds ALL rows of its keys — computes exact interpolated
    quantiles with one vectorized sort+gather kernel (no per-key Python
    loop; explicit SQL-standard interpolation so the arithmetic matches the
    driver route and DuckDB bit-for-bit at rounded-6 precision). At high
    cardinality per-key row counts are small, so co-locating a key's rows
    is cheap and strictly better than histogram refinement (whose per-key
    spec/target state is exactly what must not live anywhere at 10^6+ keys;
    Ray's native multi-column ``groupby().aggregate`` over key x bucket was
    also measured pathological — 200s at 10^5 keys).

    Skew guard: a key whose TOTAL row count exceeds ``big_key_limit``
    would dominate its shuffle partition, so such keys are offloaded to
    the driver-histogram route (which never co-locates a key and exists
    for exactly this shape: few keys, huge counts). Detection is map-side
    only — a key with total n > L must contribute > L/num_blocks partial
    rows in some block — so nothing key-sized reaches the driver beyond
    the (bounded, <= total_rows/L) offload set itself."""
    data = ds.select_columns([key_col, value_col])
    big_out: Optional[pd.DataFrame] = None

    num_blocks = max(1, parts.num_blocks())
    thresh = max(1.0, big_key_limit / num_blocks)

    def cand_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater(t.column("n"), pa.scalar(thresh)))

    cand = parts.map_batches(
        cand_rows, batch_format="pyarrow").to_pandas()
    if len(cand):
        cand_ref = ray.put(set(cand[key_col]))

        def cand_partials(batch: pd.DataFrame) -> pa.Table:
            ks = ray.get(cand_ref)
            return to_arrow(batch[batch[key_col].isin(ks)][[key_col, "n"]])

        totals = parts.map_batches(
            cand_partials, batch_format="pandas"
        ).to_pandas().groupby(key_col)["n"].sum()
        big_keys = set(totals[totals > big_key_limit].index)
        if big_keys:
            big_ref = ray.put(big_keys)

            def member(keep: bool):
                def fn(batch: pd.DataFrame) -> pa.Table:
                    m = batch[key_col].isin(ray.get(big_ref))
                    return to_arrow(batch[m if keep else ~m])
                return fn

            big_out = grouped_quantiles(
                data.map_batches(member(True), batch_format="pandas"),
                key_col, value_col, qs, col_names, n_buckets,
                driver_limit, _force_driver=True)
            data = data.map_batches(member(False), batch_format="pandas")

    def part_quantiles(g: pd.DataFrame) -> pa.Table:
        sv = g.sort_values([key_col, value_col], kind="mergesort")
        v = sv[value_col].to_numpy(dtype=np.float64)
        codes, uniques = pd.factorize(sv[key_col], sort=False)
        counts = np.bincount(codes, minlength=len(uniques))
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        out = {key_col: pa.array(uniques)}
        for q, cname in zip(qs, col_names):
            h = (counts - 1) * q
            lo = np.floor(h).astype(np.int64)
            hi = np.ceil(h).astype(np.int64)
            vlo = v[starts + lo]
            vhi = v[starts + hi]
            res = np.where(lo == hi, vlo,
                           (hi - h) * vlo + (h - lo) * vhi)
            out[cname] = pa.array(res, pa.float64())
        return pa.table(out)

    med_ds = partition_map_groups(data, key_col, part_quantiles)
    if as_dataset:
        # cluster-scale surface: the per-key result never lands on the
        # driver — consume with write_parquet / iter_batches
        if big_out is not None and len(big_out):
            med_ds = med_ds.union(
                rd.from_arrow(to_arrow(big_out[[key_col] + col_names])))
        return med_ds
    med = med_ds.to_pandas()
    if big_out is not None and len(big_out):
        med = pd.concat([med, big_out], ignore_index=True)
    return med.sort_values(key_col).reset_index(drop=True)


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by: str,
    on: str,
    left_cols: List[str],
    right_cols: List[str],
    right_dedup_max: Optional[str] = None,
    salt_bucket: Optional[int] = None,
) -> rd.Dataset:
    """Backward as-of join: each left row picks up the LATEST right row with
    ``right.on <= left.on`` for the same ``by`` key (DuckDB ``ASOF LEFT
    JOIN`` semantics; unmatched right columns come back null).

    Ray Data has no native as-of join, so this is the documented composition:
    both sides are tagged and CO-PARTITIONED on ``by`` through one union +
    :func:`partition_map_groups` exchange (every key's rows from both sides
    land in the same bounded partition, whatever the numeric dtype of
    ``by`` on each side), and each partition runs ONE vectorized
    ``pd.merge_asof`` — never a per-key UDF.

    Partitioning assumption (default route): all rows of one ``by`` key fit
    a partition. For a hotter-than-partition key (one user with 10^9
    events), pass ``salt_bucket`` (seconds of ``on`` per salt bucket): both
    sides then co-partition on ``(by, floor(on/salt_bucket))`` —
    bounded partitions regardless of key skew — and exactness is restored
    by a carry-in pass: the latest right row of every (key, bucket) is
    summarized (one row per non-empty bucket), each left bucket picks its
    predecessor bucket's summary via one vectorized per-partition
    ``merge_asof`` over the summaries (rows = keys x non-empty buckets,
    never events), and that carry row joins the bucket's own right rows in
    phase B. Output is identical to the unsalted route (tested).

    ``left_cols``/``right_cols`` must share ONLY ``by`` and ``on``; value
    columns must be NUMERIC — both sides' value columns ride the union as
    float64 (uniform arrow schema across the tagged union; int values
    round-trip exactly below 2^53 — recast downstream), with NaN padding on
    the absent side. Right-side (by, on) ties: ``right_dedup_max`` collapses
    them to the max of that column; without it the tie-break is the largest
    tuple of value columns (deterministic on both routes)."""
    left_only = [c for c in left_cols if c not in (by, on)]
    right_only = [c for c in right_cols if c not in (by, on)]
    overlap = set(left_only) & set(right_only)
    if overlap:
        raise ValueError(f"rename overlapping value columns first: {overlap}")
    union_cols = [by, on] + left_only + right_only

    def tbucket(df: pd.DataFrame) -> np.ndarray:
        return df[on].to_numpy().astype(np.int64) // salt_bucket

    def tag(side: int, present: List[str]):
        def fn(batch: pd.DataFrame) -> pa.Table:
            df = pd.DataFrame({
                c: (batch[c].astype("float64") if c in present
                    else pd.Series([np.nan] * len(batch), dtype="float64"))
                for c in union_cols
                if c not in (by, on)
            })
            df.insert(0, by, batch[by])
            # the salted route's carry rows arrive as float64 (they pass
            # through a NaN-padded merge) — ride ``on`` as float64 there so
            # the union schema is uniform (ints exact below 2^53, same
            # caveat as the value columns; recast downstream)
            df.insert(1, on, batch[on].astype("float64")
                      if salt_bucket is not None else batch[on])
            df["_side"] = np.int8(side)
            if salt_bucket is not None:
                df["tbucket"] = tbucket(df)
            return to_arrow(df)
        return fn

    def _dedup_right(r: pd.DataFrame) -> pd.DataFrame:
        if right_dedup_max is not None:
            # collapse right-side (by, on) ties to the max of one column
            # INSIDE the partition — saves the caller a whole
            # pre-aggregation shuffle; merge_asof needs unique match
            # candidates anyway
            return r.sort_values([by, on, right_dedup_max],
                                 kind="mergesort") \
                    .drop_duplicates([by, on], keep="last")
        return r

    def merge_partition(group: pd.DataFrame) -> pa.Table:
        l = group[group["_side"] == 0][[by, on] + left_only] \
            .sort_values(on, kind="mergesort")
        r = _dedup_right(group[group["_side"] == 1][[by, on] + right_only])
        # value columns join the sort key: deterministic pick among
        # residual (by, on) ties independent of block arrival order
        r = r.sort_values([on] + right_only, kind="mergesort")
        out = pd.merge_asof(l, r, on=on, by=by, direction="backward")
        return to_arrow(out)

    if right is None:
        # single-source mode (same contract as interval_join): both sides
        # are carved out of ONE stream — ``left`` carries every union
        # column plus an int8 ``_side`` (0=left, 1=right) and is scanned
        # ONCE. Wrong-side cells may hold anything: the merge kernel
        # slices each side's own columns. Unsalted route only.
        if salt_bucket is not None:
            raise ValueError(
                "single-source asof_join does not compose with "
                "salt_bucket; pass explicit left/right datasets")

        def tag_combined(batch: pd.DataFrame) -> pa.Table:
            df = pd.DataFrame({
                c: batch[c].astype("float64")
                for c in union_cols if c not in (by, on)
            })
            df.insert(0, by, batch[by])
            df.insert(1, on, batch[on])
            df["_side"] = batch["_side"].to_numpy().astype(np.int8)
            return to_arrow(df)

        tagged = left.map_batches(tag_combined, batch_format="pandas")
    else:
        tagged = left.map_batches(
            tag(0, left_cols), batch_format="pandas"
        ).union(right.map_batches(tag(1, right_cols), batch_format="pandas"))

    if salt_bucket is None:
        return partition_map_groups(tagged, by, merge_partition)

    # ---- salted route: per-(by, bucket) summaries + carry-in ------------
    carry_cols = [by, "tbucket", on] + right_only

    def right_summaries(batch: pd.DataFrame) -> pa.Table:
        """Per-batch partial: last right row of each (by, bucket)."""
        b = pd.DataFrame({c: batch[c].astype("float64")
                          for c in right_only})
        b.insert(0, by, batch[by])
        b.insert(1, on, batch[on].astype("float64"))
        b["tbucket"] = tbucket(b)
        b = _dedup_right(b)
        b = b.sort_values([by, "tbucket", on] + right_only,
                          kind="mergesort") \
             .drop_duplicates([by, "tbucket"], keep="last")
        b["_side"] = np.int8(1)
        return to_arrow(b[carry_cols + ["_side"]])

    def left_markers(batch: pd.DataFrame) -> pa.Table:
        """Per-batch partial: distinct (by, bucket) pairs holding left rows."""
        b = pd.DataFrame({by: batch[by]})
        b["tbucket"] = tbucket(batch)
        b = b.drop_duplicates([by, "tbucket"])
        for c in [on] + right_only:
            b[c] = np.nan
        b["_side"] = np.int8(0)
        return to_arrow(b[carry_cols + ["_side"]])

    def carry_partition(group: pd.DataFrame) -> pa.Table:
        """Each left bucket picks the latest summary of any EARLIER bucket."""
        # re-apply the tie collapse across partial batches, then keep the
        # last row per bucket — same pick the unsalted kernel makes
        rights = _dedup_right(group[group["_side"] == 1])
        rights = rights.sort_values([by, "tbucket", on] + right_only,
                                    kind="mergesort") \
                       .drop_duplicates([by, "tbucket"], keep="last")
        markers = group[group["_side"] == 0][[by, "tbucket"]] \
            .drop_duplicates()
        if not len(markers) or not len(rights):
            empty = pd.DataFrame({c: pd.Series(dtype="float64")
                                  for c in [on] + right_only})
            empty.insert(0, by, pd.Series(dtype=group[by].dtype))
            empty.insert(1, "tbucket", pd.Series(dtype="int64"))
            return to_arrow(empty[carry_cols])
        carry = pd.merge_asof(
            markers.sort_values("tbucket", kind="mergesort"),
            rights[carry_cols]
            .rename(columns={"tbucket": "_rb"})
            .sort_values("_rb", kind="mergesort"),
            left_on="tbucket", right_on="_rb", by=by,
            direction="backward", allow_exact_matches=False,
        )
        carry = carry[carry[on].notna()]
        return to_arrow(carry[carry_cols])

    carry_rows = partition_map_groups(
        right.map_batches(right_summaries, batch_format="pandas").union(
            left.map_batches(left_markers, batch_format="pandas")),
        by, carry_partition)

    def carry_to_union(batch: pd.DataFrame) -> pa.Table:
        """Re-shape carry rows as right-side union rows of their TARGET
        bucket (their ``on`` stays the source row's — strictly before the
        bucket, so merge_asof ranks them below every in-bucket right)."""
        df = pd.DataFrame({
            c: (batch[c].astype("float64") if c in right_only
                else pd.Series([np.nan] * len(batch), dtype="float64"))
            for c in union_cols if c not in (by, on)
        })
        df.insert(0, by, batch[by])
        df.insert(1, on, batch[on])
        df["_side"] = np.int8(1)
        df["tbucket"] = batch["tbucket"].to_numpy().astype(np.int64)
        return to_arrow(df)

    full = tagged.union(
        carry_rows.map_batches(carry_to_union, batch_format="pandas"))
    return partition_map_groups(full, [by, "tbucket"], merge_partition)


def partition_map_groups(
    ds: rd.Dataset,
    part_key: Union[str, Sequence[str]],
    kernel,
) -> rd.Dataset:
    """THE keyed exchange: one ``hash(key) % P`` shuffle + one vectorized
    pandas kernel per partition. Every hash-partitioned ``map_groups`` in
    the package goes through here or through :func:`hash_join`, which
    shares its exchange, and ``P`` is always :func:`exchange_partitions` of
    the input. The one Ray ``groupby().map_groups`` left is
    :func:`sessionize_events`, kept on purpose as the single-group twin
    that :func:`sessionize_events_salted` is checked against.

    This is the HIGH-cardinality groupby plan. Map-side pre-aggregation
    (:func:`two_phase_aggregate`) only helps when the key space is much
    smaller than a batch; when cardinality is O(rows) — per-user aggregates
    over a user-keyed stream — partials shrink nothing and the combine
    re-shuffles nearly the whole input AGAIN. This moves every row exactly
    once and aggregates at C speed inside the partition (measured 3-6x
    faster at 10M rows / 200k keys).

    ``part_key`` is one column or a list of columns; a list is exchanged on
    one hash of the whole tuple, and numeric keys hash by value, whatever
    their dtype (:func:`_hash_canon`). ``kernel(df) -> pa.Table`` sees every
    row of its partition (the ``part`` column dropped); co-location holds
    for ANY key tuple that contains every ``part_key`` column, so results
    are partition-count-independent. A pair-keyed exchange may instead pass
    one column holding the pair's hash
    (:func:`functions.hashing.hash64_pair`)."""
    cols = [part_key] if isinstance(part_key, str) else list(part_key)
    num_partitions = exchange_partitions(ds)
    return _exchange(
        ds.map_batches(lambda t: _with_part(t, cols, num_partitions),
                       batch_format="pyarrow"),
        num_partitions, kernel, "pandas")


def groupwise_head(
    ds: rd.Dataset,
    key_col: str,
    order_cols: List[str],
    k: int,
) -> rd.Dataset:
    """Deterministic per-key quota sampling: keep the first ``k`` rows of
    each key under ``order_cols`` order (the training-data "at most K
    documents per domain" cap; SQL twin: ``row_number() OVER (PARTITION BY
    key ORDER BY ...) <= k``).

    One :func:`partition_map_groups` exchange on the key; inside each
    partition, ONE vectorized sort + ``groupby.cumcount`` pass selects
    survivors — never a UDF call per key. A key hotter than a partition is
    already capped at ``k`` by this very operator, so skew cannot blow a
    partition's output (input skew within the partition is bounded by the
    upstream read)."""

    def head_partition(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values([key_col] + order_cols, kind="mergesort")
        keep = df.groupby(key_col, sort=False).cumcount() < k
        return to_arrow(df[keep.to_numpy()])

    return partition_map_groups(ds, key_col, head_partition)


def windowed_event_counts(
    events: rd.Dataset,
    window_seconds: int = 3600,
) -> pd.DataFrame:
    """Tumbling-window aggregate per (event_type, window): count + value sum.

    Windows are epoch-aligned (``floor(epoch/size)``) so per-batch partials
    merge exactly — no ordering assumption, no watermark (bounded batch
    semantics; see SURVEY.md §2.10). The combine auto-routes driver vs
    distributed on partial cardinality (years of logs x many types would
    exceed the driver budget). SQL twin: GROUP BY event_type, epoch bucket.
    """

    def add_window(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[["event_type", "value"]].copy()
        # normalize resolution explicitly: ns-typed parquet/pandas would make
        # a bare .astype('int64') 1000x off (epoch math must be unit-safe)
        epoch = batch["ts"].astype("datetime64[us]").astype("int64") // 1_000_000
        b["window_start"] = (epoch // window_seconds) * window_seconds
        return b

    out = preagg_groupby(
        events.map_batches(add_window, batch_format="pandas"),
        ["event_type", "window_start"],
        {"n_events": ("value", "count"), "value_sum": ("value", "sum")},
    )
    out["value_sum"] = round_half_away(out["value_sum"].to_numpy(), 6)
    return out.sort_values(["event_type", "window_start"]).reset_index(drop=True)


def hopping_event_counts(
    events: rd.Dataset,
    window_seconds: int = 3600,
    hop_seconds: int = 900,
) -> pd.DataFrame:
    """Hopping (sliding, hop-aligned) windows per (event_type, window):
    every event lands in ``window_seconds / hop_seconds`` overlapping
    windows whose starts are hop-aligned. The expansion is one vectorized
    numpy tile per batch (no per-row loop, no per-window pass over the
    data), then the same mergeable partial/combine machinery as the
    tumbling variant. ``hop_seconds`` must divide ``window_seconds``.
    SQL twin: cross join against generate_series of hop offsets."""
    if window_seconds % hop_seconds:
        raise ValueError("hop_seconds must divide window_seconds")
    fan = window_seconds // hop_seconds

    def add_windows(batch: pd.DataFrame) -> pd.DataFrame:
        epoch = (batch["ts"].astype("datetime64[us]").astype("int64")
                 // 1_000_000).to_numpy()
        base = (epoch // hop_seconds) * hop_seconds
        offsets = np.arange(fan, dtype=np.int64) * hop_seconds
        starts = (np.repeat(base, fan)
                  - np.tile(offsets, len(base)))
        return pd.DataFrame({
            "event_type": np.repeat(batch["event_type"].to_numpy(), fan),
            "value": np.repeat(batch["value"].to_numpy(), fan),
            "window_start": starts,
        })

    out = preagg_groupby(
        events.map_batches(add_windows, batch_format="pandas"),
        ["event_type", "window_start"],
        {"n_events": ("value", "count"), "value_sum": ("value", "sum")},
    )
    out["value_sum"] = round_half_away(out["value_sum"].to_numpy(), 6)
    return out.sort_values(["event_type", "window_start"]).reset_index(drop=True)


def sessionize_events(
    events: rd.Dataset,
    gap_seconds: int = 1800,
) -> rd.Dataset:
    """Session windows per user: a new session starts when the gap from the
    previous event exceeds ``gap_seconds``.

    ``groupby(user_id).map_groups`` with an in-group sort by ts — the
    streaming-window pattern over a partitioned log (ordering assumption:
    per-user only, never global)."""

    def per_user(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(["ts", "event_id"], kind="mergesort")
        epoch = group["ts"].astype("datetime64[us]").astype("int64") // 1_000_000
        new_session = (epoch.diff().fillna(gap_seconds + 1) > gap_seconds)
        session_idx = new_session.cumsum().astype("int64") - 1
        g2 = group.assign(session_idx=session_idx.values, epoch=epoch.values)
        agg = g2.groupby("session_idx", sort=True).agg(
            user_id=("user_id", "first"),
            session_start=("epoch", "min"),
            session_end=("epoch", "max"),
            n_events=("event_id", "size"),
            value_sum=("value", "sum"),
        ).reset_index()
        agg["value_sum"] = round_half_away(agg["value_sum"].to_numpy(), 6)
        return agg[["user_id", "session_idx", "session_start", "session_end",
                    "n_events", "value_sum"]]

    return events.select_columns(
        ["event_id", "ts", "user_id", "value"]
    ).groupby("user_id").map_groups(per_user, batch_format="pandas")


SESSION_COLUMNS = ["user_id", "session_idx", "session_start", "session_end",
                   "n_events", "value_sum"]


def sessionize_events_salted(
    events: rd.Dataset,
    gap_seconds: int = 1800,
    bucket_seconds: int = 86400,
) -> rd.Dataset:
    """Skew-safe twin of :func:`sessionize_events` (exact same output).

    :func:`sessionize_events` holds one user's ENTIRE event history in one
    group — a bot user with 10^9 events breaks that at scale. Here phase A
    sessionizes within ``(user, time-bucket)`` salted groups (bounded by
    bucket span, hot users spread across partitions), emitting one PARTIAL
    SESSION row per run; phase B merges only those partials per user
    (rows ≈ sessions, not events): two bucket-adjacent partial sessions
    fuse when the boundary gap ``next.start - prev.end <= gap_seconds`` —
    exactly the per-event rule, because bucket edges split only consecutive
    events. Both phases shuffle into :func:`exchange_partitions` hash
    buckets (phase B through :func:`partition_map_groups`) and run
    VECTORIZED pandas kernels (cumsum session breaks), never one UDF call
    per user or per session. Sums stay unrounded until after the merge.
    """
    def phase_a_cols(batch: pd.DataFrame) -> pa.Table:
        b = batch[["event_id", "user_id", "value"]].copy()
        epoch = batch["ts"].astype("datetime64[us]").astype("int64") // 1_000_000
        b["epoch"] = epoch
        b["tbucket"] = epoch // bucket_seconds
        return to_arrow(b)

    def sessionize_partition(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values(["user_id", "tbucket", "epoch", "event_id"],
                               kind="mergesort")
        new_group = ((df["user_id"] != df["user_id"].shift())
                     | (df["tbucket"] != df["tbucket"].shift()))
        gap_break = df["epoch"].diff().fillna(gap_seconds + 1) > gap_seconds
        sess_id = (new_group | gap_break).cumsum()
        agg = df.groupby(sess_id, sort=True).agg(
            user_id=("user_id", "first"),
            session_start=("epoch", "min"),
            session_end=("epoch", "max"),
            n_events=("event_id", "size"),
            value_sum=("value", "sum"),   # raw: rounding only after merge
        ).reset_index(drop=True)
        return to_arrow(agg)

    partials = partition_map_groups(
        events.select_columns(["event_id", "ts", "user_id", "value"])
        .map_batches(phase_a_cols, batch_format="pandas"),
        ["user_id", "tbucket"], sessionize_partition)

    def merge_partition(group: pd.DataFrame) -> pa.Table:
        df = group.sort_values(["user_id", "session_start", "session_end"],
                               kind="mergesort")
        new_user = df["user_id"] != df["user_id"].shift()
        boundary_gap = df["session_start"] - df["session_end"].shift()
        merge_break = new_user | (boundary_gap > gap_seconds)
        merged_id = merge_break.cumsum()
        agg = df.groupby(merged_id, sort=True).agg(
            user_id=("user_id", "first"),
            session_start=("session_start", "min"),
            session_end=("session_end", "max"),
            n_events=("n_events", "sum"),
            value_sum=("value_sum", "sum"),
        ).reset_index(drop=True)
        agg["session_idx"] = agg.groupby("user_id", sort=False).cumcount() \
                                .astype("int64")
        agg["value_sum"] = round_half_away(agg["value_sum"].to_numpy(), 6)
        return to_arrow(agg[SESSION_COLUMNS])

    return partition_map_groups(partials, "user_id", merge_partition)


def rolling_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: Sequence[str],
    value_col: str,
    window: int,
    out_col: str = "rolling_avg",
    keep_cols: Optional[Sequence[str]] = None,
) -> rd.Dataset:
    """Per-key rolling row-window mean over an ordered stream — the
    ``avg(value) OVER (PARTITION BY key ORDER BY ... ROWS BETWEEN window-1
    PRECEDING AND CURRENT ROW)`` window aggregate Ray Data lacks natively.

    One :func:`partition_map_groups` exchange co-locates each key's rows;
    every partition does ONE sort (key + order columns, so ordering is
    total and deterministic — pass a unique tie-breaker) and one C-speed
    pandas ``groupby().rolling().mean()`` — never a UDF call per key.
    Partitioning assumption: a single key's rows fit one partition (same
    contract as sessionize; row-windows need per-key contiguity, so a
    hotter-than-partition key would need range-chunked salting with
    window-1 rows of boundary overlap — not implemented, fail by memory)."""
    order_cols = list(order_cols)
    keep_cols = list(keep_cols) if keep_cols is not None else [key_col]
    need = sorted({key_col, value_col, *order_cols, *keep_cols})

    def per_partition(g: pd.DataFrame) -> pa.Table:
        sv = g.sort_values([key_col] + order_cols,
                           kind="mergesort").reset_index(drop=True)
        roll = (sv.groupby(key_col, sort=False)[value_col]
                .rolling(window, min_periods=1).mean()
                .reset_index(level=0, drop=True).sort_index())
        out = sv[keep_cols].copy()
        out[out_col] = round_half_away(roll.to_numpy(np.float64), 6)
        return to_arrow(out)

    return partition_map_groups(ds.select_columns(need), key_col,
                                per_partition)


def interval_join(
    left: rd.Dataset,
    right: Optional[rd.Dataset],
    key_col: str,
    time_col: str,
    window: int,
    id_col: str = "event_id",
    side_col: str = "side",
) -> rd.Dataset:
    """Stream-stream interval join: every left row pairs with ALL right
    rows of the same key strictly after it within ``window`` time units
    (``l.t < r.t <= l.t + window``) — the "purchase within 30 min of a
    view" shape :func:`asof_join` (most-recent-one) cannot express.

    Plan: time is bucketed by ``window`` so a left row's matches live in
    exactly two buckets — the row's own and the next. Right rows take one
    :func:`partition_map_groups` exchange on the ``(key, bucket)`` key
    list; left rows are REPLICATED into both target buckets (2x the left
    stream, never a cross product). Each
    partition runs one vectorized kernel: sort rights by (group, time),
    two ``searchsorted`` calls per left batch bound every match range, and
    a range-expansion emits exactly the true pairs — output size is the
    real match count, so a hot key costs its own output, nothing more.
    ``time_col`` must be integer epoch units on both sides (callers floor
    timestamps first, as the LAG/session operators do).

    Single-source mode: when both sides are carved out of ONE table (the
    common case — views and purchases live in the same event stream),
    pass ``right=None`` and give ``left`` an int8 ``side_col`` (0=left,
    1=right). The source is then scanned ONCE, not once per side.

    Returns ``(key, l_id, r_id, l_time, r_time)``.
    """
    def tag(ds: rd.Dataset, is_left: Optional[bool]) -> rd.Dataset:
        def prep(b: pd.DataFrame) -> pa.Table:
            t = b[time_col].to_numpy(np.int64)
            # fail-stop: the join kernel packs (group_id << 32 | t) into
            # one uint64 and PROBES with t + window — microsecond epochs,
            # negatives, or t within `window` of 2^32 would carry into the
            # group-id bits and match unrelated groups SILENTLY, so reject
            # the whole headroom loudly here (r4 ADVICE)
            if len(t) and (t.min() < 0
                           or int(t.max()) + window >= (1 << 32)):
                raise ValueError(
                    f"interval_join time_col '{time_col}' must be a "
                    f"non-negative integer with max + window < 2^32 "
                    "(epoch SECONDS, not micro/milliseconds — floor "
                    "first)")
            sides = (np.full(len(b), 0 if is_left else 1, dtype=np.int8)
                     if is_left is not None
                     else b[side_col].to_numpy(np.int8))
            base = pd.DataFrame({
                "key": b[key_col].to_numpy(),
                "rid": b[id_col].to_numpy(),
                "t": t,
                "side": sides,
            })
            if is_left is None:
                l, r = base[sides == 0], base[sides == 1]
                tl = l["t"].to_numpy()
                out = pd.concat([
                    l.assign(bucket=tl // window),
                    l.assign(bucket=tl // window + 1),
                    r.assign(bucket=r["t"].to_numpy() // window),
                ], ignore_index=True)
            elif is_left:
                # replicate into the row's own bucket and the next one
                b0 = base.assign(bucket=t // window)
                b1 = base.assign(bucket=t // window + 1)
                out = pd.concat([b0, b1], ignore_index=True)
            else:
                out = base.assign(bucket=t // window)
            return to_arrow(out)

        return ds.map_batches(prep, batch_format="pandas")

    def join_partition(g: pd.DataFrame) -> pa.Table:
        # one group id per (key, bucket); rights sorted by (gid, time)
        gid = g.groupby(["key", "bucket"], sort=False).ngroup() \
            .to_numpy(np.uint64)
        t = g["t"].to_numpy(np.int64).astype(np.uint64)
        SHIFT = np.uint64(32)
        combo = (gid << SHIFT) | t          # epoch seconds < 2^32
        is_l = (g["side"].to_numpy() == 0)
        rc, rid = combo[~is_l], g["rid"].to_numpy()[~is_l]
        rt = g["t"].to_numpy(np.int64)[~is_l]
        order = np.argsort(rc, kind="stable")
        rc, rid, rt = rc[order], rid[order], rt[order]
        lc = combo[is_l]
        lo = np.searchsorted(rc, lc, side="right")
        hi = np.searchsorted(rc, lc + np.uint64(window), side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return pa.table({
                "key": pa.array([], pa.Array.from_pandas(g["key"]).type),
                "l_id": pa.array([], pa.Array.from_pandas(g["rid"]).type),
                "r_id": pa.array([], pa.Array.from_pandas(g["rid"]).type),
                "l_time": pa.array([], pa.int64()),
                "r_time": pa.array([], pa.int64()),
            })
        # expand [lo, hi) ranges into flat right-side indices
        reps = np.repeat(np.cumsum(counts) - counts, counts)
        ridx = np.repeat(lo, counts) + (np.arange(total) - reps)
        out = pd.DataFrame({
            "key": np.repeat(g["key"].to_numpy()[is_l], counts),
            "l_id": np.repeat(g["rid"].to_numpy()[is_l], counts),
            "r_id": rid[ridx],
            "l_time": np.repeat(g["t"].to_numpy(np.int64)[is_l], counts),
            "r_time": rt[ridx],
        })
        return to_arrow(out)

    both = (tag(left, None) if right is None
            else tag(left, True).union(tag(right, False)))
    return partition_map_groups(both, ["key", "bucket"], join_partition)


def ewma_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: Sequence[str],
    value_col: str,
    alpha: float,
    out_col: str = "ewma",
    keep_cols: Optional[Sequence[str]] = None,
) -> rd.Dataset:
    """Per-key exponentially-weighted moving average — the streaming decay
    recurrence ``s_t = alpha * x_t + (1 - alpha) * s_{t-1}`` (``s_0 =
    x_0``) ordered by ``order_cols`` within each key. The smoothing /
    recency-weighting primitive windows can't express (every prior row
    contributes, decayed), e.g. per-user spend trendlines.

    Same one-shuffle plan as :func:`lag_by_key`: one
    :func:`partition_map_groups` exchange co-locates each key, each
    partition does ONE mergesort + one C-speed
    ``groupby().ewm(adjust=False).mean()`` — the pandas kernel computes
    the identical IEEE-double recurrence as a SQL recursive CTE, which is
    what makes the operator value-hash oracle-checkable. Same contract:
    one key's rows fit one partition; include a unique tie-breaker in
    ``order_cols``."""
    order_cols = list(order_cols)
    keep_cols = list(keep_cols) if keep_cols is not None else [key_col]
    need = sorted({key_col, value_col, *order_cols, *keep_cols})

    def per_partition(g: pd.DataFrame) -> pa.Table:
        sv = g.sort_values([key_col] + order_cols,
                           kind="mergesort").reset_index(drop=True)
        ew = (sv.groupby(key_col, sort=False)[value_col]
              .ewm(alpha=alpha, adjust=False).mean()
              .reset_index(drop=True))
        out = sv[keep_cols].copy()
        out[out_col] = ew.to_numpy(np.float64)
        return to_arrow(out)

    return partition_map_groups(ds.select_columns(need), key_col,
                                per_partition)


def range_window_sum_by_key(
    ds: rd.Dataset,
    key_col: str,
    time_col: str,
    value_col: str,
    window: int,
    out_col: str = "window_sum",
    keep_cols: Optional[Sequence[str]] = None,
) -> rd.Dataset:
    """Per-key RANGE-window sum: for every row, the sum of ``value_col``
    over the key's rows with ``time in [t - window + 1, t]`` — SQL
    ``SUM(v) OVER (PARTITION BY key ORDER BY t RANGE BETWEEN window-1
    PRECEDING AND CURRENT ROW)``. Unlike :func:`rolling_by_key` (ROWS
    frame: a fixed COUNT of preceding rows), the RANGE frame is
    time-bounded and includes ALL ties at the current instant.

    Same one-shuffle plan as the other per-key windows
    (:func:`partition_map_groups` on the key), then per partition ONE
    mergesort + per-key prefix sums + two ``searchsorted`` bounds per row —
    O(n log n) per partition, no per-row loops. ``value_col`` must be
    INTEGER (callers scale floats to fixed-point first) so distributed
    summation order can't perturb a float result. Same contract: one key's
    rows fit one partition."""
    keep_cols = list(keep_cols) if keep_cols is not None else [key_col]
    need = sorted({key_col, time_col, value_col, *keep_cols})

    def per_partition(g: pd.DataFrame) -> pa.Table:
        sv = g.sort_values([key_col, time_col],
                           kind="mergesort").reset_index(drop=True)
        t = sv[time_col].to_numpy(np.int64)
        v = sv[value_col].to_numpy(np.int64)
        keys = sv[key_col].to_numpy()
        # per-key segment bounds in the sorted frame
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        ends = np.r_[starts[1:], len(keys)]
        csum = np.concatenate([[0], np.cumsum(v)])
        out_vals = np.empty(len(sv), dtype=np.int64)
        for s, e in zip(starts, ends):     # loop over KEYS, not rows
            tt = t[s:e]
            lo = s + np.searchsorted(tt, tt - (window - 1), side="left")
            hi = s + np.searchsorted(tt, tt, side="right")  # incl. ties
            out_vals[s:e] = csum[hi] - csum[lo]
        out = sv[keep_cols].copy()
        out[out_col] = out_vals
        return to_arrow(out)

    return partition_map_groups(ds.select_columns(need), key_col,
                                per_partition)


def lag_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: Sequence[str],
    value_col: str,
    out_col: str = "lag_value",
    delta: bool = False,
    keep_cols: Optional[Sequence[str]] = None,
) -> rd.Dataset:
    """Per-key previous-row value (``lag(value) OVER (PARTITION BY key
    ORDER BY ...)``) — or, with ``delta=True``, the difference
    ``value - lag(value)`` (inter-event gaps, deltas, rate-of-change).

    Same one-shuffle plan as :func:`rolling_by_key`: one
    :func:`partition_map_groups` exchange co-locates each key's rows, each
    partition does ONE mergesort + one C-speed ``groupby().shift()`` — no
    per-key UDF calls. The first row of every key gets a null ``out_col``
    (callers filter or fill). Same partitioning contract: one key's rows
    fit one partition; pass a unique tie-breaker in ``order_cols`` for a
    total, deterministic order."""
    order_cols = list(order_cols)
    keep_cols = list(keep_cols) if keep_cols is not None else [key_col]
    need = sorted({key_col, value_col, *order_cols, *keep_cols})

    def per_partition(g: pd.DataFrame) -> pa.Table:
        sv = g.sort_values([key_col] + order_cols,
                           kind="mergesort").reset_index(drop=True)
        prev = sv.groupby(key_col, sort=False)[value_col].shift(1)
        out = sv[keep_cols].copy()
        out[out_col] = (sv[value_col] - prev) if delta else prev
        return to_arrow(out)

    return partition_map_groups(ds.select_columns(need), key_col,
                                per_partition)


def grouped_corr(
    ds: rd.Dataset,
    key_col: str,
    x_col: str,
    y_col: str,
    x_offset: float = 0.0,
) -> pd.DataFrame:
    """Grouped Pearson correlation + least-squares slope of ``y`` on ``x``
    from ONE streaming pass of mergeable moment partials
    ``(n, sx, sy, sxx, syy, sxy)`` — the algebraic decomposition every
    distributed stats engine uses; no per-group second pass, no shuffle of
    raw rows (the combine moves keys x blocks partial rows and auto-routes
    driver/distributed via :func:`preagg_groupby`).

    ``x_offset`` is subtracted from ``x`` before the products to keep
    ``n*sxx - sx^2`` away from catastrophic cancellation when ``x`` is a
    large epoch-like magnitude; correlation and slope are mathematically
    translation-invariant, so any constant is valid — pick one near the
    data. Returns unrounded ``(key, n, corr, slope)``; callers round for
    SQL twins. Groups with zero variance on either side get NaN corr
    (SQL ``corr`` returns NULL there — filter or coalesce in the caller).
    """

    def moments(b: pd.DataFrame) -> pa.Table:
        x = b[x_col].to_numpy(dtype=np.float64) - x_offset
        y = b[y_col].to_numpy(dtype=np.float64)
        return to_arrow(pd.DataFrame({
            key_col: b[key_col].to_numpy(),
            "n": np.ones(len(b), dtype=np.int64),
            "sx": x, "sy": y, "sxx": x * x, "syy": y * y, "sxy": x * y,
        }).groupby(key_col, sort=False, as_index=False).sum())

    aggs = {c: (c, "sum") for c in ("n", "sx", "sy", "sxx", "syy", "sxy")}
    m = preagg_groupby(ds.map_batches(moments, batch_format="pandas"),
                       [key_col], aggs)
    m = m.sort_values(key_col, kind="mergesort").reset_index(drop=True)
    n = m["n"].to_numpy(dtype=np.float64)
    cov_n2 = n * m["sxy"].to_numpy() - m["sx"].to_numpy() * m["sy"].to_numpy()
    varx_n2 = n * m["sxx"].to_numpy() - m["sx"].to_numpy() ** 2
    vary_n2 = n * m["syy"].to_numpy() - m["sy"].to_numpy() ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = cov_n2 / np.sqrt(varx_n2 * vary_n2)
        slope = cov_n2 / varx_n2
    # zero-variance groups: the covariance sum cancels to ~0 but not
    # exactly, while the variance IS exactly 0 -> inf; SQL corr/regr_slope
    # return NULL there, so mask explicitly (negatives are cancellation
    # noise on a zero variance)
    corr[(varx_n2 <= 0) | (vary_n2 <= 0)] = np.nan
    slope[varx_n2 <= 0] = np.nan
    return pd.DataFrame({
        key_col: m[key_col], "n": m["n"].astype(np.int64),
        "corr": corr, "slope": slope,
    })


def skew_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    left_cols: List[str],
    right_cols: List[str],
    hot_threshold: int = 100_000,
    sample_top: int = 64,
) -> rd.Dataset:
    """Skew-aware distributed INNER hash join (the AQE/Hive skew-join
    plan): a plain co-partitioned join sends every row of a hot key to ONE
    partition — a single key with 10^9 rows serializes the whole join.
    Here hot LEFT keys are detected from map-side partial counts (top
    ``sample_top`` per batch; a key can only cross ``hot_threshold``
    globally if it is heavy in many batches, so the truncated partials
    can't miss it by more than batches x the per-batch floor); their right
    rows broadcast ONCE and join map-side in the streaming left scan
    (perfect balance — no hot key ever crosses a shuffle), while everything
    else takes the normal size-aware :func:`hash_join`.

    Contract: the right side's rows PER HOT KEY must be broadcast-sized
    (true for dimension-ish or pre-aggregated right sides — the classic
    skew-join shape; a hot-x-hot fact join explodes its OUTPUT regardless
    of plan). ``left_cols``/``right_cols`` share only ``on``.

    Scan budget (honest accounting): the left side is consumed once for the
    key-column-pruned count sample and once per route (hot/cold filters are
    cheap map stages over the same scan) — 1 narrow + 2 full scans. The
    cold sides are materialized once each (spillable), because each is
    read twice: once to count it, once by the join. Callers with an
    expensive upstream should pass a materialized/persisted left."""
    import ray

    def count_partials(batch: pd.DataFrame) -> pa.Table:
        vc = batch[on].value_counts().head(sample_top)
        return to_arrow(pd.DataFrame({on: vc.index.to_numpy(),
                                      "c": vc.to_numpy()}))

    counts = (left.select_columns([on])
              .map_batches(count_partials, batch_format="pandas")
              .to_pandas())
    if len(counts):
        est = counts.groupby(on)["c"].sum()
        hot = set(est[est > hot_threshold].index.tolist())
    else:
        hot = set()
    hot_ref = ray.put(hot)

    def side(keep_hot: bool):
        def f(b: pd.DataFrame) -> pa.Table:
            mask = b[on].isin(ray.get(hot_ref))
            return to_arrow(b[mask if keep_hot else ~mask])
        return f

    out_cols = [on] + [c for c in left_cols if c != on] \
        + [c for c in right_cols if c != on]

    def project(b: pd.DataFrame) -> pa.Table:
        return to_arrow(b[out_cols])

    def typed_empty() -> rd.Dataset:
        # degenerate empty result: keep the INPUT column types (r4 ADVICE —
        # a pa.null()-typed empty breaks downstream unions / typed reads)
        types: dict = {}
        for src in (right, left):   # key column: left wins
            sch = _arrow_schema(src.schema())
            types.update(zip(sch.names, sch.types))
        return rd.from_arrow(pa.table(
            {c: pa.array([], types.get(c, pa.null())) for c in out_cols}))

    # each cold side is counted, then joined: materialize it once (this
    # also hands hash_join exact sizes)
    left_cold = left.map_batches(side(False), batch_format="pandas") \
        .materialize()
    right_cold = right.map_batches(side(False), batch_format="pandas") \
        .materialize()
    cold = None
    if left_cold.count() and right_cold.count():
        cold = hash_join(left_cold, right_cold, on=[on]) \
            .map_batches(project, batch_format="pandas")
    if not hot:
        return cold if cold is not None else typed_empty()

    right_hot = (right.map_batches(side(True), batch_format="pandas")
                 .to_pandas())
    if right_hot.empty:
        # hot LEFT keys with no right rows contribute nothing to an inner
        # join — and an empty Dataset loses its schema through to_pandas,
        # so the merge below would KeyError on the missing columns
        return cold if cold is not None else typed_empty()
    right_ref = ray.put(right_hot[right_cols])

    def join_hot(b: pd.DataFrame) -> pa.Table:
        m = b[b[on].isin(ray.get(hot_ref))]
        merged = m.merge(ray.get(right_ref), on=on, how="inner")
        return to_arrow(merged[out_cols])

    hot_out = left.map_batches(join_hot, batch_format="pandas")
    return hot_out if cold is None else cold.union(hot_out)
