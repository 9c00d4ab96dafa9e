"""The flagship pipeline: transcripts -> knowledge graph (nodes + edges).

Ray-Data-first composition (SURVEY.md §3.4):

    read_parquet (pruned columns)
      -> map_batches(annotate_turns)              [fused tasks, Arrow batches]
      -> keyed exchange on (conv, turn bucket)    [stable turn order + coref;
                                                   bucket 0 finalized in place]
      -> phases B/C, only for conversations past one bucket
      -> canonicalization (MinHash/LSH capped pairs + components)
      -> build_graph: attach canonical surfaces   [broadcast dict or join]
      -> pre-aggregated combines -> nodes / edges
      -> write_parquet partitioned + lineage markers

:func:`build_graph` is the one graph-build path: :func:`run_kg_pipeline`
(in memory) and ``materialize.materialize_kg`` (durable, resumable) both
call it, and it makes the broadcast-vs-join choice for canon application.

Scale notes
-----------
* The only turn shuffle is the linker's, the package's one keyed exchange
  (``relational.partition_map_groups``) on salted turn buckets, so no group
  grows with a conversation's length; conversations longer than one bucket
  add a merge over per-bucket summaries and one map (:func:`link`).
  Everything upstream is embarrassingly block-parallel.
* Canonicalization shuffles *distinct surfaces*, not mentions (map-side
  distinct first), then broadcasts the resulting map back (``ray.put`` once,
  read per task) — no second all-to-all over the mention table. A map too
  big to broadcast is applied with hash-partitioned left joins instead.
* Nothing materializes the full input; intermediates that are materialized
  (canon map, distinct surfaces) are O(|entity vocabulary|), not O(turns).
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Dict, List, Optional, Union

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.canon import DEFAULT_THRESHOLD, canonical_entity_id
from ..functions.kgrules import normalize_surface
from ..stages import canonicalize, relational
from ..stages.annotate import annotate_turns
from ..stages.canonicalize import build_canon_map, canon_map_to_dict
from ..stages.link import (
    _spanning_convs,
    _turn_bucket,
    apply_resolutions,
    bucket_summaries,
    finalize_partition,
    link_partition,
    resolve_buckets,
    union_schema,
)
from ..stages.relational import hash_join

TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "ts"]
REQUIRED_TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text"]


def _transcript_schema_names(path: str) -> set:
    import pyarrow.parquet as pq

    try:
        return set(pq.ParquetDataset(path).schema.names)
    except Exception:
        # fall back to letting read_parquet surface the real error
        return set(TRANSCRIPT_COLUMNS)


def read_transcripts(path: str) -> rd.Dataset:
    """Column-pruned read: ``tool`` never leaves storage (SURVEY.md 'prune
    at the read'); ``ts`` rides along as node provenance when present
    (``first_seen_ts``, reference ``ontonotes5_to_json.py:110-111``'s
    per-record metadata analogue). ``ts`` (and ``lang``) are OPTIONAL: the
    column list is intersected with the file schema so a ts-less transcript
    parquet reads cleanly and ``_prov_columns`` fills ``ts = -1``.

    JSONL / CSV inputs dispatch by extension to ``sources.formats`` (Ray's
    native readers + schema normalization) so every downstream stage is
    format-agnostic."""
    lower = path.lower()
    if lower.endswith((".jsonl", ".json")):
        from ..sources.formats import read_transcripts_jsonl

        return read_transcripts_jsonl(path)
    if lower.endswith(".csv"):
        from ..sources.formats import read_transcripts_csv

        return read_transcripts_csv(path)
    names = _transcript_schema_names(path)
    missing = [c for c in REQUIRED_TRANSCRIPT_COLUMNS if c not in names]
    if missing:
        raise ValueError(
            f"transcripts at {path} lack required column(s) {missing}; "
            f"need {REQUIRED_TRANSCRIPT_COLUMNS} (ts optional)"
        )
    cols = [c for c in TRANSCRIPT_COLUMNS if c in names]
    return rd.read_parquet(path, columns=cols)


def _prov_columns(batch: pa.Table) -> pa.Table:
    """Normalize provenance: ``ts`` -> int64 epoch-µs (resolution-explicit),
    ``lang`` -> string; inputs lacking either get -1 / "" so the linker always
    sees one schema. Timestamp-typed ``ts`` is cast THROUGH timestamp('us')
    first — a bare int64 cast keeps the source unit, so pandas-default ns
    parquet would yield epoch-ns (1000x the documented µs). Nulls become -1
    (the missing-provenance sentinel) instead of NaN."""
    n = len(batch)
    names = set(batch.column_names)
    if "ts" in names:
        col = batch.column("ts")
        if pa.types.is_timestamp(col.type):
            col = pc.cast(col, pa.timestamp("us"))
        ts = pc.fill_null(pc.cast(col, pa.int64()), -1)
    else:
        ts = pa.array([-1] * n, pa.int64())
    lang = (batch.column("lang") if "lang" in names
            else pa.array([""] * n, pa.string()))
    return pa.table({
        "conv_id": batch.column("conv_id"),
        "turn_idx": batch.column("turn_idx"),
        "ok": batch.column("ok"),
        "link_json": batch.column("link_json"),
        "error": batch.column("error"),
        "ts": ts,
        "lang": lang,
    })


def annotate(
    ds: rd.Dataset,
    concurrency: Optional[int] = None,
    emit: str = "record",
) -> rd.Dataset:
    """Annotate every turn with stateless tasks, one batch per block, so
    Ray Data fuses them with the read and the per-batch maps after it (a
    minimum batch size would stop the read fusing). ``concurrency`` caps the
    parallel annotate tasks, which also keeps them out of the read's task;
    ``None`` lets them use every CPU."""
    return ds.map_batches(
        annotate_turns,
        fn_kwargs={"emit": emit},
        batch_format="pyarrow",
        batch_size=None,
        num_cpus=1,
        concurrency=concurrency,
    )


# Nothing in the package reads this; the benchmark's link.partition_skew
# does, and benchmark v2 deletes it.
LINK_PARTITIONS = 64

# Turns per salted link bucket: the bound on one phase-A group's length.
LINK_BUCKET_TURNS = 512

# Count of spanning conversations (rows past bucket 0) above which phases B
# and C of :func:`link` run co-partitioned instead of through driver dicts:
# their state is O(those conversations' buckets and chains) — tiny relative
# to mentions, but unbounded in principle.
RESOLUTION_BROADCAST_LIMIT = 2_000_000


def link(annotated: rd.Dataset) -> rd.Dataset:
    """One grouping pass produces mentions + triples + the error channel.

    Only the compact ``link_json`` payload crosses the shuffle, which is
    the package's one keyed exchange (``relational.partition_map_groups``)
    on the salted bucket ``(conv_id, max(turn_idx, 0) // LINK_BUCKET_TURNS)``,
    so a giant conversation's buckets spread across partitions while each
    group stays bounded.
    Phase A (``link_partition``) finalizes every bucket 0 in place, so a
    conversation shorter than one bucket is done after this one exchange.
    One check of the phase-A output finds the conversations with rows past
    bucket 0; only those pay for phases B (merge) and C (apply), through
    driver dicts up to ``RESOLUTION_BROADCAST_LIMIT`` of them and
    co-partitioned by ``hash(conv_id)`` above it. Output is identical to
    ``kgrules.link_conversation`` per conversation."""
    bucket_turns = LINK_BUCKET_TURNS

    def with_bucket(t: pa.Table) -> pa.Table:
        t = _prov_columns(t)
        return t.append_column("bucket", pa.array(_turn_bucket(
            t.column("turn_idx").to_numpy(zero_copy_only=False), bucket_turns)))

    linked = relational.partition_map_groups(
        annotated.map_batches(with_bucket, batch_format="pyarrow"),
        ["conv_id", "bucket"], lambda g: link_partition(g, bucket_turns),
    ).materialize()
    spanning = set(_collect(_on_blocks(
        linked, lambda b: _spanning_convs(b, bucket_turns)))["conv_id"])
    if not spanning:
        return linked
    return _resolve_spanning(linked, spanning, bucket_turns)


@ray.remote
def _run_on_block(kernel: Callable[[pd.DataFrame], pd.DataFrame], block
                  ) -> pd.DataFrame:
    from ray.data.block import BlockAccessor

    return kernel(BlockAccessor.for_block(block).to_pandas())


def _on_blocks(ds: rd.Dataset, kernel: Callable[[pd.DataFrame], pd.DataFrame]
               ) -> List[ray.ObjectRef]:
    """``kernel`` over each non-empty block of a materialized Dataset, as
    one plain Ray task per block: no Dataset execution and no empty output
    blocks for these small, already-partitioned passes."""
    return [_run_on_block.remote(kernel, b)
            for bundle in ds.iter_internal_ref_bundles()
            for b, meta in bundle.blocks if meta.num_rows]


def _collect(refs: List[ray.ObjectRef]) -> pd.DataFrame:
    frames = ray.get(refs)
    return (pd.concat(frames, ignore_index=True) if frames
            else pd.DataFrame({"conv_id": []}))


def _resolve_spanning(linked: rd.Dataset, convs: set,
                      bucket_turns: int) -> rd.Dataset:
    """Phases B and C of :func:`link` for the conversations ``convs``:
    driver dicts when they number at most ``RESOLUTION_BROADCAST_LIMIT``,
    else one more exchange by ``hash(conv_id)`` that runs
    ``finalize_partition`` per partition."""
    if len(convs) > RESOLUTION_BROADCAST_LIMIT:
        return relational.partition_map_groups(
            linked, "conv_id", lambda g: finalize_partition(g, bucket_turns))
    convs_ref = ray.put(convs)
    summaries = _collect(_on_blocks(linked, lambda b: bucket_summaries(
        b, ray.get(convs_ref), bucket_turns)))
    res_ref = ray.put(resolve_buckets(summaries))
    return rd.from_pandas_refs(_on_blocks(
        linked, lambda b: apply_resolutions(b, ray.get(res_ref), bucket_turns)))


def annotate_and_link(
    ds: rd.Dataset,
    concurrency: Optional[int] = None,
) -> rd.Dataset:
    """Annotate turns and link them into the union table."""
    return link(annotate(ds, concurrency=concurrency, emit="link"))


def _mention_rows(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t.column("row_kind"), "mention")).select(
        ["conv_id", "turn_idx", "start", "end", "surface", "entity_type",
         "is_pronoun", "chain_id", "antecedent", "ts", "lang"])


def _triple_rows(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t.column("row_kind"), "triple")).select(
        ["conv_id", "turn_idx", "pred", "subj", "obj", "subj_type",
         "obj_type"])


def _error_rows(t: pa.Table) -> pa.Table:
    return t.filter(pc.equal(t.column("row_kind"), "error")).select(
        ["conv_id", "turn_idx", "error"])


def split_linked(linked: rd.Dataset):
    """Vectorized split of the union table into mentions / raw triples."""
    return (linked.map_batches(_mention_rows, batch_format="pyarrow"),
            linked.map_batches(_triple_rows, batch_format="pyarrow"))


def surfaces_for_canon(mentions: rd.Dataset, triples: rd.Dataset) -> rd.Dataset:
    def mention_norms(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(t.column("is_pronoun")))
        return pa.table({
            "norm": pa.array(
                sorted({normalize_surface(s) for s in t.column("surface").to_pylist()}),
                pa.string(),
            )
        })

    def triple_norms(t: pa.Table) -> pa.Table:
        norms = {normalize_surface(s) for s in t.column("subj").to_pylist()}
        norms |= {normalize_surface(o) for o in t.column("obj").to_pylist()}
        return pa.table({"norm": pa.array(sorted(norms), pa.string())})

    return mentions.map_batches(mention_norms, batch_format="pyarrow").union(
        triples.map_batches(triple_norms, batch_format="pyarrow")
    )


Canon = Union[ray.ObjectRef, rd.Dataset]


def _norms(t: pa.Table, c: str) -> List[str]:
    return [normalize_surface(s) for s in t.column(c).to_pylist()]


def _canonical(hits: list, ns: List[str]) -> pa.Array:
    return pa.array([h if h is not None else n
                     for h, n in zip(hits, ns)], pa.string())


def _lookup_canonical(t: pa.Table, mapping: Dict[str, str],
                      columns: Dict[str, str]) -> pa.Table:
    """The broadcast route of :func:`_with_canonical` on one batch."""
    for c, name in columns.items():
        ns = _norms(t, c)
        t = t.append_column(name, _canonical([mapping.get(n) for n in ns], ns))
    return t


def _with_canonical(ds: rd.Dataset, canon: Canon,
                    columns: Dict[str, str]) -> rd.Dataset:
    """Append, for each ``surface column -> output column`` pair, the
    canonical surface of the normalized surface; a norm the map lacks keeps
    itself. ``canon`` is either the broadcast dict's ``ObjectRef`` (a dict
    ``.get`` per row, no shuffle) or the canon-map Dataset (one left hash
    join per column on the norm, nothing on the driver) — the lookup is the
    only difference between the two routes."""
    if isinstance(canon, ray.ObjectRef):
        return ds.map_batches(
            lambda t: _lookup_canonical(t, ray.get(canon), columns),
            batch_format="pyarrow")

    norm = {c: f"{c}_norm" for c in columns}
    found = {c: f"{c}_canon_j" for c in columns}

    def add_norms(t: pa.Table) -> pa.Table:
        for c in columns:
            t = t.append_column(norm[c], pa.array(_norms(t, c), pa.string()))
        return t

    def finish(t: pa.Table) -> pa.Table:
        out = t.drop_columns([*norm.values(), *found.values()])
        for c, name in columns.items():
            out = out.append_column(name, _canonical(
                t.column(found[c]).to_pylist(), t.column(norm[c]).to_pylist()))
        return out

    joined = ds.map_batches(add_norms, batch_format="pyarrow")
    for c in columns:
        right = canon.map_batches(
            lambda t, c=c: t.rename_columns([norm[c], found[c]]),
            batch_format="pyarrow")
        joined = hash_join(joined, right, on=[norm[c]],
                           join_type="left_outer")
    return joined.map_batches(finish, batch_format="pyarrow")


_TRIPLE_CANON = {"subj": "subj_canon", "obj": "obj_canon"}
_NODE_CANON = {"surface": "canonical_surface"}


def _add_canonical_ids(t: pa.Table) -> pa.Table:
    for side in ("subj", "obj"):
        t = t.append_column(f"{side}_id", pa.array(
            [canonical_entity_id(c)
             for c in t.column(f"{side}_canon").to_pylist()],
            pa.string()))
    return t


def canonicalize_triples(triples: rd.Dataset, canon: Canon) -> rd.Dataset:
    """Rewrite subj/obj to canonical surfaces + ids (``canon``: the
    broadcast map's ``ObjectRef`` or the canon-map Dataset)."""
    return _with_canonical(triples, canon, _TRIPLE_CANON).map_batches(
        _add_canonical_ids, batch_format="pyarrow")


# Per-node surface_forms list cap: top-N by mention count. A pronoun-like
# surface slipping through canonicalization could otherwise accrete an
# unbounded (multi-GB at 100x) JSON row.
SURFACE_FORMS_CAP = 32

NODE_KEYS = ["canonical_surface", "surface", "entity_type"]


def _node_partials(df: pd.DataFrame) -> pa.Table:
    """Per-batch node partials keyed by (canonical surface, surface, type):
    mention count plus the (min conv, min turn) mention's provenance."""
    if not len(df):
        # dtype-stable empty frame: schemaless empty blocks confuse the
        # streaming executor's schema unification
        return pa.Table.from_pandas(pd.DataFrame({
            "canonical_surface": pd.Series(dtype=object),
            "surface": pd.Series(dtype=object),
            "entity_type": pd.Series(dtype=object),
            "n": pd.Series(dtype="int64"),
            "first_conv_id": pd.Series(dtype=object),
            "first_turn_idx": pd.Series(dtype="int64"),
            "first_seen_ts": pd.Series(dtype="int64"),
            "lang": pd.Series(dtype=object),
        }), preserve_index=False)
    grp = df.groupby(NODE_KEYS, sort=True).agg(
        n=("conv_id", "size"),
    ).reset_index()
    # provenance = the (min conv, min turn) mention's row (deterministic)
    firsts = df.sort_values(["conv_id", "turn_idx"]).groupby(
        NODE_KEYS, sort=True
    ).head(1)[NODE_KEYS + ["conv_id", "turn_idx", "ts", "lang"]]
    firsts = firsts.rename(columns={
        "conv_id": "first_conv_id", "turn_idx": "first_turn_idx",
        "ts": "first_seen_ts"})
    return pa.Table.from_pandas(grp.merge(firsts, on=NODE_KEYS),
                                preserve_index=False)


def _combine_nodes(df: pd.DataFrame) -> pa.Table:
    """Vectorized combine of node partials (all of them, or one hash
    partition): inner pandas groupbys handle every canonical surface at
    once — never one UDF call per entity (entity vocabulary is corpus-
    scale; per-group map_groups was the exact_dedup anti-pattern)."""
    # majority entity type, ties by name: sort by (-count, type), head(1)
    tc = df.groupby(["canonical_surface", "entity_type"], sort=False)["n"] \
           .sum().reset_index()
    tc = tc.sort_values(["canonical_surface", "n", "entity_type"],
                        ascending=[True, False, True], kind="mergesort")
    best_type = tc.drop_duplicates("canonical_surface") \
                  .set_index("canonical_surface")["entity_type"]
    firsts = df.sort_values(
        ["canonical_surface", "first_conv_id", "first_turn_idx"],
        kind="mergesort",
    ).drop_duplicates("canonical_surface").set_index("canonical_surface")
    # surface_forms is CAPPED at the top-N forms by mention count
    # (ties lexicographic): one mega-entity must not grow a multi-GB
    # row; n_surface_forms keeps the true distinct total
    sc = df.groupby(["canonical_surface", "surface"], sort=False)["n"] \
           .sum().reset_index()
    sc = sc.sort_values(["canonical_surface", "n", "surface"],
                        ascending=[True, False, True], kind="mergesort")
    n_forms = sc.groupby("canonical_surface", sort=True)["surface"].size()
    kept = sc.groupby("canonical_surface", sort=False) \
             .head(SURFACE_FORMS_CAP)
    surface_forms = kept.groupby("canonical_surface", sort=True)["surface"] \
        .agg(lambda s: json.dumps(list(s), ensure_ascii=False))
    n_mentions = df.groupby("canonical_surface", sort=True)["n"].sum()
    out = pd.DataFrame({
        "canonical_surface": n_mentions.index,
        "entity_type": best_type.reindex(n_mentions.index).to_numpy(),
        "surface_forms": surface_forms.reindex(n_mentions.index).to_numpy(),
        "n_surface_forms": n_forms.reindex(n_mentions.index).to_numpy().astype("int64"),
        "n_mentions": n_mentions.to_numpy().astype("int64"),
        "first_conv_id": firsts["first_conv_id"].reindex(n_mentions.index).to_numpy(),
        "first_turn_idx": firsts["first_turn_idx"].reindex(n_mentions.index).to_numpy().astype("int64"),
        "first_seen_ts": firsts["first_seen_ts"].reindex(n_mentions.index).to_numpy().astype("int64"),
        "lang": firsts["lang"].reindex(n_mentions.index).to_numpy(),
    })
    out.insert(0, "canonical_id",
               [canonical_entity_id(c) for c in out["canonical_surface"]])
    return pa.Table.from_pandas(out, preserve_index=False)


def _named_mentions(t: pa.Table) -> pa.Table:
    return t.filter(pc.invert(t.column("is_pronoun"))).select(
        ["conv_id", "turn_idx", "surface", "entity_type", "ts", "lang"])


def _aggregate_nodes(named: rd.Dataset) -> rd.Dataset:
    return relational.two_phase_aggregate(
        named, ["canonical_surface"], _node_partials, _combine_nodes)


def build_nodes(mentions: rd.Dataset, canon: Canon) -> rd.Dataset:
    """Node table via partial aggregation: non-pronoun mentions get their
    canonical surface (``canon``: the broadcast map's ``ObjectRef`` or the
    canon-map Dataset), per-batch partials pre-aggregate (SURVEY.md 'push
    aggregation partial'), then one combine per canonical surface
    (:func:`relational.two_phase_aggregate` picks driver or distributed)."""
    named = mentions.map_batches(_named_mentions, batch_format="pyarrow")
    return _aggregate_nodes(_with_canonical(named, canon, _NODE_CANON))


EDGE_KEYS = ["subj_id", "pred", "obj_id", "subj_canon", "obj_canon"]
EDGE_AGGS = {"n_occurrences": ("conv_id", "count"),
             "first_conv_id": ("conv_id", "min")}


def build_edges(canon_triples: rd.Dataset) -> rd.Dataset:
    """Exact-dedup edges — the D2 analogue (``groupby((subj,pred,obj))
    .first``) on the relational pre-aggregation engine
    (:func:`relational.preagg_groupby_ds`). subj_canon / obj_canon are
    functions of the ids and ride in the group key."""
    return relational.preagg_groupby_ds(
        canon_triples.select_columns(EDGE_KEYS + ["conv_id"]),
        EDGE_KEYS, EDGE_AGGS)


def _empty_graph() -> Dict[str, Callable[[], rd.Dataset]]:
    """:func:`build_graph`'s builders for a corpus with no linked rows.
    Ray Data runs no batch function on a 0-row block and emits column-less
    blocks, so the row kernels run here once on the typed empty union table,
    and the combines type their own 0-row output
    (:func:`relational.two_phase_aggregate`)."""
    linked = union_schema().empty_table()
    mentions = _mention_rows(linked)
    triples = _add_canonical_ids(
        _lookup_canonical(_triple_rows(linked), {}, _TRIPLE_CANON))
    named = _lookup_canonical(_named_mentions(mentions), {}, _NODE_CANON)
    return {
        "mentions": lambda: rd.from_arrow(mentions),
        "triples": lambda: rd.from_arrow(triples),
        "nodes": lambda: _aggregate_nodes(rd.from_arrow(named)),
        "edges": lambda: build_edges(rd.from_arrow(triples)),
        "errors": lambda: rd.from_arrow(_error_rows(linked)),
    }


def build_graph(linked: rd.Dataset, canon_map: rd.Dataset
                ) -> Dict[str, Callable[[], rd.Dataset]]:
    """The one graph-build path over a linked union table and its canon map:
    ``{table: zero-argument builder}`` for mentions, triples, nodes, edges
    and errors. Nothing runs until a builder is called, so a caller that
    already has a table (a resumed stage) does none of its node or edge
    work.

    Canon application routes once, here, on map size: at or below
    ``canonicalize.BROADCAST_LIMIT`` entries the map broadcasts as a dict
    (``ray.put`` once); above it the map stays a Dataset and every lookup
    is a hash-partitioned left join — the driver never holds an over-limit
    map."""
    if not linked.count():
        return _empty_graph()
    mentions, triples = split_linked(linked)
    limit = canonicalize.BROADCAST_LIMIT
    canon: Canon = canon_map
    if canon_map.count() <= limit:
        canon = ray.put(canon_map_to_dict(canon_map, limit=limit))
    # built on first call: over the limit the canon joins run their inputs
    canon_triples = functools.cache(
        lambda: canonicalize_triples(triples, canon))
    errors = linked.map_batches(_error_rows, batch_format="pyarrow")
    return {
        "mentions": lambda: mentions,
        "triples": canon_triples,
        "nodes": lambda: build_nodes(mentions, canon),
        "edges": lambda: build_edges(canon_triples()),
        "errors": lambda: errors,
    }


def run_kg_pipeline(
    transcript_path: str,
    canon_threshold: float = DEFAULT_THRESHOLD,
    concurrency: Optional[int] = None,
) -> Dict[str, rd.Dataset]:
    """Build the KG in memory; returns the component Datasets.

    The linked union table is materialized once (it is O(mentions+triples),
    far smaller than the input) so the canon map and every graph table
    derive from it without re-running annotation; :func:`build_graph`
    builds the tables (and makes the broadcast-vs-join choice).
    """
    linked = annotate_and_link(read_transcripts(transcript_path),
                               concurrency).materialize()
    canon_map = build_canon_map(
        surfaces_for_canon(*split_linked(linked)), threshold=canon_threshold,
    ).materialize()
    builders = build_graph(linked, canon_map)
    return {name: build() for name, build in builders.items()}
