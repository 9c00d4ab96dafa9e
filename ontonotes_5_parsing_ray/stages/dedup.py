"""Deduplication operators over a documents table.

Five dedup families (SURVEY.md 'Beyond the reference'):

* exact        — content-hash partition + per-group min-id keep
                 (``groupby(text).min(doc_id)``; the hash carries the
                 shuffle, never the full text comparison cross-block)
* MinHash+LSH  — shingle -> minhash -> band groupby -> candidate pairs ->
                 Jaccard verify (the same machinery as entity
                 canonicalization, ``stages/canonicalize.py``)
* SimHash      — 64-bit signature, near-dup = small Hamming distance within
                 a 16-bit band bucket
* n-gram Jaccard — exact pairwise verify *inside LSH blocks only* (never
                 all-pairs)
* embedding cosine — near-dup via normalized-vector LSH buckets
                 (random-hyperplane signs) + in-bucket cosine verify

Each returns a Dataset; at scale the only all-to-all is the band/bucket
groupby whose input was pre-shrunk per batch.

Hot-bucket bounding (the duplicate-heavy-corpus guard): pair enumeration
never runs over raw bucket members. Exact-duplicate texts are collapsed to
one representative per bucket FIRST (identical texts share every band key,
so the collapse is globally consistent and provably output-preserving —
see :func:`_expand_dup_pairs`), and residual buckets of near-identical but
distinct texts are capped at ``max_bucket`` representatives (tightened by
the total pair budget) with a logged drop count — the capped pair engine of
``functions/hashing.py``, which entity canonicalization shares. A crawl
with 10^6 byte-identical boilerplate pages therefore costs one
representative, not 5*10^11 candidate pairs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from functools import lru_cache

from ..functions.rounding import round_half_away
from ..functions.hashing import (
    LSH_MAX_BUCKET,
    MinHasher,
    bucket_pair_arrays,
    effective_bucket_cap,
    hash64_pair,
    hash64_vec,
    jaccard,
    pair_unique,
    simhash64,
    word_shingles,
)


@lru_cache(maxsize=65536)
def _word_shingles_cached(text: str, k: int) -> frozenset:
    """Per-worker memo: a doc lands in every one of its LSH bands, so its
    shingle set would otherwise be recomputed bands-times during verify."""
    return frozenset(word_shingles(text.split(), k))


# Second siphash key for the 128-bit exact-text collapse key: two distinct
# texts collapsing (and thereby being reported as jaccard-1.0 duplicates)
# requires a simultaneous collision of both 64-bit hashes (~2^-128 per
# pair) — negligible even at web-crawl pair counts, where a single 64-bit
# key would start producing a handful of expected collisions.
_H2_KEY = "8f1d4c0a92b37e65"


def _text_hash_cols(texts: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized (h1, h2) exact-text collapse keys as int64 arrays."""
    import pandas as pd_mod

    arr = np.asarray(texts, dtype=object)
    if arr.size == 0:
        e = np.array([], dtype=np.int64)
        return e, e
    h1 = pd_mod.util.hash_array(arr, categorize=False).view(np.int64)
    h2 = pd_mod.util.hash_array(arr, hash_key=_H2_KEY,
                                categorize=False).view(np.int64)
    return h1, h2


# Candidate-pair generation: per-bucket pair enumeration. ray.data's
# map_groups invokes the UDF once per group; with LSH buckets averaging ~2
# members that is tens of thousands of pandas constructions (~25s for 76k
# buckets at sf0.1). At or below this many band rows we therefore stream
# the (bucket, id) columns to the driver and enumerate there (milliseconds);
# above it, the distributed groupby path runs — same output, tested equal.
CANDIDATE_DRIVER_LIMIT = 2_000_000

# Enumerate pairs on the driver only while the estimated pair volume is
# modest; above it the bounded distributed enumeration runs regardless of
# how few band ROWS there are.
PAIR_DRIVER_LIMIT = 8_000_000


def _candidate_pairs(
    bucket_rows: rd.Dataset,
    bucket_col: str,
    id_col: str,
    collapse_cols: Optional[List[str]] = None,
    max_bucket: Optional[int] = LSH_MAX_BUCKET,
    filter_cols: Optional[List[str]] = None,
    pair_filter=None,
) -> rd.Dataset:
    """Dedup'd id pairs (a < b) sharing at least one bucket.

    ``collapse_cols`` (e.g. the exact-text hash pair) collapses rows with
    equal collapse values within a bucket to their min id BEFORE pair
    enumeration; exact duplicates share every bucket, so the surviving
    representative is the group's global min id in every bucket — callers
    restore member pairs exactly via :func:`_expand_dup_pairs`.
    ``max_bucket`` caps residual (post-collapse) hot buckets with a logged
    drop count — the bounded-work guard against degenerate bands — and
    the pair budget may tighten it (:func:`hashing.effective_bucket_cap`).
    ``filter_cols`` / ``pair_filter`` prune pairs inside the enumeration
    (:func:`hashing.bucket_pair_arrays`).

    The input is materialized once (it is ids+bucket keys only — never doc
    payloads) and reused by whichever branch runs; the driver branch moves
    Arrow columns, not row dicts."""
    bucket_rows = bucket_rows.materialize()
    n_rows = bucket_rows.count()
    if not n_rows:
        # nothing to pair (and Ray's to_pandas of 0 rows has no columns)
        return rd.from_arrow(pa.table({"doc_a": pa.array([], pa.int64()),
                                       "doc_b": pa.array([], pa.int64())}))

    # bucket-size histogram (big buckets only — the skew tail is small):
    # drives BOTH the total-pair budget (effective cap) and the
    # driver/distributed routing. Routing on band-ROW count alone is
    # wrong: 800k rows can enumerate 50M+ pairs when buckets correlate.
    # Small band tables compute the histogram on the driver in one
    # value_counts — the distributed version below is three extra Dataset
    # jobs whose fixed overhead (~5 s) dwarfed tiny inputs (80k band rows
    # producing 241 candidates spent 5.8 s mostly here).
    driver = n_rows <= CANDIDATE_DRIVER_LIMIT
    if driver:
        sizes = pd.Series(
            bucket_rows.select_columns([bucket_col]).to_pandas()
            [bucket_col].to_numpy()).value_counts().to_numpy(np.int64)
        small_pairs = 0
    else:
        def _size_partials(t: pa.Table) -> pa.Table:
            col = t.column(bucket_col)
            vcp = pd.Series(
                col.to_numpy(zero_copy_only=False)).value_counts()
            # keep the ORIGINAL arrow type: uint64 band keys overflow an
            # inferred int64, string keys must stay strings
            return pa.table({
                "bucket": pa.array(vcp.index.to_numpy(), type=col.type),
                "c": pa.array(vcp.to_numpy(), pa.int64()),
            })

        from .relational import preagg_groupby_ds

        counts = preagg_groupby_ds(
            bucket_rows.map_batches(_size_partials, batch_format="pyarrow"),
            ["bucket"], {"c": ("c", "sum")})
        counts = counts.materialize()  # reused: big-bucket fetch + small sum
        big = counts.map_batches(
            lambda t: t.filter(pc.greater(t.column("c"), pa.scalar(64)))
            .select(["c"]),
            batch_format="pyarrow").to_pandas()
        sizes = (big["c"].to_numpy(np.int64) if "c" in big.columns
                 else np.array([], dtype=np.int64))  # empty ds drops schema

        def _small_pair_partials(t: pa.Table) -> pa.Table:
            c = t.column("c").to_numpy(zero_copy_only=False)
            c = c[c <= 64]
            return pa.table({"p": pa.array([int((c * (c - 1) // 2).sum())],
                                           pa.int64())})

        small_pairs = sum(
            int(v) for blk in counts.map_batches(
                _small_pair_partials, batch_format="pyarrow"
            ).iter_batches(batch_format="pandas") for v in blk["p"])
    max_bucket, est_pairs = effective_bucket_cap(sizes, small_pairs,
                                                 max_bucket)

    if driver and est_pairs <= PAIR_DRIVER_LIMIT:
        df = bucket_rows.to_pandas()
        a, b, _ = bucket_pair_arrays(
            df, bucket_col, id_col, collapse_cols, max_bucket,
            filter_cols=filter_cols, pair_filter=pair_filter)
        if len(a):
            a, b = pair_unique(a, b)
        return rd.from_arrow(pa.table({
            "doc_a": pa.array(a, pa.int64()),
            "doc_b": pa.array(b, pa.int64()),
        }))

    from .relational import partition_map_groups

    # bounded groups: buckets hash-partition through the keyed exchange,
    # pairs are enumerated bucket-by-bucket INSIDE each partition (one
    # pandas frame per partition, never one UDF call per bucket)

    def candidates_partition(group: pd.DataFrame) -> pa.Table:
        a, b, _ = bucket_pair_arrays(
            group, bucket_col, id_col, collapse_cols, max_bucket,
            filter_cols=filter_cols, pair_filter=pair_filter)
        if len(a):
            # local dedupe first: duplicate hits from buckets in the SAME
            # partition never reach the cross-partition exchange
            a, b = pair_unique(a, b)
        return pa.table({"doc_a": pa.array(a, pa.int64()),
                         "doc_b": pa.array(b, pa.int64()),
                         "pair": pa.array(hash64_pair(a, b), pa.uint64())})

    def dedup_partition(group: pd.DataFrame) -> pa.Table:
        a, b = pair_unique(group["doc_a"].to_numpy(),
                           group["doc_b"].to_numpy())
        return pa.table({"doc_a": pa.array(a, pa.int64()),
                         "doc_b": pa.array(b, pa.int64())})

    # global dedupe = one pair-hash co-partition + a C-speed lexsort
    # adjacency kernel per partition. (The previous
    # ``groupby([doc_a, doc_b]).aggregate(Count)`` sort-aggregate was 4x
    # the cost of the enumeration itself at 5.8M pairs — measured 97 s vs
    # 24 s at 50k docs.)
    candidates = partition_map_groups(bucket_rows, bucket_col,
                                      candidates_partition)
    return partition_map_groups(candidates, "pair", dedup_partition)


# Candidate-count switchover for the verify stage: at or below this many
# distinct candidate docs, their payload (signatures, texts) is computed
# distributed, shipped to the driver ONCE and broadcast into the verify
# map (no extra shuffle). Above it, nothing candidate-shaped ever touches
# the driver: payloads are attached to the pairs with two hash-partitioned
# joins (pairs ⋈ payload on doc_a, then on doc_b) and verification runs
# inside the join partitions.
PAYLOAD_BROADCAST_LIMIT = 200_000

# Driver-built intra-group pair budget for the dup-expansion broadcast fast
# path: sum of C(m, 2) over dup groups must stay under this or the
# partitioned (distributed-triu) route runs instead.
INTRA_DRIVER_LIMIT = 5_000_000


def _distinct_candidate_ids(pairs: rd.Dataset) -> rd.Dataset:
    """Distinct doc ids appearing in any candidate pair, as a Dataset
    (map-side per-batch unique, then one small groupby combine)."""
    from ray.data.aggregate import Count

    def distinct_ids(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        uniq = np.unique(np.concatenate([a, b])) if len(a) else np.array([], np.int64)
        return pa.table({"doc_id": pa.array(uniq.astype(np.int64), pa.int64())})

    per_batch = pairs.map_batches(distinct_ids, batch_format="pyarrow")
    return per_batch.groupby("doc_id").aggregate(
        Count(alias_name="n")
    ).map_batches(lambda t: t.select(["doc_id"]), batch_format="pyarrow")


def _ids_set(cand_ids: rd.Dataset) -> set:
    """Driver id set from a (small, already-counted) id Dataset; tolerates
    the empty-Dataset schema loss through to_pandas."""
    df = cand_ids.to_pandas()
    return set(df["doc_id"].tolist()) if "doc_id" in df.columns else set()


def _route_candidates(pairs: rd.Dataset):
    """Pick the verify route from the (materialized) candidate pairs.

    Returns ``("broadcast", id_set)`` or ``("join", cand_ids_dataset)``.
    When the pair count alone bounds the candidate set under
    ``PAYLOAD_BROADCAST_LIMIT``, the ids are derived driver-side from the
    pairs columns directly — no distributed distinct round-trip for the
    common small case. Only a large pair set pays for the distributed
    distinct, and only a large CANDIDATE set takes the join route."""
    limit = PAYLOAD_BROADCAST_LIMIT
    n_pairs = pairs.count()
    if 2 * n_pairs <= limit:
        df = pairs.to_pandas()
        ids = (set(df["doc_a"].tolist()) | set(df["doc_b"].tolist())
               if len(df) and "doc_a" in df.columns else set())
        return "broadcast", ids
    cand = _distinct_candidate_ids(pairs).materialize()
    if cand.count() <= limit:
        return "broadcast", _ids_set(cand)
    return "join", cand


def _broadcast_candidate_payload(
    ds: rd.Dataset, cand_ids: set, cols: List[str]
) -> Dict[str, dict]:
    """Small-candidate-set fast path: broadcast the id set as a filter over
    ``ds`` (keyed by ``doc_id``) and ship only the candidates' ``cols`` to
    the driver, as ``{col: {doc_id: value}}``."""
    import ray

    ids_ref = ray.put(cand_ids)

    def fil(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["doc_id"].isin(ray.get(ids_ref))]

    df = ds.select_columns(["doc_id"] + cols).map_batches(
        fil, batch_format="pandas").to_pandas()
    # zero candidates: to_pandas loses the schema of an empty Dataset
    return {c: dict(zip(df["doc_id"], df[c])) if c in df.columns else {}
            for c in cols}


def _attach_pair_payload(
    pairs: rd.Dataset,
    payload: rd.Dataset,
    payload_cols: List[str],
) -> rd.Dataset:
    """Too-big-to-broadcast verify path: attach each pair's two payload rows
    via hash-partitioned joins (pairs ⋈ payload on doc_a, then on doc_b,
    payload columns suffixed _a/_b) — the driver never holds candidates.
    ``payload`` must be keyed by ``doc_id`` and is materialized by the
    caller (it is reused by both joins)."""
    from .relational import hash_join

    side_a = payload.map_batches(
        lambda t: t.select(["doc_id"] + payload_cols).rename_columns(
            ["doc_a"] + [f"{c}_a" for c in payload_cols]),
        batch_format="pyarrow",
    )
    side_b = payload.map_batches(
        lambda t: t.select(["doc_id"] + payload_cols).rename_columns(
            ["doc_b"] + [f"{c}_b" for c in payload_cols]),
        batch_format="pyarrow",
    )
    joined = hash_join(pairs, side_a, on=["doc_a"])
    return hash_join(joined, side_b, on=["doc_b"])


def _verify_pairs(
    pairs: rd.Dataset,
    sources: List[Tuple[rd.Dataset, List[str]]],
    verify_frame,
) -> rd.Dataset:
    """Run a family's ONE verify kernel over its candidate pairs.

    ``verify_frame(batch) -> pa.Table`` reads ``{col}_a`` / ``{col}_b`` for
    every payload column named in ``sources`` (``(Dataset keyed by doc_id,
    columns)``). The payload (signatures, texts) of CANDIDATE docs only —
    never the corpus — is attached by route (:func:`_route_candidates`): a
    small set is broadcast and attached per batch from driver dicts; a
    large one is attached with hash-partitioned joins
    (:func:`_attach_pair_payload`) and never touches the driver. The kernel
    is the same on both routes, so they give identical pair sets."""
    import ray

    cols = [c for _, cs in sources for c in cs]
    route, cand = _route_candidates(pairs)
    if route == "join":
        from .relational import hash_join

        payload = cand
        for ds, cs in sources:
            payload = hash_join(
                ds.select_columns(["doc_id"] + cs), payload, on=["doc_id"])
        return _attach_pair_payload(
            pairs, payload.materialize(), cols).map_batches(
            verify_frame, batch_format="pandas")

    values = {}
    for ds, cs in sources:
        values.update(_broadcast_candidate_payload(ds, cand, cs))
    values_ref = ray.put(values)

    def verify_broadcast(batch: pd.DataFrame) -> pa.Table:
        v = ray.get(values_ref)
        return verify_frame(batch.assign(**{
            f"{c}_{side}": [v[c][d] for d in batch[f"doc_{side}"]]
            for c in cols for side in "ab"}))

    return pairs.map_batches(verify_broadcast, batch_format="pandas")


def _dup_members(sig_ds: rd.Dataset) -> Optional[rd.Dataset]:
    """Exact-duplicate membership table: one ``(rep, doc_id)`` row per doc
    whose (h1, h2) exact-text group has more than one member (the rep — the
    group's min id — is included as its own member). Returns ``None`` when
    the corpus has no exact duplicates (the common fast path: one ids-only
    groupby, nothing else).

    Identical texts produce identical signatures, hence identical band
    keys: the collapse in :func:`_candidate_pairs` and the expansion in
    :func:`_expand_dup_pairs` driven by this table are together EXACTLY
    output-preserving (see the proof sketch on ``_expand_dup_pairs``).

    The (already-aggregated, dup-groups-only) group table joins back onto
    the signatures with one :func:`relational.hash_join`, which broadcasts
    it while it fits one exchange bucket."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Count, Min

    from .relational import hash_join

    groups = sig_ds.select_columns(["h1", "h2", "doc_id"]).groupby(
        ["h1", "h2"]
    ).aggregate(
        Min("doc_id", alias_name="rep"), Count(alias_name="n")
    ).map_batches(
        lambda t: t.filter(pc.greater(t.column("n"), 1)).select(
            ["h1", "h2", "rep"]),
        batch_format="pyarrow",
    ).materialize()
    if groups.count() == 0:
        return None
    members = hash_join(
        sig_ds.select_columns(["h1", "h2", "doc_id"]), groups,
        on=["h1", "h2"],
    )
    return members.map_batches(
        lambda t: t.select(["rep", "doc_id"]), batch_format="pyarrow"
    )


def _expand_dup_pairs_broadcast(
    verified: rd.Dataset,
    mdf: pd.DataFrame,
    score_col: str,
    intra_score,
    score_dtype: pa.DataType,
) -> rd.Dataset:
    """Small-membership route of :func:`_expand_dup_pairs`: intra-group
    pairs are one driver-side vectorized triu (bounded by the caller's
    exact C(m,2) budget check), cross pairs come from two broadcast pandas
    merges inside a single ``map_batches`` over the verified pairs — zero
    shuffles, identical output to the join route."""
    import ray

    out_a: List[np.ndarray] = []
    out_b: List[np.ndarray] = []
    for _rep, g in mdf.groupby("rep", sort=False):
        ids = np.unique(g["doc_id"].to_numpy())
        if len(ids) < 2:
            continue
        iu, ju = np.triu_indices(len(ids), 1)
        out_a.append(ids[iu].astype(np.int64))
        out_b.append(ids[ju].astype(np.int64))
    a = np.concatenate(out_a) if out_a else np.array([], np.int64)
    b = np.concatenate(out_b) if out_b else np.array([], np.int64)
    intra = rd.from_arrow(pa.table({
        "doc_a": pa.array(a, pa.int64()),
        "doc_b": pa.array(b, pa.int64()),
        score_col: pa.array(np.full(len(a), intra_score), score_dtype),
    }))
    if verified.count() == 0:
        return intra
    sides_ref = ray.put((
        mdf.rename(columns={"rep": "doc_a", "doc_id": "member_a"}),
        mdf.rename(columns={"rep": "doc_b", "doc_id": "member_b"}),
    ))

    def expand(batch: pd.DataFrame) -> pa.Table:
        ma, mb = ray.get(sides_ref)
        j = batch.merge(ma, on="doc_a", how="left") \
                 .merge(mb, on="doc_b", how="left")
        mav = j["member_a"].fillna(j["doc_a"]).astype("int64").to_numpy()
        mbv = j["member_b"].fillna(j["doc_b"]).astype("int64").to_numpy()
        return pa.table({
            "doc_a": pa.array(np.minimum(mav, mbv), pa.int64()),
            "doc_b": pa.array(np.maximum(mav, mbv), pa.int64()),
            score_col: pa.array(
                j[score_col].to_numpy().astype(
                    "int64" if score_dtype == pa.int64() else "float64"),
                score_dtype),
        })

    cross = verified.map_batches(expand, batch_format="pandas")
    return cross.union(intra)


def _expand_dup_pairs(
    verified: rd.Dataset,
    members: Optional[rd.Dataset],
    score_col: str,
    intra_score,
) -> rd.Dataset:
    """Expand representative-level verified pairs to member-level pairs —
    the exact inverse of the collapse in :func:`_candidate_pairs`.

    Why this is exactly the un-collapsed LSH output: candidacy, the
    signature screen and the exact verify all depend only on the TEXT, and
    every member of a dup group has the representative's text byte-for-byte.
    So (a) a member pair across two groups passes iff the rep pair passes,
    with the identical score, and (b) intra-group pairs always pass —
    identical texts share every band key (always candidates), estimate 1.0
    (never screened) and verify at the identity score (jaccard(S,S)=1.0 /
    hamming 0). Cross pairs come from two hash-partitioned left joins
    (rep -> members, identity for non-dup reps); intra pairs from a
    partitioned vectorized triu per group, emitted in bounded chunks. The
    intra output is inherently quadratic in group size — that IS the
    operator's defined answer for m byte-identical docs; pipelines that only
    need survivors should compose with :func:`drop_near_dup_docs` semantics
    instead of materializing pairs."""
    from .relational import hash_join, partition_map_groups

    if members is None:
        return verified

    # both are read more than once below (counts, broadcast, joins)
    members = members.materialize()
    verified = verified.materialize()

    score_dtype = (pa.int64() if isinstance(intra_score, (int, np.integer))
                   else pa.float64())

    # Broadcast fast path: a small membership table expands through ONE
    # pandas merge per batch (and a driver-built intra table, bounded by
    # the exact pair-count check) — the two hash-partitioned joins below
    # cost exchanges whose fixed cost dwarfs report-scale data.
    if members.count() <= PAYLOAD_BROADCAST_LIMIT:
        mdf = members.to_pandas()
        sizes = mdf.groupby("rep", sort=False)["doc_id"].size().to_numpy()
        if int((sizes * (sizes - 1) // 2).sum()) <= INTRA_DRIVER_LIMIT:
            return _expand_dup_pairs_broadcast(
                verified, mdf, score_col, intra_score, score_dtype)

    def intra_partition(group: pd.DataFrame) -> pa.Table:
        # one vectorized triu per group; output is C(m, 2) per dup group —
        # inherent to the operator's defined answer (see docstring). A
        # partition's groups are emitted as one table (map_groups cannot
        # stream chunks); the exchange's partition count bounds how many
        # dup groups land together, and a single pathological group's
        # quadratic output is the documented reason to prefer
        # collapse-style consumers.
        out_a: List[np.ndarray] = []
        out_b: List[np.ndarray] = []
        for _rep, g in group.groupby("rep", sort=False):
            ids = np.unique(g["doc_id"].to_numpy())
            if len(ids) < 2:
                continue
            iu, ju = np.triu_indices(len(ids), 1)
            out_a.append(ids[iu].astype(np.int64))
            out_b.append(ids[ju].astype(np.int64))
        a = (np.concatenate(out_a) if out_a else np.array([], np.int64))
        b = (np.concatenate(out_b) if out_b else np.array([], np.int64))
        return pa.table({
            "doc_a": pa.array(a, pa.int64()),
            "doc_b": pa.array(b, pa.int64()),
            score_col: pa.array(np.full(len(a), intra_score), score_dtype),
        })

    intra = partition_map_groups(members, "rep", intra_partition)

    if verified.count() == 0:
        return intra

    mem_a = members.map_batches(
        lambda t: t.rename_columns(["doc_a", "member_a"]),
        batch_format="pyarrow")
    mem_b = members.map_batches(
        lambda t: t.rename_columns(["doc_b", "member_b"]),
        batch_format="pyarrow")
    j = hash_join(verified, mem_a, on=["doc_a"], join_type="left_outer")
    j = hash_join(j, mem_b, on=["doc_b"], join_type="left_outer")

    def finish(batch: pd.DataFrame) -> pa.Table:
        ma = batch["member_a"].fillna(batch["doc_a"]).astype("int64")
        mb = batch["member_b"].fillna(batch["doc_b"]).astype("int64")
        a = np.minimum(ma.to_numpy(), mb.to_numpy())
        b = np.maximum(ma.to_numpy(), mb.to_numpy())
        return pa.table({
            "doc_a": pa.array(a, pa.int64()),
            "doc_b": pa.array(b, pa.int64()),
            score_col: pa.array(
                batch[score_col].to_numpy().astype(
                    "int64" if score_dtype == pa.int64() else "float64"),
                score_dtype),
        })

    cross = j.map_batches(finish, batch_format="pandas")
    return cross.union(intra)


def exact_dedup(docs: rd.Dataset) -> rd.Dataset:
    """Exact dedup: one row per distinct text, keeping the smallest doc_id
    plus the duplicate count.

    Map-side combine first (per-batch dedup shrinks the shuffle input to
    distinct-texts-per-batch), then ONE native ``groupby.aggregate`` —
    no per-group pandas UDF (a mostly-unique 100 TB corpus has billions of
    distinct texts; one UDF call each was the round-1 scale bug). The group
    key is ``(text_hash, text)``: the fixed-width hash leads the sort so key
    comparisons are int-first, while the text in the key splits 62-bit hash
    collisions correctly instead of silently merging distinct documents."""
    from ray.data.aggregate import Min as RMin, Sum as RSum

    def partial_dedup(batch: pd.DataFrame) -> pa.Table:
        g = batch.groupby("text", sort=False).agg(
            doc_id=("doc_id", "min"), n=("doc_id", "size")
        ).reset_index()
        # vectorized content hash (C-speed siphash); internal group key
        # only — projected away before the result leaves the operator
        g["text_hash"] = (hash64_vec(g["text"])
                          & np.uint64((1 << 62) - 1)).astype("int64")
        return pa.Table.from_pandas(
            g[["text_hash", "text", "doc_id", "n"]], preserve_index=False
        )

    parts = docs.select_columns(["doc_id", "text"]).map_batches(
        partial_dedup, batch_format="pandas"
    ).materialize()  # pin before the shuffle (sort samples re-execute lazy upstreams)
    return (
        parts.groupby(["text_hash", "text"])
        .aggregate(RMin("doc_id", alias_name="doc_id"),
                   RSum("n", alias_name="n_dups"))
        .map_batches(lambda t: t.select(["doc_id", "text", "n_dups"]),
                     batch_format="pyarrow")
    )


def minhash_near_dup_pairs(
    docs: rd.Dataset,
    threshold: float = 0.7,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    max_bucket: Optional[int] = LSH_MAX_BUCKET,
    expand_dups: bool = True,
) -> rd.Dataset:
    """Near-duplicate pairs (doc_a < doc_b, exact word-shingle Jaccard >=
    threshold).

    Staging (each pair verified exactly once, signatures computed exactly
    once per doc):
      1. one signature pass: (doc_id, exact-text hash pair, minhash sig as
         fixed-width binary) — materialized, ids+sketch only;
      2. band rows derive from the stored signature (no shingle recompute);
         exact-dup texts collapse to one representative per bucket and hot
         residual buckets cap at ``max_bucket`` (see module docstring);
      3. ``groupby(band_key)`` emits candidate representative pairs;
      4. ``groupby(a, b)`` dedups candidates BEFORE any verification
         (the same pair collides in many bands);
      5. verify per batch: a vectorized minhash-signature screen drops
         pairs whose estimated similarity is far below threshold, then
         exact Jaccard confirms — zero false positives;
      6. verified rep pairs expand back to member pairs
         (:func:`_expand_dup_pairs` — provably the un-collapsed output).

    Verify payloads (stored signature + text per CANDIDATE doc, never the
    corpus) auto-route by candidate count (:func:`_verify_pairs`): a small
    set broadcasts to the verify map; a large one is attached to the pairs
    with hash-partitioned joins (pairs ⋈ payload on doc_a then doc_b) — the
    driver never materializes candidate texts. One verify kernel serves
    both routes, so they produce identical pair sets. ``expand_dups=False``
    skips step 6 and returns representative-level pairs only (dup-group
    members beyond the rep are then absent from the output — use only when
    a downstream collapse handles exact dups itself).
    """
    # md5_32 shingle base: the whole signature pipeline (shingle hash,
    # permutations, banding) is reproducible in DuckDB, which is what lets
    # the driver value-hash this operator (entity canonicalization keeps
    # blake2b — its clusters must stay stable across rounds)
    hasher = MinHasher(num_perm, base_hash="md5_32")

    def sig_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sigs = [hasher.signature(word_shingles(t.split(), shingle_k)).tobytes()
                for t in texts]
        h1, h2 = _text_hash_cols(texts)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "h1": pa.array(h1, pa.int64()),
            "h2": pa.array(h2, pa.int64()),
            "sig": pa.array(sigs, pa.binary()),
        })

    # Signatures once per doc, pinned: banding slices them, the verify
    # payload joins them back — the round-3 double signature pass is gone.
    sig_ds = docs.select_columns(["doc_id", "text"]).map_batches(
        sig_rows, batch_format="pyarrow"
    ).materialize()

    def band_rows(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        h1s = batch.column("h1").to_pylist()
        h2s = batch.column("h2").to_pylist()
        sigs = batch.column("sig").to_pylist()
        out_band, out_id, out_h1, out_h2 = [], [], [], []
        for doc_id, h1, h2, sig in zip(doc_ids, h1s, h2s, sigs):
            arr = np.frombuffer(sig, dtype=np.uint64)
            for key in hasher.band_keys(arr, bands):
                out_band.append(key)
                out_id.append(doc_id)
                out_h1.append(h1)
                out_h2.append(h2)
        return pa.table({
            "band_key": pa.array(out_band, pa.string()),
            "doc_id": pa.array(out_id, pa.int64()),
            "h1": pa.array(out_h1, pa.int64()),
            "h2": pa.array(out_h2, pa.int64()),
        })

    pairs = _candidate_pairs(
        sig_ds.map_batches(band_rows, batch_format="pyarrow"),
        "band_key", "doc_id",
        collapse_cols=["h1", "h2"], max_bucket=max_bucket,
    ).materialize()

    members = _dup_members(sig_ds) if expand_dups else None

    screen = max(0.0, threshold - 0.25)  # est-similarity slack before exact

    def verify_frame(batch: pd.DataFrame) -> pa.Table:
        a_out, b_out, j_out = [], [], []
        if len(batch):
            sa = np.stack([np.frombuffer(s, np.uint64)
                           for s in batch["sig_a"]])
            sb = np.stack([np.frombuffer(s, np.uint64)
                           for s in batch["sig_b"]])
            est = (sa == sb).mean(axis=1)
            for a, b, ta, tb, e in zip(batch["doc_a"], batch["doc_b"],
                                       batch["text_a"], batch["text_b"],
                                       est):
                if e < screen:
                    continue
                jac = jaccard(_word_shingles_cached(ta, shingle_k),
                              _word_shingles_cached(tb, shingle_k))
                if jac >= threshold:
                    a_out.append(a)
                    b_out.append(b)
                    j_out.append(float(round_half_away(jac, 6)))
        return pa.table({
            "doc_a": pa.array(np.asarray(a_out, np.int64), pa.int64()),
            "doc_b": pa.array(np.asarray(b_out, np.int64), pa.int64()),
            "jaccard": pa.array(np.asarray(j_out, np.float64), pa.float64()),
        })

    verified = _verify_pairs(
        pairs, [(docs, ["text"]), (sig_ds, ["sig"])], verify_frame)
    return _expand_dup_pairs(verified, members, "jaccard", 1.0)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for uint64 arrays (numpy<2 has no bitwise_count):
    view each word as 8 bytes, unpack to bits, sum."""
    if not len(x):
        return np.array([], dtype=np.int64)
    return np.unpackbits(
        np.ascontiguousarray(x, dtype=np.uint64).view(np.uint8).reshape(-1, 8),
        axis=1,
    ).sum(axis=1).astype(np.int64)


def simhash_near_dup_pairs(
    docs: rd.Dataset,
    max_hamming: int = 8,
    max_bucket: Optional[int] = LSH_MAX_BUCKET,
    expand_dups: bool = True,
) -> rd.Dataset:
    """SimHash near-dup: bucket by each of four 16-bit signature quarters
    (the standard block trick: any pair with <= 3 differing quarters
    collides in >= 1 quarter — exact for max_hamming <= 3, recall < 1 above
    that, which the SQL oracle mirrors), verify Hamming distance on the
    candidate pairs.

    Signatures are computed once per doc and stored; exact-dup texts
    collapse to one representative before pair enumeration and expand back
    after verify (hamming 0 — see :func:`_expand_dup_pairs`); residual hot
    buckets cap at ``max_bucket``. Verify needs signatures only (no text):
    they auto-route — broadcast below ``PAYLOAD_BROADCAST_LIMIT``
    candidates, hash-partitioned pairs ⋈ signature joins above it — into
    one verify kernel (:func:`_verify_pairs`)."""

    def sig_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sigs = [simhash64(t.split()) for t in texts]
        h1, h2 = _text_hash_cols(texts)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "h1": pa.array(h1, pa.int64()),
            "h2": pa.array(h2, pa.int64()),
            "sig": pa.array(sigs, pa.uint64()),
        })

    sig_ds = docs.select_columns(["doc_id", "text"]).map_batches(
        sig_rows, batch_format="pyarrow"
    ).materialize()

    def bucket_rows(batch: pa.Table) -> pa.Table:
        sigs = batch.column("sig").to_numpy(zero_copy_only=False)
        n = len(sigs)
        out_bucket, out_idx = [], []
        for q in range(4):
            quarters = (sigs >> np.uint64(q * 16)) & np.uint64(0xFFFF)
            out_bucket.extend(f"{q}:{int(v):04x}" for v in quarters)
        idx = np.tile(np.arange(n), 4)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)[idx]
        h1 = batch.column("h1").to_numpy(zero_copy_only=False)[idx]
        h2 = batch.column("h2").to_numpy(zero_copy_only=False)[idx]
        return pa.table({
            "bucket": pa.array(out_bucket, pa.string()),
            "doc_id": pa.array(ids, pa.int64()),
            "h1": pa.array(h1, pa.int64()),
            "h2": pa.array(h2, pa.int64()),
        })

    pairs = _candidate_pairs(
        sig_ds.map_batches(bucket_rows, batch_format="pyarrow"),
        "bucket", "doc_id",
        collapse_cols=["h1", "h2"], max_bucket=max_bucket,
    ).materialize()

    members = _dup_members(sig_ds) if expand_dups else None

    def verify_frame(batch: pd.DataFrame) -> pa.Table:
        sa = batch["sig_a"].to_numpy(dtype=np.uint64)
        sb = batch["sig_b"].to_numpy(dtype=np.uint64)
        h = _popcount64(np.bitwise_xor(sa, sb))
        keep = h <= max_hamming
        return pa.table({
            "doc_a": pa.array(
                batch["doc_a"].to_numpy(dtype=np.int64)[keep], pa.int64()),
            "doc_b": pa.array(
                batch["doc_b"].to_numpy(dtype=np.int64)[keep], pa.int64()),
            "hamming": pa.array(h[keep], pa.int64()),
        })

    verified = _verify_pairs(pairs, [(sig_ds, ["sig"])], verify_frame)
    return _expand_dup_pairs(verified, members, "hamming", 0)


def embedding_near_dup_pairs(
    embeddings: rd.Dataset,
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 7,
    max_bucket: int = 8192,
) -> rd.Dataset:
    """Embedding-cosine near-dup: random-hyperplane sign buckets (seed-fixed
    planes broadcast by closure), exact cosine verify inside buckets.

    In-bucket verify is all-pairs, so a hot bucket is quadratic: buckets
    larger than ``max_bucket`` are recursively split with additional
    seed-fixed hyperplanes and verified within sub-buckets only — bounded
    work at a recall cost only for pairs split by the extra planes (small at
    near-dup thresholds, where vectors are nearly parallel)."""
    rng = np.random.RandomState(seed)
    planes = None  # lazily sized from the first batch's dim

    def bucket_rows(batch: pa.Table) -> pa.Table:
        nonlocal planes
        vec_ids = batch.column("vec_id").to_pylist()
        vecs = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float32)
        if planes is None or planes.shape[1] != vecs.shape[1]:
            planes = np.random.RandomState(seed).randn(n_planes, vecs.shape[1]).astype(np.float32)
        signs = (vecs @ planes.T) >= 0
        keys = ["".join("1" if b else "0" for b in row) for row in signs]
        return pa.table({
            "bucket": pa.array(keys, pa.string()),
            "vec_id": pa.array(vec_ids, pa.int64()),
            "embedding": batch.column("embedding"),
        })

    def _verify_rows(ids: np.ndarray, unit: np.ndarray, depth: int,
                     a_out: list, b_out: list, c_out: list) -> None:
        if len(ids) > max_bucket and depth < 6:
            split_planes = np.random.RandomState(
                seed + 101 * (depth + 1)
            ).randn(2, unit.shape[1]).astype(np.float32)
            signs = (unit @ split_planes.T) >= 0
            subkey = signs[:, 0].astype(np.int8) * 2 + signs[:, 1].astype(np.int8)
            for key in range(4):
                mask = subkey == key
                if mask.sum() > 1:
                    _verify_rows(ids[mask], unit[mask], depth + 1,
                                 a_out, b_out, c_out)
            return
        cos = unit @ unit.T
        iu, ju = np.triu_indices(len(ids), k=1)
        hits = cos[iu, ju] >= threshold
        for i, j, c in zip(iu[hits], ju[hits], cos[iu, ju][hits]):
            a_out.append(int(ids[i]))
            b_out.append(int(ids[j]))
            c_out.append(round(float(c), 6))

    def verify(part: pd.DataFrame) -> pa.Table:
        a_out, b_out, c_out = [], [], []
        for _bucket, group in part.groupby("bucket", sort=False):
            rows = group.drop_duplicates("vec_id").sort_values("vec_id")
            ids = rows["vec_id"].to_numpy(dtype=np.int64)
            vecs = np.asarray(rows["embedding"].tolist(), dtype=np.float32)
            norms = np.linalg.norm(vecs, axis=1)
            norms[norms == 0] = 1.0
            _verify_rows(ids, vecs / norms[:, None], 0, a_out, b_out, c_out)
        order = sorted(range(len(a_out)), key=lambda i: (a_out[i], b_out[i]))
        return pa.table({
            "vec_a": pa.array([a_out[i] for i in order], pa.int64()),
            "vec_b": pa.array([b_out[i] for i in order], pa.int64()),
            "cosine": pa.array([c_out[i] for i in order], pa.float64()),
        })

    from .relational import partition_map_groups

    return partition_map_groups(
        embeddings.select_columns(["vec_id", "embedding"])
        .map_batches(bucket_rows, batch_format="pyarrow"),
        "bucket", verify)


def drop_near_dup_docs(
    docs: rd.Dataset,
    pairs: rd.Dataset,
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Near-dup COLLAPSE: drop every pair's larger id (``doc_b``; pairs are
    a < b, so the smaller id is the kept representative).

    One left anti :func:`relational.hash_join` of the docs with the
    pairs' ``doc_b`` ids (broadcast while they fit one exchange bucket,
    exchanged above; never on the driver) keeps exactly one row per
    surviving id, however many pairs name a dropped id."""
    from .relational import hash_join

    dup_ids = pairs.map_batches(
        lambda t: t.select(["doc_b"]).rename_columns([id_col]),
        batch_format="pyarrow")
    return hash_join(docs, dup_ids, on=[id_col], join_type="left_anti")


def ngram_jaccard_pairs(
    docs: rd.Dataset,
    threshold: float = 0.5,
    gram_n: int = 3,
    max_bucket: Optional[int] = LSH_MAX_BUCKET,
    expand_dups: bool = True,
) -> rd.Dataset:
    """EXACT n-gram Jaccard near-duplicate pairs (doc_a < doc_b, word
    n-gram Jaccard >= threshold) — the set-similarity join the LSH
    families approximate, made scale-safe by PREFIX FILTERING
    (AllPairs/PPJoin): in a global gram order (the md5 gram hash), two
    docs with Jaccard >= t MUST share one of each other's first
    ``n - ceil(t*n) + 1`` grams, so only that prefix is ever indexed —
    at t=0.5 the inverted-index shuffle carries ~half of each doc's
    grams, and recall is 100% by construction (no bands, no sketches).

    Staging (mirrors the MinHash/SimHash pair operators):
      1. one gram pass per doc: sorted distinct md5-64 gram hashes,
         prefix slice emitted as (gram, doc_id, exact-text hash pair);
      2. ``_candidate_pairs`` over gram buckets — exact-dup texts
         collapse to one representative (identical texts share every
         prefix gram) and degenerate hot grams cap at ``max_bucket``
         with a logged drop (a cap that never binds below ~4k distinct
         near-identical texts sharing one rare gram);
      3. candidates dedup, payloads (texts only) auto-route by count:
         broadcast below ``PAYLOAD_BROADCAST_LIMIT``, hash-partitioned
         pairs ⋈ text joins above it;
      4. exact word-shingle Jaccard verify — zero false positives AND
         zero false negatives (modulo the logged cap);
      5. verified representative pairs expand back to member pairs.

    Fully SQL-twinnable: gram hash = DuckDB ``md5_number_upper``, the
    prefix rank = ``row_number() OVER (PARTITION BY doc ORDER BY g)``,
    verify = ``list_intersect`` Jaccard (see ``__ray_entry__``'s
    ``docs_ngram_jaccard`` oracle)."""
    import math

    from ..functions.hashing import token_hash64_md5

    def prefix_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        doc_ids = batch.column("doc_id").to_pylist()
        h1, h2 = _text_hash_cols(texts)
        out_g: List[int] = []
        out_id: List[int] = []
        oh1: List[int] = []
        oh2: List[int] = []
        out_sz: List[int] = []
        out_pos: List[int] = []
        for doc_id, t, a, b in zip(doc_ids, texts, h1, h2):
            grams = word_shingles(t.split(), gram_n)
            if not grams:
                continue
            hs = np.sort(np.fromiter(
                (token_hash64_md5(g) for g in grams),
                dtype=np.uint64, count=len(grams)))
            p = len(hs) - int(math.ceil(threshold * len(hs))) + 1
            for pos, gv in enumerate(hs[:p]):
                out_g.append(int(gv))
                out_id.append(doc_id)
                oh1.append(int(a))
                oh2.append(int(b))
                out_sz.append(len(hs))
                out_pos.append(pos)
        return pa.table({
            "g": pa.array(out_g, pa.uint64()),
            "doc_id": pa.array(out_id, pa.int64()),
            "h1": pa.array(oh1, pa.int64()),
            "h2": pa.array(oh2, pa.int64()),
            "sz": pa.array(out_sz, pa.int32()),
            "pos": pa.array(out_pos, pa.int32()),
        })

    def ppjoin_filter(A: dict, B: dict) -> np.ndarray:
        """PPJoin length + positional pruning (Xiao et al.): Jaccard >= t
        needs overlap O >= ceil(t/(1+t) * (|x|+|y|)); at a shared gram g,
        O <= 1 + min(grams of x after g, grams of y after g). The bound is
        exact at the pair's MINIMAL common gram — which the prefix scheme
        guarantees sits in both prefixes — so a qualifying pair always
        survives at that site and recall stays 100% (the pair set is the
        union over sites). Tighter sites may prune their own copy of the
        pair; that only removes duplicates. Epsilon guards keep FP rounding
        from pruning exact-boundary pairs."""
        sa = A["sz"].astype(np.float64)
        sb = B["sz"].astype(np.float64)
        alpha = np.ceil(threshold / (1.0 + threshold) * (sa + sb) - 1e-9)
        ub = 1.0 + np.minimum(sa - A["pos"] - 1, sb - B["pos"] - 1)
        len_ok = (np.minimum(sa, sb)
                  >= threshold * np.maximum(sa, sb) - 1e-9)
        return (len_ok & (ub >= alpha)).to_numpy() \
            if hasattr(len_ok, "to_numpy") else (len_ok & (ub >= alpha))

    docs = docs.select_columns(["doc_id", "text"])
    prefix_ds = docs.map_batches(prefix_rows, batch_format="pyarrow")

    pairs = _candidate_pairs(
        prefix_ds, "g", "doc_id",
        collapse_cols=["h1", "h2"], max_bucket=max_bucket,
        filter_cols=["sz", "pos"], pair_filter=ppjoin_filter,
    ).materialize()

    def key_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        h1, h2 = _text_hash_cols(texts)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "h1": pa.array(h1, pa.int64()),
            "h2": pa.array(h2, pa.int64()),
        })

    members = (_dup_members(docs.map_batches(key_rows,
                                             batch_format="pyarrow"))
               if expand_dups else None)

    def verify_frame(batch: pd.DataFrame) -> pa.Table:
        a_out, b_out, j_out = [], [], []
        for a, b, ta, tb in zip(batch["doc_a"], batch["doc_b"],
                                batch["text_a"], batch["text_b"]):
            jac = jaccard(_word_shingles_cached(ta, gram_n),
                          _word_shingles_cached(tb, gram_n))
            if jac >= threshold:
                a_out.append(a)
                b_out.append(b)
                j_out.append(float(round_half_away(jac, 6)))
        return pa.table({
            "doc_a": pa.array(np.asarray(a_out, np.int64), pa.int64()),
            "doc_b": pa.array(np.asarray(b_out, np.int64), pa.int64()),
            "jaccard": pa.array(np.asarray(j_out, np.float64),
                                pa.float64()),
        })

    verified = _verify_pairs(pairs, [(docs, ["text"])], verify_frame)
    return _expand_dup_pairs(verified, members, "jaccard", 1.0)


def _star_round(D: rd.Dataset, large: bool) -> rd.Dataset:
    """One large-star or small-star contraction over undirected edges (a<b).

    large-star(x): m = min(N(x) ∪ {x}); connect every LARGER neighbor to m.
    small-star(x): over smaller neighbors only; m = min(N⁻(x)); connect
    every y ∈ N⁻(x) ∪ {x} (≠ m) to m. Both emit (a=m, b=other) with m < other,
    preserving the a<b invariant. Directed edge rows go through one
    :func:`relational.partition_map_groups` exchange on the center, so each
    round is a bounded number of vectorized pandas groups (transform('min')
    per center), never one group per node.
    """
    from .relational import partition_map_groups

    def directed(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_pylist()
        b = batch.column("b").to_pylist()
        if large:
            xs, ys = a + b, b + a
        else:
            xs, ys = b, a  # center = larger endpoint
        return pa.table({
            "x": pa.array(xs, pa.string()),
            "y": pa.array(ys, pa.string()),
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

    return partition_map_groups(
        D.map_batches(directed, batch_format="pyarrow"), "x", star)


def _star_components(D: rd.Dataset, max_rounds: int = 64) -> rd.Dataset:
    """Alternate large/small star until the canonical edge set is stable.
    Returns the converged star forest (every non-root connected straight to
    its component's minimal label, the root)."""
    from ray.data.aggregate import Count

    prev_sig = None
    for _ in range(max_rounds):
        D2 = _star_round(_star_round(D, True), False)
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


def near_dup_clusters(
    docs: rd.Dataset,
    pairs: rd.Dataset,
) -> rd.Dataset:
    """Connected components over a near-duplicate pair graph: every doc gets
    ``cluster_id`` = the smallest doc_id reachable through the pairs
    (singletons map to themselves) — the canonical duplicate-cluster
    assignment that turns pairwise dedup output into per-doc labels.

    Components run through the large/small-star contraction
    (:func:`_star_components`, Kiveris et al.; converges in ~6 alternations
    on chained components vs 24 for plain label propagation) over
    zero-padded id labels, so lexicographic min == numeric min and the a<b
    edge invariant carries over from the pair tables. The resulting star
    forest (root -> member rows) attaches to the docs stream with one left
    :func:`relational.hash_join` on the doc id (broadcast while it fits
    one exchange bucket) — docs never materialize on the driver."""
    from .relational import hash_join

    def enc(batch: pa.Table) -> pa.Table:
        a = ["%020d" % x for x in batch.column("doc_a").to_pylist()]
        b = ["%020d" % x for x in batch.column("doc_b").to_pylist()]
        return pa.table({"a": pa.array(a, pa.string()),
                         "b": pa.array(b, pa.string())})

    ids_only = pairs.map_batches(
        lambda t: t.select(["doc_a", "doc_b"]), batch_format="pyarrow")
    forest = _star_components(
        ids_only.map_batches(enc, batch_format="pyarrow"))

    def dec(batch: pa.Table) -> pa.Table:
        roots = [int(x) for x in batch.column("a").to_pylist()]
        members = [int(x) for x in batch.column("b").to_pylist()]
        return pa.table({
            "doc_id": pa.array(members, pa.int64()),
            "cluster_id": pa.array(roots, pa.int64()),
        })

    joined = hash_join(docs.select_columns(["doc_id"]),
                       forest.map_batches(dec, batch_format="pyarrow"),
                       on=["doc_id"], join_type="left_outer")

    def finish(batch: pd.DataFrame) -> pa.Table:
        # an empty forest has no schema, so it joins as the key column only
        root = batch.get("cluster_id", batch["doc_id"])
        return pa.table({
            "doc_id": pa.array(batch["doc_id"].to_numpy(), pa.int64()),
            "cluster_id": pa.array(
                root.fillna(batch["doc_id"]).astype("int64").to_numpy(),
                pa.int64()),
        })

    return joined.map_batches(finish, batch_format="pandas")


def dup_window_stats(
    docs: rd.Dataset,
    k: int = 5,
) -> rd.Dataset:
    """Exact substring-duplication scoring (the Lee et al. 2022
    "Deduplicating Training Data Makes Language Models Better"
    exact-substring family, at word granularity): for every document, how
    many of its ``k``-token windows occur at least TWICE anywhere in the
    corpus (including a second time inside the same document) — the signal
    used to strip memorization-prone boilerplate before training.

    Output: one row per document with >= 1 window —
    ``(doc_id, n_windows, n_dup, dup_fraction)`` where ``dup_fraction`` is
    rounded to 6 decimals for the SQL value-hash twin.

    Plan (three bounded stages, no all-pairs anywhere):

    1. One streaming doc scan emits per-(doc, window) occurrence counts —
       windows leave the scan as 64-bit siphashes (:func:`hash64_vec`), so
       the shuffle moves 16 bytes per DISTINCT window per doc, never window
       text. (Collision boundary: 64-bit birthday collisions become likely
       around 10^9-10^10 distinct windows; past that swap ``hash64_vec``
       for a 128-bit digest here — one line, nothing downstream changes.)
    2. Window hashes co-partition through
       :func:`relational.partition_map_groups`; each partition computes
       corpus totals for its windows locally (one vectorized ``transform``)
       and folds to per-(doc, partition) partials ``(n_pos, n_dup)``.
       A pathologically hot WINDOW costs only its own occurrence rows —
       totals are a sum, not an enumeration.
    3. Partials (<= one row per doc and partition) combine per doc through
       :func:`relational.partition_map_groups` — doc cardinality is
       O(corpus), so the high-cardinality one-shuffle plan applies, not a
       map-side pre-agg.
    """
    from .relational import partition_map_groups, to_arrow

    def window_counts(batch: pd.DataFrame) -> pa.Table:
        doc_ids: List[int] = []
        wins: List[str] = []
        cs: List[int] = []
        for did, text in zip(batch["doc_id"].to_numpy(), batch["text"]):
            toks = text.split()
            m = len(toks) - k + 1
            if m < 1:
                continue
            counts: dict = {}
            for i in range(m):
                w = " ".join(toks[i: i + k])
                counts[w] = counts.get(w, 0) + 1
            doc_ids.extend([did] * len(counts))
            wins.extend(counts.keys())
            cs.extend(counts.values())
        wh = hash64_vec(np.asarray(wins, dtype=object)) if wins else \
            np.empty(0, dtype=np.uint64)
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "wh": pa.array(wh.astype(np.int64), pa.int64()),
            "c": pa.array(cs, pa.int64()),
        })

    def mark_dups(g: pd.DataFrame) -> pa.Table:
        totals = g.groupby("wh", sort=False)["c"].transform("sum")
        dup_c = np.where(totals.to_numpy() >= 2, g["c"].to_numpy(), 0)
        out = (g.assign(dup_c=dup_c)
               .groupby("doc_id", sort=False, as_index=False)
               .agg(n_pos=("c", "sum"), n_dup=("dup_c", "sum")))
        return to_arrow(out)

    def per_doc(g: pd.DataFrame) -> pa.Table:
        agg = (g.groupby("doc_id", sort=False, as_index=False)
               .agg(n_windows=("n_pos", "sum"), n_dup=("n_dup", "sum")))
        frac = agg["n_dup"].to_numpy() / agg["n_windows"].to_numpy()
        return pa.table({
            "doc_id": pa.array(agg["doc_id"].to_numpy(), pa.int64()),
            "n_windows": pa.array(agg["n_windows"].to_numpy(), pa.int64()),
            "n_dup": pa.array(agg["n_dup"].to_numpy(), pa.int64()),
            "dup_fraction": pa.array(
                [round_half_away(float(f), 6) for f in frac], pa.float64()),
        })

    counts = docs.map_batches(window_counts, batch_format="pandas")
    partials = partition_map_groups(counts, "wh", mark_dups)
    return partition_map_groups(partials, "doc_id", per_doc)


def _lev_le1(a: str, b: str) -> bool:
    """Exact edit-distance <= 1 check in O(len) (no DP): equal length ->
    at most one substitution; length gap 1 -> one insertion."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return False
                seen = True
        return True
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def token_typo_pairs(
    tokens: rd.Dataset,
) -> rd.Dataset:
    """SymSpell-style fuzzy token matching: all pairs of DISTINCT tokens at
    edit distance exactly 1 (one substitution, insertion or deletion) —
    the typo-clustering primitive for vocabulary normalization.

    Recall is 100% without any all-pairs scan: two tokens at distance 1
    always share a 1-deletion variant (substitution: delete the differing
    char from each; insertion: the shorter token IS a variant of the
    longer), so fanning each token out to itself + its ``len`` deletion
    variants and pairing within variant buckets enumerates a superset,
    verified by an O(len) distance check. Variant buckets are
    vocabulary-bounded and tiny (tokens sharing a deletion), so the
    per-bucket loop inside each :func:`relational.partition_map_groups`
    partition is the same bounded plan as the canonicalization band
    blocks.

    Input: a Dataset with a ``token`` column of DISTINCT tokens (the
    caller's vocabulary — at corpus scale this is the pre-aggregated
    unigram table, orders of magnitude smaller than the corpus).
    Output: ``(tok_a, tok_b)`` with ``tok_a < tok_b``, globally deduped."""
    from .relational import partition_map_groups

    def variants(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        out_v: List[str] = []
        out_t: List[str] = []
        for t in toks:
            out_v.append(t)
            out_t.append(t)
            for i in range(len(t)):
                out_v.append(t[:i] + t[i + 1:])
                out_t.append(t)
        return pa.table({
            "variant": pa.array(out_v, pa.string()),
            "token": pa.array(out_t, pa.string()),
        })

    def pairs_partition(g: pd.DataFrame) -> pa.Table:
        a_out: List[str] = []
        b_out: List[str] = []
        for _v, grp in g.groupby("variant", sort=False):
            toks = sorted(set(grp["token"]))
            for i in range(len(toks)):
                for j in range(i + 1, len(toks)):
                    if _lev_le1(toks[i], toks[j]):
                        a_out.append(toks[i])
                        b_out.append(toks[j])
        out = pd.DataFrame({"tok_a": a_out, "tok_b": b_out}) \
            .drop_duplicates()
        return pa.table({
            "tok_a": pa.array(out["tok_a"].tolist(), pa.string()),
            "tok_b": pa.array(out["tok_b"].tolist(), pa.string()),
            "pair": pa.array(hash64_pair(out["tok_a"], out["tok_b"]),
                             pa.uint64()),
        })

    def dedup_partition(g: pd.DataFrame) -> pa.Table:
        out = g[["tok_a", "tok_b"]].drop_duplicates()
        return pa.table({
            "tok_a": pa.array(out["tok_a"].tolist(), pa.string()),
            "tok_b": pa.array(out["tok_b"].tolist(), pa.string()),
        })

    pairs = partition_map_groups(
        tokens.map_batches(variants, batch_format="pyarrow"), "variant",
        pairs_partition)
    return partition_map_groups(pairs, "pair", dedup_partition)
