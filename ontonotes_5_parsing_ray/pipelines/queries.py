"""Named query implementations over the testdata tables.

Each function takes ``sf_dir`` (a directory of Parquet tables: region nation
customer supplier part orders lineitem events documents embeddings) and
returns a Dataset / DataFrame whose column NAMES match the DuckDB oracle SQL
in ``__ray_entry__.oracle_sql`` exactly (the driver sorts columns by name
and value-hashes). Floats are rounded identically on both sides.

Scale discipline per query is noted in its docstring: what is broadcast,
what shuffles, what stays streaming.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.rounding import round_half_away
from ..stages.ann import knn_bruteforce, label_centroids
from ..stages.dedup import (
    exact_dedup,
    minhash_near_dup_pairs,
    near_dup_clusters,
    ngram_jaccard_pairs,
    simhash_near_dup_pairs,
)
from ..stages.relational import (
    broadcast_join,
    broadcast_semi_join,
    distributed_topk,
    hash_join,
    preagg_groupby,
    preagg_groupby_ds,
    sessionize_events,
    sessionize_events_salted,
    topk,
    windowed_event_counts,
)
from ..stages.textstats import TextStats, add_fingerprints, add_langid


def _read(sf_dir: str, table: str, columns=None) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _read_split(sf_dir: str, table: str, columns=None) -> rd.Dataset:
    """Read + repartition to the CPU budget. The sf test tables are single
    row-group parquet files — one read block — so any per-doc Python stage
    fed directly from the read runs as ONE task. Queries whose first stage
    is doc-loop-heavy (signature passes, shingle hashing) split the block
    first; the repartition is a sub-second no-op at test scales and real
    multi-shard inputs at 100 TB arrive pre-blocked (operators themselves
    never force a repartition on caller datasets)."""
    from ..stages.util import pool_size

    return _read(sf_dir, table, columns).repartition(pool_size(32, reserve=2))


def _table_row_count(sf_dir: str, table: str) -> int:
    """Row count from parquet FILE metadata — no data read, no execution.
    Used as the cheap routing signal for broadcast-vs-join decisions."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(
        os.path.join(sf_dir, f"{table}.parquet")).metadata.num_rows


def _read_pdf(sf_dir: str, table: str, columns=None) -> pd.DataFrame:
    import pyarrow.parquet as pq

    return pq.read_table(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    ).to_pandas()


# --------------------------------------------------------------------------
# Relational
# --------------------------------------------------------------------------

def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q1-style pricing summary. Streaming lineitem scan with a
    per-batch partial aggregate; the final combine handles vocabulary-sized
    partials (no row-level shuffle)."""
    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount"])

    def with_disc(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(batch.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        return batch.append_column("l_disc_price", disc)

    out = preagg_groupby(
        li.map_batches(with_disc, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("l_quantity", "sum"),
            "sum_base_price": ("l_extendedprice", "sum"),
            "sum_disc_price": ("l_disc_price", "sum"),
            "n_rows": ("l_quantity", "count"),
        },
    )
    out["avg_qty"] = round_half_away((out["sum_qty"] / out["n_rows"]).to_numpy(), 4)
    for col in ("sum_qty", "sum_base_price", "sum_disc_price"):
        out[col] = round_half_away(out[col].to_numpy(), 2)
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def q3_top_orders(sf_dir: str) -> pd.DataFrame:
    """Revenue of BUILDING-segment orders. Only the true dimension (customer)
    is driver-resident: its BUILDING key set is broadcast to semi-join the
    orders STREAM. Lineitem ⋈ the qualifying orderkeys is one
    :func:`hash_join`, which broadcasts the keys while they fit one
    exchange bucket (lineitem joins map-side, no join shuffle) and
    exchanges both facts above that. The per-order revenue sum is the
    one-shuffle ``partition_map_groups`` plan — orderkeys are O(rows), so
    map-side pre-agg shrinks only ~the lineitem fan-out and its combine
    re-shuffles nearly everything (the documented high-cardinality
    anti-pattern) — with the top-10 cut INSIDE the kernel: only
    ``partitions x 10`` rows ever reach the driver."""
    from ..stages.relational import partition_map_groups, to_arrow
    cust = _read_pdf(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    building = set(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    orders_f = broadcast_semi_join(orders, building, "o_custkey").map_batches(
        lambda t: t.select(["o_orderkey"]).rename_columns(["l_orderkey"]),
        batch_format="pyarrow",
    )
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])
    joined = hash_join(li, orders_f, on=["l_orderkey"])

    def revenue_col(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["revenue"] = (batch["l_extendedprice"]
                            * (1.0 - batch["l_discount"]))
        return batch[["l_orderkey", "revenue"]]

    def sum_round_top(g: pd.DataFrame) -> pa.Table:
        s = g.groupby("l_orderkey", as_index=False)["revenue"].sum()
        s["revenue"] = round_half_away(s["revenue"].to_numpy(), 2)
        return to_arrow(
            s.sort_values(["revenue", "l_orderkey"],
                          ascending=[False, True], kind="mergesort")
            .head(10))

    partials = partition_map_groups(
        joined.map_batches(revenue_col, batch_format="pandas"),
        "l_orderkey", sum_round_top,
    ).to_pandas()   # <= partitions x 10 rows
    return (partials.sort_values(["revenue", "l_orderkey"],
                                 ascending=[False, True], kind="mergesort")
            .head(10).reset_index(drop=True)[["l_orderkey", "revenue"]])


def q5_nation_revenue(sf_dir: str) -> pd.DataFrame:
    """Revenue by customer nation. The dimension chain region<-nation<-
    customer is prejoined on the driver (dimensions only) and broadcast to
    the streaming orders scan; orders ⋈ lineitem is one :func:`hash_join`
    (a broadcast orderkey -> n_name side while it fits one exchange
    bucket, both facts exchanged above) — the orders fact never touches
    the driver."""
    nation = _read_pdf(sf_dir, "nation")
    region = _read_pdf(sf_dir, "region")
    cust = _read_pdf(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey") \
              .merge(region, left_on="n_regionkey", right_on="r_regionkey")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    ords = broadcast_join(
        orders,
        dim[["c_custkey", "n_name"]].rename(columns={"c_custkey": "o_custkey"}),
        on=["o_custkey"],
    ).map_batches(
        lambda t: t.select(["o_orderkey", "n_name"]).rename_columns(
            ["l_orderkey", "n_name"]),
        batch_format="pyarrow",
    )
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])
    joined = hash_join(li, ords, on=["l_orderkey"])

    def rev(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["revenue"] = (batch["l_extendedprice"]
                            * (1.0 - batch["l_discount"]))
        return batch[["n_name", "revenue"]]

    agg = preagg_groupby(
        joined.map_batches(rev, batch_format="pandas"),
        ["n_name"], {"revenue": ("revenue", "sum")},
    )
    agg["revenue"] = round_half_away(agg["revenue"].to_numpy(), 2)
    return agg.sort_values("n_name").reset_index(drop=True)


def q10_returned_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q10 shape: top-20 customers by revenue lost to returned
    items. Fact side: lineitem filtered to returns at the scan ⋈ orders
    (one :func:`hash_join`: orders broadcast while they fit one exchange
    bucket, both facts exchanged above), pre-aggregated to one row per
    customer BEFORE any dimension touch; the customer+nation dimensions
    then attach to the small aggregate, never to the fact stream. Ranking
    uses the rounded revenue (round-before-truncate) so ties break
    identically in SQL."""
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_returnflag"])

    def returns_only(b: pd.DataFrame) -> pa.Table:
        from ..stages.relational import to_arrow
        s = b[b["l_returnflag"] == "R"].copy()
        s["revenue"] = s["l_extendedprice"] * (1.0 - s["l_discount"])
        return to_arrow(s[["l_orderkey", "revenue"]])

    joined = hash_join(
        li.map_batches(returns_only, batch_format="pandas"),
        orders.map_batches(
            lambda t: t.rename_columns(["l_orderkey", "o_custkey"]),
            batch_format="pyarrow"),
        on=["l_orderkey"],
    )
    per_cust = preagg_groupby(joined, ["o_custkey"],
                              {"revenue": ("revenue", "sum")})
    per_cust["revenue"] = round_half_away(
        per_cust["revenue"].to_numpy(np.float64), 2)
    top = per_cust.sort_values(
        ["revenue", "o_custkey"], ascending=[False, True],
        kind="mergesort").head(20)

    cust = _read_pdf(sf_dir, "customer",
                     ["c_custkey", "c_name", "c_nationkey", "c_acctbal"])
    nation = _read_pdf(sf_dir, "nation")
    out = top.merge(cust, left_on="o_custkey", right_on="c_custkey") \
             .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    out = out[["c_custkey", "c_name", "n_name", "c_acctbal", "revenue"]]
    return out.sort_values(
        ["revenue", "c_custkey"], ascending=[False, True],
        kind="mergesort").reset_index(drop=True)


def top_customers(sf_dir: str) -> pd.DataFrame:
    """Top-10 customers by total order price: fully distributed per-customer
    aggregate (high-cardinality at scale) + broadcast name join (customer is
    a dimension) + partial top-k; the driver sees only ``blocks x 10`` rows."""
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    agg = preagg_groupby_ds(orders, ["o_custkey"],
                            {"total_price": ("o_totalprice", "sum")})
    cust = _read_pdf(sf_dir, "customer", ["c_custkey", "c_name"])

    def rounded(batch: pd.DataFrame) -> pa.Table:
        batch = batch.copy()
        batch["total_price"] = round_half_away(batch["total_price"].to_numpy(), 2)
        from ..stages.relational import to_arrow
        return to_arrow(batch.rename(columns={"o_custkey": "c_custkey"}))

    named = broadcast_join(
        agg.map_batches(rounded, batch_format="pandas"),
        cust, on=["c_custkey"],
    )
    return distributed_topk(
        named, ["total_price", "c_custkey"], [False, True], 10,
    )[["c_custkey", "c_name", "total_price"]]


def events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1h windows per event_type (epoch-aligned, partial-merged)."""
    events = _read(sf_dir, "events", columns=["ts", "event_type", "value"])
    return windowed_event_counts(events, 3600)


def events_sessions(sf_dir: str) -> rd.Dataset:
    """Per-user session windows (gap > 30 min starts a new session)."""
    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "value"])
    return sessionize_events(events, 1800)


def events_sessions_salted(sf_dir: str) -> rd.Dataset:
    """The skew-safe two-phase sessionization, checked against the SAME
    oracle SQL as events_sessions — a hot user never forms one giant group."""
    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "value"])
    return sessionize_events_salted(events, 1800)


def events_median_value(sf_dir: str) -> pd.DataFrame:
    """Exact per-type median via the 3-pass histogram-refinement selection
    (no sort, no shuffle of raw values): stats pass -> histogram pass ->
    candidate-bucket fetch. DuckDB median() is the oracle."""
    from ..stages.relational import grouped_median

    events = _read(sf_dir, "events", columns=["event_type", "value"])
    out = grouped_median(events, "event_type", "value")
    out["median_value"] = round_half_away(out["median_value"].to_numpy(), 6)
    return out.sort_values("event_type").reset_index(drop=True)


def events_value_mad(sf_dir: str) -> pd.DataFrame:
    """Robust dispersion: per-type median absolute deviation (MAD), the
    outlier-resistant spread metric — a two-level composition of the exact
    histogram-refinement median: pass 1 computes each type's median, pass 2
    broadcasts those medians into a derived |value - median| column and
    takes ITS median. No sort, no raw-value shuffle anywhere."""
    import ray

    from ..stages.relational import grouped_median, to_arrow

    events = _read(sf_dir, "events", columns=["event_type", "value"])
    med = grouped_median(events, "event_type", "value")
    med_ref = ray.put(dict(zip(med["event_type"], med["median_value"])))

    def abs_dev(b: pd.DataFrame) -> pa.Table:
        m = ray.get(med_ref)
        dev = np.abs(b["value"].to_numpy(np.float64)
                     - b["event_type"].map(m).to_numpy(np.float64))
        return to_arrow(pd.DataFrame({
            "event_type": b["event_type"], "value": dev}))

    mad = grouped_median(
        events.map_batches(abs_dev, batch_format="pandas"),
        "event_type", "value").rename(columns={"median_value": "mad"})
    out = med.merge(mad, on="event_type")
    out["median_value"] = round_half_away(out["median_value"].to_numpy(), 6)
    out["mad"] = round_half_away(out["mad"].to_numpy(), 6)
    return out.sort_values("event_type").reset_index(drop=True)


def events_with_first_event(sf_dir: str, hot_threshold: int = 70) -> rd.Dataset:
    """Skew-aware fact enrichment: every event joined with its user's
    FIRST-ever event type, through ``relational.skew_join`` — users hotter
    than ``hot_threshold`` events broadcast their (tiny) right row and join
    map-side, everyone else takes the normal co-partitioned hash join. At
    sf0.01 (~67 events/user) the threshold splits the users across BOTH
    routes, so the driver check exercises the union. First event = min
    (ts, event_id) per user via one user-hash partition pass."""
    from ..stages.relational import partition_map_groups, skew_join, to_arrow

    events = _read(sf_dir, "events",
                   columns=["event_id", "user_id", "event_type", "ts"])

    def prep(b: pd.DataFrame) -> pa.Table:
        return to_arrow(pd.DataFrame({
            "user_id": b["user_id"], "event_id": b["event_id"],
            "event_type": b["event_type"],
            "us": b["ts"].to_numpy().astype("datetime64[us]")
            .astype(np.int64)}))

    def first_kernel(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        f = g.drop_duplicates("user_id", keep="first")
        return to_arrow(pd.DataFrame({
            "user_id": f["user_id"],
            "first_type": f["event_type"]}))

    firsts = partition_map_groups(
        events.map_batches(prep, batch_format="pandas"),
        "user_id", first_kernel)
    left = events.select_columns(["event_id", "user_id", "event_type"])
    return skew_join(left, firsts, on="user_id",
                     left_cols=["event_id", "user_id", "event_type"],
                     right_cols=["user_id", "first_type"],
                     hot_threshold=hot_threshold)


def events_value_winsorized(sf_dir: str) -> pd.DataFrame:
    """Winsorized per-type aggregates: values clipped to their type's exact
    [p05, p95] before summing — the outlier-robust aggregate curation
    pipelines use instead of raw sums. Composition: one exact
    histogram-refinement quantile pass (both bounds in ONE pass),
    broadcast bounds, then a streaming clip + mergeable sum/count."""
    import ray

    from ..stages.relational import grouped_quantiles, to_arrow

    events = _read(sf_dir, "events", columns=["event_type", "value"])
    qs = grouped_quantiles(events, "event_type", "value",
                           qs=(0.05, 0.95), col_names=["p05", "p95"])
    lo_ref = ray.put(dict(zip(qs["event_type"], qs["p05"])))
    hi_ref = ray.put(dict(zip(qs["event_type"], qs["p95"])))

    def clip(b: pd.DataFrame) -> pa.Table:
        lo = b["event_type"].map(ray.get(lo_ref)).to_numpy(np.float64)
        hi = b["event_type"].map(ray.get(hi_ref)).to_numpy(np.float64)
        v = np.minimum(np.maximum(b["value"].to_numpy(np.float64), lo), hi)
        return to_arrow(pd.DataFrame({"event_type": b["event_type"],
                                      "value": v}))

    agg = preagg_groupby(
        events.map_batches(clip, batch_format="pandas"),
        ["event_type"], {"n_events": ("value", "count"),
                         "wsum": ("value", "sum")})
    out = qs.merge(agg, on="event_type")
    return pd.DataFrame({
        "event_type": out["event_type"],
        "p05": round_half_away(out["p05"].to_numpy(), 6),
        "p95": round_half_away(out["p95"].to_numpy(), 6),
        "n_events": out["n_events"].astype("int64"),
        "winsorized_sum": round_half_away(out["wsum"].to_numpy(), 6),
    }).sort_values("event_type").reset_index(drop=True)


def events_cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix: users grouped by their FIRST-activity week
    (the cohort), counted as retained in each later week they were active —
    the canonical product-analytics rollup. One user-hash shuffle computes
    per-user (cohort_week, active_week distinct set) vectorized inside the
    partition; the combine is the tiny cohorts x offsets grid."""
    from ..stages.relational import partition_map_groups, to_arrow

    events = _read(sf_dir, "events", columns=["user_id", "ts"])

    def prep(b: pd.DataFrame) -> pa.Table:
        weeks = (b["ts"].to_numpy().astype("datetime64[us]")
                 .astype(np.int64) // 1_000_000) // (7 * 86400)
        return to_arrow(pd.DataFrame({"user_id": b["user_id"],
                                      "week": weeks}))

    def retention_kernel(g: pd.DataFrame) -> pa.Table:
        uw = g.drop_duplicates(["user_id", "week"])
        cohort = uw.groupby("user_id", sort=False)["week"].transform("min")
        out = pd.DataFrame({
            "cohort_week": cohort.to_numpy(),
            "week_offset": uw["week"].to_numpy() - cohort.to_numpy(),
            "user_id": uw["user_id"].to_numpy(),
        }).drop_duplicates()
        cnt = (out.groupby(["cohort_week", "week_offset"], as_index=False)
               .size().rename(columns={"size": "n_users"}))
        return to_arrow(cnt)

    parts = partition_map_groups(
        events.map_batches(prep, batch_format="pandas"),
        "user_id", retention_kernel)
    combined = (parts.to_pandas()
                .groupby(["cohort_week", "week_offset"], as_index=False)
                ["n_users"].sum())
    combined = combined.astype({"cohort_week": "int64",
                                "week_offset": "int64",
                                "n_users": "int64"})
    return combined.sort_values(["cohort_week", "week_offset"]) \
        .reset_index(drop=True)


def events_value_outliers(sf_dir: str, n_mads: float = 5.0) -> rd.Dataset:
    """Robust outlier detection: events whose value sits more than
    ``n_mads`` MADs from their type's median — the classic
    median/MAD rule that mean/stddev rules get wrong under heavy tails.
    Composition: the two-level exact-median pass computes (median, MAD)
    per type, both broadcast as a tiny dict, then one streaming filter
    scan. Exact-boundary-safe: both sides derive the identical median and
    MAD (pinned by events_value_mad), so the > comparison agrees."""
    import ray

    from ..stages.relational import grouped_median, to_arrow

    events = _read(sf_dir, "events",
                   columns=["event_id", "event_type", "value"])
    med = grouped_median(events.select_columns(["event_type", "value"]),
                         "event_type", "value")
    med_ref = ray.put(dict(zip(med["event_type"], med["median_value"])))

    def abs_dev(b: pd.DataFrame) -> pa.Table:
        m = ray.get(med_ref)
        dev = np.abs(b["value"].to_numpy(np.float64)
                     - b["event_type"].map(m).to_numpy(np.float64))
        return to_arrow(pd.DataFrame({
            "event_type": b["event_type"], "value": dev}))

    mad = grouped_median(
        events.select_columns(["event_type", "value"])
        .map_batches(abs_dev, batch_format="pandas"),
        "event_type", "value")
    mad_ref = ray.put(dict(zip(mad["event_type"], mad["median_value"])))

    def flag(b: pd.DataFrame) -> pa.Table:
        m = ray.get(med_ref)
        s = ray.get(mad_ref)
        v = b["value"].to_numpy(np.float64)
        dev = np.abs(v - b["event_type"].map(m).to_numpy(np.float64))
        keep = dev > n_mads * b["event_type"].map(s).to_numpy(np.float64)
        out = b[keep]
        return pa.table({
            "event_id": pa.array(out["event_id"].to_numpy(), pa.int64()),
            "event_type": pa.array(out["event_type"].tolist(), pa.string()),
            "value": pa.array(
                round_half_away(out["value"].to_numpy(np.float64), 6),
                pa.float64()),
        })

    return events.map_batches(flag, batch_format="pandas")


def docs_source_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-source Shannon entropy (nats) of the unigram distribution — the
    information-theoretic text-diversity metric. One scan of (source,
    token) map-side partial counts, auto-routed combine, vectorized
    entropy on the vocabulary-sized result."""
    from ..stages.relational import to_arrow

    docs = _read(sf_dir, "documents", columns=["source", "text"])

    def partials(b: pd.DataFrame) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for s, t in zip(b["source"], b["text"]):
            for w in t.split():
                c[(s, w)] += 1
        return to_arrow(pd.DataFrame({
            "source": [s for s, _ in c.keys()],
            "token": [w for _, w in c.keys()],
            "c": list(c.values()),
        }))

    counts = preagg_groupby(
        docs.map_batches(partials, batch_format="pandas"),
        ["source", "token"], {"c": ("c", "sum")})
    out = []
    for src, g in counts.groupby("source", sort=True):
        c = g["c"].to_numpy(np.float64)
        n = c.sum()
        p = c / n
        out.append({"source": src, "n_tokens": int(n),
                    "entropy": round_half_away(
                        float(-(p * np.log(p)).sum()), 6)})
    return pd.DataFrame(out)


def events_session_paths(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Sequential pattern mining: the top-k event-type TRIGRAM paths inside
    user sessions (same 1800 s gap rule and (epoch, event_id) ordering as
    ``events_sessions``) — the 'what do users do next' analysis. One
    ``hash(user) % P`` shuffle; each partition sessionizes and extracts
    consecutive triples with shifted numpy masks (no per-session loop);
    the combine is the tiny type^3 vocabulary."""
    from ..stages.relational import partition_map_groups, to_arrow

    events = _read(sf_dir, "events",
                   columns=["user_id", "event_id", "ts", "event_type"])

    def prep(b: pd.DataFrame) -> pa.Table:
        ep = (b["ts"].to_numpy().astype("datetime64[us]")
              .astype(np.int64) // 1_000_000)
        return to_arrow(pd.DataFrame({
            "user_id": b["user_id"], "event_id": b["event_id"],
            "ep": ep, "event_type": b["event_type"]}))

    def paths(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ep", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        ep = g["ep"].to_numpy()
        t = g["event_type"].to_numpy()
        if len(g) < 3:
            return pa.table({"t1": pa.array([], pa.string()),
                             "t2": pa.array([], pa.string()),
                             "t3": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        new_s = np.empty(len(g), dtype=bool)
        new_s[0] = True
        new_s[1:] = (uid[1:] != uid[:-1]) | ((ep[1:] - ep[:-1]) > 1800)
        sid = np.cumsum(new_s)
        same12 = sid[:-1] == sid[1:]
        ok = same12[:-1] & same12[1:]
        part = pd.DataFrame({"t1": t[:-2][ok], "t2": t[1:-1][ok],
                             "t3": t[2:][ok]})
        cnt = part.groupby(["t1", "t2", "t3"], as_index=False).size() \
            .rename(columns={"size": "n"})
        return to_arrow(cnt)

    parts = partition_map_groups(events.map_batches(prep,
                                                    batch_format="pandas"),
                                 "user_id", paths)
    combined = (parts.to_pandas()
                .groupby(["t1", "t2", "t3"], as_index=False)["n"].sum())
    combined["n"] = combined["n"].astype("int64")
    return topk(combined, by=["n", "t1", "t2", "t3"],
                ascending=[False, True, True, True], k=k)


def docs_source_kl(sf_dir: str) -> pd.DataFrame:
    """Distribution-shift detection: per source, the add-one-smoothed KL
    divergence D(source unigram dist || corpus unigram dist) — the
    domain-drift score curation pipelines use to spot outlier slices.
    Reuses the entropy operator's (source, token) map-side partials; the
    KL sum runs over the FULL vocabulary (absent tokens contribute their
    smoothed mass), vectorized on the vocabulary-sized combine."""
    from ..stages.relational import to_arrow

    docs = _read(sf_dir, "documents", columns=["source", "text"])

    def partials(b: pd.DataFrame) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for s, t in zip(b["source"], b["text"]):
            for w in t.split():
                c[(s, w)] += 1
        return to_arrow(pd.DataFrame({
            "source": [s for s, _ in c.keys()],
            "token": [w for _, w in c.keys()],
            "c": list(c.values()),
        }))

    counts = preagg_groupby(
        docs.map_batches(partials, batch_format="pandas"),
        ["source", "token"], {"c": ("c", "sum")})
    pivot = counts.pivot_table(index="token", columns="source",
                               values="c", fill_value=0.0)
    vocab_v = float(len(pivot))
    corpus_c = pivot.to_numpy(np.float64).sum(axis=1)
    q = (corpus_c + 1.0) / (corpus_c.sum() + vocab_v)
    out = []
    for src in sorted(pivot.columns):
        cs = pivot[src].to_numpy(np.float64)
        p = (cs + 1.0) / (cs.sum() + vocab_v)
        out.append({"source": src, "n_tokens": int(cs.sum()),
                    "kl": round_half_away(
                        float((p * np.log(p / q)).sum()), 6)})
    return pd.DataFrame(out)


def events_value_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-type interpolated quantiles (p25/p50/p75/p90/p99) via the
    generalized histogram-refinement selection — one stats pass, one
    histogram pass, one candidate fetch covers ALL five ranks at once.
    DuckDB quantile_cont() is the oracle (identical SQL-standard
    interpolation arithmetic)."""
    from ..stages.relational import grouped_quantiles

    events = _read(sf_dir, "events", columns=["event_type", "value"])
    names = ["p25", "p50", "p75", "p90", "p99"]
    out = grouped_quantiles(events, "event_type", "value",
                            qs=(0.25, 0.5, 0.75, 0.9, 0.99),
                            col_names=names)
    for c in names:
        out[c] = round_half_away(out[c].to_numpy(), 6)
    return out.sort_values("event_type").reset_index(drop=True)


def events_value_rank(sf_dir: str) -> rd.Dataset:
    """Global ORDER BY + row_number over the whole event stream (rank of
    every event by value, ties broken by event_id) — the total-order
    operator: one native range-partitioned sort, then per-block rank
    attachment from metadata prefix sums (`relational.global_row_number`;
    no second shuffle, nothing row-sized on the driver). Stays a Dataset:
    the result is corpus-sized. Oracle = SQL row_number() itself."""
    from ..stages.relational import global_row_number

    ev = _read(sf_dir, "events", columns=["event_id", "value"])
    return global_row_number(
        ev, by=["value", "event_id"], ascending=[False, True],
        out_col="value_rank", keep_cols=["event_id"],
    ).select_columns(["event_id", "value_rank"])


def events_value_ntile(sf_dir: str, n_tiles: int = 10) -> rd.Dataset:
    """Exact SQL NTILE(n) over the value-ranked event stream — decile
    assignment with DuckDB's remainder semantics (the first ``total % n``
    tiles get one extra row). Composition: `global_row_number` supplies
    the total-order rank (one range-partitioned sort), the total row
    count comes from the same parquet metadata the rank pass used, and
    the tile arithmetic is one vectorized map — nothing new shuffles."""
    from ..stages.relational import global_row_number, to_arrow

    ev = _read(sf_dir, "events", columns=["event_id", "value"])
    total = _table_row_count(sf_dir, "events")
    base, rem = total // n_tiles, total % n_tiles
    cut = rem * (base + 1)   # ranks <= cut live in the (base+1)-sized tiles

    ranked = global_row_number(
        ev, by=["value", "event_id"], ascending=[False, True],
        out_col="value_rank", keep_cols=["event_id"])

    def add_tile(b: pd.DataFrame) -> pa.Table:
        r = b["value_rank"].to_numpy(np.int64)
        tile = np.where(
            r <= cut,
            (r - 1) // (base + 1),
            rem + (r - 1 - cut) // max(base, 1),
        ) + 1
        return to_arrow(pd.DataFrame({
            "event_id": b["event_id"].to_numpy(np.int64),
            "value_decile": tile.astype(np.int64),
        }))

    return ranked.map_batches(add_tile, batch_format="pandas")


def events_user_quantiles(sf_dir: str) -> rd.Dataset:
    """Per-USER exact interpolated quantiles via the Dataset-returning
    surface (`relational.grouped_quantiles_ds`): user ids are O(rows) at
    cluster scale and so is the RESULT — it must never land on the driver,
    so the query stays a streaming Dataset end to end (rounding rides a
    final map_batches). Same SQL-standard interpolation arithmetic as
    `events_value_quantiles`; DuckDB quantile_cont() is the oracle."""
    from ..stages.relational import grouped_quantiles_ds, to_arrow

    events = _read(sf_dir, "events", columns=["user_id", "value"])
    names = ["p50", "p90"]
    out = grouped_quantiles_ds(events, "user_id", "value",
                               qs=(0.5, 0.9), col_names=names)

    def rounded(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        for c in names:
            b[c] = round_half_away(b[c].to_numpy(), 6)
        return to_arrow(b)

    return out.map_batches(rounded, batch_format="pandas")


def events_user_rolling(sf_dir: str) -> rd.Dataset:
    """Per-user rolling 5-event mean of value over the (ts, event_id)
    ordered stream — the ROWS-window aggregate, via one user-hash shuffle
    and a vectorized per-partition rolling kernel. Oracle = the DuckDB
    window function itself."""
    from ..stages.relational import rolling_by_key

    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "value"])
    return rolling_by_key(
        events, "user_id", ["ts", "event_id"], "value", window=5,
        out_col="rolling_avg", keep_cols=["event_id"],
    )


def events_user_gap(sf_dir: str) -> rd.Dataset:
    """Per-user inter-event gap in whole seconds (the LAG window function):
    order each user's stream by (ts, event_id), emit
    ``floor_epoch(ts) - floor_epoch(prev ts)``; each user's first event is
    dropped. One user-hash shuffle + a vectorized ``groupby().shift()`` per
    partition (`stages.relational.lag_by_key`)."""
    from ..stages.relational import lag_by_key, to_arrow

    events = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        # floor-to-second epoch for the gap VALUE; ordering stays on the
        # full-precision ts so sub-second ties break exactly like SQL's
        # ORDER BY ts, event_id
        b["ep_s"] = (b["ts"].astype("datetime64[us]").astype("int64")
                     // 1_000_000)
        return to_arrow(b)

    lagged = lag_by_key(
        events.map_batches(prep, batch_format="pandas"),
        "user_id", ["ts", "event_id"], "ep_s",
        out_col="gap_s", delta=True, keep_cols=["event_id"],
    )

    def finish(b: pd.DataFrame) -> pa.Table:
        b = b[b["gap_s"].notna()].copy()
        b["gap_s"] = b["gap_s"].astype("int64")
        return to_arrow(b[["event_id", "gap_s"]])

    return lagged.map_batches(finish, batch_format="pandas")


def events_user_range_sum(sf_dir: str) -> rd.Dataset:
    """Time-bounded (RANGE-frame) sliding window: for every event, the
    sum of the user's values over the trailing hour INCLUDING ties at the
    same instant (`relational.range_window_sum_by_key` — one key-hash
    shuffle, per-key prefix sums + searchsorted bounds). Values ride as
    fixed-point integer units so distributed summation is exactly the SQL
    window sum."""
    from ..stages.relational import range_window_sum_by_key, to_arrow

    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "value"])

    def prep(b: pd.DataFrame) -> pa.Table:
        out = b.copy()
        out["ep"] = (out["ts"].astype("datetime64[us]").astype("int64")
                     // 1_000_000)
        out["units"] = np.rint(
            out["value"].to_numpy(np.float64) * 10_000).astype(np.int64)
        return to_arrow(out[["event_id", "user_id", "ep", "units"]])

    return range_window_sum_by_key(
        events.map_batches(prep, batch_format="pandas"),
        key_col="user_id", time_col="ep", value_col="units",
        window=3600, out_col="window_units", keep_cols=["event_id"],
    )


def events_user_ewma(sf_dir: str) -> rd.Dataset:
    """Per-user exponentially-weighted value trendline (alpha=0.25): the
    streaming decay recurrence over each user's event history
    (`stages.relational.ewma_by_key`, one key-hash shuffle + C-speed
    grouped recurrence) — per-event output, value-hash-checked against a
    recursive-CTE twin computing the identical IEEE arithmetic."""
    from ..stages.relational import ewma_by_key, to_arrow

    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "value"])

    def prep(b: pd.DataFrame) -> pa.Table:
        out = b.copy()
        out["ep"] = (out["ts"].astype("datetime64[us]").astype("int64")
                     // 1_000_000)
        return to_arrow(out[["event_id", "user_id", "ep", "value"]])

    ew = ewma_by_key(
        events.map_batches(prep, batch_format="pandas"),
        key_col="user_id", order_cols=["ep", "event_id"],
        value_col="value", alpha=0.25,
        keep_cols=["event_id"],
    )

    def finish(b: pd.DataFrame) -> pa.Table:
        out = b[["event_id"]].copy()
        out["ewma"] = round_half_away(b["ewma"].to_numpy(np.float64), 6)
        return to_arrow(out)

    return ew.map_batches(finish, batch_format="pandas")


def events_rollup(sf_dir: str) -> pd.DataFrame:
    """Multi-level GROUPING SETS aggregate in ONE pass over the stream:
    (event_type, hour), (event_type), and grand total, all derived from a
    single map-side partial at the finest level — the coarser levels are
    rolled up from the combined finest table (types × hours — vocabulary-
    sized), never from a second scan. Sentinels: '<all>' / -1 mark the
    rolled-up dimensions, mirroring the SQL twin's coalesced NULLs."""
    from ..stages.relational import to_arrow

    events = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def keyed(b: pd.DataFrame) -> pa.Table:
        ep = b["ts"].astype("datetime64[us]").astype("int64") // 1_000_000
        return to_arrow(pd.DataFrame({
            "event_type": b["event_type"],
            "window_start": (ep // 3600) * 3600,
            "value": b["value"],
        }))

    finest = preagg_groupby(
        events.map_batches(keyed, batch_format="pandas"),
        ["event_type", "window_start"],
        {"n": ("value", "count"), "value_sum": ("value", "sum")},
    )
    by_type = (finest.groupby("event_type", sort=False)
               .agg(n=("n", "sum"), value_sum=("value_sum", "sum"))
               .reset_index())
    by_type["window_start"] = np.int64(-1)
    total = pd.DataFrame({
        "event_type": ["<all>"],
        "window_start": np.array([-1], np.int64),
        "n": [finest["n"].sum()],
        "value_sum": [finest["value_sum"].sum()],
    })
    out = pd.concat([finest, by_type, total], ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out["value_sum"] = round_half_away(
        out["value_sum"].to_numpy(np.float64), 6)
    return out[["event_type", "window_start", "n", "value_sum"]]


def events_pagerank(sf_dir: str) -> pd.DataFrame:
    """Weighted PageRank (5 iterations, d=0.85) over the undirected
    bipartite user↔event_type graph (edge weight = event count) — the
    iterative-algorithm showcase: each round is one distributed
    contributions pass + one combine, rank state auto-routed
    (`stages.graph.pagerank`). Oracle = a recursive-CTE power iteration
    with the identical ``(rank * w) / outdeg`` arithmetic."""
    from ..stages.graph import pagerank
    from ..stages.relational import to_arrow

    events = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def edge_partials(b: pd.DataFrame) -> pa.Table:
        u = "u" + b["user_id"].astype(str)
        t = "t" + b["event_type"].astype(str)
        both = pd.DataFrame({
            "src": pd.concat([u, t], ignore_index=True),
            "dst": pd.concat([t, u], ignore_index=True),
        })
        part = (both.groupby(["src", "dst"], sort=False)
                .size().reset_index(name="w"))
        part["w"] = part["w"].astype("float64")
        return to_arrow(part)

    edges = preagg_groupby_ds(
        events.map_batches(edge_partials, batch_format="pandas"),
        ["src", "dst"], {"w": ("w", "sum")},
    )
    ranks = pagerank(edges, damping=0.85, iterations=5)
    if isinstance(ranks, rd.Dataset):  # join route (not at test scales)
        ranks = ranks.to_pandas()
    ranks["rank"] = round_half_away(ranks["rank"].to_numpy(np.float64), 6)
    return ranks[["node", "rank"]].reset_index(drop=True)


def events_view_then_purchase(sf_dir: str) -> rd.Dataset:
    """Stream-stream interval join: every (view, purchase) pair by the
    same user with the purchase strictly within 30 minutes after the view
    — ALL matches, not just the nearest (`stages.relational.interval_join`:
    window-bucketed co-partition, left side replicated into exactly two
    buckets, vectorized searchsorted kernel emitting only true pairs)."""
    from ..stages.relational import interval_join, to_arrow

    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "event_type"])

    # single-source mode: views and purchases are carved from ONE scan
    # (side 0 = view, side 1 = purchase) instead of reading events twice
    def prep(b: pd.DataFrame) -> pa.Table:
        s = b[b["event_type"].isin(["view", "purchase"])].copy()
        s["ep"] = (s["ts"].astype("datetime64[us]").astype("int64")
                   // 1_000_000)
        s["side"] = np.where(s["event_type"].to_numpy() == "view",
                             np.int8(0), np.int8(1))
        return to_arrow(s[["event_id", "user_id", "ep", "side"]])

    pairs = interval_join(
        events.map_batches(prep, batch_format="pandas"), None,
        key_col="user_id", time_col="ep", window=1800,
    )

    def finish(b: pd.DataFrame) -> pa.Table:
        out = b.rename(columns={"l_id": "view_id", "r_id": "purchase_id"})
        return to_arrow(out[["view_id", "purchase_id"]])

    return pairs.map_batches(finish, batch_format="pandas")


def events_funnel_3step(sf_dir: str, window: int = 3600) -> pd.DataFrame:
    """Three-step funnel (view -> click -> purchase, each step within
    ``window`` seconds of the previous): per-step DISTINCT user counts —
    two chained stream-stream interval joins. Stage 1 runs in
    single-source mode (one event scan); its surviving (click, time)
    rows become stage 2's left side. Step counts are the two-level
    distinct combine each."""
    from ..stages.relational import interval_join, to_arrow

    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "event_type"])

    def carve(kinds, side_of=None):
        def f(b: pd.DataFrame) -> pa.Table:
            s = b[b["event_type"].isin(kinds)].copy()
            s["ep"] = (s["ts"].astype("datetime64[us]").astype("int64")
                       // 1_000_000)
            if side_of is not None:
                s["side"] = np.where(
                    s["event_type"].to_numpy() == side_of,
                    np.int8(0), np.int8(1))
            return to_arrow(
                s[["event_id", "user_id", "ep"]
                  + (["side"] if side_of is not None else [])])
        return events.map_batches(f, batch_format="pandas")

    vc = interval_join(carve(["view", "click"], side_of="view"), None,
                       key_col="user_id", time_col="ep", window=window)

    def clicks_after_views(b: pd.DataFrame) -> pa.Table:
        out = b[["key", "r_id", "r_time"]].drop_duplicates() \
            .rename(columns={"key": "user_id", "r_id": "event_id",
                             "r_time": "ep"})
        return to_arrow(out)

    stage2_left = vc.map_batches(clicks_after_views, batch_format="pandas")
    vcp = interval_join(stage2_left, carve(["purchase"]),
                        key_col="user_id", time_col="ep", window=window)

    def distinct_users(ds: rd.Dataset, col: str) -> int:
        def d(b: pd.DataFrame) -> pa.Table:
            return to_arrow(pd.DataFrame(
                {"u": pd.unique(b[col].to_numpy())}))
        parts = ds.map_batches(d, batch_format="pandas").to_pandas()
        return int(parts["u"].nunique()) if len(parts) else 0

    views = carve(["view"])
    return pd.DataFrame({
        "n_view_users": [distinct_users(views, "user_id")],
        "n_view_click_users": [distinct_users(vc, "key")],
        "n_full_funnel_users": [distinct_users(vcp, "key")],
    }).astype("int64")


def events_user_top_type(sf_dir: str) -> rd.Dataset:
    """Grouped mode (argmax aggregate): each user's most frequent event
    type, ties -> lexicographically smallest type. High-cardinality plan
    (`relational.partition_map_groups`): ONE user-hash shuffle, then a
    single vectorized count+argmax kernel per partition — map-side
    pre-aggregation can't shrink a per-user key space, so the one-pass
    shuffle is the scale route (3.5x faster at 10M rows / 200k users)."""
    from ..stages.relational import partition_map_groups, to_arrow

    events = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def topk_kernel(g: pd.DataFrame) -> pa.Table:
        counts = (g.groupby(["user_id", "event_type"], sort=False)
                  .size().reset_index(name="n"))
        sv = counts.sort_values(["user_id", "n", "event_type"],
                                ascending=[True, False, True],
                                kind="mergesort")
        win = sv.drop_duplicates("user_id")
        out = win[["user_id", "event_type", "n"]].copy()
        out["n"] = out["n"].astype(np.int64)
        return to_arrow(out)

    return partition_map_groups(events, "user_id", topk_kernel)


def events_unique_users_by_type(sf_dir: str) -> pd.DataFrame:
    """Distributed exact COUNT(DISTINCT): unique users per event type.
    High-cardinality plan: ONE user-hash shuffle co-locates every copy of
    a (user,type) pair, each partition dedupes and counts per type at C
    speed, and only 5-row partials reach the driver (one pass over the
    data; the HLL sketch query is the sub-linear alternative)."""
    from ..stages.relational import partition_map_groups, to_arrow

    events = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def distinct_count_kernel(g: pd.DataFrame) -> pa.Table:
        per_type = (g.drop_duplicates(["event_type", "user_id"])
                    .groupby("event_type", sort=False).size()
                    .reset_index(name="n_users"))
        per_type["n_users"] = per_type["n_users"].astype(np.int64)
        return to_arrow(per_type)

    partials = partition_map_groups(
        events, "user_id", distinct_count_kernel).to_pandas()
    out = (partials.groupby("event_type", sort=True)["n_users"].sum()
           .reset_index())
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.reset_index(drop=True)


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def events_user_pivot(sf_dir: str) -> rd.Dataset:
    """Pivot (long -> wide aggregate): one row per user with a count
    column per event type. High-cardinality plan
    (`relational.partition_map_groups`): ONE user-hash shuffle, one
    `pd.crosstab` per partition on the fixed type vocabulary — per-user
    keys can't be pre-aggregated map-side, so the one-pass shuffle wins
    (6x at 10M rows / 200k users vs a partial-combine plan)."""
    from ..stages.relational import partition_map_groups, to_arrow

    events = _read(sf_dir, "events", columns=["user_id", "event_type"])
    cols = [f"n_{t}" for t in _EVENT_TYPES]

    def pivot_kernel(g: pd.DataFrame) -> pa.Table:
        ct = pd.crosstab(g["user_id"], g["event_type"]) \
            .reindex(columns=_EVENT_TYPES, fill_value=0)
        ct.columns = cols
        out = ct.reset_index()
        for c in cols:
            out[c] = out[c].astype(np.int64)
        return to_arrow(out)

    return partition_map_groups(events, "user_id", pivot_kernel)


def events_funnel_conversion(sf_dir: str) -> pd.DataFrame:
    """Funnel composition: of the users who viewed anything, how many
    purchased within 30 minutes of some view — the interval join feeding
    two distinct-user counts (map-side distinct partials, one combine
    each; converters derive from the join's own key column)."""
    from ..stages.relational import interval_join, preagg_groupby_ds, to_arrow

    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "event_type"])

    def prep(b: pd.DataFrame) -> pa.Table:
        s = b[b["event_type"].isin(["view", "purchase"])].copy()
        s["ep"] = (s["ts"].astype("datetime64[us]").astype("int64")
                   // 1_000_000)
        s["side"] = np.where(s["event_type"].to_numpy() == "view",
                             np.int8(0), np.int8(1))
        return to_arrow(s[["event_id", "user_id", "ep", "side"]])

    tagged = events.map_batches(prep, batch_format="pandas") \
        .materialize()  # feeds both the viewer count and the join
    pairs = interval_join(tagged, None, key_col="user_id",
                          time_col="ep", window=1800)

    def distinct_users(ds: rd.Dataset, col: str) -> int:
        def part(b: pd.DataFrame) -> pa.Table:
            return to_arrow(pd.DataFrame(
                {"u": pd.unique(b[col]), "one": np.int64(1)}))

        return preagg_groupby_ds(
            ds.map_batches(part, batch_format="pandas"),
            ["u"], {"one": ("one", "min")}).count()

    def viewers_only(b: pd.DataFrame) -> pa.Table:
        return to_arrow(b[b["side"] == 0][["user_id"]])

    n_viewers = distinct_users(
        tagged.map_batches(viewers_only, batch_format="pandas"),
        "user_id")
    n_converters = distinct_users(pairs, "key")
    rate = round_half_away(
        n_converters / n_viewers if n_viewers else 0.0, 6)
    return pd.DataFrame({
        "n_viewers": pd.Series([n_viewers], dtype="int64"),
        "n_converters": pd.Series([n_converters], dtype="int64"),
        "conversion_rate": pd.Series([rate], dtype="float64"),
    })


def events_purchaser_activity(sf_dir: str) -> pd.DataFrame:
    """Bloom-prefiltered semi join composition: every event of any user
    who ever purchased, counted per type. The purchaser key set streams
    into a mergeable Bloom filter (1 MiB regardless of key count —
    `relational.bloom_semi_join`), the fact scan drops definite
    non-purchasers at ~0 cost, and the exact verify (broadcast set here;
    a hash semi-join at set sizes beyond broadcast) touches only the
    surviving fraction. Exactness restored by the verify: oracle-green."""
    from ..stages.relational import (
        bloom_semi_join, broadcast_semi_join, preagg_groupby, to_arrow,
    )

    events = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def purchasers(b: pd.DataFrame) -> pa.Table:
        return to_arrow(pd.DataFrame({
            "user_id": pd.unique(b[b["event_type"] == "purchase"]
                                 ["user_id"])}))

    keys_ds = events.map_batches(
        purchasers, batch_format="pandas").materialize()
    prefiltered = bloom_semi_join(events, keys_ds, "user_id")
    exact_keys = set(
        u for blk in keys_ds.iter_batches(batch_format="pandas")
        for u in blk["user_id"])
    verified = broadcast_semi_join(prefiltered, exact_keys, "user_id")
    out = preagg_groupby(verified, ["event_type"],
                         {"n_events": ("user_id", "count")})
    out["n_events"] = out["n_events"].astype(np.int64)
    return (out[["event_type", "n_events"]]
            .sort_values("event_type").reset_index(drop=True))


def events_hll_users_by_type(sf_dir: str) -> pd.DataFrame:
    """Approximate COUNT(DISTINCT) via mergeable HyperLogLog sketches —
    the 100 TB path: each batch folds its users into a 4 KB register
    array per event type (`functions.sketches`), partials merge by
    elementwise max (idempotent under re-execution), so the combine moves
    KILOBYTES per group instead of every distinct value. The value hash
    is md5-based (`hll_hashes_md5`), so the register array — and therefore
    the estimate, approximation and all — has an EXACT DuckDB twin
    (md5_number_upper + bin()-length leading-zero rank); the pytest gate
    additionally bounds the error vs the exact two-level combine at
    < 5%."""
    from ..functions.sketches import (
        HLL_M,
        hll_add_hashes,
        hll_estimate,
        hll_hashes_md5,
        hll_new,
    )
    from ..stages.relational import to_arrow

    events = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def sketch_partials(b: pd.DataFrame) -> pa.Table:
        rows = []
        for et, g in b.groupby("event_type", sort=False):
            regs = hll_add_hashes(
                hll_new(), hll_hashes_md5(g["user_id"].to_numpy()))
            rows.append((et, regs.tobytes()))
        return pa.table({
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "regs": pa.array([r[1] for r in rows], pa.binary()),
        })

    partials = events.map_batches(
        sketch_partials, batch_format="pandas")

    # group-hash partition kernel (NOT one map_groups call per group):
    # all of a group's sketches co-locate, each partition merges its
    # groups in one pass — bounded work at millions of groups too
    def merge_kernel(g: pd.DataFrame) -> pa.Table:
        types, ests = [], []
        for et, rows in g.groupby("event_type", sort=False)["regs"]:
            merged = np.zeros(HLL_M, dtype=np.uint8)
            for blob in rows:
                np.maximum(merged, np.frombuffer(blob, dtype=np.uint8),
                           out=merged)
            types.append(et)
            ests.append(int(round(hll_estimate(merged))))
        return to_arrow(pd.DataFrame({
            "event_type": pd.Series(types, dtype=object),
            "n_users_approx": pd.Series(ests, dtype=np.int64),
        }))

    from ..stages.relational import partition_map_groups
    out = partition_map_groups(
        partials, "event_type", merge_kernel).to_pandas()
    out["n_users_approx"] = out["n_users_approx"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


def events_last_purchase(sf_dir: str) -> pd.DataFrame:
    """As-of join showcase: every 'view' event picks up the user's most
    recent prior-or-same-instant 'purchase' (ep + value). Both sides stream
    through one co-partitioned union; each partition runs one vectorized
    ``pd.merge_asof``. Oracle = DuckDB's native ASOF LEFT JOIN."""
    from ..stages.relational import asof_join, to_arrow

    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "event_type", "value"])

    # single-source mode: views (side 0) and purchases (side 1) are carved
    # from ONE scan; wrong-side cells are ignored by the merge kernel.
    # (by, on) purchase ties collapse to max(pvalue) INSIDE the as-of
    # partitions (right_dedup_max) — no pre-aggregation shuffle.
    def prep(batch: pd.DataFrame) -> pa.Table:
        b = batch[batch["event_type"].isin(["view", "purchase"])].copy()
        b["ep"] = (b["ts"].astype("datetime64[us]").astype("int64")
                   // 1_000_000)
        is_view = b["event_type"].to_numpy() == "view"
        b["_side"] = np.where(is_view, np.int8(0), np.int8(1))
        b["pvalue"] = np.where(is_view, np.nan, b["value"])
        b["pep"] = b["ep"].astype("float64")
        return to_arrow(b[["user_id", "ep", "event_id", "value",
                           "pvalue", "pep", "_side"]])

    joined = asof_join(
        events.map_batches(prep, batch_format="pandas"), None,
        by="user_id", on="ep",
        left_cols=["user_id", "ep", "event_id", "value"],
        right_cols=["user_id", "ep", "pvalue", "pep"],
        right_dedup_max="pvalue",
    )

    def finalize(batch: pd.DataFrame) -> pa.Table:
        from ..stages.relational import to_arrow

        out = pd.DataFrame({
            "event_id": batch["event_id"].astype("int64"),
            "user_id": batch["user_id"].astype("int64"),
            "ep": batch["ep"].astype("int64"),
            "last_purchase_ep": batch["pep"].fillna(-1).astype("int64"),
            "last_purchase_value": round_half_away(
                batch["pvalue"].fillna(0.0).to_numpy(), 6),
        })
        return to_arrow(out)

    # per-batch finalize keeps the result a STREAM (O(events) rows must not
    # land on the driver; the compare harness hashes order-insensitively)
    return joined.map_batches(finalize, batch_format="pandas")


def events_session_assignment(sf_dir: str) -> pd.DataFrame:
    """Range (point-in-interval) join: assign every event to its session.

    Composition, not a new primitive: per-user session intervals are
    non-overlapping, so point-in-interval == as-of backward on the interval
    START plus an end-bound filter — one :func:`asof_join` pass. The oracle
    recomputes the sessions CTE and does the BETWEEN join directly."""
    from ..stages.relational import asof_join, sessionize_events_salted

    events = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def point_cols(batch: pd.DataFrame) -> pa.Table:
        from ..stages.relational import to_arrow

        b = batch.copy()
        b["ep"] = (b["ts"].astype("datetime64[us]").astype("int64")
                   // 1_000_000)
        return to_arrow(b[["event_id", "user_id", "ep"]])

    points = events.map_batches(point_cols, batch_format="pandas")
    sessions = sessionize_events_salted(
        _read(sf_dir, "events",
              columns=["event_id", "ts", "user_id", "value"]), 1800
    ).map_batches(
        lambda t: t.select(["user_id", "session_start", "session_idx",
                            "session_end"])
                   .rename_columns(["user_id", "ep", "session_idx",
                                    "session_end"]),
        batch_format="pyarrow",
    )
    joined = asof_join(
        points, sessions, by="user_id", on="ep",
        left_cols=["user_id", "ep", "event_id"],
        right_cols=["user_id", "ep", "session_idx", "session_end"],
    )

    def finalize(batch: pd.DataFrame) -> pa.Table:
        from ..stages.relational import to_arrow

        inside = batch[batch["ep"] <= batch["session_end"]]
        return to_arrow(pd.DataFrame({
            "event_id": inside["event_id"].astype("int64"),
            "user_id": inside["user_id"].astype("int64"),
            "session_idx": inside["session_idx"].astype("int64"),
        }))

    return joined.map_batches(finalize, batch_format="pandas")


# --------------------------------------------------------------------------
# Documents: text analysis + dedup
# --------------------------------------------------------------------------

def docs_exact_dedup(sf_dir: str) -> rd.Dataset:
    return exact_dedup(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def docs_token_stats(sf_dir: str) -> rd.Dataset:
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    from ..stages.util import pool_size

    stats = docs.map_batches(
        TextStats, batch_format="pandas", batch_size=1024,
        concurrency=pool_size(2),
    )
    return stats.select_columns(
        ["doc_id", "n_tokens", "alpha_ratio", "digit_ratio", "stopword_ratio"]
    )


def docs_lang_counts(sf_dir: str) -> pd.DataFrame:
    from .stats import language_frequencies

    return language_frequencies(_read(sf_dir, "documents", columns=["lang"]))


def docs_langid(sf_dir: str) -> rd.Dataset:
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(add_langid, batch_format="pandas").select_columns(
        ["doc_id", "detected_lang"]
    )


def docs_fingerprints(sf_dir: str) -> rd.Dataset:
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(add_fingerprints, batch_format="pandas").select_columns(
        ["doc_id", "text_hash", "fingerprint", "simhash"]
    )


def docs_minhash_pairs(sf_dir: str) -> rd.Dataset:
    return minhash_near_dup_pairs(
        _read_split(sf_dir, "documents", columns=["doc_id", "text"]), threshold=0.35
    )


def docs_ngram_jaccard(sf_dir: str) -> rd.Dataset:
    """EXACT word-trigram Jaccard similarity join (prefix filtering — no
    sketches, 100% recall): the ground-truth the MinHash/SimHash pair
    operators approximate, as its own first-class query."""
    return ngram_jaccard_pairs(
        _read_split(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=0.5, gram_n=3,
    )


def docs_dup_clusters(sf_dir: str) -> rd.Dataset:
    """Duplicate-cluster assignment: connected components (large/small-star
    contraction) over the EXACT n-gram Jaccard pair graph — every doc gets
    cluster_id = min doc_id of its component; singletons map to themselves.
    Oracle = a DuckDB recursive min-label walk over the brute-force pair
    twin."""
    docs = _read_split(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=0.5, gram_n=3)
    return near_dup_clusters(docs, pairs)


def docs_decontaminate(sf_dir: str) -> rd.Dataset:
    """Benchmark decontamination: every corpus document sharing at least
    one word 3-gram with the held-out "benchmark" slice (doc_id % 29 == 0
    stands in for an eval set), with its distinct-overlap count — the
    pre-training hygiene operator (`stages.decontaminate`: auto-routed
    broadcast gram set / gram-hash-partitioned semi-join)."""
    from ..stages.decontaminate import contamination_overlap

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def side(keep_bench: bool):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            m = (b["doc_id"].to_numpy() % 29) == 0
            return b[m if keep_bench else ~m]

        return docs.map_batches(f, batch_format="pandas")

    return contamination_overlap(side(False), side(True), gram_n=3)


def docs_repetition(sf_dir: str) -> rd.Dataset:
    """Within-document repetition scoring (Gopher-rules family): per doc
    the fraction of word-2-gram occurrences taken by the most frequent
    2-gram — one vectorized scan, zero shuffle; docs with <2 tokens are
    dropped (no grams to score)."""
    from ..stages.textstats import add_repetition_score

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def score(b: pd.DataFrame) -> pa.Table:
        out = add_repetition_score(b)
        out = out[out["rep2_ratio"] >= 0.0]
        from ..stages.relational import to_arrow
        return to_arrow(out[["doc_id", "rep2_ratio"]])

    return docs.map_batches(score, batch_format="pandas")


def docs_dup_windows(sf_dir: str) -> rd.Dataset:
    """Exact substring-duplication scoring (Lee et al. exact-substring
    family): per doc, how many of its 5-token windows occur >= 2 times
    anywhere in the corpus, and the duplicated fraction. Windows shuffle as
    64-bit hashes, corpus totals are computed partition-locally, per-doc
    partials combine in one high-cardinality shuffle
    (``stages.dedup.dup_window_stats``)."""
    from ..stages.dedup import dup_window_stats

    return dup_window_stats(
        _read_split(sf_dir, "documents", columns=["doc_id", "text"]), k=5)


def docs_weighted_sample(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Distributed weighted sampling WITHOUT replacement
    (Efraimidis-Spirakis A-ES): each doc gets key ln(u)/w with u a
    deterministic md5-derived uniform and w = n_chars; the global top-k by
    key is an exact weighted sample — longer documents proportionally more
    likely, zero shuffle (blocks x k partial top-k + driver combine), and
    fully SQL-twinnable because u is ``md5_number_upper`` and the key is
    plain IEEE arithmetic on both sides."""
    from ..functions.hashing import token_hash64_md5

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n_chars"] > 0].copy()
        h = np.array([token_hash64_md5(str(d)) for d in b["doc_id"]],
                     dtype=np.uint64)
        u = (h.astype(np.float64) + 0.5) / 18446744073709551616.0
        b["wkey"] = round_half_away(
            np.log(u) / b["n_chars"].to_numpy(np.float64), 9)
        return b[["doc_id", "source", "wkey"]]

    return distributed_topk(
        docs.map_batches(keyed, batch_format="pandas"),
        by=["wkey", "doc_id"], ascending=[False, True], k=k)


def docs_pmi_bigrams(sf_dir: str, min_count: int = 5, k: int = 20) -> pd.DataFrame:
    """Collocation mining: top-k adjacent token bigrams by pointwise mutual
    information, among bigrams seen >= min_count times. One streaming scan
    emits per-batch bigram and unigram partial counts (map-side combine);
    the bigram combine stays a distributed Dataset (open vocabulary — it
    never touches the driver), only the bounded unigram slice broadcasts;
    scoring is per-batch and the top-k is blocks x k. Rounded to 6
    decimals for the SQL twin."""
    from ..stages.relational import to_arrow

    docs = _read(sf_dir, "documents", columns=["text"])

    def gram_partials(b: pd.DataFrame) -> pa.Table:
        from collections import Counter
        uni: Counter = Counter()
        bi: Counter = Counter()
        for t in b["text"]:
            toks = t.split()
            uni.update(toks)
            bi.update(zip(toks, toks[1:]))
        return to_arrow(pd.DataFrame({
            "w1": ([w for w, _ in bi.keys()] + [w for w in uni.keys()]),
            "w2": ([w for _, w in bi.keys()] + [""] * len(uni)),
            "c": (list(bi.values()) + list(uni.values())),
        }))

    import ray

    from ..stages.relational import partition_map_groups

    # combined (w1, w2) combine stays a Dataset: the BIGRAM key space is
    # open-vocabulary (O(corpus) distinct pairs at web scale) and never
    # touches the driver; only the unigram slice (bounded vocabulary) is
    # collected and broadcast for the PMI arithmetic. The combine is the
    # one-shuffle high-cardinality plan partitioned on w1 (co-locates
    # every (w1, *) key) — the sort-aggregate combine measured 79 s vs
    # ~15 s at 200k docs / ~6M distinct bigrams.
    def sum_kernel(g: pd.DataFrame) -> pa.Table:
        from ..stages.relational import to_arrow as _t
        return _t(g.groupby(["w1", "w2"], as_index=False)["c"].sum())

    counts = partition_map_groups(
        docs.map_batches(gram_partials, batch_format="pandas"),
        "w1", sum_kernel).materialize()
    from ..stages.relational import to_arrow as _ta

    uni = counts.map_batches(
        lambda b: _ta(b[b["w2"] == ""][["w1", "c"]]),
        batch_format="pandas").to_pandas()
    n_tokens = float(uni["c"].sum())
    uc_ref = ray.put(dict(zip(uni["w1"], uni["c"].astype(float))))

    def score(b: pd.DataFrame) -> pa.Table:
        uc = ray.get(uc_ref)
        bi = b[(b["w2"] != "") & (b["c"] >= min_count)].copy()
        if not len(bi):
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "n_pair": pa.array([], pa.int64()),
                             "pmi": pa.array([], pa.float64())})
        c1 = bi["w1"].map(uc).to_numpy(np.float64)
        c2 = bi["w2"].map(uc).to_numpy(np.float64)
        c12 = bi["c"].to_numpy(np.float64)
        return pa.table({
            "w1": pa.array(bi["w1"].tolist(), pa.string()),
            "w2": pa.array(bi["w2"].tolist(), pa.string()),
            "n_pair": pa.array(bi["c"].to_numpy(np.int64), pa.int64()),
            "pmi": pa.array(round_half_away(
                np.log(c12 * n_tokens / (c1 * c2)), 6), pa.float64()),
        })

    scored = counts.map_batches(score, batch_format="pandas")
    return distributed_topk(scored, by=["pmi", "w1", "w2"],
                            ascending=[False, True, True], k=k)


def docs_frequent_pairs(sf_dir: str, min_support: int = 20, k: int = 20) -> pd.DataFrame:
    """Frequent itemset mining, A-priori level 2: the top-k token PAIRS
    co-occurring (anywhere, not just adjacent) in >= min_support documents.
    The A-priori pruning step is what keeps it bounded: a pair's support
    <= min(token document frequencies), so only tokens with df >=
    min_support (a distributed combine; the frequent set broadcasts — it
    is vocabulary-bounded BY the support threshold) ever enter per-doc pair
    expansion, and the pair key space is frequent-vocab^2, not corpus-
    sized."""
    import ray

    from ..stages.relational import to_arrow

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def df_partials(b: pd.DataFrame) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for t in b["text"]:
            c.update(set(t.split()))
        return to_arrow(pd.DataFrame({
            "token": list(c.keys()), "c": list(c.values())}))

    dfs = preagg_groupby(
        docs.map_batches(df_partials, batch_format="pandas"),
        ["token"], {"c": ("c", "sum")})
    freq_ref = ray.put(set(dfs[dfs["c"] >= min_support]["token"]))

    def pair_partials(b: pd.DataFrame) -> pa.Table:
        # pair expansion via a C-speed self-merge on doc index (a Python
        # combinations() loop measured ~170 s at 200k docs; this is ~15 s)
        freq = ray.get(freq_ref)
        d_idx: list = []
        toks_out: list = []
        for i, t in enumerate(b["text"]):
            toks = set(t.split()) & freq
            d_idx.extend([i] * len(toks))
            toks_out.extend(toks)
        dt = pd.DataFrame({"d": d_idx, "w": toks_out})
        m = dt.merge(dt, on="d")
        m = m[m["w_x"] < m["w_y"]]
        vc = (m.groupby(["w_x", "w_y"], as_index=False).size()
              .rename(columns={"w_x": "w1", "w_y": "w2",
                               "size": "n_docs"}))
        return to_arrow(vc)

    from ..stages.relational import partition_map_groups

    def support_kernel(g: pd.DataFrame) -> pa.Table:
        s = g.groupby(["w1", "w2"], as_index=False)["n_docs"].sum()
        return to_arrow(s[s["n_docs"] >= min_support])

    # global support sums co-locate on w1 (one shuffle); the >= floor
    # applies inside the kernel so only frequent pairs leave the partition
    pairs = partition_map_groups(
        docs.map_batches(pair_partials, batch_format="pandas"),
        "w1", support_kernel).to_pandas()
    if pairs.empty:
        return pd.DataFrame({"w1": pd.Series(dtype="object"),
                             "w2": pd.Series(dtype="object"),
                             "n_docs": pd.Series(dtype="int64")})
    pairs["n_docs"] = pairs["n_docs"].astype("int64")
    return topk(pairs, by=["n_docs", "w1", "w2"],
                ascending=[False, True, True], k=k)


def docs_typo_pairs(sf_dir: str, min_len: int = 3, min_count: int = 3) -> rd.Dataset:
    """SymSpell-style typo detection: all pairs of distinct vocabulary
    tokens (len >= 3, corpus count >= 3) at edit distance exactly 1 — the
    fuzzy-matching primitive behind vocabulary normalization. Vocabulary
    builds as a distributed unigram pre-agg; the pairing fans each token to
    its 1-deletion variants (100% recall, no all-pairs) and verifies with
    an O(len) distance check (``stages.dedup.token_typo_pairs``). The
    synthetic corpus has a closed 31-token vocabulary with no distance-1
    pairs, so the sf oracle pins the operator at zero false positives; the
    planted-typo signal lives in tests/test_dedup.py."""
    from ..stages.dedup import token_typo_pairs
    from ..stages.relational import to_arrow

    docs = _read(sf_dir, "documents", columns=["text"])

    def tok_partials(b: pd.DataFrame) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for t in b["text"]:
            c.update(t.split())
        return to_arrow(pd.DataFrame({
            "token": list(c.keys()), "c": list(c.values())}))

    vocab = preagg_groupby_ds(
        docs.map_batches(tok_partials, batch_format="pandas"),
        ["token"], {"c": ("c", "sum")})

    def keep(b: pd.DataFrame) -> pa.Table:
        m = (b["token"].str.len() >= min_len) & (b["c"] >= min_count)
        return to_arrow(b[m][["token"]])

    pairs = token_typo_pairs(vocab.map_batches(keep, batch_format="pandas"))
    if pairs.count() == 0:
        # empty Datasets lose their schema through to_pandas — hand the
        # driver a typed empty frame instead (non-empty results stay a
        # streaming Dataset: pairs are vocabulary-bounded but can still be
        # millions of rows at web-scale vocabularies)
        return pd.DataFrame({"tok_a": pd.Series(dtype="object"),
                             "tok_b": pd.Series(dtype="object")})
    return pairs


def customer_name_typos(sf_dir: str) -> rd.Dataset:
    """Fuzzy record linkage within a dimension: all customer-name pairs at
    edit distance 1 (serial-numbered names differ by one digit, so this has
    real signal — 19.5k pairs at sf0.01). Same deletion-variant operator as
    ``docs_typo_pairs``, driver-checked non-zero against DuckDB's native
    ``levenshtein`` cross join."""
    from ..stages.dedup import token_typo_pairs
    from ..stages.relational import to_arrow

    cust = _read(sf_dir, "customer", columns=["c_name"])

    def names(b: pd.DataFrame) -> pa.Table:
        return to_arrow(pd.DataFrame({"token": b["c_name"]}))

    return token_typo_pairs(cust.map_batches(names, batch_format="pandas"))


def docs_lm_perplexity(sf_dir: str) -> rd.Dataset:
    """Perplexity-based quality scoring (the CCNet-style LM filter): every
    document scored by an add-one-smoothed BIGRAM language model trained on
    the corpus itself — per token position, P(w_i | w_{i-1}) =
    (c(w_{i-1}, w_i) + 1) / (c(w_{i-1}) + V); doc perplexity =
    exp(-mean ln P). Docs with < 2 tokens drop (no bigrams).

    Plan: one scan builds unigram+bigram counts as map-side partials
    (auto-routed combine); the model broadcasts ONCE via ``ray.put``
    (vocabulary-bounded — for an open web-scale bigram table, swap the
    broadcast for the gram-hash-partitioned join the decontamination stage
    already uses); scoring is a per-batch C-speed merge, zero shuffle."""
    import ray

    from ..stages.relational import to_arrow

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def gram_partials(b: pd.DataFrame) -> pa.Table:
        from collections import Counter
        uni: Counter = Counter()
        bi: Counter = Counter()
        for t in b["text"]:
            toks = t.split()
            uni.update(toks)
            bi.update(zip(toks, toks[1:]))
        return to_arrow(pd.DataFrame({
            "w1": ([w for w, _ in bi.keys()] + list(uni.keys())),
            "w2": ([w for _, w in bi.keys()] + [""] * len(uni)),
            "c": (list(bi.values()) + list(uni.values())),
        }))

    from ..stages.relational import partition_map_groups

    def sum_kernel(g: pd.DataFrame) -> pa.Table:
        return to_arrow(g.groupby(["w1", "w2"], as_index=False)["c"].sum())

    # one-shuffle combine on w1 (bigram keys are O(corpus)); the model
    # lands on the driver because it must broadcast anyway
    counts = partition_map_groups(
        docs.map_batches(gram_partials, batch_format="pandas"),
        "w1", sum_kernel).to_pandas()
    uni = counts[counts["w2"] == ""]
    v_size = float(len(uni))
    uni_df = uni[["w1", "c"]].rename(columns={"c": "c1"}) \
        .astype({"c1": "float64"})
    bi_df = counts[counts["w2"] != ""][["w1", "w2", "c"]] \
        .rename(columns={"c": "c12"}).astype({"c12": "float64"})
    uni_ref = ray.put(uni_df)
    bi_ref = ray.put(bi_df)

    def score(b: pd.DataFrame) -> pa.Table:
        # per-position lookups as TWO C-speed merges (a Python dict loop
        # measured ~175 s at 200k docs; this is ~20 s)
        ids: list = []
        w1s: list = []
        w2s: list = []
        for did, t in zip(b["doc_id"], b["text"]):
            toks = t.split()
            if len(toks) < 2:
                continue
            ids.extend([did] * (len(toks) - 1))
            w1s.extend(toks[:-1])
            w2s.extend(toks[1:])
        if not ids:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "perplexity": pa.array([], pa.float64())})
        pos = pd.DataFrame({"doc_id": np.asarray(ids, np.int64),
                            "w1": w1s, "w2": w2s})
        pos = pos.merge(ray.get(bi_ref), on=["w1", "w2"], how="left") \
                 .merge(ray.get(uni_ref), on="w1", how="left")
        lnp = np.log((pos["c12"].fillna(0.0).to_numpy() + 1.0)
                     / (pos["c1"].to_numpy() + v_size))
        agg = (pd.DataFrame({"doc_id": pos["doc_id"], "lnp": lnp})
               .groupby("doc_id", sort=False, as_index=False)["lnp"]
               .mean())
        return pa.table({
            "doc_id": pa.array(agg["doc_id"].to_numpy(), pa.int64()),
            "perplexity": pa.array(round_half_away(
                np.exp(-agg["lnp"].to_numpy()), 6), pa.float64()),
        })

    return docs.map_batches(score, batch_format="pandas")


def docs_simhash_pairs(sf_dir: str) -> rd.Dataset:
    return simhash_near_dup_pairs(
        _read_split(sf_dir, "documents", columns=["doc_id", "text"]), max_hamming=10
    )


def docs_clean_corpus(sf_dir: str) -> rd.Dataset:
    """The composed training-data cleaning pipeline, end to end: quality
    metrics (actor pool) -> threshold filter -> exact dedup keep-first.
    Every stage streams; the only shuffle is the dedup groupby. The whole
    composition is oracle-checked (the SQL twin recomputes the metrics and
    filter inline)."""
    from ..stages.dedup import exact_dedup
    from ..stages.util import pool_size

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    stats = docs.map_batches(
        TextStats, batch_format="pandas", batch_size=1024,
        concurrency=pool_size(2),
    )

    def keep(batch: pd.DataFrame) -> pa.Table:
        mask = ((batch["n_tokens"] >= 21)
                & (batch["alpha_ratio"] >= 0.815)
                & (batch["digit_ratio"] <= 0.3))
        out = batch.loc[mask, ["doc_id", "text"]]
        return pa.Table.from_pandas(out, preserve_index=False)

    return exact_dedup(stats.map_batches(keep, batch_format="pandas"))


# --------------------------------------------------------------------------
# Embeddings: similarity search
# --------------------------------------------------------------------------

def _query_vector(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    idx = tbl.column("vec_id").to_pylist().index(0)
    return np.asarray(tbl.column("embedding")[idx].as_py(), dtype=np.float64)


def emb_knn_top10(sf_dir: str) -> pd.DataFrame:
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_bruteforce(emb, _query_vector(sf_dir), k=10)


def emb_label_stats(sf_dir: str) -> pd.DataFrame:
    """Per-label count + first-dimension centroid component (SQL-checkable
    projection of the centroid operator)."""
    emb = _read(sf_dir, "embeddings", columns=["label", "embedding"])
    cents = label_centroids(emb)
    cents["mean_dim0"] = [round_half_away(c[0], 6) for c in cents["centroid"]]
    return cents[["label", "n", "mean_dim0"]]


# --------------------------------------------------------------------------
# Transcript ordering (SQL-checkable stable-ordering stage)
# --------------------------------------------------------------------------

def transcript_ordering(sf_dir: str) -> rd.Dataset:
    """Derive a transcript view from documents (conv = source) and enforce
    stable turn ordering — the K3 invariant with a SQL twin (row_number over
    partition). One keyed exchange on ``source``
    (:func:`relational.partition_map_groups`) lands each conversation whole
    inside one bounded partition; ordering inside the partition is a
    single vectorized sort + per-conv cumcount (no per-conversation UDF)."""
    from ..stages.relational import partition_map_groups

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def order_partition(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values(["source", "doc_id"], kind="mergesort")
        turn = g.groupby("source", sort=False).cumcount().astype("int64")
        out = pd.DataFrame({
            "conv_id": g["source"].to_numpy(),
            "turn_idx": turn.to_numpy(),
            "doc_id": g["doc_id"].to_numpy(),
            "text": g["text"].to_numpy(),
        })
        return pa.Table.from_pandas(out, preserve_index=False)

    return partition_map_groups(docs, "source", order_partition)


# --------------------------------------------------------------------------
# Additional relational coverage
# --------------------------------------------------------------------------

def parts_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-type part stats: count + avg retail price (sum/count decomposed)."""
    parts = _read(sf_dir, "part", columns=["p_type", "p_retailprice"])
    agg = preagg_groupby(parts, ["p_type"], {
        "n_parts": ("p_retailprice", "count"),
        "sum_price": ("p_retailprice", "sum"),
    })
    agg["avg_price"] = round_half_away(
        (agg["sum_price"] / agg["n_parts"]).to_numpy(), 4
    )
    agg = agg.drop(columns=["sum_price"])
    return agg.sort_values("p_type").reset_index(drop=True)


def customers_without_orders(sf_dir: str) -> pd.DataFrame:
    """Broadcast ANTI join: customers with no orders (J1-style semi-join,
    negated). The order-key set is the broadcast small side. Returns a
    schema-stable DataFrame even when the result is empty."""
    from ..stages.relational import broadcast_semi_join

    orders = _read_pdf(sf_dir, "orders", ["o_custkey"])
    have = set(orders["o_custkey"].tolist())
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    df = broadcast_semi_join(cust, have, "c_custkey", anti=True).to_pandas()
    if df.empty:
        df = pd.DataFrame({"c_custkey": pd.Series(dtype="int64"),
                           "c_name": pd.Series(dtype=object)})
    return df[["c_custkey", "c_name"]].sort_values("c_custkey").reset_index(drop=True)


def distinct_event_types(sf_dir: str) -> pd.DataFrame:
    """DISTINCT via the pre-aggregated groupby (map-side per-batch dedup,
    auto-routed driver/distributed combine)."""
    events = _read(sf_dir, "events", columns=["event_type"])
    out = preagg_groupby(events, ["event_type"],
                         {"n": ("event_type", "count")})
    return out[["event_type"]].sort_values("event_type").reset_index(drop=True)


def events_user_stats(sf_dir: str) -> pd.DataFrame:
    """Per-user min/max/count/sum over values (mergeable aggregates)."""
    events = _read(sf_dir, "events", columns=["user_id", "value"])
    agg = preagg_groupby(events, ["user_id"], {
        "n_events": ("value", "count"),
        "value_sum": ("value", "sum"),
        "value_min": ("value", "min"),
        "value_max": ("value", "max"),
    })
    agg["value_sum"] = round_half_away(agg["value_sum"].to_numpy(), 6)
    return agg.sort_values("user_id").reset_index(drop=True)


def order_ship_day_coverage(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER join coverage report: per calendar day, how many orders
    were placed vs how many lineitems shipped — days exist on each side the
    other never saw (first ~4 months of shipments trail the last orders).
    Both sides pre-aggregate distributively to day cardinality FIRST, so
    the full-outer ``hash_join`` moves ~2.5k rows, never the fact tables."""
    from ..stages.relational import to_arrow

    def day_col(table: str, ts_col: str, out_count: str):
        ds = _read_split(sf_dir, table, columns=[ts_col])

        def to_day(b: pd.DataFrame) -> pa.Table:
            # C-speed day strings (pandas .dt.strftime is a Python call
            # per element — 600k rows in one unsplit block cost ~5 s)
            days = np.datetime_as_string(
                b[ts_col].to_numpy().astype("datetime64[D]"), unit="D")
            return to_arrow(pd.DataFrame({"day": days}))

        return preagg_groupby_ds(
            ds.map_batches(to_day, batch_format="pandas"),
            ["day"], {out_count: ("day", "count")})

    o = day_col("orders", "o_orderdate", "n_orders")
    s = day_col("lineitem", "l_shipdate", "n_shipments")
    full = hash_join(o, s,
                     on=["day"], join_type="full_outer")
    out = full.to_pandas()
    out["n_orders"] = out["n_orders"].fillna(0).astype("int64")
    out["n_shipments"] = out["n_shipments"].fillna(0).astype("int64")
    return out.sort_values("day").reset_index(drop=True)


def q18_large_orders(sf_dir: str, min_qty: float = 180.0) -> pd.DataFrame:
    """TPC-H-Q18-style large-volume-customer query: orders whose total
    lineitem quantity exceeds ``min_qty``, with customer names, top-100 by
    total price. Per-orderkey quantity sums are a distributed pre-agg
    (orderkeys are O(rows) at scale — partials still shrink ~4x per the
    lineitem fan-out); qualifying orders join the orders table through the
    size-aware ``hash_join``; the top-100 combine is blocks x k; customer
    names attach by streaming the customer scan against the <= 100
    surviving custkeys (broadcast set, never a full dimension read)."""
    import ray

    from ..stages.relational import partition_map_groups, to_arrow

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    # orderkeys are O(rows) — the one-shuffle high-cardinality plan, with
    # the HAVING filter inside the kernel so only qualifying orders leave
    # the partition (preagg_groupby_ds here re-shuffled ~every row again)
    def sum_and_filter(g: pd.DataFrame) -> pa.Table:
        s = (g.groupby("l_orderkey", as_index=False)["l_quantity"].sum()
             .rename(columns={"l_quantity": "sum_qty"}))
        return to_arrow(s[s["sum_qty"] > min_qty])

    big = partition_map_groups(li, "l_orderkey", sum_and_filter)
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_totalprice",
                            "o_orderdate"])
    joined = hash_join(orders, big,
                       on=["o_orderkey"], right_on=["l_orderkey"])
    top = distributed_topk(
        joined, by=["o_totalprice", "o_orderdate", "o_orderkey"],
        ascending=[False, True, True], k=100)
    keys_ref = ray.put(set(top["o_custkey"].tolist()))

    def keep_cust(b: pd.DataFrame) -> pa.Table:
        return to_arrow(
            b[b["c_custkey"].isin(ray.get(keys_ref))]
            [["c_custkey", "c_name"]])

    cust = (_read(sf_dir, "customer", columns=["c_custkey", "c_name"])
            .map_batches(keep_cust, batch_format="pandas").to_pandas())
    out = top.merge(cust, left_on="o_custkey", right_on="c_custkey")
    return pd.DataFrame({
        "c_name": out["c_name"],
        "c_custkey": out["c_custkey"].astype("int64"),
        "o_orderkey": out["o_orderkey"].astype("int64"),
        "o_orderdate": out["o_orderdate"].dt.strftime("%Y-%m-%d"),
        "o_totalprice": round_half_away(
            out["o_totalprice"].to_numpy(), 2),
        "sum_qty": round_half_away(out["sum_qty"].to_numpy(), 2),
    }).sort_values(["o_totalprice", "o_orderdate", "o_orderkey"],
                   ascending=[False, True, True],
                   kind="mergesort").reset_index(drop=True)


def events_value_time_corr(sf_dir: str) -> pd.DataFrame:
    """Grouped Pearson correlation + regression slope of event value on
    event time, per event_type — ONE streaming pass of mergeable moment
    partials (`relational.grouped_corr`), no raw-row shuffle. Time rides as
    float seconds offset near the data (2024-01-01) so the moment sums stay
    cancellation-safe; slope reported per day. Rounded to 6 decimals for
    the DuckDB ``corr``/``regr_slope`` twin."""
    from ..stages.relational import grouped_corr, to_arrow

    ev = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def add_secs(b: pd.DataFrame) -> pa.Table:
        secs = (b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
                / 1e6) - 1_704_067_200.0
        return to_arrow(pd.DataFrame({
            "event_type": b["event_type"], "secs": secs, "value": b["value"],
        }))

    out = grouped_corr(ev.map_batches(add_secs, batch_format="pandas"),
                       "event_type", "secs", "value")
    return pd.DataFrame({
        "event_type": out["event_type"],
        "n_events": out["n"],
        "corr_value_time": round_half_away(out["corr"].to_numpy(), 6),
        "slope_per_day": round_half_away(
            out["slope"].to_numpy() * 86400.0, 6),
    }).sort_values("event_type").reset_index(drop=True)


def lineitem_discount_bands(sf_dir: str) -> pd.DataFrame:
    """Vectorized CASE banding (pyarrow.compute) + pre-agg groupby."""
    li = _read(sf_dir, "lineitem", columns=["l_discount", "l_extendedprice"])

    def band(batch: pa.Table) -> pa.Table:
        d = batch.column("l_discount")
        bands = pc.if_else(
            pc.less(d, 0.03), pa.scalar("low"),
            pc.if_else(pc.less(d, 0.07), pa.scalar("mid"), pa.scalar("high")),
        )
        return batch.append_column("band", bands)

    agg = preagg_groupby(
        li.map_batches(band, batch_format="pyarrow"),
        ["band"],
        {"n_items": ("l_extendedprice", "count"),
         "sum_price": ("l_extendedprice", "sum")},
    )
    agg["sum_price"] = round_half_away(agg["sum_price"].to_numpy(), 2)
    return agg.sort_values("band").reset_index(drop=True)


def orders_lineitem_by_status(sf_dir: str) -> pd.DataFrame:
    """Direct oracle check of the distributed fact-to-fact hash join:
    orders ⋈ lineitem on orderkey, aggregated per order status. Both sides
    stream; neither touches the driver."""
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])
    ords = orders.map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_orderstatus"]),
        batch_format="pyarrow",
    )
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice"])
    joined = hash_join(li, ords, on=["l_orderkey"])
    agg = preagg_groupby(joined, ["o_orderstatus"], {
        "n_items": ("l_extendedprice", "count"),
        "sum_price": ("l_extendedprice", "sum"),
    })
    agg["sum_price"] = round_half_away(agg["sum_price"].to_numpy(), 2)
    return agg.sort_values("o_orderstatus").reset_index(drop=True)


def supplier_nation_balance(sf_dir: str) -> pd.DataFrame:
    """Per-nation supplier count + account-balance sum: broadcast dimension
    chain (nation) over the streaming supplier scan."""
    nation = _read_pdf(sf_dir, "nation", ["n_nationkey", "n_name"])
    sup = _read(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])
    joined = broadcast_join(
        sup, nation.rename(columns={"n_nationkey": "s_nationkey"}),
        on=["s_nationkey"],
    )
    agg = preagg_groupby(joined, ["n_name"], {
        "n_suppliers": ("s_acctbal", "count"),
        "acctbal_sum": ("s_acctbal", "sum"),
    })
    agg["acctbal_sum"] = round_half_away(agg["acctbal_sum"].to_numpy(), 2)
    return agg.sort_values("n_name").reset_index(drop=True)


def brand_revenue(sf_dir: str) -> pd.DataFrame:
    """Revenue per part brand: lineitem ⋈ part resolved with the distributed
    hash join on partkey (part scales with SF — treated as a fact, not a
    broadcast side), then a pre-aggregated groupby over the tiny brand
    vocabulary."""
    part = _read(sf_dir, "part", columns=["p_partkey", "p_brand"]).map_batches(
        lambda t: t.rename_columns(["l_partkey", "p_brand"]),
        batch_format="pyarrow",
    )
    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice", "l_discount"])
    joined = hash_join(li, part, on=["l_partkey"])

    def rev(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["revenue"] = batch["l_extendedprice"] * (1.0 - batch["l_discount"])
        return batch[["p_brand", "revenue"]]

    agg = preagg_groupby(
        joined.map_batches(rev, batch_format="pandas"),
        ["p_brand"],
        {"n_items": ("revenue", "count"), "revenue": ("revenue", "sum")},
    )
    agg["revenue"] = round_half_away(agg["revenue"].to_numpy(), 2)
    return agg.sort_values("p_brand").reset_index(drop=True)


def emb_knn_lsh(sf_dir: str) -> pd.DataFrame:
    """Approximate top-k (LSH-bucketed scale path; recall measured vs the
    brute-force baseline in tests).

    Delegates to the partitioned on-disk index (one code path for pruning:
    probe-bucket selection happens at the READ). The full-scan
    ``stages.ann.knn_lsh`` remains as the no-index fallback and the parity
    baseline in tests — both produce identical results for the same
    (planes, multiprobe) configuration (asserted in tests/test_ann.py)."""
    from ..stages.ann import knn_lsh_indexed

    idx_dir = _ensure_lsh_index(sf_dir)
    return knn_lsh_indexed(idx_dir, _query_vector(sf_dir), k=10, multiprobe=3)


def emb_knn_lsh_indexed(sf_dir: str) -> pd.DataFrame:
    """Top-k through the PARTITIONED on-disk LSH index (the 100 TB layout:
    the query opens only its probe buckets' partitions). Index cached under
    /tmp per sf tag; identical planes to the scan path."""
    from ..stages.ann import knn_lsh_indexed

    idx_dir = _ensure_lsh_index(sf_dir)
    return knn_lsh_indexed(idx_dir, _query_vector(sf_dir), k=10, multiprobe=3)


def _ensure_lsh_index(sf_dir: str, n_planes: int = 6) -> str:
    """Build (or reuse) the cached partitioned LSH index for ``sf_dir``.

    Atomic: the index is built into a scratch dir and ``os.replace``d into
    place (marker written last, inside the scratch dir) — a crash mid-build
    never leaves a half-populated bucket layout that a later rebuild would
    append into. The cache key includes the source parquet's size+mtime so a
    regenerated embeddings table invalidates the cache."""
    import shutil

    from ..stages.ann import build_lsh_index

    src = os.path.join(sf_dir, "embeddings.parquet")
    st = os.stat(src)
    tag = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/onr_lsh_index/{tag}-{st.st_size}-{int(st.st_mtime)}-f64b"
    if not os.path.isfile(os.path.join(idx_dir, "_META")):
        # per-process scratch: concurrent builders (parallel bench/test
        # runs on one sf tag) cannot rmtree each other's in-progress build
        tmp_dir = f"{idx_dir}.build-{os.getpid()}"
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)
        build_lsh_index(
            _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
            tmp_dir, n_planes=n_planes,
        )  # writes _META last, after the parquet
        if os.path.isdir(idx_dir):
            shutil.rmtree(idx_dir)
        os.replace(tmp_dir, idx_dir)
    return idx_dir


def emb_knn_graph(sf_dir: str) -> rd.Dataset:
    """Exact all-pairs kNN similarity graph (k=5): every vector's top-5
    cosine neighbors as directed edges — one broadcast of the normalized
    corpus matrix, one matmul per batch, n x k edges out
    (`stages.ann.knn_graph`; the IVF index is the documented route past
    the broadcast limit)."""
    from ..stages.ann import knn_graph

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_graph(emb, k=5)


def emb_graph_triangles(sf_dir: str) -> rd.Dataset:
    """Per-node triangle counts over the symmetrized k=5 similarity graph
    — graph-quality analytics composed from `knn_graph` +
    `stages.graph.triangle_counts` (canonicalize -> wedge expansion ->
    co-partitioned closure check, all pair/node-hash partitioned)."""
    from ..stages.ann import knn_graph
    from ..stages.graph import triangle_counts

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    edges = knn_graph(emb, k=5)
    return triangle_counts(edges, src_col="src_id", dst_col="dst_id")


def emb_label_prop(sf_dir: str) -> pd.DataFrame:
    """Semi-supervised label propagation over the k=5 similarity graph:
    vectors with vec_id % 10 == 0 seed their true label; 3 rounds of
    weighted-majority adoption (`stages.graph.label_propagation`,
    integer-scaled cosine weights so the distributed argmax is exactly
    order-independent and SQL-replayable)."""
    from ..stages.ann import knn_graph
    from ..stages.graph import label_propagation, symmetrize_int_edges
    from ..stages.relational import to_arrow

    emb = _read(sf_dir, "embeddings",
                columns=["vec_id", "embedding", "label"])
    edges = symmetrize_int_edges(
        knn_graph(emb, k=5), src_col="src_id", dst_col="dst_id",
        weight_col="cosine", scale=1_000_000.0)

    def seed_rows(b: pd.DataFrame) -> pa.Table:
        m = (b["vec_id"].to_numpy() % 10) == 0
        return to_arrow(pd.DataFrame({
            "node": b["vec_id"].to_numpy()[m].astype(np.int64),
            "label": b["label"].to_numpy()[m].astype(np.int64),
        }))

    seeds = emb.map_batches(seed_rows, batch_format="pandas")
    out = label_propagation(edges, seeds, rounds=3)
    if isinstance(out, rd.Dataset):  # join route (not at test scales)
        out = out.to_pandas()
    out["node"] = out["node"].astype(np.int64)
    out["label"] = out["label"].astype(np.int64)
    return out[["node", "label"]].reset_index(drop=True)


def emb_knn_multi(sf_dir: str) -> pd.DataFrame:
    """Batched exact kNN: the first 5 vectors are the query MATRIX,
    broadcast once; one corpus pass answers all of them (the realistic
    many-queries shape — one matmul per batch, blocks x q x k combine)."""
    import pyarrow.parquet as pq

    from ..stages.ann import knn_bruteforce_multi

    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    df = tbl.to_pandas().set_index("vec_id")
    qm = np.asarray([df.loc[i, "embedding"] for i in range(5)],
                    dtype=np.float64)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_bruteforce_multi(emb, qm, k=10)


def emb_knn_ivf(sf_dir: str) -> pd.DataFrame:
    """Top-k through the IVF index (distributed k-means coarse quantizer +
    cluster-partitioned corpus): the query probes its 4 nearest of 16
    clusters — the classic inverted-file ANN layout next to the LSH one.
    Oracle-checkable since r5: the k-means rounds centroids to 6 decimals
    each update and rounds assignment scores before the argmax, so a
    generated SQL twin unrolls the Lloyd iterations exactly; recall and
    the full-probe==exact degeneracy remain pinned in tests/test_ann.py."""
    from ..stages.ann import knn_ivf_indexed

    idx_dir = _ensure_ivf_index(sf_dir)
    return knn_ivf_indexed(idx_dir, _query_vector(sf_dir), k=10, n_probe=4)


def _ensure_ivf_index(sf_dir: str, n_clusters: int = 16) -> str:
    """Build (or reuse) the cached IVF index for ``sf_dir`` (same atomic
    tmp-dir + os.replace lifecycle and size+mtime cache key as the LSH
    index)."""
    import shutil

    from ..stages.ann import build_ivf_index

    src = os.path.join(sf_dir, "embeddings.parquet")
    st = os.stat(src)
    tag = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/onr_ivf_index/{tag}-{st.st_size}-{int(st.st_mtime)}-r6"
    if not os.path.isfile(os.path.join(idx_dir, "_META")):
        tmp_dir = f"{idx_dir}.build-{os.getpid()}"  # per-process scratch
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)
        build_ivf_index(
            _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
            tmp_dir, n_clusters=n_clusters,
        )  # writes _META last
        if os.path.isdir(idx_dir):
            shutil.rmtree(idx_dir)
        os.replace(tmp_dir, idx_dir)
    return idx_dir


def emb_near_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-duplicate pairs (hyperplane-bucket blocking +
    in-bucket exact cosine verify). Schema-stable when empty."""
    from ..stages.dedup import embedding_near_dup_pairs

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    df = embedding_near_dup_pairs(emb, threshold=0.9, n_planes=8).to_pandas()
    if df.empty:
        df = pd.DataFrame({"vec_a": pd.Series(dtype="int64"),
                           "vec_b": pd.Series(dtype="int64"),
                           "cosine": pd.Series(dtype="float64")})
    return df.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


def docs_source_quota(sf_dir: str) -> rd.Dataset:
    """Per-source document quota (the "at most K docs per domain" training-
    data cap): keep the first 5 docs of each source by doc_id. Hash(source)
    partitions + one vectorized cumcount pass per partition; SQL twin is a
    row_number window."""
    from ..stages.relational import groupwise_head

    docs = _read(sf_dir, "documents", columns=["source", "doc_id"])
    return groupwise_head(docs, "source", ["doc_id"], k=5)


def docs_simhash_dedup(sf_dir: str) -> pd.DataFrame:
    """Near-duplicate COLLAPSE, composed end to end: simhash near-dup pairs
    -> drop every pair's larger id (doc_a < doc_b, so doc_b is the
    duplicate; the smaller id is the kept representative) -> surviving doc
    ids. The drop set is bounded by the candidate pairs, so it broadcasts;
    at a scale where even that overflows, the same pairs Dataset feeds a
    hash-partitioned anti join on doc_id (one more exchange). Fully
    oracle-checked: the SQL twin recomputes signatures, blocking, hamming
    AND the NOT IN collapse."""
    import ray

    from ..stages.dedup import simhash_near_dup_pairs
    from ..stages.relational import broadcast_semi_join

    from ..stages.dedup import drop_near_dup_docs

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])
    pairs = simhash_near_dup_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        max_hamming=10,
    )
    # result stays a Dataset: survivors are O(corpus) rows
    return drop_near_dup_docs(docs, pairs).select_columns(
        ["doc_id", "source"])


def events_hopping(sf_dir: str) -> pd.DataFrame:
    """Hopping-window aggregate (1h windows, 15min hop): each event lands in
    4 overlapping hop-aligned windows via one vectorized expansion."""
    from ..stages.relational import hopping_event_counts

    events = _read(sf_dir, "events", columns=["ts", "event_type", "value"])
    return hopping_event_counts(events, window_seconds=3600, hop_seconds=900)


def docs_sample_10pct(sf_dir: str) -> rd.Dataset:
    """Deterministic hash-based sampling (reproducible train/holdout style
    splits without a shuffle): keep a doc iff
    ``md5_hash64(doc_id) % 100 < 10``. Pure per-batch filter — streams, no
    state, no shuffle; identical selection on every run/worker, and the md5
    selector has an exact SQL twin (``md5_number_upper``)."""
    from ..functions.hashing import token_hash64_md5

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "lang"])

    def keep(batch: pd.DataFrame) -> pa.Table:
        sel = np.fromiter(
            (token_hash64_md5(str(d)) % 100 < 10 for d in batch["doc_id"]),
            dtype=bool, count=len(batch))
        return pa.Table.from_pandas(batch[sel], preserve_index=False)

    return docs.map_batches(keep, batch_format="pandas")


def docs_stratified_sample(sf_dir: str) -> rd.Dataset:
    """Stratified deterministic sampling: each SOURCE gets its own keep
    rate (derived from the source name's md5, 10%-50%), each doc keeps or
    drops by its id's md5 against that rate — per-stratum reproducible
    sampling with zero shuffle and zero state, exactly reproducible in
    SQL via ``md5_number_upper`` on both the rate and the selector."""
    from ..functions.hashing import token_hash64_md5

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "lang"])

    def keep(batch: pd.DataFrame) -> pa.Table:
        rates = {s: 100 + token_hash64_md5(s) % 400
                 for s in batch["source"].unique()}
        sel = np.fromiter(
            (token_hash64_md5(str(d)) % 1000 < rates[s]
             for d, s in zip(batch["doc_id"], batch["source"])),
            dtype=bool, count=len(batch))
        return pa.Table.from_pandas(batch[sel], preserve_index=False)

    return docs.map_batches(keep, batch_format="pandas")


def docs_top_terms(sf_dir: str) -> pd.DataFrame:
    """Corpus vocabulary head: top-20 whitespace tokens by total frequency
    (ties lexicographic). Per-batch pandas explode+value_counts partials
    (the flat-map fan-out never leaves the batch), a distributed combine
    over the token vocabulary, then partial top-k — the driver sees only
    blocks x k rows."""
    from ..stages.relational import distributed_topk, preagg_groupby_ds

    docs = _read(sf_dir, "documents", columns=["text"])

    def token_counts(batch: pd.DataFrame) -> pa.Table:
        toks = batch["text"].str.strip().str.split()
        counts = toks.explode().value_counts()
        return pa.table({
            "token": pa.array(counts.index.to_numpy(dtype=object), pa.string()),
            "n": pa.array(counts.to_numpy(), pa.int64()),
        })

    vocab = preagg_groupby_ds(
        docs.map_batches(token_counts, batch_format="pandas"),
        ["token"], {"n": ("n", "sum")},
    )
    top = distributed_topk(vocab, ["n", "token"], [False, True], 20)
    return top[["token", "n"]].reset_index(drop=True)


def docs_cms_top_terms(sf_dir: str,
                       support_divisor: int = 50) -> pd.DataFrame:
    """Approximate heavy hitters via a Count-Min sketch, TWO streaming
    passes: (1) each batch folds its pre-counted tokens into one
    fixed-size (512 KB) counter matrix — sketches merge by elementwise
    sum on the driver, so the combine moves sketches, never the
    vocabulary; (2) the merged sketch broadcasts once (``ray.put``) and
    each batch emits only its distinct tokens whose estimate clears the
    support threshold ``total_tokens // support_divisor``. Top 20 by
    (estimate desc, token). Batch-INDEPENDENT by construction (round-4
    shipped per-batch top-40 candidate tracking, whose union depended on
    batching) and therefore exactly SQL-replayable: the md5 row hashes
    (`sketches._cms_idx_md5`) let DuckDB rebuild every counter from exact
    token counts and replay the min-over-rows estimates. Estimates never
    undercount (one-sided CMS error); the pytest gate additionally pins
    exact-top-20 recovery."""
    from ..functions.sketches import cms_add, cms_merge, cms_new, cms_query
    from ..stages.relational import to_arrow

    docs = _read(sf_dir, "documents", columns=["text"])

    def sketch_partials(batch: pd.DataFrame) -> pa.Table:
        counts = (batch["text"].str.strip().str.split()
                  .explode().value_counts())
        cms = cms_add(cms_new(), counts.index.to_numpy(dtype=object),
                      counts.to_numpy(), md5=True)
        return pa.table({
            "cms": pa.array([cms.tobytes()], pa.binary()),
            "total": pa.array([int(counts.sum())], pa.int64()),
        })

    merged = cms_new()
    total = 0
    for blk in docs.map_batches(
            sketch_partials, batch_format="pandas").iter_batches(
            batch_format="pandas"):
        for blob, t in zip(blk["cms"], blk["total"]):
            merged = cms_merge(
                merged, np.frombuffer(blob, dtype=np.int64)
                .reshape(merged.shape))
            total += int(t)
    import ray

    tau = total // support_divisor
    cms_ref = ray.put(merged)

    def heavy_candidates(batch: pd.DataFrame) -> pa.Table:
        toks = (batch["text"].str.strip().str.split()
                .explode().dropna().unique())
        est = cms_query(ray.get(cms_ref), toks, md5=True)
        keep = est >= tau
        return pa.table({
            "token": pa.array(toks[keep].astype(str), pa.string()),
            "n_est": pa.array(est[keep], pa.int64()),
        })

    # vocabulary-bounded above tau: drop cross-batch duplicate tokens
    # (each carries the identical deterministic estimate) on the driver
    out = (docs.map_batches(heavy_candidates, batch_format="pandas")
           .to_pandas().drop_duplicates("token")
           .sort_values(["n_est", "token"], ascending=[False, True],
                        kind="mergesort").head(20))
    out["n_est"] = out["n_est"].astype(np.int64)
    return out.reset_index(drop=True)


def docs_tfidf_top3(sf_dir: str) -> rd.Dataset:
    """Per-document top-3 characteristic terms by TF-IDF
    (``tf * ln(N / df)``) — the corpus-analysis operator behind keyword
    extraction and topical filtering.

    Plan: one streaming pass builds exact per-doc term frequencies (a doc
    is one row, so the per-batch groupby is complete — no shuffle); the
    document-frequency table is a distributed pre-aggregated combine over
    those (doc, token) rows. Scoring is one ``hash_join`` of the tf rows
    with the df table on the token (a df table that fits one exchange
    bucket is broadcast, a bigger one exchanged; neither side is
    driver-resident) and a per-batch vectorized scorer. Top-3 per doc is
    the bounded ``groupwise_head`` quota (rank by rounded score desc, then
    token — float-tie-stable vs the SQL twin)."""
    import pyarrow.dataset as pads

    from ..stages.relational import groupwise_head, to_arrow

    # metadata-only row count; handles single-file AND directory layouts
    n_docs = pads.dataset(
        os.path.join(sf_dir, "documents.parquet")).count_rows()
    docs = _read_split(sf_dir, "documents", columns=["doc_id", "text"])

    def tf_rows(batch: pd.DataFrame) -> pa.Table:
        sub = batch[batch["text"].str.strip() != ""]
        toks = sub.assign(token=sub["text"].str.strip().str.split())[
            ["doc_id", "token"]].explode("token")
        tf = (toks.groupby(["doc_id", "token"], sort=False)
              .size().reset_index(name="tf"))
        return to_arrow(tf)

    # (doc, token, tf) rows are consumed twice (df combine + scoring) —
    # pin them instead of re-tokenizing the corpus
    tf = docs.map_batches(tf_rows, batch_format="pandas").materialize()
    df_ds = preagg_groupby_ds(tf, ["token"], {"df": ("tf", "count")})

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        idf = np.log(float(n_docs) / batch["df"].to_numpy(np.float64))
        out = batch[["doc_id", "token"]].copy()
        out["tfidf"] = round_half_away(
            batch["tf"].to_numpy(np.float64) * idf, 6)
        out["neg"] = -out["tfidf"]
        return out

    scored = hash_join(tf, df_ds, on=["token"]).map_batches(
        lambda b: to_arrow(score(b)), batch_format="pandas")

    top = groupwise_head(scored, "doc_id", ["neg", "token"], 3)
    return top.select_columns(["doc_id", "token", "tfidf"])


def docs_chunked(sf_dir: str, chunk_tokens: int = 16) -> rd.Dataset:
    """Token-window chunking — the training-data step that splits each
    document into consecutive ≤K-token pieces (context-length packing
    prep). Pure per-batch flat fan-out: the chunk rows never leave the
    producing task, no shuffle, output ~``n_tokens/K`` rows per doc. The
    per-doc Python loop is inherent string work (same budget as the
    dedup shingle passes); everything around it is columnar."""
    docs = _read_split(sf_dir, "documents", columns=["doc_id", "text"])
    k = int(chunk_tokens)

    def chunks(b: pd.DataFrame) -> pa.Table:
        doc_ids: list = []
        idxs: list = []
        texts: list = []
        ntoks: list = []
        for did, txt in zip(b["doc_id"].to_numpy(), b["text"]):
            toks = txt.split()
            for i in range(0, len(toks), k):
                piece = toks[i:i + k]
                doc_ids.append(did)
                idxs.append(i // k)
                texts.append(" ".join(piece))
                ntoks.append(len(piece))
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "chunk_idx": pa.array(idxs, pa.int64()),
            "chunk": pa.array(texts, pa.string()),
            "n_tokens": pa.array(ntoks, pa.int64()),
        })

    return docs.map_batches(chunks, batch_format="pandas")


_STOPWORDS = frozenset({"a", "the"})


def docs_stopword_strip(sf_dir: str) -> rd.Dataset:
    """Stopword-strip normalization (boilerplate-token removal before
    tokenizer training / dedup). Pure per-batch transform: one vectorized
    explode + ``isin`` filter, then a per-doc whitespace re-join (the only
    per-doc string work, same budget as chunking). No shuffle, no state;
    docs reduced to nothing stay as empty strings so row count is stable."""
    from ..stages.relational import to_arrow

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def strip_batch(b: pd.DataFrame) -> pa.Table:
        b = b.reset_index(drop=True)
        ex = b["text"].str.strip().str.split().explode().dropna()
        kept = ex[~ex.isin(_STOPWORDS)]
        joined = kept.groupby(level=0).agg(" ".join)
        return to_arrow(pd.DataFrame({
            "doc_id": b["doc_id"],
            "text_clean": joined.reindex(b.index).fillna("").to_numpy(),
        }))

    return docs.map_batches(strip_batch, batch_format="pandas")


def docs_keyword_search(sf_dir: str) -> rd.Dataset:
    """Conjunctive keyword search through the PARTITIONED on-disk inverted
    index (the text-retrieval sibling of the LSH/IVF embedding indexes):
    the query opens only its tokens' bucket partitions — pruning at the
    read — then one distributed combine enforces the ALL-tokens predicate.
    Index cached under /tmp per sf tag with the same atomic build + cache
    key as the ANN indexes."""
    from ..stages.textindex import search_keywords

    idx_dir = _ensure_inverted_index(sf_dir)
    return search_keywords(idx_dir, ["spark", "window"], mode="and")


def docs_bm25_top10(sf_dir: str) -> pd.DataFrame:
    """BM25 ranked retrieval (Lucene idf variant) for a two-term query
    through the same inverted index: only the query tokens' bucket
    partitions are read, doc lengths auto-route broadcast/join, scores
    combine distributed and the driver sees blocks × k rows. Ranked by
    (rounded score desc, doc_id) so float ties cut identically to the
    SQL twin, which recomputes tf/df/doc-length/avgdl inline."""
    from ..stages.textindex import search_bm25

    idx_dir = _ensure_inverted_index(sf_dir)
    return search_bm25(idx_dir, ["spark", "window"], k=10)


def _ensure_inverted_index(sf_dir: str, num_buckets: int = 64) -> str:
    """Build (or reuse) the cached inverted index for ``sf_dir`` (atomic
    tmp-dir + ``os.replace`` lifecycle and size+mtime cache key, identical
    to the LSH/IVF index helpers)."""
    import shutil

    from ..stages.textindex import build_inverted_index

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    tag = os.path.basename(os.path.normpath(sf_dir))
    # v2: postings carry tf + the _doclen/BM25-stats sidecar (a v1 cache
    # dir must not be reused — it lacks them)
    idx_dir = f"/tmp/onr_inv_index/{tag}-{st.st_size}-{int(st.st_mtime)}-v2"
    if not os.path.isfile(os.path.join(idx_dir, "_META")):
        tmp_dir = f"{idx_dir}.build-{os.getpid()}"  # per-process scratch
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)
        build_inverted_index(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            tmp_dir, num_buckets=num_buckets,
        )  # writes _META last
        if os.path.isdir(idx_dir):
            shutil.rmtree(idx_dir)
        os.replace(tmp_dir, idx_dir)
    return idx_dir


def docs_streaming_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact dedup through the SHARED MUTABLE INDEX (sharded actors) — the
    streaming-ingest twin of docs_exact_dedup. Which duplicate is admitted
    first is arrival order, but the admitted TEXT SET is deterministic, so
    the query returns the sorted distinct texts and the oracle is a plain
    GROUP BY. (Membership is by 62-bit content hash: collision odds are
    ~2^-62 per pair; the batch operator keys on full text where exactness
    against adversarial collisions matters.)"""
    from ..state.dedup_index import create_index, streaming_exact_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    shards = create_index(8)
    # stays a Dataset (the admitted set is O(distinct texts) — corpus-scale);
    # the compare harness hashes order-insensitively
    return streaming_exact_dedup(docs, shards).select_columns(["text"])


def docs_training_mix(sf_dir: str) -> pd.DataFrame:
    """The full training-data curation pipeline, composed end to end and
    oracle-checked as ONE query: quality filter (actor-pool metrics) ->
    SimHash near-dup collapse (drop each pair's larger id) -> per-source
    quota (first 3 by doc_id). Every stage streams; the shuffles are the
    near-dup band groupby and the quota partition groupby. The SQL twin
    recomputes metrics, signatures, blocking, hamming, NOT IN, and the
    row_number cap inline."""
    from ..stages.dedup import drop_near_dup_docs, simhash_near_dup_pairs
    from ..stages.relational import groupwise_head
    from ..stages.util import pool_size

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])
    stats = docs.map_batches(
        TextStats, batch_format="pandas", batch_size=1024,
        concurrency=pool_size(2),
    )

    def keep(batch: pd.DataFrame) -> pa.Table:
        mask = ((batch["n_tokens"] >= 21)
                & (batch["alpha_ratio"] >= 0.815)
                & (batch["digit_ratio"] <= 0.3))
        out = batch.loc[mask, ["doc_id", "source", "text"]]
        return pa.Table.from_pandas(out, preserve_index=False)

    kept = stats.map_batches(keep, batch_format="pandas").materialize()
    pairs = simhash_near_dup_pairs(
        kept.map_batches(lambda t: t.select(["doc_id", "text"]),
                         batch_format="pyarrow"),
        max_hamming=10,
    )
    survivors = drop_near_dup_docs(
        kept.map_batches(lambda t: t.select(["doc_id", "source"]),
                         batch_format="pyarrow"),
        pairs,
    )
    quota = groupwise_head(survivors, "source", ["doc_id"], k=3).to_pandas()
    if quota.empty:
        quota = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                              "source": pd.Series(dtype=object)})
    return quota[["doc_id", "source"]].sort_values("doc_id") \
        .reset_index(drop=True)


def docs_bpe_tokens(sf_dir: str) -> rd.Dataset:
    """BPE-ish subword token counts per document (rows-only: the chunking
    heuristic has no faithful SQL twin)."""
    from ..stages.textstats import add_bpe_token_count

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(add_bpe_token_count, batch_format="pandas") \
               .select_columns(["doc_id", "n_bpe_tokens"])
