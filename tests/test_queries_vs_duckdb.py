"""Driver-style correctness: queries() vs oracle_sql() via DuckDB at sf0.001.

A pytest-resident mirror of what the graft driver does at sf0.01 — columns
sorted by name, floats rounded, order-insensitive compare.
"""

import duckdb
import numpy as np
import pandas as pd
import pytest

from tests.conftest import SF_DIR

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

SQL_PAIRED = [
    "q1_pricing_summary", "q3_top_orders", "q5_nation_revenue",
    "top_customers", "events_hourly", "events_sessions",
    "docs_exact_dedup", "docs_token_stats", "docs_lang_counts",
    "emb_knn_top10", "emb_label_stats", "transcript_ordering",
    "parts_by_type", "customers_without_orders", "lineitem_discount_bands",
    "events_user_stats", "distinct_event_types",
    # round-3 oracle flips: exact SQL twins for simhash near-dup (md5-based
    # signature), brute-force embedding near-dup, BPE-ish counts, lang-ID
    "docs_simhash_pairs", "emb_near_dup_pairs", "docs_bpe_tokens",
    "docs_langid",
    # round-3 new operators (quota sampling, near-dup collapse, hopping
    # windows) — all with exact SQL twins
    "docs_source_quota", "docs_simhash_dedup", "events_hopping",
    "docs_sample_10pct", "docs_top_terms", "events_last_purchase",
    "events_median_value", "docs_streaming_dedup",
    "events_session_assignment", "docs_training_mix", "emb_knn_multi",
    "docs_minhash_pairs",
    # round-4: per-source stratified deterministic sampling, per-key LAG,
    # per-doc TF-IDF top terms
    "docs_stratified_sample", "events_user_gap", "docs_tfidf_top3",
    # round-4: chunking, normalization, single-pass grouping sets,
    # inverted-index keyword search
    "docs_chunked", "docs_stopword_strip", "events_rollup",
    "docs_keyword_search", "docs_bm25_top10", "events_pagerank",
    # round-4: interval join, decontamination, repetition scoring, kNN
    # graph + triangles + label propagation, EWMA, grouped mode, exact
    # distributed count-distinct, Q10 join chain
    "events_view_then_purchase", "docs_decontaminate", "docs_repetition",
    "emb_knn_graph", "emb_graph_triangles", "emb_label_prop",
    "events_user_ewma", "events_user_top_type",
    "events_unique_users_by_type", "q10_returned_revenue",
    "events_user_pivot", "events_funnel_conversion",
    "events_purchaser_activity", "events_user_range_sum",
    # round-4 (cont.): exact substring-duplication windows, grouped
    # corr/regression moments, FULL OUTER day coverage, Q18 join chain
    "docs_dup_windows", "events_value_time_corr",
    "order_ship_day_coverage", "q18_large_orders",
    # round-4 (cont.): deterministic weighted sampling, PMI collocations,
    # SymSpell typo pairs (zero-FP pin; recall signal in test_dedup.py)
    "docs_weighted_sample", "docs_pmi_bigrams", "docs_typo_pairs",
    "customer_name_typos",
    # round-4 (cont.): robust dispersion (MAD), per-source token entropy,
    # session trigram path mining
    "events_value_mad", "docs_source_entropy", "events_session_paths",
    # round-4 (cont.): bigram-LM perplexity quality scoring, median/MAD
    # robust outlier filter
    "docs_lm_perplexity", "events_value_outliers",
    # round-4 (cont.): skew-aware join (both routes active at sf0.01),
    # A-priori frequent token pairs
    "events_with_first_event", "docs_frequent_pairs",
    # round-4 (cont.): per-source KL domain-drift scoring, cohort retention
    "docs_source_kl", "events_cohort_retention", "events_funnel_3step",
    "events_value_winsorized",
    # round-5: Dataset-returning grouped quantiles, global row_number,
    # and the sketch/ANN oracle flips (md5 HLL registers, embedded-plane
    # LSH, round-each-round IVF k-means, two-pass threshold CMS)
    "events_user_quantiles", "events_value_rank",
    "events_hll_users_by_type", "docs_cms_top_terms",
    "emb_knn_lsh", "emb_knn_lsh_indexed", "emb_knn_ivf",
    # round-5: binary-content dedup + the persisted-media twins join the
    # pytest mirror (they were driver-only before)
    "media_exact_dedup", "media_features", "media_frames",
    "events_value_ntile",
]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        if df[col].dtype == object:
            df[col] = df[col].astype(str)
        elif np.issubdtype(df[col].dtype, np.floating):
            df[col] = df[col].round(6)
        elif np.issubdtype(df[col].dtype, np.integer):
            df[col] = df[col].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return con


@pytest.mark.parametrize("name", SQL_PAIRED)
def test_query_matches_duckdb_oracle(ray_session, duck, name):
    import ray.data as rd

    import __ray_entry__ as entry

    result = entry.queries()[name](SF_DIR)
    if isinstance(result, rd.Dataset):
        result = result.to_pandas()
    mine = _canon(result)
    oracle = _canon(duck.execute(entry.oracle_sql()[name]).df())
    assert list(mine.columns) == list(oracle.columns)
    assert len(mine) == len(oracle)
    pd.testing.assert_frame_equal(mine, oracle, check_dtype=False)


def test_tfidf_join_route_equals_broadcast(ray_session, monkeypatch):
    """docs_tfidf_top3's scoring join on the keyed exchange (forced through
    ``hash_join``'s predicate, as for a df table too big to broadcast)
    returns exactly the broadcast route's rows."""
    from ontonotes_5_parsing_ray.pipelines import queries as q
    from tests.conftest import exchange_joins

    a = q.docs_tfidf_top3(SF_DIR).to_pandas() \
        .sort_values(["doc_id", "token"]).reset_index(drop=True)
    exchange_joins(monkeypatch)
    b = q.docs_tfidf_top3(SF_DIR).to_pandas() \
        .sort_values(["doc_id", "token"]).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_every_query_has_an_oracle_or_rationale():
    import __ray_entry__ as entry

    qs = set(entry.queries().keys())
    sqls = set(entry.oracle_sql().keys())
    assert sqls <= qs
    # non-SQL queries are exactly the heuristic/hash/KG/model-shaped ones
    rows_only = qs - sqls
    # since round 5 every non-KG query has a full SQL twin; the KG
    # pipeline is non-SQL by nature (P/R=1.0 pytest gate instead)
    assert all(n.startswith("kg_") for n in rows_only), rows_only


def test_size_routed_fact_joins_route_parity(ray_session, monkeypatch):
    """q3/q5/q10's orders ⋈ lineitem on the broadcast route == the same
    ``hash_join`` forced onto the keyed exchange, row for row."""
    from tests.conftest import SF_DIR, exchange_joins

    from ontonotes_5_parsing_ray.pipelines import queries as q

    fns = (q.q3_top_orders, q.q5_nation_revenue, q.q10_returned_revenue)
    broadcast = [fn(SF_DIR).reset_index(drop=True) for fn in fns]
    exchange_joins(monkeypatch)
    for fn, a in zip(fns, broadcast):
        pd.testing.assert_frame_equal(a, fn(SF_DIR).reset_index(drop=True))
