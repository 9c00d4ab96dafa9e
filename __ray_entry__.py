"""Driver contract for the graft builder (Ray Data target).

The driver verifies via ``entry()`` (smoke), ``queries()[name](sf_dir)``
vs ``oracle_sql()[name]`` (DuckDB, sf=0.01 — row-count + schema +
order-insensitive value-hash), per SURVEY.md §2's operator inventory.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_001 = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship: derive a transcript view from the sf0.001 documents table,
    run the per-turn annotation + stable-ordering stages, return the
    long-form annotation Dataset (conv_id, turn_idx, kind, tag, start, end).

    The full KG build (link -> canonicalize -> nodes/edges) runs in the
    ``kg_*`` queries over the deterministic synthetic transcripts.
    """
    import pandas as pd
    import ray.data as rd

    from ontonotes_5_parsing_ray.pipelines.kg import annotate
    from ontonotes_5_parsing_ray.pipelines.queries import transcript_ordering
    from ontonotes_5_parsing_ray.stages.annotate import annotations_long_form

    turns = transcript_ordering(SF_001)

    def add_role(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["role"] = ["user" if i % 2 == 0 else "assistant"
                        for i in batch["turn_idx"]]
        return batch

    ds = turns.map_batches(add_role, batch_format="pandas")
    return annotate(ds).map_batches(annotations_long_form, batch_format="pyarrow")


def queries() -> dict[str, Callable[[str], Any]]:
    from ontonotes_5_parsing_ray.pipelines import kg_queries as kq
    from ontonotes_5_parsing_ray.pipelines import queries as q

    return {
        # ------------------------------------------------------------------
        # ORDERING = VERIFICATION BUDGET. The driver checks the FIRST 50
        # keys at sf0.01; round 4 verified registry positions 1-50 (48
        # hash-MATCH + 2 principled no_oracle, 0 fail — CORRECTNESS_r04),
        # round 5 the 50 entries without an r4 row (CORRECTNESS_r05).
        # Evidence-need order: (a0) queries with no driver MATCH for their
        # current code, (a) round-5 queries, (b) first checked in round 5,
        # (c) checked in rounds 3 and 5, then (d) the r4-verified entries
        # and (e) the three with the most evidence (hash-MATCH in rounds
        # 1, 2, 3 and 5), which leave the window to make room for (a0).
        # ------------------------------------------------------------------
        # (a0) the SQL twins of the two sketches landed in round 5 after
        #      their last driver row (r4: no_oracle), the HLL merge's fixed
        #      16-way exchange became the shared keyed exchange, and the
        #      ntile twin was never inside the window
        "events_hll_users_by_type": q.events_hll_users_by_type,
        "docs_cms_top_terms": q.docs_cms_top_terms,
        "events_value_ntile": q.events_value_ntile,
        # (a) new round-5 queries
        "events_user_quantiles": q.events_user_quantiles,
        "events_value_rank": q.events_value_rank,
        "media_exact_dedup": kq.media_exact_dedup,
        # (b) first driver-checked in round 5 (added mid-round-4)
        "docs_source_entropy": q.docs_source_entropy,
        "docs_source_kl": q.docs_source_kl,
        "docs_dup_clusters": q.docs_dup_clusters,
        "docs_stratified_sample": q.docs_stratified_sample,
        "docs_tfidf_top3": q.docs_tfidf_top3,
        "docs_chunked": q.docs_chunked,
        "docs_stopword_strip": q.docs_stopword_strip,
        "docs_keyword_search": q.docs_keyword_search,
        "docs_bm25_top10": q.docs_bm25_top10,
        "events_value_quantiles": q.events_value_quantiles,
        "events_user_rolling": q.events_user_rolling,
        "events_user_gap": q.events_user_gap,
        "events_rollup": q.events_rollup,
        "events_pagerank": q.events_pagerank,
        "events_view_then_purchase": q.events_view_then_purchase,
        "events_user_ewma": q.events_user_ewma,
        "events_user_range_sum": q.events_user_range_sum,
        "emb_knn_graph": q.emb_knn_graph,
        "emb_graph_triangles": q.emb_graph_triangles,
        "emb_label_prop": q.emb_label_prop,
        "media_features": kq.media_features,
        "media_frames": kq.media_frames,
        # (c) driver-checked in rounds 3 and 5
        "docs_bpe_tokens": q.docs_bpe_tokens,
        "docs_clean_corpus": q.docs_clean_corpus,
        "docs_source_quota": q.docs_source_quota,
        "docs_simhash_dedup": q.docs_simhash_dedup,
        "docs_training_mix": q.docs_training_mix,
        "docs_sample_10pct": q.docs_sample_10pct,
        "docs_streaming_dedup": q.docs_streaming_dedup,
        "docs_top_terms": q.docs_top_terms,
        "events_hopping": q.events_hopping,
        "events_last_purchase": q.events_last_purchase,
        "events_session_assignment": q.events_session_assignment,
        "events_median_value": q.events_median_value,
        "emb_knn_lsh": q.emb_knn_lsh,
        "emb_knn_lsh_indexed": q.emb_knn_lsh_indexed,
        "emb_knn_ivf": q.emb_knn_ivf,
        "emb_knn_multi": q.emb_knn_multi,
        "emb_near_dup_pairs": q.emb_near_dup_pairs,
        "kg_triples": kq.kg_triples,
        "kg_nodes": kq.kg_nodes,
        "kg_edges": kq.kg_edges,
        "kg_mentions": kq.kg_mentions,
        "kg_errors": kq.kg_errors,
        "kg_annotations": kq.kg_annotations,
        "kg_entity_freq": kq.kg_entity_freq,
        "kg_tag_reduce": kq.kg_tag_reduce,
        # (d) fully verified in round 4 (CORRECTNESS_r04: 48 MATCH; the
        #     two no_oracle sketches moved up to (a0))
        "q1_pricing_summary": q.q1_pricing_summary,
        "q3_top_orders": q.q3_top_orders,
        "q5_nation_revenue": q.q5_nation_revenue,
        "q10_returned_revenue": q.q10_returned_revenue,
        "top_customers": q.top_customers,
        "parts_by_type": q.parts_by_type,
        "customers_without_orders": q.customers_without_orders,
        "lineitem_discount_bands": q.lineitem_discount_bands,
        "orders_lineitem_by_status": q.orders_lineitem_by_status,
        "supplier_nation_balance": q.supplier_nation_balance,
        "brand_revenue": q.brand_revenue,
        "order_ship_day_coverage": q.order_ship_day_coverage,
        "q18_large_orders": q.q18_large_orders,
        "events_hourly": q.events_hourly,
        "events_sessions": q.events_sessions,
        "events_sessions_salted": q.events_sessions_salted,
        "events_user_stats": q.events_user_stats,
        "events_user_top_type": q.events_user_top_type,
        "events_value_time_corr": q.events_value_time_corr,
        "events_unique_users_by_type": q.events_unique_users_by_type,
        "events_user_pivot": q.events_user_pivot,
        "events_funnel_conversion": q.events_funnel_conversion,
        "events_purchaser_activity": q.events_purchaser_activity,
        "distinct_event_types": q.distinct_event_types,
        "docs_exact_dedup": q.docs_exact_dedup,
        "docs_token_stats": q.docs_token_stats,
        "docs_lang_counts": q.docs_lang_counts,
        "docs_langid": q.docs_langid,
        "docs_fingerprints": q.docs_fingerprints,
        "docs_minhash_pairs": q.docs_minhash_pairs,
        "docs_simhash_pairs": q.docs_simhash_pairs,
        "docs_decontaminate": q.docs_decontaminate,
        "docs_repetition": q.docs_repetition,
        "docs_ngram_jaccard": q.docs_ngram_jaccard,
        "docs_dup_windows": q.docs_dup_windows,
        "docs_weighted_sample": q.docs_weighted_sample,
        "docs_pmi_bigrams": q.docs_pmi_bigrams,
        "docs_typo_pairs": q.docs_typo_pairs,
        "docs_lm_perplexity": q.docs_lm_perplexity,
        "docs_frequent_pairs": q.docs_frequent_pairs,
        "customer_name_typos": q.customer_name_typos,
        "events_value_mad": q.events_value_mad,
        "events_session_paths": q.events_session_paths,
        "events_value_outliers": q.events_value_outliers,
        "events_cohort_retention": q.events_cohort_retention,
        "events_funnel_3step": q.events_funnel_3step,
        "events_value_winsorized": q.events_value_winsorized,
        "events_with_first_event": q.events_with_first_event,
        # (e) hash-MATCH in rounds 1, 2, 3 and 5
        "emb_knn_top10": q.emb_knn_top10,
        "emb_label_stats": q.emb_label_stats,
        "transcript_ordering": q.transcript_ordering,
    }


def _knn_ivf_sql(n_clusters: int = 16, n_iter: int = 5, n_probe: int = 4,
                 dim: int = 64) -> str:
    """EXACT SQL twin of the IVF kNN (emb_knn_ivf): the distributed
    spherical k-means is unrolled iteration by iteration — init = the
    n_clusters lowest-vec_id vectors (unit, rounded 6), assignment =
    argmax of ROUND-6 cosine scores (ties -> lowest cluster), update =
    per-cluster raw-vector mean, unit-normalized and rounded 6 (empty
    clusters COALESCE to the previous centroid) — then the probe picks the
    n_probe nearest centroids by rounded dot and the rounded-cosine top-10
    reranks inside. Identical doubles on both sides by the repo's
    round-before-compare contract (stages/ann.py:kmeans_fit)."""
    s = f"""
        WITH v AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
        vn AS (SELECT vec_id, e, sqrt(list_inner_product(e, e)) AS nrm
               FROM v),
        dims(d) AS (SELECT unnest(range(1, {dim + 1}))),
        c0 AS (
          SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cl,
                 list_transform(e, x -> round(x / nrm, 6)) AS c
          FROM vn ORDER BY vec_id LIMIT {n_clusters}
        )"""
    prev = "c0"
    for i in range(1, n_iter + 1):
        s += f""",
        a{i} AS (
          SELECT vec_id, cl FROM (
            SELECT vn.vec_id, p.cl,
                   row_number() OVER (PARTITION BY vn.vec_id
                     ORDER BY round(list_inner_product(vn.e, p.c)
                                    / vn.nrm, 6) DESC, p.cl) AS rn
            FROM vn, {prev} p) t WHERE rn = 1
        ),
        m{i} AS (
          SELECT a.cl, d.d, avg(vn.e[d.d]) AS mu
          FROM a{i} a JOIN vn USING (vec_id), dims d
          GROUP BY a.cl, d.d
        ),
        mc{i} AS (SELECT cl, list(mu ORDER BY d) AS m
                  FROM m{i} GROUP BY cl),
        c{i} AS (
          SELECT p.cl,
                 COALESCE((SELECT list_transform(m, x ->
                             round(x / sqrt(list_inner_product(m, m)), 6))
                           FROM mc{i} WHERE mc{i}.cl = p.cl), p.c) AS c
          FROM {prev} p
        )"""
        prev = f"c{i}"
    s += f""",
        q AS (SELECT list_transform(e, x -> x / nrm) AS qe
              FROM vn WHERE vec_id = 0),
        probe AS (
          SELECT cl FROM (
            SELECT p.cl, round(list_inner_product(p.c, q.qe), 6) AS s
            FROM {prev} p, q) t
          ORDER BY s DESC, cl LIMIT {n_probe}
        ),
        fin AS (
          SELECT vec_id, cl FROM (
            SELECT vn.vec_id, p.cl,
                   row_number() OVER (PARTITION BY vn.vec_id
                     ORDER BY round(list_inner_product(vn.e, p.c)
                                    / vn.nrm, 6) DESC, p.cl) AS rn
            FROM vn, {prev} p) t WHERE rn = 1
        )
        SELECT vn.vec_id,
               round(list_inner_product(vn.e, q.qe) / vn.nrm, 6) AS cosine
        FROM vn JOIN fin USING (vec_id), q
        WHERE fin.cl IN (SELECT cl FROM probe)
        ORDER BY cosine DESC, vn.vec_id LIMIT 10
    """
    return s


def _knn_lsh_sql() -> str:
    """EXACT SQL twin of the LSH-bucketed kNN (emb_knn_lsh /
    emb_knn_lsh_indexed): the seed-fixed hyperplane constants are embedded
    and the probe-set semantics replayed — bucket = per-plane dot signs,
    candidates = the query's bucket plus its single-bit flips at plane
    positions 0..3 (the multiprobe=3 loop admits exactly those four), then
    the same exact rounded-cosine rerank as the brute-force twin. Works
    because the whole path computes in float64 (stages/ann.py)."""
    from ontonotes_5_parsing_ray.stages.ann import HyperplaneBuckets

    planes = HyperplaneBuckets(64, n_planes=6, seed=7).planes
    vals = ",".join(
        f"({p}, [{','.join(repr(float(x)) for x in planes[p])}]::DOUBLE[])"
        for p in range(6))   # float(): numpy>=2 repr says np.float64(...)
    return f"""
        WITH planes(p, w) AS (VALUES {vals}),
        v AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
        q AS (SELECT e AS qe FROM v WHERE vec_id = 0),
        sv AS (SELECT v.vec_id, p.p,
                      CASE WHEN list_inner_product(v.e, p.w) >= 0
                           THEN 1 ELSE 0 END AS s,
                      CASE WHEN list_inner_product(q.qe, p.w) >= 0
                           THEN 1 ELSE 0 END AS qs
               FROM v, planes p, q),
        d AS (SELECT vec_id,
                     sum(CASE WHEN s != qs THEN 1 ELSE 0 END) AS nd,
                     sum(CASE WHEN s != qs AND p >= 4
                              THEN 1 ELSE 0 END) AS nd_high
              FROM sv GROUP BY vec_id),
        cand AS (SELECT vec_id FROM d
                 WHERE nd = 0 OR (nd = 1 AND nd_high = 0))
        SELECT v.vec_id,
               round(list_cosine_similarity(v.e, q.qe), 6) AS cosine
        FROM v JOIN cand USING (vec_id), q
        ORDER BY cosine DESC, v.vec_id LIMIT 10
    """


# The word-3-shingle set per non-blank document (a document of <= 3 tokens
# is its own single shingle) — the exact expression of
# ``functions.hashing.word_shingles``, shared by every document-similarity
# twin as the CTEs ``tk`` (tokens) and ``sh`` (``shingles``).
_DOC_SHINGLE_CTES = """tk AS (
                SELECT doc_id,
                       regexp_split_to_array(trim(text), '\\s+') AS tks
                FROM documents WHERE trim(text) <> ''
            ), sh AS (
                SELECT doc_id,
                       list_distinct(CASE WHEN len(tks) <= 3
                            THEN [array_to_string(tks, ' ')]
                            ELSE list_transform(
                                 generate_series(1, len(tks) - 2),
                                 i -> tks[i] || ' ' || tks[i+1]
                                      || ' ' || tks[i+2])
                       END) AS shingles
                FROM tk
            )"""


def _minhash_pairs_sql(threshold: float = 0.35, num_perm: int = 64,
                       bands: int = 16) -> str:
    """EXACT SQL twin of the MinHash near-dup operator, generated with the
    seeded permutation constants embedded: shingle hash (md5 low-32, the
    same ``md5_number_upper`` trick as simhash), the (a*x+b) mod p
    universal-hash minima, band-slice collision blocking, the estimated-
    similarity screen, and the exact word-shingle Jaccard verify — recall
    semantics and all."""
    from ontonotes_5_parsing_ray.functions.hashing import MinHasher

    h = MinHasher(num_perm, base_hash="md5_32")
    perm_rows = ",".join(
        f"({i},{int(a)}::UBIGINT,{int(b)}::UBIGINT)"
        for i, (a, b) in enumerate(zip(h.a, h.b)))
    rows_per_band = num_perm // bands
    band_conds = " OR ".join(
        f"list_slice(a.sig, {band*rows_per_band+1}, {(band+1)*rows_per_band})"
        f" = list_slice(b.sig, {band*rows_per_band+1},"
        f" {(band+1)*rows_per_band})"
        for band in range(bands))
    return f"""
        WITH {_DOC_SHINGLE_CTES}, sh_h AS (
            SELECT doc_id, md5_number_upper(s.sh) & 4294967295 AS h
            FROM sh, unnest(sh.shingles) AS s(sh)
        ), mins AS (
            SELECT doc_id, p.i AS perm,
                   min(((p.a * h + p.b) % 2305843009213693951)
                       & 4294967295) AS mv
            FROM sh_h CROSS JOIN (VALUES {perm_rows}) p(i, a, b)
            GROUP BY doc_id, p.i
        ), sigs AS (
            SELECT doc_id, list(mv ORDER BY perm) AS sig
            FROM mins GROUP BY doc_id
        ), cand AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   a.sig AS sa, b.sig AS sb
            FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
            WHERE {band_conds}
        ), screened AS (
            SELECT doc_a, doc_b FROM cand
            WHERE len(list_filter(generate_series(1, {num_perm}),
                                  i -> sa[i] = sb[i])) / {num_perm}.0
                  >= ({threshold} - 0.25)
        )
        SELECT c.doc_a, c.doc_b,
               round(len(list_intersect(x.shingles, y.shingles))
                     / (len(x.shingles) + len(y.shingles)
                        - len(list_intersect(x.shingles, y.shingles))), 6)
                   AS jaccard
        FROM screened c
        JOIN sh x ON c.doc_a = x.doc_id
        JOIN sh y ON c.doc_b = y.doc_id
        WHERE len(list_intersect(x.shingles, y.shingles))
              / (len(x.shingles) + len(y.shingles)
                 - len(list_intersect(x.shingles, y.shingles)))
              >= {threshold}
        ORDER BY doc_a, doc_b
    """


def _fingerprints_sql(window: int = 16, base: int = 257) -> str:
    """EXACT SQL twin of docs_fingerprints (generated — the modular power
    constants 257^k mod 2^61-1 are embedded, the same pattern as the
    minhash permutation constants). All integer math: the polynomial
    window hash is summed in HUGEINT and reduced mod the Mersenne prime,
    the winnowing min is a plain MIN, and text_hash / the short-text
    fallback / simhash are all md5-based (``md5_number_upper``)."""
    p = (1 << 61) - 1
    powers = ", ".join(
        f"({k}, {pow(base, k, p)}::HUGEINT)" for k in range(window))
    mask62 = (1 << 62) - 1
    mask32 = (1 << 32) - 1
    return f"""
        WITH d AS (
            SELECT doc_id, text, length(text) AS n FROM documents
        ), pw(k, p) AS (VALUES {powers}),
        win AS (
            SELECT d.doc_id, g.i,
                   (sum(ascii(substr(d.text, g.i + {window - 1} - pw.k, 1))
                        ::HUGEINT * pw.p) % {p})::BIGINT AS h
            FROM d, generate_series(1, 4096) AS g(i), pw
            WHERE g.i <= d.n - {window - 1} AND d.n > {window}
            GROUP BY d.doc_id, g.i
        ), fp AS (
            SELECT doc_id, (min(h) & {mask32})::BIGINT AS fingerprint
            FROM win GROUP BY doc_id
        ), toks AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(trim(text), '\\s+')) AS tok
            FROM documents WHERE trim(text) <> ''
        ), th AS (
            SELECT doc_id, md5_number_upper(tok) AS h FROM toks
        ), bits AS (
            SELECT doc_id, b.bit,
                   sum(CASE WHEN (h >> b.bit) & 1 = 1
                            THEN 1 ELSE -1 END) AS acc
            FROM th, (SELECT unnest(generate_series(0, 63)) AS bit) b
            GROUP BY doc_id, b.bit
        ), sigs AS (
            SELECT doc_id,
                   sum(CASE WHEN acc > 0 THEN (1::UBIGINT << bit)
                            ELSE 0::UBIGINT END)::UBIGINT AS sig
            FROM bits GROUP BY doc_id
            UNION ALL
            SELECT doc_id, 0::UBIGINT AS sig
            FROM documents WHERE trim(text) = ''
        )
        SELECT d.doc_id,
               (md5_number_upper(d.text) & {mask62})::BIGINT AS text_hash,
               CASE WHEN d.n = 0 THEN 0
                    WHEN d.n <= {window}
                    THEN (md5_number_upper(d.text) & {mask32})::BIGINT
                    ELSE fp.fingerprint END AS fingerprint,
               (s.sig & {mask62})::BIGINT AS simhash
        FROM d
        LEFT JOIN fp ON fp.doc_id = d.doc_id
        JOIN sigs s ON s.doc_id = d.doc_id
    """


def _media_path() -> str:
    """Ensure the deterministic media parquet exists (idempotent, atomic)
    and return its path — called while BUILDING the oracle SQL so the twin
    works no matter whether the driver runs the Ray query or the SQL
    first."""
    from ontonotes_5_parsing_ray.stages.multimodal import media_table_path

    return media_table_path()


def oracle_sql() -> dict[str, str]:
    return {
        "docs_minhash_pairs": _minhash_pairs_sql(),
        # docs_ngram_jaccard is EXACT (prefix filtering, 100% recall), so
        # its oracle is the definition itself: brute-force trigram Jaccard
        "docs_ngram_jaccard": f"""
            WITH {_DOC_SHINGLE_CTES}
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   round(len(list_intersect(a.shingles, b.shingles))
                         / (len(a.shingles) + len(b.shingles)
                            - len(list_intersect(a.shingles, b.shingles))),
                         6) AS jaccard
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.shingles, b.shingles))
                  / (len(a.shingles) + len(b.shingles)
                     - len(list_intersect(a.shingles, b.shingles))) >= 0.5
            ORDER BY doc_a, doc_b
        """,
        # Decontamination twin: the identical shingle expression the
        # docs_minhash_pairs oracle already proves, grams of the
        # doc_id % 29 == 0 "benchmark" slice joined back against the rest;
        # count(*) over the distinct (doc, gram) pairs == distinct-overlap.
        "docs_decontaminate": f"""
            WITH {_DOC_SHINGLE_CTES}, grams AS (
                SELECT doc_id, s.g FROM sh, unnest(sh.shingles) AS s(g)
            ), bench AS (
                SELECT DISTINCT g FROM grams WHERE doc_id % 29 = 0
            )
            SELECT g.doc_id, count(*) AS n_overlap
            FROM grams g JOIN bench USING (g)
            WHERE g.doc_id % 29 <> 0
            GROUP BY g.doc_id
        """,
        # Repetition twin: 2-gram counts per doc, max-over-total occurrence
        # fraction; docs with <2 tokens have no grams and drop out.
        "docs_repetition": """
            WITH tk AS (
                SELECT doc_id,
                       regexp_split_to_array(trim(text), '\\s+') AS tks
                FROM documents WHERE trim(text) <> ''
            ), g AS (
                SELECT doc_id,
                       unnest(list_transform(
                           generate_series(1, len(tks) - 1),
                           i -> tks[i] || ' ' || tks[i+1])) AS g2
                FROM tk WHERE len(tks) >= 2
            ), c AS (
                SELECT doc_id, g2, count(*) AS c FROM g GROUP BY 1, 2
            )
            SELECT doc_id,
                   round(max(c)::DOUBLE / sum(c), 6) AS rep2_ratio
            FROM c GROUP BY doc_id
        """,
        # Exact substring-duplication twin: every 5-token window
        # materialized by position, corpus totals by window text, per-doc
        # duplicated-position counts. The Ray side groups by a 64-bit window
        # hash instead of the text — collision-free at these scales, so the
        # counts are identical.
        "docs_dup_windows": """
            WITH tk AS (
                SELECT doc_id,
                       regexp_split_to_array(trim(text), '\\s+') AS tks
                FROM documents WHERE trim(text) <> ''
            ), w AS (
                SELECT doc_id,
                       unnest(list_transform(
                           generate_series(1, len(tks) - 4),
                           i -> array_to_string(
                               list_slice(tks, i, i + 4), ' '))) AS w5
                FROM tk WHERE len(tks) >= 5
            ), c AS (
                SELECT w5, count(*) AS total FROM w GROUP BY w5
            )
            SELECT doc_id,
                   count(*)::BIGINT AS n_windows,
                   sum(CASE WHEN total >= 2 THEN 1 ELSE 0 END)::BIGINT
                       AS n_dup,
                   round(sum(CASE WHEN total >= 2 THEN 1 ELSE 0 END)::DOUBLE
                         / count(*), 6) AS dup_fraction
            FROM w JOIN c USING (w5)
            GROUP BY doc_id
        """,
        # Weighted-sampling twin (Efraimidis-Spirakis key): the md5-derived
        # uniform and the ln-key are the same IEEE arithmetic on both sides.
        "docs_weighted_sample": """
            WITH s AS (
                SELECT doc_id, source,
                       round(ln((md5_number_upper(CAST(doc_id AS VARCHAR))
                                 ::DOUBLE + 0.5)
                                / 18446744073709551616.0) / n_chars, 9)
                           AS wkey
                FROM documents WHERE n_chars > 0
            )
            SELECT doc_id, source, wkey FROM s
            ORDER BY wkey DESC, doc_id LIMIT 20
        """,
        # PMI collocation twin: unigram + adjacent-bigram counts, identical
        # multiply/divide order inside ln().
        "docs_pmi_bigrams": """
            WITH tk AS (
                SELECT regexp_split_to_array(trim(text), '\\s+') AS tks
                FROM documents WHERE trim(text) <> ''
            ), u AS (
                SELECT unnest(tks) AS w FROM tk
            ), uc AS (
                SELECT w, count(*)::BIGINT AS c FROM u GROUP BY w
            ), n AS (
                SELECT count(*)::DOUBLE AS n_tokens FROM u
            ), b AS (
                SELECT unnest(list_transform(
                    generate_series(1, len(tks) - 1),
                    i -> [tks[i], tks[i+1]])) AS pr
                FROM tk WHERE len(tks) >= 2
            ), bc AS (
                SELECT pr[1] AS w1, pr[2] AS w2,
                       count(*)::BIGINT AS n_pair
                FROM b GROUP BY 1, 2 HAVING count(*) >= 5
            )
            SELECT w1, w2, n_pair,
                   round(ln(n_pair::DOUBLE * n.n_tokens
                            / (u1.c::DOUBLE * u2.c::DOUBLE)), 6) AS pmi
            FROM bc
            JOIN uc u1 ON bc.w1 = u1.w
            JOIN uc u2 ON bc.w2 = u2.w
            CROSS JOIN n
            ORDER BY pmi DESC, w1, w2 LIMIT 20
        """,
        # Frequent-pair twin: distinct (doc, token) self-join within doc,
        # support count, same >= floors on both sides. The A-priori token
        # pre-filter is an optimization only — a pair's support is bounded
        # by min(df), so it cannot change the result set.
        "docs_frequent_pairs": """
            WITH dt AS (
                SELECT DISTINCT doc_id,
                       unnest(regexp_split_to_array(trim(text), '\\s+'))
                    AS w
                FROM documents WHERE trim(text) <> ''
            )
            SELECT a.w AS w1, b.w AS w2, count(*)::BIGINT AS n_docs
            FROM dt a JOIN dt b
              ON a.doc_id = b.doc_id AND a.w < b.w
            GROUP BY 1, 2 HAVING count(*) >= 20
            ORDER BY n_docs DESC, w1, w2 LIMIT 20
        """,
        # Perplexity twin: the same add-one bigram model spelled out in
        # SQL — unigram/bigram counts, per-position smoothed ln P, doc
        # perplexity = exp(-avg). Rounding absorbs summation-order ulps.
        "docs_lm_perplexity": """
            WITH tk AS (
                SELECT doc_id,
                       regexp_split_to_array(trim(text), '\\s+') AS tks
                FROM documents WHERE trim(text) <> ''
            ), u AS (
                SELECT unnest(tks) AS w FROM tk
            ), uc AS (
                SELECT w, count(*)::DOUBLE AS c FROM u GROUP BY w
            ), v AS (
                SELECT count(*)::DOUBLE AS v FROM uc
            ), pos AS (
                SELECT doc_id,
                       unnest(list_transform(
                           generate_series(1, len(tks) - 1),
                           i -> [tks[i], tks[i+1]])) AS pr
                FROM tk WHERE len(tks) >= 2
            ), bc AS (
                SELECT pr[1] AS w1, pr[2] AS w2, count(*)::DOUBLE AS c
                FROM pos GROUP BY 1, 2
            )
            SELECT p.doc_id,
                   round(exp(-avg(ln((bc.c + 1.0) / (uc.c + v.v)))), 6)
                       AS perplexity
            FROM pos p
            JOIN bc ON p.pr[1] = bc.w1 AND p.pr[2] = bc.w2
            JOIN uc ON p.pr[1] = uc.w
            CROSS JOIN v
            GROUP BY p.doc_id
        """,
        # Typo-pair twin: the vocabulary cross join with DuckDB's native
        # levenshtein — feasible because the vocabulary (len>=3, count>=3)
        # is tiny; the Ray side never enumerates all pairs (deletion
        # variants). The synthetic corpus has zero distance-1 pairs, so
        # this pins zero false positives; recall signal is in pytest.
        "docs_typo_pairs": """
            WITH u AS (
                SELECT unnest(regexp_split_to_array(trim(text), '\\s+'))
                    AS w
                FROM documents WHERE trim(text) <> ''
            ), uc AS (
                SELECT w, count(*)::BIGINT AS c FROM u GROUP BY w
            ), t AS (
                SELECT w FROM uc WHERE len(w) >= 3 AND c >= 3
            )
            SELECT a.w AS tok_a, b.w AS tok_b
            FROM t a JOIN t b
              ON a.w < b.w AND levenshtein(a.w, b.w) <= 1
        """,
        # Session-path twin: the events_sessions gap/ordering convention,
        # trigrams via two leads inside (user, session).
        "events_session_paths": """
            WITH e AS (
                SELECT user_id, event_id, event_type,
                       epoch_us(ts) // 1000000 AS ep
                FROM events
            ), g AS (
                SELECT *, CASE WHEN ep - lag(ep) OVER w > 1800
                               OR lag(ep) OVER w IS NULL
                          THEN 1 ELSE 0 END AS new_s
                FROM e WINDOW w AS (PARTITION BY user_id
                                    ORDER BY ep, event_id)
            ), s AS (
                SELECT *, sum(new_s) OVER (PARTITION BY user_id
                                           ORDER BY ep, event_id
                                           ROWS UNBOUNDED PRECEDING) AS sid
                FROM g
            ), t AS (
                SELECT event_type AS t1,
                       lead(event_type, 1) OVER w2 AS t2,
                       lead(event_type, 2) OVER w2 AS t3
                FROM s WINDOW w2 AS (PARTITION BY user_id, sid
                                     ORDER BY ep, event_id)
            )
            SELECT t1, t2, t3, count(*)::BIGINT AS n
            FROM t WHERE t2 IS NOT NULL AND t3 IS NOT NULL
            GROUP BY 1, 2, 3
            ORDER BY n DESC, t1, t2, t3 LIMIT 20
        """,
        # MAD twin: median-of-absolute-deviations, both medians exact and
        # interpolated the same way (events_median_value already pins the
        # inner median bit-for-bit).
        "events_value_mad": """
            WITH m AS (
                SELECT event_type, median(value) AS med FROM events
                GROUP BY event_type
            )
            SELECT e.event_type,
                   round(any_value(m.med), 6) AS median_value,
                   round(median(abs(e.value - m.med)), 6) AS mad
            FROM events e JOIN m USING (event_type)
            GROUP BY e.event_type
        """,
        # Skew-join twin: first event per user attached to every event; the
        # Ray side routes hot users through a broadcast map-side join and
        # the rest through the co-partitioned hash join — same rows.
        "events_with_first_event": """
            WITH f AS (
                SELECT user_id, event_type AS first_type,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS rn
                FROM events
            )
            SELECT e.event_id, e.user_id, e.event_type, f.first_type
            FROM events e
            JOIN (SELECT user_id, first_type FROM f WHERE rn = 1) f
              USING (user_id)
        """,
        # Winsorized-aggregate twin: quantile_cont bounds (the exact
        # histogram-refinement quantiles hash-match these), then
        # least/greatest clipping before the sum.
        "events_value_winsorized": """
            WITH b AS (
                SELECT event_type,
                       quantile_cont(value, 0.05) AS p05,
                       quantile_cont(value, 0.95) AS p95
                FROM events GROUP BY event_type
            )
            SELECT e.event_type,
                   round(any_value(b.p05), 6) AS p05,
                   round(any_value(b.p95), 6) AS p95,
                   count(*)::BIGINT AS n_events,
                   round(sum(least(greatest(e.value, b.p05), b.p95)), 6)
                       AS winsorized_sum
            FROM events e JOIN b USING (event_type)
            GROUP BY e.event_type
        """,
        # 3-step funnel twin: the same strict-after window semantics as
        # the interval-join oracle, chained; per-step distinct users.
        "events_funnel_3step": """
            WITH e AS (
                SELECT event_id, user_id, event_type,
                       epoch_us(ts) // 1000000 AS ep
                FROM events
            ), vc AS (
                SELECT DISTINCT c.user_id, c.event_id, c.ep
                FROM e v JOIN e c ON c.user_id = v.user_id
                WHERE v.event_type = 'view' AND c.event_type = 'click'
                  AND c.ep > v.ep AND c.ep <= v.ep + 3600
            ), vcp AS (
                SELECT DISTINCT p.user_id
                FROM e p JOIN vc ON vc.user_id = p.user_id
                WHERE p.event_type = 'purchase'
                  AND p.ep > vc.ep AND p.ep <= vc.ep + 3600
            )
            SELECT (SELECT count(DISTINCT user_id) FROM e
                    WHERE event_type = 'view')::BIGINT AS n_view_users,
                   (SELECT count(DISTINCT user_id) FROM vc)::BIGINT
                       AS n_view_click_users,
                   (SELECT count(*) FROM vcp)::BIGINT
                       AS n_full_funnel_users
        """,
        # Cohort-retention twin: epoch-floor week buckets, per-user min
        # week as the cohort, distinct users per (cohort, offset).
        "events_cohort_retention": """
            WITH uw AS (
                SELECT DISTINCT user_id,
                       (epoch_us(ts) // 1000000) // 604800 AS week
                FROM events
            ), c AS (
                SELECT user_id, week,
                       min(week) OVER (PARTITION BY user_id)
                           AS cohort_week
                FROM uw
            )
            SELECT cohort_week,
                   (week - cohort_week)::BIGINT AS week_offset,
                   count(DISTINCT user_id)::BIGINT AS n_users
            FROM c GROUP BY 1, 2
        """,
        # Robust-outlier twin: same median/MAD rule; both sides derive the
        # identical exact medians, so the strict > boundary agrees.
        "events_value_outliers": """
            WITH m AS (
                SELECT event_type, median(value) AS med FROM events
                GROUP BY event_type
            ), s AS (
                SELECT e.event_type,
                       median(abs(e.value - m.med)) AS mad
                FROM events e JOIN m USING (event_type)
                GROUP BY e.event_type
            )
            SELECT e.event_id, e.event_type, round(e.value, 6) AS value
            FROM events e
            JOIN m USING (event_type) JOIN s USING (event_type)
            WHERE abs(e.value - m.med) > 5.0 * s.mad
        """,
        # Entropy twin: -sum(p ln p) over the per-source unigram
        # distribution; rounding absorbs summation-order ulps.
        "docs_source_entropy": """
            WITH tk AS (
                SELECT source,
                       unnest(regexp_split_to_array(trim(text), '\\s+'))
                    AS w
                FROM documents WHERE trim(text) <> ''
            ), c AS (
                SELECT source, w, count(*)::DOUBLE AS c
                FROM tk GROUP BY 1, 2
            ), n AS (
                SELECT source, sum(c) AS n FROM c GROUP BY source
            )
            SELECT c.source, n.n::BIGINT AS n_tokens,
                   round(-sum((c.c / n.n) * ln(c.c / n.n)), 6) AS entropy
            FROM c JOIN n USING (source)
            GROUP BY c.source, n.n
        """,
        # KL-drift twin: full-vocabulary grid (absent tokens carry their
        # smoothed mass), identical smoothing arithmetic per term.
        "docs_source_kl": """
            WITH tk AS (
                SELECT source,
                       unnest(regexp_split_to_array(trim(text), '\\s+'))
                    AS w
                FROM documents WHERE trim(text) <> ''
            ), sc AS (
                SELECT source, w, count(*)::DOUBLE AS c
                FROM tk GROUP BY 1, 2
            ), cc AS (
                SELECT w, count(*)::DOUBLE AS c FROM tk GROUP BY w
            ), v AS (
                SELECT count(*)::DOUBLE AS v, sum(c) AS n FROM cc
            ), ns AS (
                SELECT source, sum(c) AS n_s FROM sc GROUP BY source
            ), grid AS (
                SELECT ns.source, ns.n_s, cc.c AS cq,
                       coalesce(sc.c, 0.0) AS cp
                FROM ns CROSS JOIN cc
                LEFT JOIN sc ON sc.source = ns.source AND sc.w = cc.w
            )
            SELECT g.source,
                   any_value(g.n_s)::BIGINT AS n_tokens,
                   round(sum(((g.cp + 1) / (g.n_s + v.v))
                             * ln(((g.cp + 1) / (g.n_s + v.v))
                                  / ((g.cq + 1) / (v.n + v.v)))), 6)
                       AS kl
            FROM grid g CROSS JOIN v GROUP BY g.source
        """,
        # Fuzzy record-linkage twin with real signal: serial-numbered
        # customer names pair at distance 1 whenever one digit differs.
        "customer_name_typos": """
            SELECT a.c_name AS tok_a, b.c_name AS tok_b
            FROM customer a JOIN customer b
              ON a.c_name < b.c_name
             AND levenshtein(a.c_name, b.c_name) <= 1
        """,
        # Connected components over the exact pair graph: recursive
        # min-label walk (a label propagates along edges while smaller than
        # the target id); min over reached labels = component min id.
        "docs_dup_clusters": f"""
            WITH RECURSIVE {_DOC_SHINGLE_CTES}, p AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
                FROM sh a JOIN sh b ON a.doc_id < b.doc_id
                WHERE len(list_intersect(a.shingles, b.shingles))
                      / (len(a.shingles) + len(b.shingles)
                         - len(list_intersect(a.shingles, b.shingles)))
                      >= 0.5
            ), edges AS (
                SELECT doc_a AS u, doc_b AS v FROM p
                UNION ALL SELECT doc_b, doc_a FROM p
            ), walk(doc_id, lbl) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT e.u, w.lbl
                FROM walk w JOIN edges e ON e.v = w.doc_id
                WHERE w.lbl < e.u
            )
            SELECT doc_id, min(lbl) AS cluster_id
            FROM walk GROUP BY doc_id ORDER BY doc_id
        """,
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   count(*) AS n_rows,
                   round(sum(l_quantity) / count(*), 4) AS avg_qty
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "q3_top_orders": """
            SELECT l.l_orderkey,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            WHERE c.c_mktsegment = 'BUILDING'
            GROUP BY l.l_orderkey
            ORDER BY revenue DESC, l.l_orderkey
            LIMIT 10
        """,
        # Q10 twin: per-customer returned revenue rounded BEFORE ranking so
        # the top-20 cut and its ties match the Ray round-before-truncate.
        "q10_returned_revenue": """
            WITH per_cust AS (
                SELECT o.o_custkey,
                       round(sum(l.l_extendedprice * (1 - l.l_discount)),
                             2) AS revenue
                FROM lineitem l JOIN orders o
                     ON o.o_orderkey = l.l_orderkey
                WHERE l.l_returnflag = 'R'
                GROUP BY o.o_custkey
            )
            SELECT c.c_custkey, c.c_name, n.n_name, c.c_acctbal,
                   p.revenue
            FROM per_cust p
            JOIN customer c ON c.c_custkey = p.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            ORDER BY p.revenue DESC, c.c_custkey
            LIMIT 20
        """,
        "q5_nation_revenue": """
            SELECT n.n_name,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY n.n_name
            ORDER BY n.n_name
        """,
        "top_customers": """
            SELECT c.c_custkey, c.c_name,
                   round(sum(o.o_totalprice), 2) AS total_price
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_custkey, c.c_name
            ORDER BY total_price DESC, c.c_custkey
            LIMIT 10
        """,
        "supplier_nation_balance": """
            SELECT n.n_name, count(*) AS n_suppliers,
                   round(sum(s.s_acctbal), 2) AS acctbal_sum
            FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
            GROUP BY n.n_name ORDER BY n.n_name
        """,
        "brand_revenue": """
            SELECT p.p_brand, count(*) AS n_items,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2)
                       AS revenue
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            GROUP BY p.p_brand ORDER BY p.p_brand
        """,
        "events_hourly": """
            SELECT event_type,
                   ((epoch_us(ts) // 1000000) // 3600) * 3600 AS window_start,
                   count(*) AS n_events,
                   round(sum(value), 6) AS value_sum
            FROM events
            GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "events_sessions": """
            WITH e AS (
                SELECT user_id, event_id, epoch_us(ts) // 1000000 AS ep, value
                FROM events
            ), g AS (
                SELECT *, CASE WHEN ep - lag(ep) OVER w > 1800
                               OR lag(ep) OVER w IS NULL
                          THEN 1 ELSE 0 END AS new_s
                FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ep, event_id)
            ), s AS (
                SELECT *, (sum(new_s) OVER (PARTITION BY user_id
                                            ORDER BY ep, event_id
                                            ROWS UNBOUNDED PRECEDING) - 1)::BIGINT
                          AS session_idx
                FROM g
            )
            SELECT user_id, session_idx,
                   min(ep) AS session_start, max(ep) AS session_end,
                   count(*) AS n_events, round(sum(value), 6) AS value_sum
            FROM s GROUP BY user_id, session_idx
            ORDER BY user_id, session_idx
        """,
        # the skew-safe two-phase variant must satisfy the identical oracle
        "events_sessions_salted": """
            WITH e AS (
                SELECT user_id, event_id, epoch_us(ts) // 1000000 AS ep, value
                FROM events
            ), g AS (
                SELECT *, CASE WHEN ep - lag(ep) OVER w > 1800
                               OR lag(ep) OVER w IS NULL
                          THEN 1 ELSE 0 END AS new_s
                FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ep, event_id)
            ), s AS (
                SELECT *, (sum(new_s) OVER (PARTITION BY user_id
                                            ORDER BY ep, event_id
                                            ROWS UNBOUNDED PRECEDING) - 1)::BIGINT
                          AS session_idx
                FROM g
            )
            SELECT user_id, session_idx,
                   min(ep) AS session_start, max(ep) AS session_end,
                   count(*) AS n_events, round(sum(value), 6) AS value_sum
            FROM s GROUP BY user_id, session_idx
            ORDER BY user_id, session_idx
        """,
        "parts_by_type": """
            SELECT p_type, count(*) AS n_parts,
                   round(sum(p_retailprice) / count(*), 4) AS avg_price
            FROM part GROUP BY p_type ORDER BY p_type
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
        """,
        "lineitem_discount_bands": """
            SELECT CASE WHEN l_discount < 0.03 THEN 'low'
                        WHEN l_discount < 0.07 THEN 'mid'
                        ELSE 'high' END AS band,
                   count(*) AS n_items,
                   round(sum(l_extendedprice), 2) AS sum_price
            FROM lineitem GROUP BY band ORDER BY band
        """,
        "orders_lineitem_by_status": """
            SELECT o.o_orderstatus,
                   count(*) AS n_items,
                   round(sum(l.l_extendedprice), 2) AS sum_price
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderstatus
            ORDER BY o.o_orderstatus
        """,
        # Grouped-mode twin: per-user (type,count), argmax by
        # (count desc, type asc) via row_number.
        "events_user_top_type": """
            WITH c AS (
                SELECT user_id, event_type, count(*) AS n
                FROM events GROUP BY 1, 2
            )
            SELECT user_id, event_type, n FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY user_id
                    ORDER BY n DESC, event_type) AS rn
                FROM c) WHERE rn = 1
        """,
        # FULL OUTER join twin: day-level pre-aggregates joined with
        # COALESCE'd counts (the Ray side goes through a full_outer
        # hash_join after identical pre-aggregation).
        "order_ship_day_coverage": """
            WITH o AS (
                SELECT strftime(o_orderdate, '%Y-%m-%d') AS day,
                       count(*)::BIGINT AS n_orders
                FROM orders GROUP BY 1
            ), s AS (
                SELECT strftime(l_shipdate, '%Y-%m-%d') AS day,
                       count(*)::BIGINT AS n_shipments
                FROM lineitem GROUP BY 1
            )
            SELECT day,
                   coalesce(n_orders, 0)::BIGINT AS n_orders,
                   coalesce(n_shipments, 0)::BIGINT AS n_shipments
            FROM o FULL OUTER JOIN s USING (day)
        """,
        # TPC-H Q18 shape: HAVING-filtered fact pre-agg re-joined to
        # orders + customer, deterministic tie-broken top-100.
        "q18_large_orders": """
            WITH big AS (
                SELECT l_orderkey, sum(l_quantity) AS sum_qty
                FROM lineitem GROUP BY 1 HAVING sum(l_quantity) > 180
            ), t AS (
                SELECT o.o_orderkey, o.o_custkey, o.o_totalprice,
                       o.o_orderdate, big.sum_qty
                FROM orders o JOIN big ON o.o_orderkey = big.l_orderkey
                ORDER BY o.o_totalprice DESC, o.o_orderdate, o.o_orderkey
                LIMIT 100
            )
            SELECT c.c_name, c.c_custkey, t.o_orderkey,
                   strftime(t.o_orderdate, '%Y-%m-%d') AS o_orderdate,
                   round(t.o_totalprice, 2) AS o_totalprice,
                   round(t.sum_qty, 2) AS sum_qty
            FROM t JOIN customer c ON c.c_custkey = t.o_custkey
        """,
        # Grouped correlation / regression twin: DuckDB's numerically-stable
        # corr/regr_slope vs the Ray side's offset moment sums — equal to
        # far more than the 6 rounded decimals (x is offset near the data).
        "events_value_time_corr": """
            SELECT event_type,
                   count(*)::BIGINT AS n_events,
                   round(corr(value,
                              epoch_us(ts)::DOUBLE / 1000000
                              - 1704067200), 6) AS corr_value_time,
                   round(regr_slope(value,
                                    epoch_us(ts)::DOUBLE / 1000000
                                    - 1704067200) * 86400, 6)
                       AS slope_per_day
            FROM events GROUP BY event_type
        """,
        "events_unique_users_by_type": """
            SELECT event_type,
                   count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        # HLL twin: the md5-based register construction replayed exactly in
        # SQL — md5_number_upper == little-endian first 8 md5 bytes, register
        # index = top 12 bits, rank = 53 - bit_length(low 52 bits) via
        # length(bin(x)), elementwise-max registers, alpha*m^2/sum(2^-reg)
        # with the linear-counting small-range correction. The APPROXIMATE
        # estimate itself hash-matches (it is deterministic given the data).
        "events_hll_users_by_type": """
            WITH d AS (SELECT DISTINCT event_type, user_id FROM events),
            h AS (SELECT event_type,
                         md5_number_upper(CAST(user_id AS VARCHAR)) AS h
                  FROM d),
            r AS (SELECT event_type, (h >> 52) AS idx,
                         CASE WHEN (h % 4503599627370496::UBIGINT)
                                   = 0::UBIGINT THEN 53
                              ELSE 53 - length(bin(
                                   h % 4503599627370496::UBIGINT)) END
                             AS rank
                  FROM h),
            regs AS (SELECT event_type, idx, max(rank) AS reg
                     FROM r GROUP BY event_type, idx),
            agg AS (SELECT event_type,
                           sum(pow(2.0, -reg)) + (4096 - count(*)) AS denom,
                           4096 - count(*) AS zeros
                    FROM regs GROUP BY event_type)
            SELECT event_type,
                   CAST(round(CASE WHEN ((0.7213/(1.0+1.079/4096))
                                         *4096*4096/denom) <= 2.5*4096
                                        AND zeros > 0
                                   THEN 4096 * ln(4096.0 / zeros)
                                   ELSE (0.7213/(1.0+1.079/4096))
                                        *4096*4096/denom END) AS BIGINT)
                       AS n_users_approx
            FROM agg ORDER BY event_type
        """,
        # CMS heavy-hitter twin: DuckDB rebuilds every (row, bucket)
        # counter from EXACT token counts with the same md5 row hashes
        # (md5_number_upper(d || ':' || token) % 16384) and replays the
        # min-over-rows estimates and the total//50 support threshold —
        # possible since round 5's batch-independent two-pass semantics.
        "docs_cms_top_terms": """
            WITH t AS (
                SELECT unnest(regexp_split_to_array(trim(text), '\s+'))
                           AS tok
                FROM documents WHERE trim(text) <> ''
            ),
            tc AS (SELECT tok, count(*)::BIGINT AS n FROM t GROUP BY tok),
            tot AS (SELECT sum(n)::BIGINT AS total FROM tc),
            tb AS (SELECT tok, n, d,
                          (md5_number_upper(d::VARCHAR || ':' || tok)
                           % 16384)::BIGINT AS b
                   FROM tc, range(0, 4) r(d)),
            bc AS (SELECT d, b, sum(n)::BIGINT AS cnt
                   FROM tb GROUP BY d, b),
            est AS (SELECT tb.tok, min(bc.cnt)::BIGINT AS n_est
                    FROM tb JOIN bc USING (d, b) GROUP BY tb.tok)
            SELECT tok AS token, n_est
            FROM est, tot
            WHERE n_est >= total // 50
            ORDER BY n_est DESC, token LIMIT 20
        """,
        # Bloom-prefilter composition twin: plain IN — the bloom stage is
        # a superset prefilter whose exact verify restores IN semantics.
        "events_purchaser_activity": """
            SELECT event_type, count(*) AS n_events
            FROM events
            WHERE user_id IN (SELECT user_id FROM events
                              WHERE event_type = 'purchase')
            GROUP BY event_type ORDER BY event_type
        """,
        # Pivot twin: one FILTER aggregate per type column.
        "events_user_pivot": """
            SELECT user_id,
                   count(*) FILTER (event_type = 'click') AS n_click,
                   count(*) FILTER (event_type = 'error') AS n_error,
                   count(*) FILTER (event_type = 'purchase') AS n_purchase,
                   count(*) FILTER (event_type = 'signup') AS n_signup,
                   count(*) FILTER (event_type = 'view') AS n_view
            FROM events GROUP BY user_id
        """,
        # Funnel twin: converters via EXISTS over the same BETWEEN
        # predicate as the interval-join oracle.
        "events_funnel_conversion": """
            WITH e AS (
                SELECT user_id, event_type,
                       epoch_us(ts) // 1000000 AS ep
                FROM events
            ), viewers AS (
                SELECT DISTINCT user_id FROM e WHERE event_type = 'view'
            ), converters AS (
                SELECT DISTINCT l.user_id
                FROM e l
                WHERE l.event_type = 'view' AND EXISTS (
                    SELECT 1 FROM e r
                    WHERE r.user_id = l.user_id
                      AND r.event_type = 'purchase'
                      AND r.ep > l.ep AND r.ep <= l.ep + 1800)
            )
            SELECT (SELECT count(*) FROM viewers)::BIGINT AS n_viewers,
                   (SELECT count(*) FROM converters)::BIGINT
                       AS n_converters,
                   round((SELECT count(*) FROM converters)::DOUBLE
                         / (SELECT count(*) FROM viewers), 6)
                       AS conversion_rate
        """,
        "events_user_stats": """
            SELECT user_id, count(*) AS n_events,
                   round(sum(value), 6) AS value_sum,
                   min(value) AS value_min, max(value) AS value_max
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "distinct_event_types": """
            SELECT DISTINCT event_type FROM events ORDER BY event_type
        """,
        "docs_exact_dedup": """
            SELECT min(doc_id) AS doc_id, text, count(*) AS n_dups
            FROM documents GROUP BY text
        """,
        "docs_token_stats": r"""
            SELECT doc_id,
                   len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens,
                   round(len(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                         / greatest(length(text), 1), 6) AS alpha_ratio,
                   round(len(regexp_replace(text, '[^0-9]', '', 'g'))
                         / greatest(length(text), 1), 6) AS digit_ratio,
                   round(len(list_filter(
                             regexp_split_to_array(lower(trim(text)), '\s+'),
                             x -> x IN ('the','a','an','and','of','to','in','is',
                                        'it','that','for','on','with','as','was',
                                        'at','by','be','this','are','or')))
                         / greatest(len(regexp_split_to_array(trim(text), '\s+')), 1),
                         6) AS stopword_ratio
            FROM documents
        """,
        "docs_clean_corpus": r"""
            WITH m AS (
                SELECT doc_id, text,
                       len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens,
                       len(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                           / greatest(length(text), 1) AS alpha_ratio,
                       len(regexp_replace(text, '[^0-9]', '', 'g'))
                           / greatest(length(text), 1) AS digit_ratio
                FROM documents
            ), kept AS (
                SELECT doc_id, text FROM m
                WHERE n_tokens >= 21 AND round(alpha_ratio, 6) >= 0.815
                  AND round(digit_ratio, 6) <= 0.3
            )
            SELECT min(doc_id) AS doc_id, text, count(*) AS n_dups
            FROM kept GROUP BY text
        """,
        "docs_lang_counts": """
            SELECT lang, count(*) AS n_samples
            FROM documents GROUP BY lang
            ORDER BY n_samples DESC, lang
        """,
        "emb_knn_top10": """
            WITH q AS (SELECT embedding AS qv FROM embeddings WHERE vec_id = 0)
            SELECT e.vec_id,
                   round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv::DOUBLE[]), 6) AS cosine
            FROM embeddings e, q
            ORDER BY cosine DESC, e.vec_id
            LIMIT 10
        """,
        # LSH kNN twins: generated SQL with the hyperplane constants
        # embedded (_knn_lsh_sql) — scan path and partitioned-index path
        # return identical rows by construction, so they share the twin.
        "emb_knn_lsh": _knn_lsh_sql(),
        "emb_knn_lsh_indexed": _knn_lsh_sql(),
        # IVF kNN twin: the k-means iterations unrolled in generated SQL
        # (_knn_ivf_sql) under the kernel's round-each-round contract.
        "emb_knn_ivf": _knn_ivf_sql(),
        # All-pairs kNN-graph twin: row_number window over the full cosine
        # cross product, identical (cosine desc, dst_id asc) tie rule.
        "emb_knn_graph": """
            WITH v AS (
                SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings
            ), p AS (
                SELECT a.vec_id AS src_id, b.vec_id AS dst_id,
                       round(list_cosine_similarity(a.e, b.e), 6) AS cosine
                FROM v a JOIN v b ON a.vec_id <> b.vec_id
            ), r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY src_id
                    ORDER BY cosine DESC, dst_id) AS rn
                FROM p
            )
            SELECT src_id, dst_id, cosine FROM r WHERE rn <= 5
        """,
        # Triangle twin: symmetrized kNN edge set, oriented a<b; each
        # triangle enumerated once via the 3-way self-join, then every
        # corner contributes one count — matching the wedge-closure plan.
        "emb_graph_triangles": """
            WITH v AS (
                SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings
            ), p AS (
                SELECT a.vec_id AS src_id, b.vec_id AS dst_id,
                       round(list_cosine_similarity(a.e, b.e), 6) AS cosine
                FROM v a JOIN v b ON a.vec_id <> b.vec_id
            ), r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY src_id
                    ORDER BY cosine DESC, dst_id) AS rn
                FROM p
            ), knn AS (
                SELECT src_id, dst_id FROM r WHERE rn <= 5
            ), e AS (
                SELECT DISTINCT least(src_id, dst_id) AS a,
                                greatest(src_id, dst_id) AS b FROM knn
            ), tri AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                FROM e e1 JOIN e e2 ON e2.a = e1.b
                          JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            ), corners AS (
                SELECT x AS node FROM tri UNION ALL
                SELECT y FROM tri UNION ALL
                SELECT z FROM tri
            )
            SELECT node, count(*) AS n_triangles
            FROM corners GROUP BY node
        """,
        # Label-propagation twin: 3 unrolled rounds over the symmetrized
        # integer-weight kNN edges; integer sums make the per-node argmax
        # (s desc, label asc) independent of summation order on both sides.
        "emb_label_prop": """
            WITH v AS (
                SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings
            ), p AS (
                SELECT a.vec_id AS src_id, b.vec_id AS dst_id,
                       round(list_cosine_similarity(a.e, b.e), 6) AS cosine
                FROM v a JOIN v b ON a.vec_id <> b.vec_id
            ), r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY src_id
                    ORDER BY cosine DESC, dst_id) AS rn
                FROM p
            ), knn AS (
                SELECT src_id, dst_id, cosine FROM r WHERE rn <= 5
            ), e0 AS (
                SELECT DISTINCT least(src_id, dst_id) AS a,
                                greatest(src_id, dst_id) AS b,
                                CAST(round(cosine * 1000000) AS BIGINT) AS w
                FROM knn
            ), edges AS (
                SELECT a AS eu, b AS ev, w FROM e0
                UNION ALL SELECT b, a, w FROM e0
            ), seeds AS (
                SELECT vec_id AS node, label::BIGINT AS label
                FROM embeddings WHERE vec_id % 10 = 0
            ), c1 AS (
                SELECT e.ev AS node, l.label, sum(e.w) AS s
                FROM edges e JOIN seeds l ON l.node = e.eu GROUP BY 1, 2
            ), w1 AS (
                SELECT node, label FROM (
                    SELECT node, label, row_number() OVER (
                        PARTITION BY node ORDER BY s DESC, label) AS rn
                    FROM c1) WHERE rn = 1
            ), l1 AS (
                SELECT * FROM seeds UNION ALL
                SELECT * FROM w1
                WHERE node NOT IN (SELECT node FROM seeds)
            ), c2 AS (
                SELECT e.ev AS node, l.label, sum(e.w) AS s
                FROM edges e JOIN l1 l ON l.node = e.eu GROUP BY 1, 2
            ), w2 AS (
                SELECT node, label FROM (
                    SELECT node, label, row_number() OVER (
                        PARTITION BY node ORDER BY s DESC, label) AS rn
                    FROM c2) WHERE rn = 1
            ), l2 AS (
                SELECT * FROM seeds UNION ALL
                SELECT * FROM w2
                WHERE node NOT IN (SELECT node FROM seeds)
            ), c3 AS (
                SELECT e.ev AS node, l.label, sum(e.w) AS s
                FROM edges e JOIN l2 l ON l.node = e.eu GROUP BY 1, 2
            ), w3 AS (
                SELECT node, label FROM (
                    SELECT node, label, row_number() OVER (
                        PARTITION BY node ORDER BY s DESC, label) AS rn
                    FROM c3) WHERE rn = 1
            ), l3 AS (
                SELECT * FROM seeds UNION ALL
                SELECT * FROM w3
                WHERE node NOT IN (SELECT node FROM seeds)
            )
            SELECT node, label FROM l3
        """,
        # Batched kNN twin: top-10 per query via a window over the cross
        # product of the 5 query vectors and the corpus.
        "emb_knn_multi": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv
                FROM embeddings WHERE vec_id < 5
            ), scored AS (
                SELECT q.query_id, e.vec_id,
                       round(list_cosine_similarity(
                           e.embedding::DOUBLE[], q.qv), 6) AS cosine
                FROM embeddings e CROSS JOIN q
            )
            SELECT query_id, vec_id, cosine FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY query_id
                    ORDER BY cosine DESC, vec_id) AS rn
                FROM scored
            ) WHERE rn <= 10
            ORDER BY query_id, cosine DESC, vec_id
        """,
        "emb_label_stats": """
            SELECT label, count(*) AS n,
                   round(avg(embedding[1]), 6) AS mean_dim0
            FROM embeddings GROUP BY label ORDER BY label
        """,
        "transcript_ordering": """
            SELECT source AS conv_id,
                   row_number() OVER (PARTITION BY source ORDER BY doc_id) - 1
                       AS turn_idx,
                   doc_id, text
            FROM documents
        """,
        # EXACT SQL twin of the SimHash near-dup operator: the token hash is
        # md5-based precisely so DuckDB can recompute the full signature
        # (md5_number_upper == little-endian first 8 md5 bytes, matching
        # functions/hashing.token_hash64_md5). The WHERE reproduces BOTH the
        # 16-bit-quarter LSH blocking (same recall semantics as the Ray
        # pipeline) and the hamming threshold.
        "docs_simhash_pairs": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
                FROM documents WHERE trim(text) <> ''
            ), th AS (
                SELECT doc_id, md5_number_upper(tok) AS h FROM toks
            ), bits AS (
                SELECT doc_id, b.bit,
                       sum(CASE WHEN (h >> b.bit) & 1 = 1
                                THEN 1 ELSE -1 END) AS acc
                FROM th, (SELECT unnest(generate_series(0, 63)) AS bit) b
                GROUP BY doc_id, b.bit
            ), sigs AS (
                SELECT doc_id,
                       sum(CASE WHEN acc > 0 THEN (1::UBIGINT << bit)
                                ELSE 0::UBIGINT END)::UBIGINT AS sig
                FROM bits GROUP BY doc_id
                UNION ALL
                SELECT doc_id, 0::UBIGINT AS sig
                FROM documents WHERE trim(text) = ''
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   bit_count(xor(a.sig, b.sig))::BIGINT AS hamming
            FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
            WHERE (((a.sig >> 0)  & 65535) = ((b.sig >> 0)  & 65535)
                OR ((a.sig >> 16) & 65535) = ((b.sig >> 16) & 65535)
                OR ((a.sig >> 32) & 65535) = ((b.sig >> 32) & 65535)
                OR ((a.sig >> 48) & 65535) = ((b.sig >> 48) & 65535))
              AND bit_count(xor(a.sig, b.sig)) <= 10
        """,
        # Brute-force twin of the embedding near-dup operator. The Ray path
        # is hyperplane-LSH-blocked (recall < 1 by construction); on the
        # driver's fixed testdata the LSH pair set equals the brute-force
        # set (verified at sf0.001 and sf0.01), so the exact SQL pins it.
        "emb_near_dup_pairs": """
            WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v
                       FROM embeddings)
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   round(list_cosine_similarity(a.v, b.v), 6) AS cosine
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE round(list_cosine_similarity(a.v, b.v), 6) >= 0.9
        """,
        # BPE-ish subword count twin: wordpunct tokens (the CJK split branch
        # never fires on Latin-script input; it is pinned by unit tests),
        # long alphabetic tokens count ceil(len/4).
        "docs_bpe_tokens": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\w+|[^\w\s]+')) AS tok
                FROM documents
            ), agg AS (
                SELECT doc_id,
                       sum(CASE WHEN length(tok) > 4
                                     AND regexp_full_match(tok, '\p{L}+')
                                THEN cast(ceil(length(tok) / 4.0) AS BIGINT)
                                ELSE 1 END) AS n
                FROM toks GROUP BY doc_id
            )
            SELECT d.doc_id, coalesce(a.n, 0)::BIGINT AS n_bpe_tokens
            FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
        """,
        # Language-ID twin: per-language marker-word hit counts over
        # lowercased wordpunct tokens; winner = FIRST language (en,es,fr,de
        # order) reaching the max hit count, 'und' when nothing fires or the
        # text is blank; CJK-ratio gate mirrored (never fires on this data).
        "docs_langid": r"""
            WITH t AS (
                SELECT doc_id, text,
                       list_transform(
                           regexp_extract_all(text, '\w+|[^\w\s]+'),
                           x -> lower(x)) AS toks,
                       len(regexp_extract_all(text,
                           '[가-힣぀-ヿ一-鿿]')) AS n_cjk
                FROM documents
            ), h AS (
                SELECT doc_id, text, n_cjk,
                       len(list_filter(toks, x -> x IN ('the','a','an','and',
                           'of','to','in','is','it','that','for','on','with',
                           'as','was','at','by','be','this','are','or')))
                           AS en_h,
                       len(list_filter(toks, x -> x IN ('el','la','los','las',
                           'de','que','y','es','en','un','una','por','con',
                           'para','no','se'))) AS es_h,
                       len(list_filter(toks, x -> x IN ('le','la','les','des',
                           'et','est','une','dans','pour','que','qui','pas',
                           'sur','avec','ce'))) AS fr_h,
                       len(list_filter(toks, x -> x IN ('der','die','das',
                           'und','ist','nicht','ein','eine','zu','den','von',
                           'mit','auf','für'))) AS de_h
                FROM t
            )
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 'und'
                        WHEN n_cjk / greatest(length(text), 1) > 0.2 THEN 'zh'
                        WHEN greatest(en_h, es_h, fr_h, de_h) = 0 THEN 'und'
                        WHEN en_h = greatest(en_h, es_h, fr_h, de_h) THEN 'en'
                        WHEN es_h = greatest(es_h, fr_h, de_h) THEN 'es'
                        WHEN fr_h = greatest(fr_h, de_h) THEN 'fr'
                        ELSE 'de' END AS detected_lang
            FROM h
        """,
        # Per-source quota (the "K docs per domain" cap): row_number twin.
        "docs_source_quota": """
            SELECT source, doc_id FROM (
                SELECT source, doc_id,
                       row_number() OVER (PARTITION BY source
                                          ORDER BY doc_id) AS rn
                FROM documents
            ) WHERE rn <= 5
        """,
        # Near-dup collapse twin: the full simhash pair pipeline (signature,
        # quarter blocking, hamming <= 10) re-expressed in SQL, then every
        # pair's larger id dropped.
        "docs_simhash_dedup": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
                FROM documents WHERE trim(text) <> ''
            ), th AS (
                SELECT doc_id, md5_number_upper(tok) AS h FROM toks
            ), bits AS (
                SELECT doc_id, b.bit,
                       sum(CASE WHEN (h >> b.bit) & 1 = 1
                                THEN 1 ELSE -1 END) AS acc
                FROM th, (SELECT unnest(generate_series(0, 63)) AS bit) b
                GROUP BY doc_id, b.bit
            ), sigs AS (
                SELECT doc_id,
                       sum(CASE WHEN acc > 0 THEN (1::UBIGINT << bit)
                                ELSE 0::UBIGINT END)::UBIGINT AS sig
                FROM bits GROUP BY doc_id
                UNION ALL
                SELECT doc_id, 0::UBIGINT AS sig
                FROM documents WHERE trim(text) = ''
            ), dup AS (
                SELECT DISTINCT b.doc_id AS doc_b
                FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
                WHERE (((a.sig >> 0)  & 65535) = ((b.sig >> 0)  & 65535)
                    OR ((a.sig >> 16) & 65535) = ((b.sig >> 16) & 65535)
                    OR ((a.sig >> 32) & 65535) = ((b.sig >> 32) & 65535)
                    OR ((a.sig >> 48) & 65535) = ((b.sig >> 48) & 65535))
                  AND bit_count(xor(a.sig, b.sig)) <= 10
            )
            SELECT doc_id, source FROM documents
            WHERE doc_id NOT IN (SELECT doc_b FROM dup)
        """,
        # Exact grouped median (selection via histogram refinement on the
        # Ray side; DuckDB computes the interpolated median directly).
        "events_median_value": """
            SELECT event_type,
                   round(median(value), 6) AS median_value
            FROM events GROUP BY event_type
            ORDER BY event_type
        """,
        # Global total-order row_number (native range-partitioned sort +
        # metadata-prefix-sum rank attachment; ties broken by event_id on
        # both sides).
        "events_value_rank": """
            SELECT event_id,
                   row_number() OVER (ORDER BY value DESC, event_id)
                       AS value_rank
            FROM events
            ORDER BY value_rank
        """,
        # Exact NTILE(10) with DuckDB's remainder semantics, composed on
        # global_row_number.
        "events_value_ntile": """
            SELECT event_id,
                   ntile(10) OVER (ORDER BY value DESC, event_id)
                       AS value_decile
            FROM events
            ORDER BY event_id
        """,
        # Dataset-returning per-user quantiles (grouped_quantiles_ds — the
        # result itself is O(keys) and never lands on the driver).
        "events_user_quantiles": """
            SELECT user_id,
                   round(quantile_cont(value, 0.5), 6) AS p50,
                   round(quantile_cont(value, 0.9), 6) AS p90
            FROM events GROUP BY user_id
            ORDER BY user_id
        """,
        # Generalized exact quantiles (same histogram-refinement machinery,
        # all five ranks in one candidate pass on the Ray side).
        "events_value_quantiles": """
            SELECT event_type,
                   round(quantile_cont(value, 0.25), 6) AS p25,
                   round(quantile_cont(value, 0.5), 6) AS p50,
                   round(quantile_cont(value, 0.75), 6) AS p75,
                   round(quantile_cont(value, 0.9), 6) AS p90,
                   round(quantile_cont(value, 0.99), 6) AS p99
            FROM events GROUP BY event_type
            ORDER BY event_type
        """,
        # Rolling ROWS-window twin: DuckDB computes the window function
        # directly; the Ray side shuffles by user hash once and runs a
        # vectorized per-partition rolling kernel.
        "events_user_rolling": """
            SELECT event_id,
                   round(avg(value) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), 6)
                       AS rolling_avg
            FROM events
            ORDER BY event_id
        """,
        # PageRank twin: recursive-CTE power iteration over the weighted
        # bipartite graph; contribution arithmetic shaped exactly like the
        # Ray kernel ((rank * w) / outdeg) so doubles agree bit-for-bit.
        "events_pagerank": """
            WITH RECURSIVE
            raw AS (
                SELECT 'u' || user_id::VARCHAR AS src,
                       't' || event_type AS dst
                FROM events
                UNION ALL
                SELECT 't' || event_type AS src,
                       'u' || user_id::VARCHAR AS dst
                FROM events
            ),
            edges AS (
                SELECT src, dst, count(*)::DOUBLE AS w
                FROM raw GROUP BY src, dst
            ),
            deg AS (SELECT src, sum(w) AS outdeg FROM edges GROUP BY src),
            n AS (SELECT count(*)::DOUBLE AS n FROM deg),
            pr AS (
                SELECT src AS node, (SELECT 1.0 / n FROM n) AS rank,
                       0 AS it
                FROM deg
                UNION ALL
                SELECT e.dst AS node,
                       0.15 / (SELECT n FROM n)
                       + 0.85 * sum(pr.rank * e.w / d.outdeg) AS rank,
                       pr.it + 1 AS it
                FROM pr
                JOIN edges e ON e.src = pr.node
                JOIN deg d ON d.src = pr.node
                WHERE pr.it < 5
                GROUP BY e.dst, pr.it
            )
            SELECT node, round(rank, 6) AS rank FROM pr WHERE it = 5
        """,
        # RANGE-frame window twin: fixed-point integer units make the
        # distributed sum identical to the SQL window sum; RANGE includes
        # all same-instant ties on both engines.
        "events_user_range_sum": """
            WITH e AS (
                SELECT event_id, user_id,
                       epoch_us(ts) // 1000000 AS ep,
                       CAST(round(value * 10000) AS BIGINT) AS units
                FROM events
            )
            SELECT event_id,
                   sum(units) OVER (
                       PARTITION BY user_id ORDER BY ep
                       RANGE BETWEEN 3599 PRECEDING AND CURRENT ROW
                   )::BIGINT AS window_units
            FROM e
        """,
        # EWMA twin: the recursive CTE walks each user's rows in the same
        # (ep, event_id) order and applies the identical double-precision
        # recurrence (IEEE addition is commutative, so the arithmetic is
        # bitwise-equal to the pandas adjust=False kernel before rounding).
        "events_user_ewma": """
            WITH RECURSIVE e AS (
                SELECT event_id, user_id, value,
                       row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY epoch_us(ts) // 1000000, event_id
                       ) AS rn
                FROM events
            ), w AS (
                SELECT user_id, rn, event_id, value::DOUBLE AS ewma
                FROM e WHERE rn = 1
                UNION ALL
                SELECT e.user_id, e.rn, e.event_id,
                       0.25 * e.value + 0.75 * w.ewma
                FROM w JOIN e ON e.user_id = w.user_id
                            AND e.rn = w.rn + 1
            )
            SELECT event_id, round(ewma, 6) AS ewma FROM w
        """,
        # Interval-join twin: plain self-join with the BETWEEN predicate
        # over the same floored-second epochs.
        "events_view_then_purchase": """
            WITH e AS (
                SELECT event_id, user_id, event_type,
                       epoch_us(ts) // 1000000 AS ep
                FROM events
            )
            SELECT l.event_id AS view_id, r.event_id AS purchase_id
            FROM e l JOIN e r ON r.user_id = l.user_id
            WHERE l.event_type = 'view' AND r.event_type = 'purchase'
              AND r.ep > l.ep AND r.ep <= l.ep + 1800
        """,
        # GROUPING SETS twin: NULLs of the rolled-up dimensions coalesced
        # to the same sentinels the one-pass Ray rollup emits.
        "events_rollup": """
            SELECT coalesce(event_type, '<all>') AS event_type,
                   coalesce(window_start, -1) AS window_start,
                   count(*)::BIGINT AS n,
                   round(sum(value), 6) AS value_sum
            FROM (
                SELECT event_type,
                       ((epoch_us(ts) // 1000000) // 3600) * 3600
                           AS window_start,
                       value
                FROM events
            )
            GROUP BY GROUPING SETS ((event_type, window_start),
                                    (event_type), ())
        """,
        # LAG twin: inter-event gap per user on floored-second epochs,
        # ordered by full-precision ts; first event per user dropped.
        "events_user_gap": """
            SELECT event_id, gap_s FROM (
                SELECT event_id,
                       epoch_us(ts) // 1000000
                       - lag(epoch_us(ts) // 1000000) OVER (
                             PARTITION BY user_id ORDER BY ts, event_id)
                           AS gap_s
                FROM events
            ) WHERE gap_s IS NOT NULL
        """,
        # Range-join twin: recompute the sessions and join each event into
        # its (disjoint) session interval with BETWEEN.
        "events_session_assignment": """
            WITH e AS (
                SELECT user_id, event_id, epoch_us(ts) // 1000000 AS ep
                FROM events
            ), g AS (
                SELECT *, CASE WHEN ep - lag(ep) OVER w > 1800
                               OR lag(ep) OVER w IS NULL
                          THEN 1 ELSE 0 END AS new_s
                FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ep, event_id)
            ), s AS (
                SELECT *, (sum(new_s) OVER (PARTITION BY user_id
                                            ORDER BY ep, event_id
                                            ROWS UNBOUNDED PRECEDING) - 1)::BIGINT
                          AS session_idx
                FROM g
            ), sess AS (
                SELECT user_id, session_idx,
                       min(ep) AS session_start, max(ep) AS session_end
                FROM s GROUP BY user_id, session_idx
            )
            SELECT ev.event_id, ev.user_id, sess.session_idx
            FROM (SELECT event_id, user_id,
                         epoch_us(ts) // 1000000 AS ep FROM events) ev
            JOIN sess ON ev.user_id = sess.user_id
                     AND ev.ep BETWEEN sess.session_start
                                   AND sess.session_end
            ORDER BY ev.event_id
        """,
        # As-of join twin: DuckDB's native ASOF LEFT JOIN (latest right row
        # with right.ep <= left.ep per user); right side pre-collapsed to
        # one row per (user, second) so ties are well-defined.
        "events_last_purchase": """
            WITH v AS (
                SELECT event_id, user_id,
                       epoch_us(ts) // 1000000 AS ep
                FROM events WHERE event_type = 'view'
            ), p AS (
                SELECT user_id, epoch_us(ts) // 1000000 AS ep,
                       max(value) AS pvalue
                FROM events WHERE event_type = 'purchase'
                GROUP BY user_id, ep
            )
            SELECT v.event_id, v.user_id, v.ep,
                   coalesce(p.ep, -1)::BIGINT AS last_purchase_ep,
                   round(coalesce(p.pvalue, 0), 6) AS last_purchase_value
            FROM v ASOF LEFT JOIN p
              ON v.user_id = p.user_id AND v.ep >= p.ep
            ORDER BY v.event_id
        """,
        # Hopping windows: every event expands to window/hop overlapping
        # hop-aligned windows via a generate_series cross join.
        "events_hopping": """
            WITH e AS (
                SELECT event_type, value,
                       epoch_us(ts) // 1000000 AS ep
                FROM events
            ), w AS (
                SELECT event_type, value,
                       ((ep // 900) - g.i) * 900 AS window_start
                FROM e CROSS JOIN
                     (SELECT unnest(generate_series(0, 3)) AS i) g
            )
            SELECT event_type, window_start,
                   count(*) AS n_events,
                   round(sum(value), 6) AS value_sum
            FROM w GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        # Streaming dedup admits each distinct text exactly once.
        "docs_streaming_dedup": """
            SELECT text FROM documents GROUP BY text ORDER BY text
        """,
        # Full curation pipeline twin: quality filter -> simhash collapse ->
        # per-source quota, all recomputed inline.
        "docs_training_mix": r"""
            WITH m AS (
                SELECT doc_id, source, text,
                       len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens,
                       len(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                           / greatest(length(text), 1) AS alpha_ratio,
                       len(regexp_replace(text, '[^0-9]', '', 'g'))
                           / greatest(length(text), 1) AS digit_ratio
                FROM documents
            ), kept AS (
                SELECT doc_id, source, text FROM m
                WHERE n_tokens >= 21 AND round(alpha_ratio, 6) >= 0.815
                  AND round(digit_ratio, 6) <= 0.3
            ), toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
                FROM kept WHERE trim(text) <> ''
            ), th AS (
                SELECT doc_id, md5_number_upper(tok) AS h FROM toks
            ), bits AS (
                SELECT doc_id, b.bit,
                       sum(CASE WHEN (h >> b.bit) & 1 = 1
                                THEN 1 ELSE -1 END) AS acc
                FROM th, (SELECT unnest(generate_series(0, 63)) AS bit) b
                GROUP BY doc_id, b.bit
            ), sigs AS (
                SELECT doc_id,
                       sum(CASE WHEN acc > 0 THEN (1::UBIGINT << bit)
                                ELSE 0::UBIGINT END)::UBIGINT AS sig
                FROM bits GROUP BY doc_id
                UNION ALL
                SELECT doc_id, 0::UBIGINT AS sig
                FROM kept WHERE trim(text) = ''
            ), dup AS (
                SELECT DISTINCT b.doc_id AS doc_b
                FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
                WHERE (((a.sig >> 0)  & 65535) = ((b.sig >> 0)  & 65535)
                    OR ((a.sig >> 16) & 65535) = ((b.sig >> 16) & 65535)
                    OR ((a.sig >> 32) & 65535) = ((b.sig >> 32) & 65535)
                    OR ((a.sig >> 48) & 65535) = ((b.sig >> 48) & 65535))
                  AND bit_count(xor(a.sig, b.sig)) <= 10
            ), survivors AS (
                SELECT doc_id, source FROM kept
                WHERE doc_id NOT IN (SELECT doc_b FROM dup)
            )
            SELECT doc_id, source FROM (
                SELECT doc_id, source,
                       row_number() OVER (PARTITION BY source
                                          ORDER BY doc_id) AS rn
                FROM survivors
            ) WHERE rn <= 3
        """,
        # Rolling-window fingerprints, exact integer-math twin (generated).
        "docs_fingerprints": _fingerprints_sql(),
        # Deterministic hash sampling: the md5 selector is SQL-reproducible.
        "docs_sample_10pct": """
            SELECT doc_id, source, lang FROM documents
            WHERE md5_number_upper(doc_id::VARCHAR) % 100 < 10
        """,
        # Stratified sampling: per-source keep rate (10-50%, md5 of the
        # source name) applied to the doc_id md5 selector — both halves
        # reproduce exactly via md5_number_upper.
        "docs_stratified_sample": """
            SELECT doc_id, source, lang FROM documents
            WHERE md5_number_upper(doc_id::VARCHAR) % 1000
                  < 100 + md5_number_upper(source) % 400
        """,
        # TF-IDF twin: exact tf/df recomputed from the same whitespace
        # tokenization; rank by the ROUNDED score (then token) so float
        # ties resolve identically on both sides.
        "docs_tfidf_top3": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(trim(text), '\s+'))
                           AS token
                FROM documents WHERE trim(text) <> ''
            ), tf AS (
                SELECT doc_id, token, count(*)::BIGINT AS tf
                FROM toks GROUP BY doc_id, token
            ), df AS (
                SELECT token, count(*)::BIGINT AS df
                FROM (SELECT DISTINCT doc_id, token FROM toks)
                GROUP BY token
            ), n AS (
                SELECT count(*)::DOUBLE AS n FROM documents
            ), scored AS (
                SELECT doc_id, token,
                       round(tf * ln(n.n / df.df), 6) AS tfidf
                FROM tf JOIN df USING (token), n
            )
            SELECT doc_id, token, tfidf FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id ORDER BY tfidf DESC, token) AS rn
                FROM scored
            ) WHERE rn <= 3
        """,
        # Chunking twin: list_slice windows over the same tokenization;
        # generate_series enumerates each doc's chunk indices.
        "docs_chunked": r"""
            WITH toks AS (
                SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS arr
                FROM documents WHERE trim(text) <> ''
            )
            SELECT doc_id, i AS chunk_idx,
                   array_to_string(list_slice(arr, i*16+1, i*16+16), ' ')
                       AS chunk,
                   least(16, len(arr) - i*16)::BIGINT AS n_tokens
            FROM toks,
                 LATERAL (SELECT unnest(generate_series(0, (len(arr)-1)//16))
                              AS i) g
        """,
        # Keyword-search twin: containment over the same tokenization
        # (the index is an access path, not a semantics change).
        "docs_keyword_search": r"""
            SELECT doc_id FROM documents
            WHERE list_contains(
                      regexp_split_to_array(trim(text), '\s+'), 'spark')
              AND list_contains(
                      regexp_split_to_array(trim(text), '\s+'), 'window')
        """,
        # BM25 twin: tf/df/doc-length/avgdl recomputed inline; the score
        # expression is parenthesized EXACTLY like the Ray kernel so both
        # sides run the same IEEE double ops; ranked by the rounded score.
        "docs_bm25_top10": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(trim(text), '\s+'))
                           AS token
                FROM documents WHERE trim(text) <> ''
            ), tf AS (
                SELECT doc_id, token, count(*)::BIGINT AS tf
                FROM toks GROUP BY doc_id, token
            ), dl AS (
                SELECT doc_id, count(*)::BIGINT AS dl
                FROM toks GROUP BY doc_id
            ), s AS (
                SELECT count(*)::DOUBLE AS n,
                       sum(dl)::DOUBLE / count(*)::DOUBLE AS avgdl
                FROM dl
            ), qt AS (
                SELECT unnest(['spark', 'window']) AS token
            ), df AS (
                SELECT token, count(*)::DOUBLE AS df FROM tf
                WHERE token IN (SELECT token FROM qt) GROUP BY token
            ), scored AS (
                SELECT tf.doc_id,
                       sum(ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1)
                           * (tf.tf / (tf.tf + 1.2 * (1 - 0.75
                                       + 0.75 * dl.dl / s.avgdl))))
                           AS score
                FROM tf
                JOIN df USING (token)
                JOIN dl USING (doc_id)
                CROSS JOIN s
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(score, 6) AS score FROM scored
            ORDER BY round(score, 6) DESC, doc_id LIMIT 10
        """,
        # Normalization twin: the same tokenization filtered by a lambda,
        # re-joined with single spaces.
        "docs_stopword_strip": r"""
            SELECT doc_id,
                   array_to_string(
                       list_filter(regexp_split_to_array(trim(text), '\s+'),
                                   t -> t NOT IN ('a', 'the')), ' ')
                       AS text_clean
            FROM documents
        """,
        # Corpus vocabulary head: whitespace tokens, top-20 by frequency.
        "docs_top_terms": r"""
            WITH toks AS (
                SELECT unnest(regexp_split_to_array(trim(text), '\s+'))
                           AS token
                FROM documents WHERE trim(text) <> ''
            )
            SELECT token, count(*)::BIGINT AS n
            FROM toks GROUP BY token
            ORDER BY n DESC, token
            LIMIT 20
        """,
        # Media fake-decode features, recomputed byte-for-byte in SQL over
        # the SAME persisted parquet the Ray query reads: hex(payload)
        # yields each byte, the 8-bin histogram ratio matches the
        # round-half-away fake decode exactly.
        # Binary-content exact dedup over the persisted media parquet —
        # the content key is md5(hex(payload)) on both sides.
        "media_exact_dedup": f"""
            SELECT md5(hex(payload)) AS content_md5,
                   count(*)::BIGINT AS n_copies,
                   min(media_id)::BIGINT AS keeper_id
            FROM read_parquet('{_media_path()}')
            GROUP BY 1 ORDER BY 1
        """,
        "media_features": f"""
            WITH m AS (
                SELECT media_id, kind, width, height, sample_rate,
                       duration_ms, hex(payload) AS h,
                       octet_length(payload) AS n_bytes
                FROM read_parquet('{_media_path()}')
            ), bytes AS (
                SELECT media_id,
                       (strpos('0123456789ABCDEF', substr(h, 2*i-1, 1)) - 1)
                       * 16
                       + strpos('0123456789ABCDEF', substr(h, 2*i, 1)) - 1
                           AS byte
                FROM m, generate_series(1, 2048) AS g(i)
                WHERE i <= n_bytes
            ), hist AS (
                SELECT media_id, byte // 32 AS feature_idx,
                       count(*)::BIGINT AS n
                FROM bytes GROUP BY 1, 2
            ), bins AS (
                SELECT m.media_id, b.feature_idx
                FROM m, generate_series(0, 7) AS b(feature_idx)
            )
            SELECT m.media_id, m.kind, m.width::BIGINT AS width,
                   m.height::BIGINT AS height,
                   m.sample_rate::BIGINT AS sample_rate,
                   m.duration_ms::BIGINT AS duration_ms,
                   m.n_bytes::BIGINT AS n_bytes,
                   bins.feature_idx::BIGINT AS feature_idx,
                   round(coalesce(hist.n, 0)::DOUBLE / m.n_bytes, 6)
                       AS feature_value
            FROM bins
            JOIN m ON m.media_id = bins.media_id
            LEFT JOIN hist ON hist.media_id = bins.media_id
                          AND hist.feature_idx = bins.feature_idx
        """,
        # Frame sampling arithmetic (count, timestamps, slice sizes) is pure
        # integer math over octet_length/duration — fully SQL-checkable.
        "media_frames": f"""
            WITH m AS (
                SELECT media_id, kind, duration_ms,
                       octet_length(payload) AS len
                FROM read_parquet('{_media_path()}')
            ), vid AS (
                SELECT media_id, len,
                       greatest(1, least(6,
                           trunc(duration_ms / 1000.0)::BIGINT)) AS n
                FROM m WHERE kind = 'video'
            ), vstep AS (
                SELECT media_id, len, n,
                       greatest(1, len // n) AS step
                FROM vid
            ), frames AS (
                SELECT media_id, 'video_frame' AS kind,
                       f.f::BIGINT AS frame_idx,
                       (f.f * 1000)::BIGINT AS frame_ms,
                       greatest(0, least((f.f + 1) * step, len) - f.f * step)
                           ::BIGINT AS n_bytes
                FROM vstep, generate_series(0, 7) AS f(f)
                WHERE f.f < n
            ), rest AS (
                SELECT media_id, kind, -1::BIGINT AS frame_idx,
                       -1::BIGINT AS frame_ms, len::BIGINT AS n_bytes
                FROM m WHERE kind <> 'video'
            )
            SELECT * FROM frames UNION ALL SELECT * FROM rest
        """,
        # docs_fingerprints / emb_knn_lsh* / emb_knn_ivf / kg_*:
        # hash-based or model-shaped operators with no faithful ANSI-SQL
        # twin -> rows-only checks; exact correctness covered by tests/
        # (oracle parity, brute-force comparisons).
    }
