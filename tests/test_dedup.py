"""Dedup operators vs brute-force ground truth on small synthetic corpora."""

import itertools

import pandas as pd
import pyarrow as pa
import pytest

from ontonotes_5_parsing_ray.functions.hashing import jaccard, word_shingles

DOCS = [
    (0, "the quick brown fox jumps over the lazy dog near the river bank"),
    (1, "the quick brown fox jumps over the lazy dog near the river bank"),  # exact dup of 0
    (2, "the quick brown fox leaps over the lazy dog near the river bank"),  # near dup
    (3, "completely unrelated content about database query optimization plans"),
    (4, "another unrelated text mentioning vector search and embedding models"),
    (5, "the quick brown fox jumps over the lazy dog near the river bend"),  # near dup
]


def _docs_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in DOCS], pa.int64()),
        "text": pa.array([d[1] for d in DOCS], pa.string()),
    }))


def test_exact_dedup_keeps_min_id(ray_session):
    from ontonotes_5_parsing_ray.stages.dedup import exact_dedup

    out = exact_dedup(_docs_ds(ray_session)).to_pandas().sort_values("doc_id")
    assert len(out) == 5  # 6 docs, one exact duplicate collapsed
    kept0 = out[out["doc_id"] == 0]
    assert len(kept0) == 1 and kept0.iloc[0]["n_dups"] == 2


def test_minhash_pairs_vs_bruteforce(ray_session):
    from ontonotes_5_parsing_ray.stages.dedup import minhash_near_dup_pairs

    threshold = 0.5
    out = minhash_near_dup_pairs(_docs_ds(ray_session), threshold=threshold) \
        .to_pandas()
    got = set(zip(out["doc_a"], out["doc_b"]))
    # brute force ground truth (LSH may miss borderline pairs, never invents)
    truth = set()
    strong = set()
    sh = {i: word_shingles(t.split(), 3) for i, t in DOCS}
    for a, b in itertools.combinations(sorted(sh), 2):
        j = jaccard(sh[a], sh[b])
        if j >= threshold:
            truth.add((a, b))
        if j >= 0.8:
            strong.add((a, b))
    assert got <= truth      # no false positives (verify step is exact)
    assert strong <= got     # high-similarity pairs are (near-)surely banded
    assert (0, 1) in got     # exact dup always caught
    # borderline pairs (just above threshold, ~12 shingles) are coin flips
    # per band — recall there is probabilistic by design, not asserted


def test_simhash_pairs_catch_near_dups(ray_session):
    from ontonotes_5_parsing_ray.stages.dedup import simhash_near_dup_pairs

    out = simhash_near_dup_pairs(_docs_ds(ray_session), max_hamming=10).to_pandas()
    got = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 1) in got
    assert (0, 2) in got or (1, 2) in got
    assert (0, 3) not in got


def test_embedding_near_dup(ray_session):
    import numpy as np
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import embedding_near_dup_pairs

    rng = np.random.RandomState(3)
    base = rng.randn(4, 16).astype(np.float32)
    vecs = [base[0], base[0] + 0.01 * rng.randn(16).astype(np.float32),
            base[1], base[2], base[3]]
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(5), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
    }))
    out = embedding_near_dup_pairs(ds, threshold=0.95).to_pandas()
    pairs = set(zip(out["vec_a"], out["vec_b"]))
    assert (0, 1) in pairs
    assert all(p == (0, 1) for p in pairs)


def test_candidate_payload_fetches_candidates_only(ray_session):
    """Round-2 scale fix: the near-dup verify stage materializes CANDIDATE
    docs only — the corpus itself must never reach the driver."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import (
        _broadcast_candidate_payload,
        _distinct_candidate_ids,
        _ids_set,
    )

    n = 2000
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([f"unique document number {i} with filler" for i in range(n)],
                         pa.string()),
    }))
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([5], pa.int64()),
        "doc_b": pa.array([17], pa.int64()),
    }))
    cand = _ids_set(_distinct_candidate_ids(pairs))
    assert cand == {5, 17}
    payload = _broadcast_candidate_payload(ds, cand, ["text"])
    assert sorted(payload["text"]) == [5, 17]


def _near_dup_corpus(n=400, seed=9):
    """A corpus dense in near-dups so the candidate set is large relative to
    a tiny routing limit: clusters of paraphrased docs."""
    import numpy as np

    rng = np.random.RandomState(seed)
    texts = []
    for i in range(n):
        cluster = i % 40
        words = [f"topic{cluster}", "report", "covers", "subject",
                 f"area{cluster}", "with", "details", "and", "figures",
                 f"filler{rng.randint(0, 3)}"]
        texts.append(" ".join(words))
    return texts


def test_minhash_join_path_equals_broadcast(ray_session, monkeypatch):
    """PAYLOAD_BROADCAST_LIMIT=0 forces the hash-partitioned join verify;
    the pair set must equal the broadcast path's exactly."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import dedup
    from ontonotes_5_parsing_ray.stages.dedup import minhash_near_dup_pairs

    texts = _near_dup_corpus()
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    via_bcast = minhash_near_dup_pairs(ds, threshold=0.6).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    monkeypatch.setattr(dedup, "PAYLOAD_BROADCAST_LIMIT", 0)
    via_join = minhash_near_dup_pairs(
        ds, threshold=0.6
    ).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(via_bcast) > 50  # the corpus really is near-dup-heavy
    pd.testing.assert_frame_equal(via_bcast, via_join)


def test_simhash_join_path_equals_broadcast(ray_session, monkeypatch):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import dedup
    from ontonotes_5_parsing_ray.stages.dedup import simhash_near_dup_pairs

    texts = _near_dup_corpus()
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    via_bcast = simhash_near_dup_pairs(ds, max_hamming=8).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    monkeypatch.setattr(dedup, "PAYLOAD_BROADCAST_LIMIT", 0)
    via_join = simhash_near_dup_pairs(
        ds, max_hamming=8
    ).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(via_bcast) > 50
    pd.testing.assert_frame_equal(via_bcast, via_join)


def test_minhash_on_corpus_larger_than_payload(ray_session):
    """Near-dup over a corpus with few dups: the pair set is exact and the
    driver-side payload is bounded by candidates, not corpus size."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import minhash_near_dup_pairs

    n = 1500
    texts = [f"document {i} talks about topic {i % 97} in distinct terms {i*7}"
             for i in range(n)]
    texts[700] = texts[300]  # one exact dup pair
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = minhash_near_dup_pairs(ds, threshold=0.9).to_pandas()
    got = set(zip(out["doc_a"], out["doc_b"]))
    assert (300, 700) in got
    assert all(a == 300 and b == 700 for a, b in got)


def test_candidate_pairs_distributed_equals_driver(ray_session, monkeypatch):
    """Force the distributed pair-generation branch
    (CANDIDATE_DRIVER_LIMIT=0) and check it emits exactly the driver
    branch's dedup'd pair set."""
    import numpy as np
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import dedup
    from ontonotes_5_parsing_ray.stages.dedup import _candidate_pairs

    rng = np.random.RandomState(4)
    buckets = [f"b{rng.randint(0, 40)}" for _ in range(500)]
    ids = [int(rng.randint(0, 120)) for _ in range(500)]
    rows = rd.from_arrow(pa.table({
        "bucket": pa.array(buckets, pa.string()),
        "doc_id": pa.array(ids, pa.int64()),
    }))
    via_driver = _candidate_pairs(rows, "bucket", "doc_id") \
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    monkeypatch.setattr(dedup, "CANDIDATE_DRIVER_LIMIT", 0)
    via_dist = _candidate_pairs(rows, "bucket", "doc_id") \
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(via_driver) > 0
    pd.testing.assert_frame_equal(via_driver, via_dist)


def test_drop_near_dup_docs_join_route_equals_broadcast(ray_session,
                                                        monkeypatch):
    """The anti join forced onto the keyed exchange (through
    ``hash_join``'s predicate) keeps the same surviving rows as the
    broadcast route."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import drop_near_dup_docs
    from tests.conftest import exchange_joins

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(100), pa.int64()),
        "source": pa.array([f"s{i % 7}" for i in range(100)], pa.string()),
    }))
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([0, 0, 5, 40], pa.int64()),
        "doc_b": pa.array([13, 27, 27, 90], pa.int64()),
    }))
    via_b = drop_near_dup_docs(docs, pairs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    exchange_joins(monkeypatch)
    via_j = drop_near_dup_docs(docs, pairs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(via_b) == 97  # 13, 27, 90 dropped (27 once)
    pd.testing.assert_frame_equal(via_b, via_j)


def test_minhash_duplicate_heavy_corpus(ray_session):
    """Round-4 hot-bucket fix: a corpus dominated by byte-identical copies
    must collapse to one representative before pair enumeration (bounded
    banding work) and expand back to the exact member-level answer:
    all intra-group pairs at jaccard 1.0 plus cross pairs inheriting the
    representative's score."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import minhash_near_dup_pairs

    n_copies = 300
    boiler = "this exact boilerplate page body repeats across the crawl again"
    texts = [boiler] * n_copies
    texts.append(boiler.replace("again", "anew"))  # near-dup of the group
    texts.append("a completely different document about unrelated matters")
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = minhash_near_dup_pairs(ds, threshold=0.5).to_pandas()
    got = {(a, b): j for a, b, j in
           zip(out["doc_a"], out["doc_b"], out["jaccard"])}
    # every intra-group pair present at exactly 1.0
    intra = {(a, b) for a in range(n_copies) for b in range(a + 1, n_copies)}
    assert intra <= set(got)
    assert all(got[p] == 1.0 for p in intra)
    # cross pairs: if (0, near) verified, EVERY copy pairs with near at the
    # same score (member expansion), and the unrelated doc never appears
    near = n_copies
    if (0, near) in got:
        for a in range(n_copies):
            assert got[(a, near)] == got[(0, near)]
    assert not any(len(texts) - 1 in p for p in got)


def test_minhash_dup_collapse_bounds_work(ray_session):
    """10k copies of one document: with expand_dups=False the operator
    returns representative-level pairs only (zero here — one rep, nothing
    to pair with) in bounded time, instead of enumerating ~5*10^7
    candidate pairs."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import minhash_near_dup_pairs

    n = 10_000
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["one single boilerplate body shared by all"] * n,
                         pa.string()),
    }))
    out = minhash_near_dup_pairs(ds, threshold=0.5,
                                 expand_dups=False).to_pandas()
    assert len(out) == 0


def test_minhash_hot_bucket_cap(ray_session):
    """Distinct texts engineered into shared bands beyond max_bucket: pair
    output stays bounded by the cap (C(max_bucket,2) per bucket) instead of
    going quadratic in bucket size."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import minhash_near_dup_pairs

    # near-identical but distinct docs — they share many band buckets
    base = "shared template body with common words everywhere " * 3
    texts = [base + f"tail{i}" for i in range(120)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    capped = minhash_near_dup_pairs(ds, threshold=0.6,
                                    max_bucket=16).to_pandas()
    full = minhash_near_dup_pairs(ds, threshold=0.6,
                                  max_bucket=None).to_pandas()
    # cap loses only recall, never invents pairs
    got_capped = set(zip(capped["doc_a"], capped["doc_b"]))
    got_full = set(zip(full["doc_a"], full["doc_b"]))
    assert got_capped <= got_full
    assert len(got_full) > 0


def test_simhash_dup_expansion(ray_session):
    """Exact-dup groups expand through the simhash path at hamming 0."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import simhash_near_dup_pairs

    texts = (["identical body of text repeated verbatim"] * 4
             + ["unrelated other content entirely different words"])
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = simhash_near_dup_pairs(ds, max_hamming=3).to_pandas()
    got = {(a, b): h for a, b, h in
           zip(out["doc_a"], out["doc_b"], out["hamming"])}
    intra = {(a, b) for a in range(4) for b in range(a + 1, 4)}
    assert set(got) == intra
    assert all(h == 0 for h in got.values())


def _ngram_corpus():
    import numpy as np

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(40)]
    texts = []
    for i in range(80):
        base = " ".join(rng.choice(vocab, size=12))
        texts.append(base)
        if i % 4 == 0:  # a near-duplicate: one word changed
            toks = base.split()
            toks[5] = "CHANGED"
            texts.append(" ".join(toks))
        if i % 7 == 0:  # exact duplicates
            texts.append(base)
    return texts


def test_ngram_jaccard_exact_vs_brute_force(ray_session):
    """Prefix filtering is EXACT: the pair set equals brute-force all-pairs
    Jaccard, including exact-dup expansion and 1.0 scores."""
    import itertools

    import ray.data as rd

    from ontonotes_5_parsing_ray.functions.hashing import (
        jaccard,
        word_shingles,
    )
    from ontonotes_5_parsing_ray.stages.dedup import ngram_jaccard_pairs

    texts = _ngram_corpus()
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = ngram_jaccard_pairs(ds, threshold=0.5, gram_n=3).to_pandas()
    got = {(a, b): j for a, b, j in
           zip(out["doc_a"], out["doc_b"], out["jaccard"])}
    sh = {i: frozenset(word_shingles(t.split(), 3))
          for i, t in enumerate(texts)}
    exp = {}
    for a, b in itertools.combinations(range(len(texts)), 2):
        j = jaccard(sh[a], sh[b])
        if j >= 0.5:
            exp[(a, b)] = round(j, 6)
    assert set(got) == set(exp)
    for k, j in exp.items():
        assert abs(got[k] - j) < 1e-9, (k, got[k], j)


def test_ngram_jaccard_join_route_equals_broadcast(ray_session, monkeypatch):
    """PAYLOAD_BROADCAST_LIMIT=0 forces the hash-partitioned pairs-join
    verify; the pair set and scores must match the broadcast route."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import dedup
    from ontonotes_5_parsing_ray.stages.dedup import ngram_jaccard_pairs

    texts = _ngram_corpus()
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).materialize()
    bc = ngram_jaccard_pairs(ds, threshold=0.5).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    monkeypatch.setattr(dedup, "PAYLOAD_BROADCAST_LIMIT", 0)
    jn = ngram_jaccard_pairs(ds, threshold=0.5).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(bc, jn)


def test_near_dup_clusters_chain_and_routes(ray_session, monkeypatch):
    """A chained component (a-b, b-c, c-d) must collapse transitively to
    one cluster labeled by its min id; singletons label themselves; the
    forest join forced onto the keyed exchange (through ``hash_join``'s
    predicate) matches the broadcast route; empty pair graphs yield
    all-singleton output."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import near_dup_clusters
    from tests.conftest import exchange_joins

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(10), pa.int64()),
        "text": pa.array([f"t{i}" for i in range(10)], pa.string()),
    })).materialize()
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([3, 5, 7, 0], pa.int64()),
        "doc_b": pa.array([5, 7, 9, 1], pa.int64()),
    })).materialize()
    out = near_dup_clusters(docs, pairs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == {0: 0, 1: 0, 2: 2, 3: 3, 5: 3, 7: 3, 9: 3,
                   4: 4, 6: 6, 8: 8}
    with monkeypatch.context() as mp:
        exchange_joins(mp)
        joined = near_dup_clusters(docs, pairs).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, joined)

    empty = rd.from_arrow(pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
    }))
    solo = near_dup_clusters(docs, empty).to_pandas()
    assert (solo.sort_values("doc_id")["cluster_id"].to_numpy()
            == solo.sort_values("doc_id")["doc_id"].to_numpy()).all()


def test_contamination_overlap_routes_and_bruteforce(ray_session,
                                                     pin_exchange_partitions):
    """contamination_overlap == the per-doc distinct-gram intersection
    computed directly, on BOTH routes (broadcast and the forced
    gram-partitioned join), including planted exact contamination, partial
    overlap, blank docs, and a short-doc (<= 3 tokens) whole-text shingle."""
    import numpy as np
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.decontaminate import (
        contamination_overlap,
    )

    pin_exchange_partitions(8)

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(30)]
    bench_texts = [
        " ".join(rng.choice(vocab, size=rng.randint(5, 40)))
        for _ in range(6)
    ] + ["tiny doc"]  # <= 3 tokens: whole text is the single shingle
    corpus_texts = [
        " ".join(rng.choice(vocab, size=rng.randint(5, 60)))
        for _ in range(80)
    ]
    corpus_texts[3] = bench_texts[0]                   # fully contaminated
    corpus_texts[7] = bench_texts[1] + " zzz unique tail words here"
    corpus_texts[9] = ""                               # blank: excluded
    corpus_texts[11] = "tiny doc"                      # short-doc overlap

    bench = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(1000, 1000 + len(bench_texts), dtype=np.int64),
        "text": bench_texts,
    })).repartition(3)
    corpus = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(len(corpus_texts), dtype=np.int64),
        "text": corpus_texts,
    })).repartition(5)

    bench_grams = set()
    for t in bench_texts:
        if t.strip():
            bench_grams |= word_shingles(t.split(), 3)
    want = {}
    for i, t in enumerate(corpus_texts):
        if not t.strip():
            continue
        n = len(word_shingles(t.split(), 3) & bench_grams)
        if n:
            want[i] = n

    for limit in (2_000_000, 0):  # broadcast route, then forced join route
        out = contamination_overlap(
            corpus, bench, gram_n=3, broadcast_limit=limit,
        ).to_pandas()
        got = dict(zip(out["doc_id"].astype(int),
                       out["n_overlap"].astype(int)))
        assert got == want, f"route limit={limit}"
    assert want[3] >= 1 and 11 in want  # fixture sanity

    # empty benchmark: nothing is contaminated (both routes degenerate)
    empty = rd.from_pandas(pd.DataFrame({
        "doc_id": pd.array([], dtype="int64"),
        "text": pd.array([], dtype="string"),
    }))
    assert contamination_overlap(corpus, empty).count() == 0


def test_pair_budget_tightens_cap_and_routes(ray_session, monkeypatch):
    """A corpus of MANY mid-size correlated buckets (the Zipf-text shape
    that defeated a per-bucket-only cap at 200k docs) must (a) tighten the
    effective cap so total candidates fit the pair budget, and (b) route
    enumeration off the driver when the estimate exceeds the driver pair
    limit — while still finding every planted exact-dup pair."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.functions import hashing
    from ontonotes_5_parsing_ray.stages import dedup as dd

    # 40 buckets x 300 members; ids overlap so pairs repeat across buckets
    rng = np.random.RandomState(5)
    buckets, ids = [], []
    for bkt in range(40):
        members = rng.choice(4000, size=300, replace=False)
        buckets.extend([f"b{bkt}"] * 300)
        ids.extend(members)
    rows = rd.from_arrow(pa.table({
        "bucket": pa.array(buckets, pa.string()),
        "id": pa.array(np.array(ids, dtype=np.int64), pa.int64()),
    })).repartition(4)

    monkeypatch.setattr(hashing, "LSH_PAIR_BUDGET", 100_000)
    monkeypatch.setattr(dd, "PAIR_DRIVER_LIMIT", 50_000)
    capped = dd._candidate_pairs(rows, "bucket", "id",
                                 max_bucket=4096).to_pandas()
    # budget 100k: cap drops to 64 -> <= 40 * 64*63/2 + small = bounded
    assert 0 < len(capped) <= 100_000
    assert (capped["doc_a"] < capped["doc_b"]).all()
    assert not capped.duplicated(["doc_a", "doc_b"]).any()

    # default budget: full enumeration, must be a superset of the capped
    monkeypatch.setattr(hashing, "LSH_PAIR_BUDGET", 20_000_000)
    monkeypatch.setattr(dd, "PAIR_DRIVER_LIMIT", 8_000_000)
    full = dd._candidate_pairs(rows, "bucket", "id",
                               max_bucket=4096).to_pandas()
    got_full = set(zip(full["doc_a"], full["doc_b"]))
    got_capped = set(zip(capped["doc_a"], capped["doc_b"]))
    assert got_capped <= got_full
    assert len(got_full) > len(got_capped)


def test_dup_window_stats_planted_duplicates(ray_session,
                                             pin_exchange_partitions):
    """Exact substring-duplication scoring: planted cross-doc and
    within-doc duplicated 3-token windows are counted by POSITION, unique
    text scores zero, and short docs (< k tokens) drop out."""
    import pandas as pd
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import dup_window_stats

    pin_exchange_partitions(8)

    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": [
            "the quick brown fox jumps",      # shares 'the quick brown' w/ 2
            "the quick brown cat sits",       # cross-doc dup window
            "aa bb aa bb aa bb",              # within-doc repeats
            "totally unique words here now",  # no dup windows
            "too short",                      # < 3 tokens -> dropped
        ],
    })).repartition(3)
    out = (dup_window_stats(docs, k=3)
           .to_pandas().set_index("doc_id").sort_index())

    assert list(out.index) == [1, 2, 3, 4]
    # doc1/doc2: 3 windows each, exactly one shared ('the quick brown')
    assert out.loc[1, "n_windows"] == 3 and out.loc[1, "n_dup"] == 1
    assert out.loc[2, "n_windows"] == 3 and out.loc[2, "n_dup"] == 1
    # doc3: windows 'aa bb aa','bb aa bb','aa bb aa','bb aa bb' -> all dup
    assert out.loc[3, "n_windows"] == 4 and out.loc[3, "n_dup"] == 4
    assert out.loc[3, "dup_fraction"] == 1.0
    assert out.loc[4, "n_dup"] == 0 and out.loc[4, "dup_fraction"] == 0.0


def test_token_typo_pairs_planted(ray_session, pin_exchange_partitions):
    """SymSpell deletion-variant pairing finds exactly the planted
    distance-1 pairs (substitution, insertion/deletion, both directions)
    and nothing at distance 2 — cross-checked against the full
    O(V^2) Levenshtein enumeration."""
    import pandas as pd
    import ray.data as rd

    from ontonotes_5_parsing_ray.functions.distance import levenshtein
    from ontonotes_5_parsing_ray.stages.dedup import token_typo_pairs

    pin_exchange_partitions(8)

    vocab = ["table", "tible", "tables", "chair", "chairs", "chaim",
             "query", "queue", "data", "date", "gate", "plan",
             "xyzzy", "spark"]
    out = token_typo_pairs(
        rd.from_pandas(pd.DataFrame({"token": vocab})).repartition(4)
    ).to_pandas()
    got = set(zip(out["tok_a"], out["tok_b"]))
    expect = set()
    for i in range(len(vocab)):
        for j in range(len(vocab)):
            a, b = vocab[i], vocab[j]
            if a < b and levenshtein(a, b) == 1:
                expect.add((a, b))
    assert got == expect
    assert ("data", "date") in got and ("date", "gate") in got
    assert ("table", "tibles") not in got


def test_ngram_jaccard_random_corpus_multi_threshold(ray_session):
    """PPJoin pruning is recall-lossless at awkward thresholds: seeded
    random corpora (common base + mutations => many boundary-Jaccard
    pairs) match brute force exactly at t in {0.34, 0.5, 0.72}."""
    import itertools

    import numpy as np
    import ray.data as rd

    from ontonotes_5_parsing_ray.functions.hashing import (
        jaccard,
        word_shingles,
    )
    from ontonotes_5_parsing_ray.stages.dedup import ngram_jaccard_pairs

    rng = np.random.RandomState(99)
    vocab = [f"t{i}" for i in range(40)]
    base = [vocab[i] for i in rng.randint(0, 40, size=30)]
    texts = []
    for _ in range(60):
        toks = list(base)
        for _m in range(rng.randint(0, 12)):
            toks[rng.randint(0, len(toks))] = vocab[rng.randint(0, 40)]
        if rng.rand() < 0.3:
            toks = toks[: rng.randint(10, len(toks))]
        texts.append(" ".join(toks))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(5)
    sh = {i: frozenset(word_shingles(t.split(), 3))
          for i, t in enumerate(texts)}
    for t in (0.34, 0.5, 0.72):
        out = ngram_jaccard_pairs(ds, threshold=t, gram_n=3).to_pandas()
        got = set(zip(out["doc_a"], out["doc_b"]))
        exp = {(a, b) for a, b in
               itertools.combinations(range(len(texts)), 2)
               if jaccard(sh[a], sh[b]) >= t}
        assert got == exp, (t, got ^ exp)


@pytest.mark.parametrize("family", ["minhash", "simhash", "ngram"])
def test_near_dup_pairs_on_empty_corpus(ray_session, family):
    """A typed 0-row corpus gives 0 pairs: the candidate enumeration must
    not read columns from Ray's column-less ``to_pandas`` of 0 rows."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import dedup

    fn = {"minhash": dedup.minhash_near_dup_pairs,
          "simhash": dedup.simhash_near_dup_pairs,
          "ngram": dedup.ngram_jaccard_pairs}[family]
    docs = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                   "text": pa.array([], pa.string())}))
    assert fn(docs).count() == 0


def test_candidate_pairs_on_empty_bucket_rows(ray_session):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import _candidate_pairs

    out = _candidate_pairs(rd.from_arrow(pa.table({
        "bucket": pa.array([], pa.string()),
        "doc_id": pa.array([], pa.int64())})), "bucket", "doc_id")
    assert out.count() == 0
    assert out.schema().names == ["doc_a", "doc_b"]
