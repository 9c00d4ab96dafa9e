"""Every hash-partitioned operator takes its partition count from the one
shared rule (``relational.exchange_partitions``), and its output does not
depend on that count."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events():
    import ray.data as rd

    rng = np.random.RandomState(7)
    n = 600
    return rd.from_pandas(pd.DataFrame({
        "k": rng.randint(0, 40, size=n).astype(np.int64),
        "t": rng.randint(0, 5_000, size=n).astype(np.int64),
        "eid": np.arange(n, dtype=np.int64),
        "v": rng.randint(0, 100, size=n).astype(np.int64),
    })).repartition(4)


def _edges():
    import ray.data as rd

    rng = np.random.RandomState(21)
    und = [(a, b) for a in range(30) for b in range(a + 1, 30)
           if rng.rand() < 0.15]
    rows = und + [(b, a) for a, b in und]
    return rd.from_pandas(pd.DataFrame({
        "src": [a for a, _ in rows], "dst": [b for _, b in rows],
        "w": [float((a * b) % 7 + 1) for a, b in rows],
    })).repartition(3)


def _rolling_by_key(mp):
    from ontonotes_5_parsing_ray.stages.relational import rolling_by_key

    return rolling_by_key(_events(), "k", ["t", "eid"], "v", 3,
                          keep_cols=["k", "eid"])


def _lag_by_key(mp):
    from ontonotes_5_parsing_ray.stages.relational import lag_by_key

    return lag_by_key(_events(), "k", ["t", "eid"], "v", delta=True,
                      keep_cols=["k", "eid"])


def _ewma_by_key(mp):
    from ontonotes_5_parsing_ray.stages.relational import ewma_by_key

    return ewma_by_key(_events(), "k", ["t", "eid"], "v", 0.3,
                       keep_cols=["k", "eid"])


def _range_window_sum_by_key(mp):
    from ontonotes_5_parsing_ray.stages.relational import (
        range_window_sum_by_key,
    )

    return range_window_sum_by_key(_events(), "k", "t", "v", 500,
                                   keep_cols=["k", "eid"])


def _groupwise_head(mp):
    from ontonotes_5_parsing_ray.stages.relational import groupwise_head

    return groupwise_head(_events(), "k", ["t", "eid"], 2)


def _grouped_quantiles_ds(mp):
    from ontonotes_5_parsing_ray.stages.relational import grouped_quantiles_ds

    return grouped_quantiles_ds(_events(), "k", "v", qs=(0.5, 0.9))


def _sessionize_events_salted(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import (
        sessionize_events_salted,
    )

    ev = _events().to_pandas()
    return sessionize_events_salted(rd.from_arrow(pa.table({
        "event_id": pa.array(ev["eid"], pa.int64()),
        "ts": pa.array((1_700_000_000 + ev["t"] * 7) * 1_000_000,
                       pa.timestamp("us")),
        "user_id": pa.array(ev["k"], pa.int64()),
        "value": pa.array(ev["v"].astype(float), pa.float64()),
    })), 1800, bucket_seconds=3600)


def _token_typo_pairs(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import token_typo_pairs

    vocab = ["table", "tible", "tables", "chair", "chairs", "chaim",
             "query", "queue", "data", "date", "gate", "plan"]
    return token_typo_pairs(
        rd.from_pandas(pd.DataFrame({"token": vocab})).repartition(3))


def _dup_window_stats(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import dup_window_stats

    return dup_window_stats(rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["the quick brown fox jumps", "the quick brown cat sits",
                 "aa bb aa bb aa bb", "totally unique words here now"],
    })).repartition(2), k=3)


def _candidate_pairs(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import dedup

    mp.setattr(dedup, "CANDIDATE_DRIVER_LIMIT", 0)
    rng = np.random.RandomState(4)
    return dedup._candidate_pairs(rd.from_arrow(pa.table({
        "bucket": pa.array([f"b{rng.randint(0, 40)}" for _ in range(300)]),
        "doc_id": pa.array(rng.randint(0, 120, size=300), pa.int64()),
    })), "bucket", "doc_id")


def _expand_dup_pairs(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import dedup

    mp.setattr(dedup, "PAYLOAD_BROADCAST_LIMIT", 0)
    members = rd.from_pandas(pd.DataFrame({
        "rep": [1, 1, 1, 5, 5, 9, 9, 9, 9],
        "doc_id": [1, 2, 3, 5, 6, 9, 10, 11, 12],
    }))
    verified = rd.from_pandas(pd.DataFrame({
        "doc_a": [1, 5], "doc_b": [5, 9], "jaccard": [0.8, 0.75],
    }))
    return dedup._expand_dup_pairs(verified, members, "jaccard", 1.0)


def _rewrite_annotations(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.pipelines.reduce_tags import (
        rewrite_annotations,
    )

    rows = []
    for c in range(12):
        for t in range(2):
            rows += [
                {"conv_id": f"c{c}", "turn_idx": t, "kind": "morphology",
                 "tag": "NN", "start": 0, "end": 5},
                {"conv_id": f"c{c}", "turn_idx": t, "kind": "morphology",
                 "tag": "NN-X", "start": 3, "end": 9},
                {"conv_id": f"c{c}", "turn_idx": t, "kind": "morphology",
                 "tag": "VB", "start": 20, "end": 24},
            ]
    return rewrite_annotations(
        rd.from_pandas(pd.DataFrame(rows)),
        {"morphology": {"NN-X": "NN", "VB": "VB"}})


def _triangle_counts(mp):
    from ontonotes_5_parsing_ray.stages.graph import triangle_counts

    return triangle_counts(_edges())


def _symmetrize_int_edges(mp):
    from ontonotes_5_parsing_ray.stages.graph import symmetrize_int_edges

    return symmetrize_int_edges(_edges(), scale=10.0)


def _label_propagation(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.graph import (
        label_propagation,
        symmetrize_int_edges,
    )

    seeds = rd.from_pandas(pd.DataFrame({"node": [0, 7, 15],
                                         "label": [0, 1, 2]}))
    return label_propagation(symmetrize_int_edges(_edges()), seeds,
                             rounds=2, broadcast_limit=0)


def _contamination_overlap_join(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.decontaminate import (
        contamination_overlap,
    )

    corpus = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["a b c d e", "x y z", "c d e f g", "q r s t"],
    }))
    bench = rd.from_pandas(pd.DataFrame({
        "doc_id": [100], "text": ["b c d e f"],
    }))
    return contamination_overlap(corpus, bench, gram_n=3, broadcast_limit=0)


def _build_canon_map_distributed(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import canonicalize
    from ontonotes_5_parsing_ray.stages.canonicalize import build_canon_map

    mp.setattr(canonicalize, "DRIVER_CLUSTER_LIMIT", 0)
    norms = ["acme corp", "acme corporation", "acme corp inc", "globex",
             "globex inc", "initech", "initech llc", "black mesa"]
    return build_canon_map(
        rd.from_arrow(pa.table({"norm": pa.array(norms, pa.string())})))


def _two_phase_aggregate_distributed(mp):
    from ontonotes_5_parsing_ray.stages import relational

    mp.setattr(relational, "PREAGG_DRIVER_LIMIT", 0)
    return relational.preagg_groupby_ds(
        _events(), ["k", "v"], {"n": ("t", "count"), "t_max": ("t", "max")})


def _transcript_ordering(mp):
    from ontonotes_5_parsing_ray.pipelines.queries import (
        transcript_ordering,
    )
    from tests.conftest import SF_DIR

    return transcript_ordering(SF_DIR)


CASES = {f.__name__.lstrip("_"): f for f in [
    _rolling_by_key, _lag_by_key, _ewma_by_key, _range_window_sum_by_key,
    _groupwise_head, _grouped_quantiles_ds, _sessionize_events_salted,
    _token_typo_pairs, _dup_window_stats, _candidate_pairs,
    _expand_dup_pairs, _rewrite_annotations, _triangle_counts,
    _symmetrize_int_edges, _label_propagation, _contamination_overlap_join,
    _build_canon_map_distributed, _two_phase_aggregate_distributed,
    _transcript_ordering,
]}


def _sorted_frame(ds) -> pd.DataFrame:
    df = ds if isinstance(ds, pd.DataFrame) else ds.to_pandas()
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="mergesort") \
        .reset_index(drop=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_exchange_count_comes_from_the_shared_rule(ray_session, monkeypatch,
                                                   case):
    """Each hash-partitioned operator asks ``exchange_partitions`` for its
    partition count (a spy must be called), and running it at 1 and at 7
    partitions gives equal sorted output."""
    from ontonotes_5_parsing_ray.stages import relational

    outs = []
    for n in (1, 7):
        calls = []

        def spy(*inputs, n=n):
            calls.append(n)
            return n

        monkeypatch.setattr(relational, "exchange_partitions", spy)
        outs.append(_sorted_frame(CASES[case](monkeypatch)))
        assert calls, f"{case} picked its partition count itself"
    assert len(outs[0]) > 0
    pd.testing.assert_frame_equal(outs[0], outs[1])
