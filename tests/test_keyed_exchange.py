"""Every hash-partitioned operator takes its partition count from the one
shared rule (``relational.exchange_partitions``), and its output does not
depend on that count. None of them calls Ray's ``Dataset.join``."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from tests.conftest import exchange_joins

# above 2^53: a float64 round trip would change it
BIG = (1 << 60) + 1


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


def _join_sides(right_key: str = "k"):
    """A left input whose first block a filter has emptied (its int64
    values are above 2^53) and a two-block right input; keys overlap in
    part."""
    import ray.data as rd

    rng = np.random.RandomState(11)
    left = pa.table({
        "k": pa.array(rng.randint(0, 40, size=200), pa.int64()),
        "lv": pa.array(BIG + np.arange(200), pa.int64()),
    })
    right = pa.table({
        right_key: pa.array(rng.randint(20, 60, size=60), pa.int64()),
        "rv": pa.array(rng.randint(0, 1000, size=60) / 8, pa.float64()),
    })
    lds = rd.from_arrow([left.slice(i, 50) for i in range(0, 200, 50)]) \
        .map_batches(lambda t: t.filter(pc.greater_equal(t["lv"], BIG + 50)),
                     batch_format="pyarrow")
    return lds, rd.from_arrow([right.slice(0, 30), right.slice(30)])


def _hash_join(join_type: str, right_on: bool = False):
    def case(mp):
        from ontonotes_5_parsing_ray.stages.relational import hash_join

        exchange_joins(mp)
        left, right = _join_sides("rk" if right_on else "k")
        return hash_join(left, right, on=["k"], join_type=join_type,
                         right_on=["rk"] if right_on else None)
    case.__name__ = f"_hash_join_{join_type}" + ("_right_on" if right_on
                                                  else "")
    return case


def _hash_join_pandas_blocks(mp):
    """Pandas-block sides with string (object) key and value columns: a
    side missing from a partition is typed from a pandas schema."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import hash_join

    left = pd.DataFrame({"k": [f"u{i % 13}" for i in range(60)],
                         "a": np.arange(60)})
    right = pd.DataFrame({"k": [f"u{i}" for i in range(5, 9)],
                          "b": ["x", "y", "z", "w"]})
    return hash_join(rd.from_pandas(left).repartition(3),
                     rd.from_pandas(right), on=["k"], join_type="right_outer")


def _parity(ds, odd: int):
    """The rows of ``ds`` whose ``eid`` has parity ``odd``."""
    return ds.map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t["eid"], 1), odd)),
        batch_format="pyarrow")


def _asof_sides():
    left = _parity(_events(), 0).select_columns(["k", "t", "v"])
    right = _parity(_events(), 1).map_batches(
        lambda t: t.select(["k", "t", "v"]).rename_columns(["k", "t", "w"]),
        batch_format="pyarrow")
    return left, right


def _asof_join(mp):
    from ontonotes_5_parsing_ray.stages.relational import asof_join

    left, right = _asof_sides()
    return asof_join(left, right, by="k", on="t", left_cols=["k", "t", "v"],
                     right_cols=["k", "t", "w"])


def _asof_join_salted(mp):
    from ontonotes_5_parsing_ray.stages.relational import asof_join

    left, right = _asof_sides()
    return asof_join(left, right, by="k", on="t", left_cols=["k", "t", "v"],
                     right_cols=["k", "t", "w"], salt_bucket=500)


def _interval_join_two_sources(mp):
    from ontonotes_5_parsing_ray.stages.relational import interval_join

    return interval_join(_parity(_events(), 0), _parity(_events(), 1),
                         "k", "t", 300, id_col="eid")


def _interval_join_one_source(mp):
    from ontonotes_5_parsing_ray.stages.relational import interval_join

    ev = _events().map_batches(
        lambda t: t.append_column("side", pa.array(
            (t["eid"].to_numpy() % 2).astype(np.int8), pa.int8())),
        batch_format="pyarrow")
    return interval_join(ev, None, "k", "t", 300, id_col="eid",
                         side_col="side")


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


def _embedding_near_dup_pairs(mp):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import embedding_near_dup_pairs

    rng = np.random.RandomState(9)
    base = rng.randn(20, 16)
    vecs = np.repeat(base, 3, axis=0) + 0.001 * rng.randn(60, 16)
    return embedding_near_dup_pairs(rd.from_arrow(pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.array(vecs.astype(np.float32).tolist(),
                              pa.list_(pa.float32())),
    })).repartition(3), threshold=0.95, n_planes=4)


def _kg_link(mp):
    """The flagship linker on the skewed transcripts, with buckets of 16
    turns so phases B/C run."""
    from ontonotes_5_parsing_ray.pipelines import kg
    from ontonotes_5_parsing_ray.sources.transcripts import (
        generate_transcripts,
    )
    from tests.test_salted_link import SKEWED, _link

    mp.setattr(kg, "LINK_BUCKET_TURNS", 16)
    return _link(generate_transcripts("/tmp/onr_transcripts/pytest_skewed",
                                      **SKEWED))


CASES = {f.__name__.lstrip("_"): f for f in [
    _rolling_by_key, _lag_by_key, _ewma_by_key, _range_window_sum_by_key,
    _groupwise_head, _grouped_quantiles_ds, _sessionize_events_salted,
    _token_typo_pairs, _dup_window_stats, _candidate_pairs,
    _expand_dup_pairs, _rewrite_annotations, _triangle_counts,
    _symmetrize_int_edges, _label_propagation, _contamination_overlap_join,
    _build_canon_map_distributed, _two_phase_aggregate_distributed,
    _transcript_ordering, _hash_join("inner"), _hash_join("left_outer"),
    _hash_join("full_outer"), _hash_join("inner", right_on=True),
    _hash_join_pandas_blocks,
    _asof_join, _asof_join_salted, _interval_join_two_sources,
    _interval_join_one_source, _embedding_near_dup_pairs, _kg_link,
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
    partitions gives equal sorted output, with Ray's ``Dataset.join``
    made to raise."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import relational

    def no_join(*args, **kwargs):
        raise AssertionError("Dataset.join called")

    monkeypatch.setattr(rd.Dataset, "join", no_join)
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


@pytest.mark.parametrize("join_type", ["inner", "left_outer", "full_outer"])
def test_hash_join_equals_pandas_merge(ray_session, pin_exchange_partitions,
                                       monkeypatch, join_type):
    """``hash_join``'s keyed exchange gives a pandas merge's rows at 1 and 7
    partitions, on a left input with an empty first block; the left int64
    values above 2^53 come through exactly (read in Arrow: pandas turns an
    int column with nulls into float64)."""
    import ray

    from ontonotes_5_parsing_ray.stages.relational import hash_join

    exchange_joins(monkeypatch)
    left, right = _join_sides()
    how = {"inner": "inner", "left_outer": "left",
           "full_outer": "outer"}[join_type]
    ldf = left.to_pandas()
    ref = ldf.merge(right.to_pandas(), on="k", how=how)
    exact = ldf.astype({"lv": "Int64"}).merge(right.to_pandas(), on="k",
                                              how=how)["lv"].dropna()
    for n in (1, 7):
        pin_exchange_partitions(n)
        out = hash_join(left, right, on=["k"], join_type=join_type)
        assert out.schema().names == ["k", "lv", "rv"]
        pd.testing.assert_frame_equal(_sorted_frame(out), _sorted_frame(ref),
                                      check_dtype=False)
        tables = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
        lv = [v for t in tables for v in t.column("lv").to_pylist()
              if v is not None]
        assert sorted(lv) == sorted(int(v) for v in exact)


def test_exchange_size_reaches_the_read(ray_session, monkeypatch):
    """A lazy map hides its own size, so the exchange sizes itself from the
    nearest upstream op that knows one (here the parquet read); a union
    sums its inputs, counting an op reached by both branches once. Nothing
    executes."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import relational
    from tests.conftest import SF_DIR

    monkeypatch.setattr(relational, "TARGET_JOIN_BUCKET_BYTES", 1 << 12)
    path = f"{SF_DIR}/lineitem.parquet"
    read = rd.read_parquet(path)
    mapped = read.select_columns(["l_orderkey"]).map_batches(
        lambda t: t, batch_format="pyarrow")
    size = relational._known_size_bytes(read)
    assert size and relational._known_size_bytes(mapped) == size
    assert relational._known_size_bytes(
        mapped.union(rd.read_parquet(path))) == 2 * size
    # both branches come from one read: it counts once
    assert relational._known_size_bytes(mapped.union(read)) == size
    n = relational.exchange_partitions(read)
    assert n > relational.exchange_partitions(None)   # above the CPU floor
    assert relational.exchange_partitions(mapped) == n


def test_chained_hash_joins_run_each_input_once(ray_session, tmp_path,
                                                pin_exchange_partitions,
                                                monkeypatch):
    """Two chained ``hash_join`` calls on the keyed exchange, the second fed
    by a keyed exchange over the first: the upstream map kernel and the
    exchange kernel each see every row once (reading a lazy side's schema
    must not run it before the join does)."""
    import uuid

    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import (
        hash_join,
        partition_map_groups,
        to_arrow,
    )

    def log(name: str, keys) -> None:
        (tmp_path / f"{name}-{uuid.uuid4().hex}").write_text(
            " ".join(str(k) for k in keys))

    def upstream(t: pa.Table) -> pa.Table:
        log("map", t.column("k").to_pylist())
        return t

    def kernel(g: pd.DataFrame) -> pa.Table:
        log("exchange", g["k"].tolist())
        return to_arrow(g)

    def seen(name: str) -> list:
        return sorted(int(k) for f in tmp_path.glob(f"{name}-*")
                      for k in f.read_text().split())

    pin_exchange_partitions(7)
    exchange_joins(monkeypatch)
    keys = pa.array(np.arange(60), pa.int64())
    left = rd.from_arrow([pa.table({"k": keys.slice(i, 10)})
                          for i in range(0, 60, 10)]) \
        .map_batches(upstream, batch_format="pyarrow")
    r1 = rd.from_arrow(pa.table({"k": keys, "a": pc.multiply(keys, 2)}))
    r2 = rd.from_arrow(pa.table({"k": keys, "b": pc.multiply(keys, 3)}))
    first = partition_map_groups(hash_join(left, r1, on=["k"]), "k", kernel)
    out = hash_join(first, r2, on=["k"]).to_pandas()
    assert sorted(out["k"]) == list(range(60))
    assert (out["b"] == 3 * out["k"]).all()
    assert seen("map") == list(range(60))
    assert seen("exchange") == list(range(60))


def _route_sides(case: str):
    """``(left, right, right_on)`` for one edge case of
    :func:`test_hash_join_routes_agree`."""
    import ray.data as rd

    if case == "empty_first_left_block":
        return (*_join_sides(), None)
    if case == "right_on":
        return (*_join_sides("rk"), ["rk"])
    left, _ = _join_sides()
    if case == "empty_right":
        right = pa.table({"k": pa.array([], pa.int64()),
                          "rv": pa.array([], pa.float64())})
        return left, rd.from_arrow(right), None
    if case == "duplicate_right_keys":
        right = pa.table({"k": pa.array([3, 3, 21, 21, 21, 39], pa.int64()),
                          "rv": pa.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5])})
        return left, rd.from_arrow([right.slice(0, 3), right.slice(3)]), None
    # keys above 2^53: BIG + 1 and BIG + 2 are one float64
    lk = pa.array(BIG + np.arange(40) % 8, pa.int64())
    left = rd.from_arrow([pa.table({"k": lk.slice(i, 10),
                                    "lv": pa.array(np.arange(i, i + 10))})
                          for i in range(0, 40, 10)])
    right = pa.table({"k": pa.array(BIG + np.array([1, 2, 2, 5, 9]),
                                    pa.int64()),
                      "rv": pa.array([1.0, 2.0, 3.0, 4.0, 5.0])})
    return left, rd.from_arrow(right), None


@pytest.mark.parametrize("case", [
    "empty_right", "empty_first_left_block", "right_on",
    "duplicate_right_keys", "keys_above_2_53"])
@pytest.mark.parametrize("join_type", ["inner", "left_outer"])
def test_hash_join_routes_agree(ray_session, monkeypatch, join_type, case):
    """``hash_join``'s broadcast route (the default for these small build
    sides) and its keyed exchange (forced through the predicate) give a
    pandas merge's rows with the same columns; int64 keys and values
    above 2^53 come through exactly."""
    import ray

    from ontonotes_5_parsing_ray.stages import relational

    left, right, right_on = _route_sides(case)
    ldf, rdf = (pa.concat_tables(ray.get(ds.to_arrow_refs())).to_pandas()
                for ds in (left, right))
    how = {"inner": "inner", "left_outer": "left"}[join_type]
    want = ldf.merge(rdf, left_on="k", right_on=(right_on or ["k"])[0],
                     how=how).drop(columns=right_on or [])
    routes = []
    for exchange in (False, True):
        with monkeypatch.context() as mp:
            calls = []
            real = relational._exchange
            mp.setattr(relational, "_exchange",
                       lambda *a, **k: calls.append(1) or real(*a, **k))
            if exchange:
                exchange_joins(mp)
            out = relational.hash_join(left, right, on=["k"],
                                       join_type=join_type,
                                       right_on=right_on)
            assert len(calls) == exchange
            tables = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
        assert sum(t.num_rows for t in tables) == len(want)
        if not len(want):
            continue
        got = pa.concat_tables(tables)
        assert got.column_names == list(want.columns)
        for col in ("k", "lv"):   # exact, read in Arrow
            assert sorted(got.column(col).to_pylist()) == \
                sorted(int(v) for v in want[col])
        routes.append(_sorted_frame(got.to_pandas()))
        pd.testing.assert_frame_equal(routes[-1], _sorted_frame(want),
                                      check_dtype=False)
    if routes:
        pd.testing.assert_frame_equal(routes[0], routes[1])


def test_hash_join_broadcast_route_runs_each_side_once(ray_session, tmp_path,
                                                       monkeypatch):
    """On the broadcast route ``hash_join`` builds no keyed exchange, never
    materializes the left side, and materializes an unmaterialized right
    side exactly once: a spy on ``Dataset.materialize`` and the row logs of
    both sides' upstream map kernels."""
    import uuid

    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from ontonotes_5_parsing_ray.stages import relational

    def logged(name: str):
        def fn(t: pa.Table) -> pa.Table:
            (tmp_path / f"{name}-{uuid.uuid4().hex}").write_text(
                " ".join(str(k) for k in t.column("k").to_pylist()))
            return t
        return fn

    def seen(name: str) -> list:
        return sorted(int(k) for f in tmp_path.glob(f"{name}-*")
                      for k in f.read_text().split())

    keys = pa.array(np.arange(60), pa.int64())
    left = rd.from_arrow([pa.table({"k": keys.slice(i, 10)})
                          for i in range(0, 60, 10)]) \
        .map_batches(logged("left"), batch_format="pyarrow")
    right = rd.from_arrow([pa.table({"k": keys.slice(i, 20),
                                     "a": pc.multiply(keys.slice(i, 20), 2)})
                           for i in range(0, 60, 20)]) \
        .map_batches(logged("right"), batch_format="pyarrow")
    exchanges, materialized, starts = [], [], []
    real_exchange = relational._exchange
    real_materialize = rd.Dataset.materialize
    real_init = StreamingExecutor.__init__

    def materialize(self):
        materialized.append(self)
        return real_materialize(self)

    def init(self, *args, **kwargs):
        starts.append(1)
        return real_init(self, *args, **kwargs)

    monkeypatch.setattr(relational, "_exchange",
                        lambda *a, **k: exchanges.append(1)
                        or real_exchange(*a, **k))
    monkeypatch.setattr(rd.Dataset, "materialize", materialize)
    monkeypatch.setattr(StreamingExecutor, "__init__", init)
    out = relational.hash_join(left, right, on=["k"])
    assert (len(starts), seen("left"), seen("right")) == (1, [], list(range(60)))
    assert materialized and materialized[0] is right
    assert all(ds is not left for ds in materialized)
    df = out.to_pandas()
    assert sorted(df["k"]) == list(range(60))
    assert (df["a"] == 2 * df["k"]).all()
    assert exchanges == []
    assert seen("left") == list(range(60)) and seen("right") == list(range(60))
    assert len(starts) == 2
