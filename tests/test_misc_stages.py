"""Checkpoint/lineage, tag reduction, multimodal stubs, stats pipelines."""

import tempfile

import pandas as pd
import pyarrow as pa
import pytest


def test_checkpoint_markers_and_resume(tmp_path):
    from ontonotes_5_parsing_ray.state.checkpoint import (
        partition_of,
        pending_partitions,
        read_lineage,
        write_lineage,
    )

    d = str(tmp_path)
    assert pending_partitions(d, 4) == [0, 1, 2, 3]
    write_lineage(d, 2, "edges", 100, extra={"input": "part-0002"})
    write_lineage(d, 0, "edges", 50)
    assert pending_partitions(d, 4) == [1, 3]
    lineage = read_lineage(d)
    assert [l["partition"] for l in lineage] == [0, 2]
    assert lineage[1]["rows"] == 100 and lineage[1]["input"] == "part-0002"
    # partition assignment is stable
    assert partition_of("conv000001", 8) == partition_of("conv000001", 8)


def test_reduce_tags_two_pass(ray_session):
    import ray.data as rd

    from ontonotes_5_parsing_ray.pipelines.reduce_tags import build_rules, reduce_tags

    rows = {
        "conv_id": ["c1"] * 6 + ["c2"] * 2,
        "turn_idx": [0, 0, 0, 0, 0, 0, 1, 1],
        "kind": ["morphology"] * 8,
        "tag": ["NN", "NN", "NNP", "NN-X", "VB", "VBD", "NN", "NNP"],
        "start": [0, 5, 10, 15, 20, 25, 0, 5],
        "end": [3, 8, 13, 18, 23, 28, 3, 8],
    }
    ds = rd.from_arrow(pa.table({
        "conv_id": pa.array(rows["conv_id"], pa.string()),
        "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
        "kind": pa.array(rows["kind"], pa.string()),
        "tag": pa.array(rows["tag"], pa.string()),
        "start": pa.array(rows["start"], pa.int32()),
        "end": pa.array(rows["end"], pa.int32()),
    }))
    rules = build_rules(ds, max_types=2)
    # NN (freq 3) and NNP (freq 2) seed; NN-X joins NN; VB* join by distance
    assert rules["morphology"]["NN-X"] == "NN"
    reduced = reduce_tags(ds, max_types=2).to_pandas()
    assert set(reduced["tag"]) <= {"NN", "NNP"}
    # span counts preserved except where merges collapse overlaps
    assert len(reduced) <= 8


def test_multimodal_fake_decode_and_strict_stub(ray_session):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.multimodal import (
        DecodeMedia,
        decode_media,
        synthesize_media_table,
    )

    media = synthesize_media_table(n=12)
    out = decode_media(rd.from_arrow(media), mode="fake").to_pandas()
    assert len(out) == 12
    assert "payload" not in out.columns           # heavy bytes dropped
    assert all(len(f) == 8 for f in out["features"])
    assert (out["n_bytes"] > 0).all()
    # deterministic across runs
    out2 = decode_media(rd.from_arrow(media), mode="fake").to_pandas()
    assert out.sort_values("media_id")["payload_crc"].tolist() == \
        out2.sort_values("media_id")["payload_crc"].tolist()
    # strict mode is an explicit stub
    with pytest.raises(NotImplementedError):
        DecodeMedia(mode="strict")(media)
    with pytest.raises(ValueError):
        DecodeMedia(mode="bogus")


def test_stats_pipelines(ray_session, tiny_transcripts):
    from ontonotes_5_parsing_ray.pipelines.kg import annotate, read_transcripts
    from ontonotes_5_parsing_ray.pipelines.stats import (
        entity_frequencies,
        tag_frequencies_by_kind,
    )
    from ontonotes_5_parsing_ray.stages.annotate import annotations_long_form

    ann = annotate(read_transcripts(tiny_transcripts), concurrency=2).map_batches(
        annotations_long_form, batch_format="pyarrow"
    ).materialize()
    ef = entity_frequencies(ann, kind="entities")
    assert set(ef.columns) == {"tag", "n_spans"}
    assert (ef["n_spans"].diff().dropna() <= 0).all()  # sorted desc
    assert {"PERSON", "ORG", "GPE"} <= set(ef["tag"])
    tf = tag_frequencies_by_kind(ann)
    assert {"morphology", "syntax", "entities"} == set(tf["kind"])


@pytest.mark.parametrize("keys", [["k"], ["k1", "k2"]],
                         ids=["single_key", "multi_key"])
def test_preagg_groupby_routes_equal(ray_session, monkeypatch, keys):
    """PREAGG_DRIVER_LIMIT=0 forces the distributed combine (one exchange on
    a hash of the whole key tuple); it must equal the driver combine for
    all four aggregate kinds."""
    import numpy as np
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import relational

    rng = np.random.RandomState(8)
    n = 5000
    columns = {
        "k": pa.array(rng.randint(0, 40, n).astype("int64")),
        "k1": pa.array([f"g{i}" for i in rng.randint(0, 40, n)], pa.string()),
        "k2": pa.array(rng.randint(0, 5, n).astype("int64")),
    }
    ds = rd.from_arrow(pa.table({
        **{k: columns[k] for k in keys},
        "v": pa.array(rng.randn(n).round(4), pa.float64()),
    }))
    aggs = {"n": ("v", "count"), "s": ("v", "sum"),
            "lo": ("v", "min"), "hi": ("v", "max")}
    drv = relational.preagg_groupby(ds, keys, aggs)
    monkeypatch.setattr(relational, "PREAGG_DRIVER_LIMIT", 0)
    dist = relational.preagg_groupby(ds, keys, aggs)
    assert len(drv) == (40 if keys == ["k"] else 200)
    pd.testing.assert_frame_equal(drv, dist)


def test_windowed_event_counts_routes_equal(ray_session, monkeypatch):
    """The tumbling-window aggregate gives the same table on the driver and
    the distributed combine (PREAGG_DRIVER_LIMIT=0)."""
    import numpy as np
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import relational

    rng = np.random.RandomState(8)
    n = 5000
    epochs = 1_700_000_000 + rng.randint(0, 40 * 3600, size=n)
    ev = rd.from_arrow(pa.table({
        "ts": pa.array(epochs * 1_000_000, pa.timestamp("us")),
        "event_type": pa.array([f"t{rng.randint(0, 3)}" for _ in range(n)],
                               pa.string()),
        "value": pa.array(rng.rand(n).round(4), pa.float64()),
    }))
    a = relational.windowed_event_counts(ev, 3600)
    monkeypatch.setattr(relational, "PREAGG_DRIVER_LIMIT", 0)
    b = relational.windowed_event_counts(ev, 3600)
    pd.testing.assert_frame_equal(a, b)


def test_preagg_groupby_empty_input_keeps_columns(ray_session):
    """A typed 0-row input gives an empty frame with the key and aggregate
    columns, also through a map (Ray Data drops the schema of a map over
    0-row blocks)."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import relational

    ds = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                 "v": pa.array([], pa.float64())}))
    aggs = {"n": ("v", "count"), "s": ("v", "sum")}
    for src in (ds, ds.map_batches(lambda b: b, batch_format="pandas")):
        out = relational.preagg_groupby(src, ["k"], aggs)
        assert len(out) == 0
        assert list(out.columns) == ["k", "n", "s"]


def test_windowed_event_counts_empty_input(ray_session):
    """No events: an empty window table with its four columns."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import relational

    ev = rd.from_arrow(pa.table({
        "ts": pa.array([], pa.timestamp("us")),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
    }))
    out = relational.windowed_event_counts(ev, 3600)
    assert len(out) == 0
    assert list(out.columns) == ["event_type", "window_start", "n_events",
                                 "value_sum"]


def test_rewrite_annotations_partitioned_equals_kernel(
        ray_session, pin_exchange_partitions):
    """Round-2: the conv-partitioned distributed rewrite must equal the pure
    kernel applied to the whole frame (turn locality is preserved because
    the shuffle key is a function of conv_id), including span merges where
    two original tags collapse into one canonical tag."""
    import pandas as pd
    import ray.data as rd

    from ontonotes_5_parsing_ray.pipelines.reduce_tags import (
        rewrite_annotations,
        rewrite_frame,
    )

    pin_exchange_partitions(7)

    rows = []
    for c in range(20):
        for t in range(3):
            rows += [
                {"conv_id": f"c{c}", "turn_idx": t, "kind": "morphology",
                 "tag": "NN", "start": 0, "end": 5},
                {"conv_id": f"c{c}", "turn_idx": t, "kind": "morphology",
                 "tag": "NN-X", "start": 3, "end": 9},   # overlaps after collapse
                {"conv_id": f"c{c}", "turn_idx": t, "kind": "morphology",
                 "tag": "VB", "start": 20, "end": 24},
            ]
    df = pd.DataFrame(rows)
    rules = {"morphology": {"NN-X": "NN", "VB": "VB"}}
    expected = rewrite_frame(df, rules).sort_values(
        ["conv_id", "turn_idx", "kind", "tag", "start"]).reset_index(drop=True)
    got = rewrite_annotations(
        rd.from_pandas(df), rules
    ).to_pandas().sort_values(
        ["conv_id", "turn_idx", "kind", "tag", "start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[expected.columns], expected)
    # the overlapping NN/NN-X spans merged into one [0, 9) span per turn
    nn = got[(got["conv_id"] == "c0") & (got["turn_idx"] == 0) & (got["tag"] == "NN")]
    assert list(zip(nn["start"], nn["end"])) == [(0, 9)]


def test_sessionize_salted_equals_plain_with_hot_user(ray_session,
                                                      pin_exchange_partitions):
    """Two-phase sessionization == single-group sessionization, including a
    hot user whose sessions straddle time-bucket boundaries."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import (
        sessionize_events,
        sessionize_events_salted,
    )

    pin_exchange_partitions(8)

    rng = np.random.RandomState(9)
    rows = []
    eid = 0
    # hot user 1: a dense run crossing many 1-hour buckets without a gap,
    # then a >gap pause, then another run
    t = 1_700_000_000
    for _ in range(500):
        rows.append((eid, t, 1, 0.5)); eid += 1
        t += int(rng.randint(1, 300))          # always < gap -> one session
    t += 5000                                  # > gap -> new session
    for _ in range(200):
        rows.append((eid, t, 1, 0.25)); eid += 1
        t += int(rng.randint(1, 300))
    # normal users
    for u in range(2, 30):
        t = 1_700_000_000 + u * 999
        for _ in range(rng.randint(1, 20)):
            rows.append((eid, t, u, 1.0)); eid += 1
            t += int(rng.randint(1, 4000))     # some gaps > 1800
    df = pd.DataFrame(rows, columns=["event_id", "epoch", "user_id", "value"])
    tbl = pa.table({
        "event_id": pa.array(df["event_id"], pa.int64()),
        "ts": pa.array(df["epoch"] * 1_000_000, pa.timestamp("us")),
        "user_id": pa.array(df["user_id"], pa.int64()),
        "value": pa.array(df["value"], pa.float64()),
    })
    ds = rd.from_arrow(tbl)

    cols = ["user_id", "session_idx", "session_start", "session_end",
            "n_events", "value_sum"]
    plain = sessionize_events(ds, 1800).to_pandas()[cols] \
        .sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    # bucket_seconds=3600 forces the hot user's long session across ~40 buckets
    salted = sessionize_events_salted(ds, 1800, bucket_seconds=3600) \
        .to_pandas()[cols] \
        .sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        plain.astype({"session_idx": "int64"}),
        salted.astype({"session_idx": "int64"}))
    assert plain[plain["user_id"] == 1]["session_idx"].max() == 1  # 2 sessions


def test_multimodal_frame_sample(ray_session):
    """Frame-sample plumbing: schema, pass-through rule, frame fan-out
    bounds, determinism; strict mode raises (codecs absent)."""
    import pytest
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.multimodal import (
        sample_frames,
        synthesize_media_table,
    )

    media = rd.from_arrow(synthesize_media_table(n=48))
    frames = sample_frames(media, fps_out=2.0, max_frames=4).to_pandas()
    vids = frames[frames["kind"] == "video_frame"]
    assert len(vids) > 0
    assert vids.groupby("media_id")["frame_idx"].count().max() <= 4
    assert (frames[frames["kind"] != "video_frame"]["frame_idx"] == -1).all()

    # determinism: same seed table -> identical frame bytes
    frames2 = sample_frames(rd.from_arrow(synthesize_media_table(n=48)),
                            fps_out=2.0, max_frames=4).to_pandas()
    a = frames.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    b = frames2.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    assert (a["frame_bytes"] == b["frame_bytes"]).all()

    with pytest.raises(Exception):
        sample_frames(media, mode="strict").to_pandas()


def test_auto_join_partitions_size_aware(ray_session):
    """Exchange partition count (the rule behind every hash exchange): CPU
    floor for small/unknown inputs, scales with the largest known byte size
    (one bucket <= target), capped. _known_size_bytes must not trigger
    execution."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import (
        MAX_AUTO_JOIN_PARTITIONS,
        TARGET_JOIN_BUCKET_BYTES,
        _auto_join_partitions,
        _known_size_bytes,
    )

    assert _auto_join_partitions(32, None, None) == 8     # floor only
    assert _auto_join_partitions(4, None, None) == 2
    one_tb = 1 << 40
    assert _auto_join_partitions(32, one_tb, 1000) == one_tb // TARGET_JOIN_BUCKET_BYTES
    assert _auto_join_partitions(32, 50 << 20, None) == 8  # small side: floor
    assert _auto_join_partitions(8, MAX_AUTO_JOIN_PARTITIONS * one_tb,
                                 None) == MAX_AUTO_JOIN_PARTITIONS

    # metadata probe: known for a pure parquet read, and through it after a
    # lazy transform (cheap either way — no execution)
    ds = rd.read_parquet("/root/testdata/sf0.001/lineitem.parquet")
    sz = _known_size_bytes(ds)
    assert sz is None or sz > 0
    mapped = ds.map_batches(lambda t: t, batch_format="pyarrow")
    assert _known_size_bytes(mapped) == sz


def test_groupwise_head_quota(ray_session):
    """Per-key quota: exactly min(k, n_key) survivors per key, the FIRST k
    under the given order, even when one key dominates the input."""
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import groupwise_head

    rows = []
    for i in range(500):
        rows.append(("hot", i))          # hot key: 500 rows
    for k in range(20):
        for i in range(3):
            rows.append((f"cold{k}", i))  # 20 cold keys x 3 rows
    ds = rd.from_arrow(pa.table({
        "source": pa.array([r[0] for r in rows], pa.string()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
    }))
    out = groupwise_head(ds, "source", ["doc_id"], k=5).to_pandas()
    counts = out.groupby("source")["doc_id"].agg(["size", "max"])
    assert counts.loc["hot", "size"] == 5
    assert counts.loc["hot", "max"] == 4  # the FIRST five by doc_id
    assert (counts.drop("hot")["size"] == 3).all()


def test_hopping_windows_cover_each_event_fan_times(ray_session):
    """Each event contributes to exactly window/hop windows, and the
    per-window counts sum to fan x n_events."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import hopping_event_counts

    ts = pd.to_datetime([1_700_000_000 + i * 400 for i in range(50)], unit="s")
    ds = rd.from_arrow(pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "event_type": pa.array(["a"] * 50, pa.string()),
        "value": pa.array([1.0] * 50, pa.float64()),
    }))
    out = hopping_event_counts(ds, window_seconds=3600, hop_seconds=900)
    assert out["n_events"].sum() == 4 * 50
    assert (out["window_start"] % 900 == 0).all()


def test_asof_join_backward_semantics(ray_session):
    """asof_join: latest right row with on <= left.on per key; exact-instant
    matches count; keys with no earlier right row come back NaN."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import asof_join

    left = rd.from_arrow(pa.table({
        "uid": pa.array([1, 1, 1, 2, 3], pa.int64()),
        "t": pa.array([10, 20, 30, 15, 5], pa.int64()),
        "lval": pa.array([0.1, 0.2, 0.3, 0.4, 0.5], pa.float64()),
    }))
    right = rd.from_arrow(pa.table({
        "uid": pa.array([1, 1, 2, 3], pa.int64()),
        "t": pa.array([10, 25, 12, 50], pa.int64()),
        "rval": pa.array([100.0, 200.0, 300.0, 400.0], pa.float64()),
    }))
    out = asof_join(left, right, by="uid", on="t",
                    left_cols=["uid", "t", "lval"],
                    right_cols=["uid", "t", "rval"]).to_pandas()
    out = out.sort_values(["uid", "t"]).reset_index(drop=True)
    got = list(out["rval"])
    # uid1: t=10 -> exact match 100; t=20 -> 100; t=30 -> 200 (t=25)
    # uid2: t=15 -> 300 (t=12); uid3: t=5 -> no right row <= 5 -> NaN
    assert got[:4] == [100.0, 100.0, 200.0, 300.0]
    assert np.isnan(got[4])


def test_grouped_median_exact(ray_session):
    """Exact interpolated median per key: odd counts, even counts, constant
    keys, duplicate-heavy keys — all against numpy's median."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import grouped_median

    rng = np.random.RandomState(17)
    keys, vals = [], []
    expect = {}
    for name, data in (
        ("odd", rng.randn(101) * 9),
        ("even", rng.randn(200) + 3),
        ("const", np.full(50, 2.5)),
        ("dupes", np.repeat(rng.randn(7), 40)),
        ("single", np.array([42.0])),
    ):
        keys += [name] * len(data)
        vals += list(data)
        expect[name] = float(np.median(data))
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.string()),
        "v": pa.array(vals, pa.float64()),
    }))
    out = grouped_median(ds, "k", "v").set_index("k")["median_value"]
    for name, want in expect.items():
        assert abs(out[name] - want) < 1e-12, (name, out[name], want)


def test_asof_join_salted_equals_unsalted_hot_key(ray_session):
    """Round-4 skew fix: one user holds most of the event log (far beyond a
    partition's fair share). The time-bucket salted route must return the
    EXACT unsalted answer — including left buckets whose match lives many
    empty buckets earlier, exact-instant matches on bucket boundaries, and
    keys with no match at all."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import asof_join

    rng = np.random.RandomState(11)
    # hot user 7: 5000 left rows over a wide time range; sparse rights
    hot_l_t = np.sort(rng.randint(0, 1_000_000, size=5000))
    hot_r_t = np.sort(rng.choice(1_000_000, size=40, replace=False))
    # a few normal users, incl. one with no right rows
    cold_uid = np.repeat([1, 2, 3], 50)
    cold_l_t = rng.randint(0, 1_000_000, size=150)
    l_uid = np.concatenate([np.full(5000, 7), cold_uid])
    l_t = np.concatenate([hot_l_t, cold_l_t])
    r_uid = np.concatenate([np.full(40, 7), np.full(30, 1), np.full(25, 2)])
    r_t = np.concatenate([hot_r_t, rng.randint(0, 1_000_000, size=55)])
    left = rd.from_arrow(pa.table({
        "uid": pa.array(l_uid, pa.int64()),
        "t": pa.array(l_t, pa.int64()),
        "lval": pa.array(np.arange(len(l_uid), dtype=np.float64),
                         pa.float64()),
    }))
    right = rd.from_arrow(pa.table({
        "uid": pa.array(r_uid, pa.int64()),
        "t": pa.array(r_t, pa.int64()),
        "rval": pa.array(rng.rand(len(r_uid)), pa.float64()),
    }))
    kw = dict(by="uid", on="t", left_cols=["uid", "t", "lval"],
              right_cols=["uid", "t", "rval"])
    plain = asof_join(left, right, **kw).to_pandas()
    # small salt bucket => hot user spreads over ~100+ partitionable cells
    salted = asof_join(left, right, salt_bucket=10_000, **kw).to_pandas()
    for df in (plain, salted):
        df["t"] = df["t"].astype("int64")
    plain = plain.sort_values(["uid", "t", "lval"]).reset_index(drop=True)
    salted = salted.sort_values(["uid", "t", "lval"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(plain, salted, check_dtype=False)
    # and both equal pandas' own merge_asof ground truth
    ldf = left.to_pandas().sort_values("t", kind="mergesort")
    rdf = right.to_pandas().sort_values("t", kind="mergesort")
    truth = pd.merge_asof(ldf, rdf, on="t", by="uid", direction="backward") \
        .sort_values(["uid", "t", "lval"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        plain[["uid", "t", "lval", "rval"]],
        truth[["uid", "t", "lval", "rval"]], check_dtype=False)


def test_asof_join_mismatched_key_dtypes(ray_session, pin_exchange_partitions):
    """ADVICE fix: int64 vs float64 ``by`` columns hash to different
    partitions under pandas hash_array — the canonical float64 cast must
    keep equal keys co-partitioned so matches are found, not dropped."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import asof_join

    pin_exchange_partitions(16)

    left = rd.from_arrow(pa.table({
        "uid": pa.array(list(range(64)), pa.int64()),
        "t": pa.array([100] * 64, pa.int64()),
        "lval": pa.array([1.0] * 64, pa.float64()),
    }))
    right = rd.from_arrow(pa.table({
        "uid": pa.array([float(i) for i in range(64)], pa.float64()),
        "t": pa.array([50] * 64, pa.int64()),
        "rval": pa.array([float(i) for i in range(64)], pa.float64()),
    }))
    out = asof_join(left, right, by="uid", on="t",
                    left_cols=["uid", "t", "lval"],
                    right_cols=["uid", "t", "rval"]).to_pandas()
    # every left row finds its (equal-valued, differently-typed) key match
    assert out["rval"].notna().all()
    assert sorted(out["rval"]) == [float(i) for i in range(64)]


def test_grouped_median_distributed_route_parity(ray_session):
    """key_driver_limit=0 forces the co-partitioned spec/target route; the
    result must equal both the driver route and numpy's interpolated
    median, including degenerate (single-row / constant) keys."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import grouped_median

    rng = np.random.RandomState(5)
    keys = rng.randint(0, 300, size=20_000)
    vals = np.round(rng.randn(20_000) * 100, 3)
    # degenerate keys: one single-row, one constant
    keys = np.concatenate([keys, [9991, 9992, 9992, 9992]])
    vals = np.concatenate([vals, [7.5, 3.25, 3.25, 3.25]])
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(vals, pa.float64()),
    }))
    via_driver = grouped_median(ds, "k", "v")
    via_dist = grouped_median(ds, "k", "v", key_driver_limit=0)
    pd.testing.assert_frame_equal(
        via_driver.reset_index(drop=True), via_dist.reset_index(drop=True))
    truth = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"] \
        .median().reset_index()
    np.testing.assert_allclose(
        via_dist["median_value"].to_numpy(), truth["v"].to_numpy(),
        rtol=0, atol=1e-9)


def test_grouped_median_high_cardinality(ray_session):
    """>=10^6 distinct keys through the distributed route: no driver-side
    per-key state; spot-parity vs numpy on a sampled key subset."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import grouped_median

    n_keys = 1_000_000
    rng = np.random.RandomState(17)
    # ~2.2M rows: every key once, a sampled half twice more
    k_extra = rng.randint(0, n_keys, size=1_200_000)
    keys = np.concatenate([np.arange(n_keys), k_extra])
    vals = rng.rand(len(keys)) * 1000
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(vals, pa.float64()),
    })).repartition(16)
    out = grouped_median(ds, "k", "v", key_driver_limit=200_000)
    assert len(out) == n_keys
    got = dict(zip(out["k"], out["median_value"]))
    import pandas as pd
    df = pd.DataFrame({"k": keys, "v": vals})
    sample = rng.choice(n_keys, size=200, replace=False)
    truth = df[df["k"].isin(sample)].groupby("k")["v"].median()
    for k, t in truth.items():
        assert abs(got[k] - t) < 1e-9, (k, got[k], t)


def test_grouped_median_big_key_offload(ray_session):
    """Skew guard: a key whose rows exceed big_key_limit is detected
    map-side and offloaded to the driver-histogram route; output equals
    numpy for hot and cold keys alike."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import (
        _grouped_quantiles_distributed,
        _partials_ds,
        grouped_median,
    )

    rng = np.random.RandomState(23)
    hot = np.full(50_000, 7, dtype=np.int64)
    cold = rng.randint(100, 400, size=30_000)
    keys = np.concatenate([hot, cold])
    vals = np.round(rng.rand(len(keys)) * 1000, 4)
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(vals, pa.float64()),
    })).repartition(8).materialize()
    parts = _partials_ds(
        ds, ["k"], {"n": ("v", "count"),
                    "mn": ("v", "min"), "mx": ("v", "max")}).materialize()
    out = _grouped_quantiles_distributed(
        ds, "k", "v", [0.5], ["median_value"], 2048, parts,
        big_key_limit=10_000)
    truth = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"] \
        .median().reset_index()
    assert len(out) == len(truth)
    np.testing.assert_allclose(
        out.sort_values("k")["median_value"].to_numpy(),
        truth["v"].to_numpy(), rtol=0, atol=1e-9)
    # and the un-forced call (hot key below the default limit) agrees too
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True),
        grouped_median(ds, "k", "v", key_driver_limit=0)
        .reset_index(drop=True))


def test_grouped_quantiles_routes_and_numpy_parity(ray_session):
    """grouped_quantiles (driver histogram route AND forced one-shuffle
    distributed route) vs numpy linear-interpolation percentiles, plus
    degenerate keys; median wrapper stays consistent with qs=(0.5,)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import (
        grouped_median,
        grouped_quantiles,
    )

    rng = np.random.RandomState(31)
    keys = rng.randint(0, 40, size=30_000)
    vals = np.round(rng.randn(30_000) * 50, 3)
    keys = np.concatenate([keys, [991, 992, 992]])
    vals = np.concatenate([vals, [5.0, 2.5, 2.5]])
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(vals, pa.float64()),
    })).repartition(6).materialize()
    qs = (0.1, 0.5, 0.9)
    names = ["p10", "p50", "p90"]
    drv = grouped_quantiles(ds, "k", "v", qs=qs, col_names=names)
    dist = grouped_quantiles(ds, "k", "v", qs=qs, col_names=names,
                             key_driver_limit=0)
    pd.testing.assert_frame_equal(
        drv.reset_index(drop=True), dist.reset_index(drop=True))
    df = pd.DataFrame({"k": keys, "v": vals})
    for q, name in zip(qs, names):
        truth = df.groupby("k")["v"].quantile(q).sort_index()
        np.testing.assert_allclose(
            drv.sort_values("k")[name].to_numpy(), truth.to_numpy(),
            rtol=0, atol=1e-9)
    med = grouped_median(ds, "k", "v")
    np.testing.assert_allclose(
        med["median_value"].to_numpy(), drv["p50"].to_numpy(),
        rtol=0, atol=0)


def test_rolling_by_key_matches_pandas_window(ray_session):
    """rolling_by_key == pandas groupby.rolling on a stream with duplicate
    timestamps (the event_id tie-breaker makes ordering total) and a hot
    key spanning many batches."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import rolling_by_key

    rng = np.random.RandomState(41)
    n = 20_000
    users = np.where(rng.rand(n) < 0.3, 7, rng.randint(0, 50, size=n))
    ts = rng.randint(0, 500, size=n).astype("datetime64[s]").astype(
        "datetime64[us]")
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": users.astype(np.int64),
        "ts": ts,
        "value": np.round(rng.rand(n) * 100, 3),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(8)
    out = rolling_by_key(ds, "user_id", ["ts", "event_id"], "value",
                         window=5, keep_cols=["event_id"]).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    sv = df.sort_values(["user_id", "ts", "event_id"],
                        kind="mergesort").reset_index(drop=True)
    roll = (sv.groupby("user_id", sort=False)["value"]
            .rolling(5, min_periods=1).mean()
            .reset_index(level=0, drop=True).sort_index())
    truth = sv[["event_id"]].assign(rolling_avg=np.round(roll.to_numpy(), 6)) \
        .sort_values("event_id").reset_index(drop=True)
    assert len(out) == n
    np.testing.assert_allclose(out["rolling_avg"].to_numpy(),
                               truth["rolling_avg"].to_numpy(),
                               rtol=0, atol=1e-9)


def test_lag_by_key_matches_pandas_shift(ray_session):
    """lag_by_key == pandas groupby.shift (lag AND delta modes) on a
    stream with duplicate timestamps and a hot key spanning batches;
    first row per key is null."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import lag_by_key

    rng = np.random.RandomState(43)
    n = 10_000
    users = np.where(rng.rand(n) < 0.3, 7, rng.randint(0, 40, size=n))
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": users.astype(np.int64),
        "ts": rng.randint(0, 400, size=n).astype(np.int64),
        "value": rng.randint(0, 1000, size=n).astype(np.int64),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(8)
    sv = df.sort_values(["user_id", "ts", "event_id"],
                        kind="mergesort").reset_index(drop=True)
    prev = sv.groupby("user_id", sort=False)["value"].shift(1)

    for delta in (False, True):
        out = lag_by_key(ds, "user_id", ["ts", "event_id"], "value",
                         out_col="o", delta=delta,
                         keep_cols=["event_id"]).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        want = (sv["value"] - prev) if delta else prev
        truth = sv[["event_id"]].assign(o=want.to_numpy()) \
            .sort_values("event_id").reset_index(drop=True)
        assert len(out) == n
        assert int(out["o"].isna().sum()) == df["user_id"].nunique()
        pd.testing.assert_series_equal(out["o"], truth["o"],
                                       check_dtype=False)


def test_interval_join_matches_bruteforce(ray_session,
                                          pin_exchange_partitions):
    """interval_join == the brute-force all-pairs predicate
    (l.t < r.t <= l.t + window, same key) on a stream with a hot key,
    window-boundary ties, and matches that straddle bucket boundaries
    (the left-side two-bucket replication must find them all, exactly
    once)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import interval_join

    pin_exchange_partitions(16)

    rng = np.random.RandomState(47)
    window = 100
    nl, nr = 3_000, 3_000
    # hot key 5 holds ~30% of both sides; times cluster so many r-t deltas
    # land exactly on 0, window, and window+1 (boundary semantics)
    def side(n, id0):
        keys = np.where(rng.rand(n) < 0.3, 5, rng.randint(0, 25, size=n))
        return pd.DataFrame({
            "event_id": np.arange(id0, id0 + n, dtype=np.int64),
            "user_id": keys.astype(np.int64),
            "ep": (rng.randint(0, 12, size=n) * window
                   + rng.choice([0, 1, window - 1, window, window + 1],
                                size=n)).astype(np.int64),
        })

    ldf, rdf = side(nl, 0), side(nr, 1_000_000)
    left = rd.from_arrow(pa.Table.from_pandas(ldf)).repartition(6)
    right = rd.from_arrow(pa.Table.from_pandas(rdf)).repartition(6)

    out = interval_join(left, right, key_col="user_id", time_col="ep",
                        window=window).to_pandas()

    m = ldf.merge(rdf, on="user_id", suffixes=("_l", "_r"))
    m = m[(m["ep_r"] > m["ep_l"]) & (m["ep_r"] <= m["ep_l"] + window)]
    want = set(zip(m["event_id_l"], m["event_id_r"]))
    got = list(zip(out["l_id"], out["r_id"]))
    assert len(got) == len(set(got)), "duplicate pairs emitted"
    assert set(got) == want
    # sanity: the fixture actually exercises boundaries and volume
    assert len(want) > 10_000


def test_inverted_index_search_modes(ray_session, tmp_path):
    """build_inverted_index + search_keywords == brute-force containment
    (AND and OR modes), reading only the query tokens' bucket partitions;
    unseen tokens and empty results are safe."""
    import os

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.textindex import (
        build_inverted_index,
        search_keywords,
    )

    texts = [
        "red green blue", "red red green", "blue yellow",
        "green", "  ", "yellow red green blue",
    ]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    idx = build_inverted_index(ds, str(tmp_path / "inv"), num_buckets=8)
    assert os.path.isfile(os.path.join(idx, "_META"))

    def brute(toks, mode):
        sets = [{i for i, t in enumerate(texts) if tok in t.split()}
                for tok in toks]
        out = set.intersection(*sets) if mode == "and" else set.union(*sets)
        return sorted(out)

    for toks, mode in [(["red", "green"], "and"), (["red", "green"], "or"),
                       (["blue"], "and"), (["nosuchtoken"], "and"),
                       (["nosuchtoken", "red"], "or")]:
        pdf = search_keywords(idx, toks, mode=mode).to_pandas()
        # Ray to_pandas drops columns from an empty dataset (documented)
        got = sorted(pdf["doc_id"].tolist()) if len(pdf.columns) else []
        assert got == brute(toks, mode), (toks, mode)


def test_bm25_matches_numpy_reference(ray_session, tmp_path, monkeypatch):
    """search_bm25 == a numpy BM25 reference (Lucene idf), on both routes
    of its doc-length ``hash_join``: broadcast, and the keyed exchange
    forced through the join's predicate."""
    import math

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.textindex import (
        build_inverted_index,
        search_bm25,
    )
    from tests.conftest import exchange_joins

    texts = [
        "red green blue red", "red red green", "blue yellow",
        "green", "yellow red green blue green", "blue blue",
        "red", "green green green yellow",
    ]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    idx = build_inverted_index(ds, str(tmp_path / "inv"), num_buckets=8)

    toks = ["red", "green"]
    docs_toks = [t.split() for t in texts]
    n = len(texts)
    avgdl = sum(len(d) for d in docs_toks) / n
    k1, b = 1.2, 0.75
    expect = {}
    for tok in toks:
        dfreq = sum(tok in d for d in docs_toks)
        idf = math.log((n - dfreq + 0.5) / (dfreq + 0.5) + 1.0)
        for i, d in enumerate(docs_toks):
            tf = d.count(tok)
            if tf:
                expect[i] = expect.get(i, 0.0) + idf * (
                    tf / (tf + k1 * (1.0 - b + b * len(d) / avgdl)))
    want = sorted(((round(s, 6), i) for i, s in expect.items()),
                  key=lambda p: (-p[0], p[1]))[:5]

    for exchange in (False, True):   # broadcast route, then the exchange
        with monkeypatch.context() as mp:
            if exchange:
                exchange_joins(mp)
            got = search_bm25(idx, toks, k=5)
        assert [(round(s, 6), i) for s, i in
                zip(got["score"], got["doc_id"])] == want, exchange


def test_pagerank_routes_match_numpy(ray_session, monkeypatch):
    """pagerank == a numpy power iteration, on both the broadcast-state
    route and the forced node-hash join route (identical to 1e-12), and
    with its ``preagg_groupby_ds`` combines forced distributed."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.graph import pagerank

    rng = np.random.RandomState(11)
    raw = pd.DataFrame({
        "u": "u" + pd.Series(rng.randint(0, 30, 600)).astype(str),
        "t": "t" + pd.Series(rng.randint(0, 6, 600)).astype(str),
    })
    both = pd.concat([raw.rename(columns={"u": "src", "t": "dst"}),
                      raw.rename(columns={"t": "src", "u": "dst"})])
    epdf = both.groupby(["src", "dst"]).size().reset_index(name="w")
    epdf["w"] = epdf["w"].astype("float64")
    edges = rd.from_arrow(pa.Table.from_pandas(epdf, preserve_index=False))

    deg = epdf.groupby("src")["w"].sum()
    nodes = sorted(deg.index)
    n = len(nodes)
    r = pd.Series(1.0 / n, index=nodes)
    for _ in range(5):
        c = (r[epdf["src"]].to_numpy() * epdf["w"].to_numpy()
             / deg[epdf["src"]].to_numpy())
        s = pd.Series(c).groupby(epdf["dst"].to_numpy()).sum()
        r = 0.15 / n + 0.85 * s.reindex(nodes).fillna(0.0)

    bc = pagerank(edges).set_index("node")["rank"].sort_index()
    jn = pagerank(edges, broadcast_limit=0).to_pandas() \
        .set_index("node")["rank"].sort_index()
    assert np.abs(bc - r.sort_index()).max() < 1e-12
    assert np.abs(jn - r.sort_index()).max() < 1e-12
    assert abs(bc.sum() - 1.0) < 1e-9   # rank mass conserved
    from ontonotes_5_parsing_ray.stages import relational

    monkeypatch.setattr(relational, "PREAGG_DRIVER_LIMIT", 0)
    dist = pagerank(edges).set_index("node")["rank"].sort_index()
    assert np.abs(dist - r.sort_index()).max() < 1e-12


def test_pagerank_join_route_directed_int_keys(ray_session):
    """r4-ADVICE regression: on a DIRECTED graph with INT node ids where
    some nodes have out-edges but no in-edges, the join route must (a)
    keep those nodes in the output at base rank, (b) keep their outgoing
    contributions flowing in every round, and (c) join on the original
    dtype — matching the broadcast route and a numpy power iteration."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.graph import pagerank

    # nodes 3 and 4 are pure sources (no in-edges); every node is a src
    epdf = pd.DataFrame({
        "src": [1, 2, 3, 3, 4, 5, 1],
        "dst": [2, 1, 1, 2, 5, 1, 5],
        "w":   [1.0, 2.0, 1.0, 1.0, 3.0, 1.0, 1.0],
    })
    edges = rd.from_arrow(pa.Table.from_pandas(epdf, preserve_index=False))

    deg = epdf.groupby("src")["w"].sum()
    nodes = sorted(deg.index)
    n = len(nodes)
    r = pd.Series(1.0 / n, index=nodes)
    for _ in range(5):
        c = (r[epdf["src"]].to_numpy() * epdf["w"].to_numpy()
             / deg[epdf["src"]].to_numpy())
        s = pd.Series(c).groupby(epdf["dst"].to_numpy()).sum()
        r = 0.15 / n + 0.85 * s.reindex(nodes).fillna(0.0)

    bc = pagerank(edges).set_index("node")["rank"].sort_index()
    jn = pagerank(edges, broadcast_limit=0).to_pandas() \
        .set_index("node")["rank"].sort_index()
    assert list(jn.index) == nodes               # 3 and 4 present, int dtype
    assert jn.index.dtype.kind == "i"
    assert np.abs(bc - r.sort_index()).max() < 1e-12
    assert np.abs(jn - r.sort_index()).max() < 1e-12
    assert abs(jn[3] - 0.15 / n) < 1e-12         # pure source at base rank


def test_triangle_counts_matches_bruteforce(ray_session,
                                            pin_exchange_partitions):
    """triangle_counts == brute-force triangle enumeration on a random
    graph fed as DIRECTED, DUPLICATED edges (canonicalization must
    dedupe); nodes outside any triangle are absent."""
    import itertools

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.graph import triangle_counts

    pin_exchange_partitions(8)

    rng = np.random.RandomState(21)
    n_nodes = 40
    und = {(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)
           if rng.rand() < 0.12}
    # feed both directions plus duplicates
    rows = [(a, b) for a, b in und] + [(b, a) for a, b in und] \
        + [(a, b) for a, b in list(und)[::3]]
    df = pd.DataFrame(rows, columns=["src", "dst"]).sample(
        frac=1.0, random_state=3)
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(5)

    out = triangle_counts(ds).to_pandas()
    got = dict(zip(out["node"].astype(int), out["n_triangles"].astype(int)))

    adj = {i: set() for i in range(n_nodes)}
    for a, b in und:
        adj[a].add(b)
        adj[b].add(a)
    want = {}
    for x, y, z in itertools.combinations(range(n_nodes), 3):
        if y in adj[x] and z in adj[x] and z in adj[y]:
            for c in (x, y, z):
                want[c] = want.get(c, 0) + 1
    assert got == want
    assert sum(want.values()) % 3 == 0 and sum(want.values()) > 0


def test_ewma_by_key_matches_explicit_recurrence(ray_session):
    """ewma_by_key == the explicit per-key decay recurrence (s_0 = x_0,
    s_t = a*x_t + (1-a)*s_{t-1}) on a stream with a hot key and duplicate
    order keys — pins both the grouped-kernel row alignment and the
    arithmetic the recursive-CTE oracle replays."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import ewma_by_key

    rng = np.random.RandomState(17)
    n = 8_000
    alpha = 0.25
    users = np.where(rng.rand(n) < 0.3, 4, rng.randint(0, 30, size=n))
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": users.astype(np.int64),
        "ts": rng.randint(0, 500, size=n).astype(np.int64),
        "value": rng.rand(n) * 100,
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(8)

    out = ewma_by_key(ds, "user_id", ["ts", "event_id"], "value",
                      alpha=alpha, keep_cols=["event_id"]).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)

    sv = df.sort_values(["user_id", "ts", "event_id"],
                        kind="mergesort").reset_index(drop=True)
    want = np.empty(len(sv))
    state = {}
    for i, (u, x) in enumerate(zip(sv["user_id"], sv["value"])):
        s = x if u not in state else alpha * x + (1 - alpha) * state[u]
        state[u] = s
        want[i] = s
    truth = pd.DataFrame({"event_id": sv["event_id"], "w": want}) \
        .sort_values("event_id").reset_index(drop=True)
    assert len(out) == n
    np.testing.assert_array_equal(out["ewma"].to_numpy(),
                                  truth["w"].to_numpy())


def test_label_propagation_routes_vs_bruteforce(ray_session):
    """label_propagation == an explicit per-round simulation (weighted
    majority, ties -> smallest label, seeds clamped, monotone labeled
    set) on BOTH routes (broadcast state and forced join-route state)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.graph import label_propagation

    rng = np.random.RandomState(33)
    n = 60
    und = {(a, b) for a in range(n) for b in range(a + 1, n)
           if rng.rand() < 0.08}
    w = {e: int(rng.randint(1, 100)) for e in und}
    edges_df = pd.DataFrame(
        [(u, v, w[(u, v)]) for u, v in und]
        + [(v, u, w[(u, v)]) for u, v in und],
        columns=["u", "v", "w"])
    seeds_df = pd.DataFrame({
        "node": np.arange(0, n, 7, dtype=np.int64),
        "label": (np.arange(0, n, 7) % 3).astype(np.int64),
    })

    # explicit simulation
    state = dict(zip(seeds_df["node"], seeds_df["label"]))
    seed_set = dict(state)
    for _ in range(3):
        contrib = {}
        for _, (u, v, wt) in edges_df.iterrows():
            if u in state:
                contrib.setdefault(v, {}).setdefault(state[u], 0)
                contrib[v][state[u]] += wt
        new = dict(seed_set)
        for node, by_label in contrib.items():
            if node in seed_set:
                continue
            best = sorted(by_label.items(),
                          key=lambda kv: (-kv[1], kv[0]))[0][0]
            new[node] = best
        state = new
    want = dict(state)

    edges = rd.from_arrow(pa.Table.from_pandas(
        edges_df, preserve_index=False)).repartition(4)
    seeds = rd.from_arrow(pa.Table.from_pandas(
        seeds_df, preserve_index=False))

    for limit in (2_000_000, 0):
        out = label_propagation(edges, seeds, rounds=3,
                                broadcast_limit=limit)
        if isinstance(out, rd.Dataset):
            out = out.to_pandas()
        got = dict(zip(out["node"].astype(int), out["label"].astype(int)))
        assert got == want, f"route broadcast_limit={limit}"
    assert len(want) > len(seeds_df)  # fixture sanity: labels spread


def test_hll_query_within_error_bound(ray_session):
    """events_hll_users_by_type within 5% of the exact distributed
    count-distinct on every event type (the rows-only rationale for the
    sketch query)."""
    from tests.conftest import SF_DIR

    from ontonotes_5_parsing_ray.pipelines.queries import (
        events_hll_users_by_type,
        events_unique_users_by_type,
    )

    approx = events_hll_users_by_type(SF_DIR).set_index("event_type")
    exact = events_unique_users_by_type(SF_DIR).set_index("event_type")
    assert set(approx.index) == set(exact.index)
    for et in exact.index:
        a = int(approx.loc[et, "n_users_approx"])
        e = int(exact.loc[et, "n_users"])
        assert abs(a - e) / max(e, 1) < 0.05, (et, a, e)


def test_triangle_max_degree_cap_and_interval_time_guard(
        ray_session, pin_exchange_partitions):
    """Scale guards: a degenerate hub node cannot blow up wedge expansion
    (capped, counts become lower bounds, non-hub triangles exact); and
    interval_join fail-stops on time values that would corrupt its 32-bit
    packing (microsecond epochs)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.graph import triangle_counts
    from ontonotes_5_parsing_ray.stages.relational import interval_join

    pin_exchange_partitions(4)

    # star around hub 0 with one real triangle (1-2-0) off to the side
    hub_edges = [(0, i) for i in range(1, 200)] + [(1, 2)]
    ds = rd.from_arrow(pa.Table.from_pandas(
        pd.DataFrame(hub_edges, columns=["src", "dst"]),
        preserve_index=False))
    capped = triangle_counts(ds, max_degree=10) \
        .to_pandas()
    # hub kept only neighbors 1..10; triangle (0,1,2) still found because
    # 1 and 2 are among the smallest ids — and NOTHING blew up
    got = dict(zip(capped["node"].astype(int),
                   capped["n_triangles"].astype(int)))
    assert got == {0: 1, 1: 1, 2: 1}

    bad = rd.from_arrow(pa.table({
        "event_id": pa.array([1, 2], pa.int64()),
        "user_id": pa.array([1, 1], pa.int64()),
        "ep": pa.array([1_700_000_000_000_000, 1_700_000_100_000_000],
                       pa.int64()),   # microseconds: > 2^32
    }))
    with pytest.raises(Exception, match="2\\^32|epoch SECONDS"):
        interval_join(bad, bad, key_col="user_id", time_col="ep",
                      window=1800).count()

    # r4-ADVICE: t < 2^32 but t + window >= 2^32 would carry the probe
    # into the group-id bits and match unrelated groups — must fail-stop
    edge = rd.from_arrow(pa.table({
        "event_id": pa.array([1, 2], pa.int64()),
        "user_id": pa.array([1, 1], pa.int64()),
        "ep": pa.array([(1 << 32) - 100, (1 << 32) - 50], pa.int64()),
    }))
    with pytest.raises(Exception, match="2\\^32|epoch SECONDS"):
        interval_join(edge, edge, key_col="user_id", time_col="ep",
                      window=1800).count()


def test_bloom_semi_join_superset_and_composition(ray_session):
    """bloom_semi_join output is a SUPERSET of the exact semi join
    (never drops a true match) and shrinks toward it; composed with the
    exact verify it equals the plain semi join."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import (
        bloom_semi_join, broadcast_semi_join,
    )

    rng = np.random.RandomState(3)
    fact = pd.DataFrame({
        "k": rng.randint(0, 100_000, size=50_000).astype(np.int64),
        "v": rng.rand(50_000),
    })
    keys = pd.DataFrame({"k": np.arange(0, 100_000, 40, dtype=np.int64)})
    fact_ds = rd.from_arrow(pa.Table.from_pandas(fact)).repartition(6)
    keys_ds = rd.from_arrow(pa.Table.from_pandas(keys)).repartition(3)

    true_mask = fact["k"].isin(set(keys["k"]))
    pre = bloom_semi_join(fact_ds, keys_ds, "k",
                          m_bits=1 << 18).to_pandas()
    assert set(zip(fact[true_mask]["k"], fact[true_mask]["v"])) <= \
        set(zip(pre["k"], pre["v"]))                    # superset
    assert len(pre) < len(fact) * 0.2                   # actually prunes

    verified = broadcast_semi_join(
        bloom_semi_join(fact_ds, keys_ds, "k", m_bits=1 << 18),
        set(keys["k"]), "k").to_pandas()
    assert len(verified) == int(true_mask.sum())


def test_range_window_sum_matches_bruteforce(ray_session):
    """range_window_sum_by_key == the brute-force time-bounded sum
    (including same-instant ties) on a hot-key stream with many duplicate
    timestamps."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import (
        range_window_sum_by_key,
    )

    rng = np.random.RandomState(29)
    n = 6_000
    window = 50
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "k": np.where(rng.rand(n) < 0.4, 2,
                      rng.randint(0, 20, size=n)).astype(np.int64),
        "t": rng.randint(0, 300, size=n).astype(np.int64),  # heavy ties
        "v": rng.randint(-50, 100, size=n).astype(np.int64),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(7)
    out = range_window_sum_by_key(
        ds, key_col="k", time_col="t", value_col="v", window=window,
        keep_cols=["event_id"]).to_pandas() \
        .set_index("event_id")["window_sum"]

    m = df.merge(df, on="k", suffixes=("", "_o"))
    m = m[(m["t_o"] >= m["t"] - (window - 1)) & (m["t_o"] <= m["t"])]
    want = m.groupby("event_id")["v_o"].sum()
    assert len(out) == n
    pd.testing.assert_series_equal(
        out.sort_index(), want.sort_index(),
        check_names=False, check_dtype=False)


def test_cms_top_terms_recovers_exact(ray_session):
    """docs_cms_top_terms (two-pass threshold semantics) recovers the
    exact top-20 token set with one-sided (never-under) estimates, and is
    BATCH-INDEPENDENT: a single-block corpus yields the identical rows."""
    from tests.conftest import SF_DIR

    from ontonotes_5_parsing_ray.pipelines.queries import (
        docs_cms_top_terms,
        docs_top_terms,
    )

    approx = docs_cms_top_terms(SF_DIR)
    exact = docs_top_terms(SF_DIR)
    assert set(approx["token"]) == set(exact["token"])
    true = dict(zip(exact["token"], exact["n"]))
    for tok, est in zip(approx["token"], approx["n_est"]):
        assert est >= true[tok]                       # one-sided
        assert est <= true[tok] * 1.05 + 20           # and tight here


def test_grouped_corr_matches_numpy(ray_session):
    """Mergeable-moment grouped corr/slope == numpy's corrcoef/polyfit on
    the whole group, across batch boundaries and with a zero-variance
    group returning NaN."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import grouped_corr

    rng = np.random.RandomState(11)
    n = 5000
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c", "flat"], size=n),
        "x": rng.uniform(1e9, 1e9 + 1e6, size=n),
        "y": rng.normal(size=n),
    })
    df.loc[df["k"] == "a", "y"] += df.loc[df["k"] == "a", "x"] * 1e-6
    df.loc[df["k"] == "flat", "y"] = 7.0  # zero y-variance -> NaN corr

    out = grouped_corr(rd.from_pandas(df).repartition(8),
                       "k", "x", "y", x_offset=1e9).set_index("k")
    for key in ["a", "b", "c"]:
        g = df[df["k"] == key]
        expect_corr = np.corrcoef(g["x"], g["y"])[0, 1]
        expect_slope = np.polyfit(g["x"], g["y"], 1)[0]
        assert abs(out.loc[key, "corr"] - expect_corr) < 1e-9
        assert abs(out.loc[key, "slope"] - expect_slope) < 1e-9
        assert out.loc[key, "n"] == len(g)
    assert np.isnan(out.loc["flat", "corr"])


def test_skew_join_routes_match_plain_join(ray_session):
    """skew_join == plain hash_join == pandas merge on a corpus where one
    key holds 40% of the rows; hot-route-only (threshold 0-ish) and
    cold-route-only (threshold > n) configurations all agree."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import skew_join

    rng = np.random.RandomState(3)
    n = 40_000
    keys = rng.randint(0, 500, size=n).astype(np.int64)
    keys[: n * 2 // 5] = 7  # one mega-hot key
    left = pd.DataFrame({"k": keys, "lv": np.arange(n, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(500, dtype=np.int64),
                          "rv": np.arange(500, dtype=np.int64) * 10})
    right = right[right["k"] % 7 != 3]  # some left keys unmatched
    expect = left.merge(right, on="k")

    def run(threshold):
        out = skew_join(
            rd.from_pandas(left).repartition(8),
            rd.from_pandas(right).repartition(4),
            on="k", left_cols=["k", "lv"], right_cols=["k", "rv"],
            hot_threshold=threshold).to_pandas()
        return out.sort_values(["k", "lv"]).reset_index(drop=True)

    exp = expect.sort_values(["k", "lv"]).reset_index(drop=True)
    for thr in (1_000, 100_000):  # mixed routes / cold-only
        got = run(thr)
        pd.testing.assert_frame_equal(
            got[["k", "lv", "rv"]], exp[["k", "lv", "rv"]],
            check_dtype=False)


def test_skew_join_hot_keys_without_right_rows(ray_session):
    """A hot left key absent from the right side contributes nothing to
    the inner join (and must not crash on the empty hot-right payload)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import skew_join

    left = pd.DataFrame({"k": np.repeat([1, 2], [5000, 50]).astype(np.int64),
                         "lv": np.arange(5050, dtype=np.int64)})
    right = pd.DataFrame({"k": np.array([2], dtype=np.int64),
                          "rv": np.array([20], dtype=np.int64)})
    out = skew_join(rd.from_pandas(left).repartition(4),
                    rd.from_pandas(right),
                    on="k", left_cols=["k", "lv"], right_cols=["k", "rv"],
                    hot_threshold=1000).to_pandas()
    assert set(out["k"]) == {2} and len(out) == 50


def test_skew_join_empty_result_keeps_input_types(ray_session):
    """r4-ADVICE: the degenerate empty-result paths must emit TYPED empty
    tables (input schemas), not pa.null() columns — so a later union with
    typed output or a typed map_batches still works."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import skew_join

    left = pd.DataFrame({"k": np.array([1, 1, 2], dtype=np.int64),
                         "lv": np.array(["a", "b", "c"], dtype=object)})
    right_empty = rd.from_arrow(pa.table({
        "k": pa.array([], pa.int64()),
        "rv": pa.array([], pa.float64()),
    }))
    # no hot keys AND an empty right side -> the `not hot` typed-empty path
    out = skew_join(rd.from_pandas(left), right_empty,
                    on="k", left_cols=["k", "lv"], right_cols=["k", "rv"],
                    hot_threshold=1000)
    sch = dict(zip(out.schema().names, out.schema().types))
    assert sch["k"] == pa.int64()
    assert sch["lv"] == pa.string()
    assert sch["rv"] == pa.float64()
    assert out.count() == 0
    # a typed union over the empty result must not raise
    typed = rd.from_arrow(pa.table({
        "k": pa.array([3], pa.int64()),
        "lv": pa.array(["z"], pa.string()),
        "rv": pa.array([0.25], pa.float64()),
    }))
    assert out.union(typed).to_pandas().shape == (1, 3)

    # hot left key, right side entirely cold-filtered away AND cold join
    # empty -> the empty-hot-right path; same typed contract
    left2 = pd.DataFrame({"k": np.repeat(np.int64(7), 5000),
                          "lv": np.arange(5000).astype(str)})
    right2 = pd.DataFrame({"k": np.array([8], dtype=np.int64),
                           "rv": np.array([2.5], dtype=np.float64)})
    out2 = skew_join(rd.from_pandas(left2).repartition(4),
                     rd.from_pandas(right2),
                     on="k", left_cols=["k", "lv"], right_cols=["k", "rv"],
                     hot_threshold=1000)
    sch2 = dict(zip(out2.schema().names, out2.schema().types))
    assert sch2 == {"k": pa.int64(), "lv": pa.string(),
                    "rv": pa.float64()}
    assert out2.count() == 0


def test_grouped_quantiles_ds_matches_pandas_variant(ray_session):
    """grouped_quantiles_ds (Dataset-returning, r4-VERDICT API surface) ==
    grouped_quantiles, including when a big key is forced through the
    driver-histogram offload inside the distributed route."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import (
        grouped_quantiles,
        grouped_quantiles_ds,
    )

    rng = np.random.RandomState(7)
    n = 40_000
    df = pd.DataFrame({
        "k": np.r_[np.zeros(20_000, dtype=np.int64),       # hot key 0
                   rng.randint(1, 400, 20_000)],
        "v": rng.randn(n) * 10,
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(8)
    want = grouped_quantiles(ds, "k", "v", qs=(0.25, 0.5, 0.9),
                             col_names=["a", "b", "c"],
                             key_driver_limit=0)  # force distributed route
    got_ds = grouped_quantiles_ds(ds, "k", "v", qs=(0.25, 0.5, 0.9),
                                  col_names=["a", "b", "c"],
                                  big_key_limit=5_000)  # key 0 offloads
    assert isinstance(got_ds, rd.Dataset)
    got = got_ds.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, want.sort_values("k").reset_index(drop=True),
        check_exact=False, rtol=0, atol=1e-12)


def test_global_row_number_matches_pandas(ray_session):
    """global_row_number == pandas total-order ranking on a multi-block
    dataset with heavy value ties (tie-breaker column makes the order
    total); ranks are 1-based, each block's offset comes from metadata."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.relational import global_row_number

    rng = np.random.RandomState(3)
    df = pd.DataFrame({
        "id": np.arange(5000, dtype=np.int64),
        "v": rng.randint(0, 50, 5000).astype(np.float64),  # heavy ties
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(16)
    got = global_row_number(ds, by=["v", "id"], ascending=[False, True],
                            out_col="rk").to_pandas()
    want = df.sort_values(["v", "id"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    want["rk"] = np.arange(1, len(want) + 1, dtype=np.int64)
    got = got.sort_values("rk").reset_index(drop=True)
    assert (got["id"].to_numpy() == want["id"].to_numpy()).all()
    assert (got["rk"].to_numpy() == want["rk"].to_numpy()).all()
    # empty input keeps the FULL schema (rank column included)
    empty = rd.from_arrow(pa.table({"id": pa.array([], pa.int64()),
                                    "v": pa.array([], pa.float64())}))
    eout = global_row_number(empty, by=["v", "id"], out_col="rk")
    assert eout.count() == 0
    assert "rk" in eout.schema().names

    # pandas-block input (ray's sort preserves block type) is normalized
    pds = rd.from_pandas(df.head(100))
    got_pd = global_row_number(pds, by=["v", "id"],
                               ascending=[False, True],
                               out_col="rk").to_pandas()
    want_pd = df.head(100).sort_values(["v", "id"],
                                       ascending=[False, True],
                                       kind="mergesort")
    assert (got_pd.sort_values("rk")["id"].to_numpy()
            == want_pd["id"].to_numpy()).all()
