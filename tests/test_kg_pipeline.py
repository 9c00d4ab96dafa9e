"""The P/R gate: distributed pipeline vs single-process oracle (north_rule:
triple P/R >= 0.95; expected exactly 1.0 because both share the kernels).
Run with ``python -m pytest -x -q``.
"""

import pytest

from ontonotes_5_parsing_ray.oracle.kg import precision_recall, triple_set


def test_triple_precision_recall_gate(kg_result, golden_result):
    p, r = precision_recall(
        triple_set(kg_result["triples"]), triple_set(golden_result["triples"])
    )
    assert p >= 0.95 and r >= 0.95, (p, r)
    assert p == 1.0 and r == 1.0


def test_graph_tables_match_oracle(kg_result, golden_result):
    nodes = kg_result["nodes"].sort_values("canonical_surface").reset_index(drop=True)
    gnodes = golden_result["nodes"].sort_values("canonical_surface").reset_index(drop=True)
    assert len(nodes) == len(gnodes)
    merged = nodes.merge(gnodes, on="canonical_surface", suffixes=("_r", "_g"))
    assert (merged["entity_type_r"] == merged["entity_type_g"]).all()
    assert (merged["n_mentions_r"] == merged["n_mentions_g"]).all()

    edges = kg_result["edges"]
    gedges = golden_result["edges"]
    assert len(edges) == len(gedges)
    key_r = set(zip(edges["subj_id"], edges["pred"], edges["obj_id"]))
    key_g = set(zip(gedges["subj_id"], gedges["pred"], gedges["obj_id"]))
    assert key_r == key_g

    assert len(kg_result["errors"]) == len(golden_result["errors"])


def test_per_turn_text_equality_invariant(kg_result, tiny_table):
    """The input_hint invariant: every mention's surface equals the
    corresponding turn text slice under stable (conv_id, turn_idx) order."""
    texts = {}
    df = tiny_table.to_pandas()
    for row in df.itertuples(index=False):
        texts[(row.conv_id, int(row.turn_idx))] = row.text
    mentions = kg_result["mentions"]
    checked = 0
    for row in mentions.itertuples(index=False):
        raw = texts[(row.conv_id, int(row.turn_idx))]
        # mention offsets index the normalized turn text; for turns without
        # special-token blanking the raw text IS the normalized text
        if "EDITED" not in raw and "  " not in raw and raw.strip() == raw:
            assert raw[row.start:row.end] == row.surface
            checked += 1
    assert checked > 100


def test_turn_ordering_invariant(kg_result):
    """Input rows are shuffled on disk; chain ids must still be assigned in
    first-appearance order under stable (turn_idx, start) order."""
    mentions = kg_result["mentions"]
    for conv_id, group in mentions[~mentions["is_pronoun"]].groupby("conv_id"):
        group = group.sort_values(["turn_idx", "start"])
        seen = set()
        for _, row in group.iterrows():
            cid = row["chain_id"]
            if cid not in seen:
                assert not seen or cid > max(seen), (conv_id, cid)
                seen.add(cid)


def test_node_provenance_first_seen_ts_and_lang(kg_result, tiny_table):
    """Round-2: nodes carry first_seen_ts (epoch-µs of the first mention's
    turn) and a detected language (reference attaches language to every
    record, ontonotes5_to_json.py:110-111)."""
    import pandas as pd

    nodes = kg_result["nodes"]
    assert "first_seen_ts" in nodes.columns and "lang" in nodes.columns
    assert (nodes["first_seen_ts"] > 0).all()     # synthetic ts is positive
    assert (nodes["lang"] != "").all()

    # first_seen_ts must equal the transcript ts of (first_conv_id,
    # first_turn_idx) exactly
    df = tiny_table.to_pandas()
    ts_of = {(c, int(t)): int(pd.Timestamp(ts).value // 1000)
             for c, t, ts in zip(df["conv_id"], df["turn_idx"], df["ts"])}
    for row in nodes.itertuples(index=False):
        expected = ts_of[(row.first_conv_id, int(row.first_turn_idx))]
        assert int(row.first_seen_ts) == expected, row.canonical_surface


def test_canonicalize_triples_join_equals_broadcast(ray_session, tiny_transcripts):
    """Canon application with the map as a Dataset must equal it with the
    map as the dict ``ObjectRef`` the benchmark passes, row for row, with
    the same columns in the same order."""
    import pandas as pd
    import ray

    from ontonotes_5_parsing_ray.stages.canonicalize import (
        build_canon_map,
        canon_map_to_dict,
    )
    from ontonotes_5_parsing_ray.pipelines.kg import (
        annotate,
        canonicalize_triples,
        link,
        read_transcripts,
        split_linked,
        surfaces_for_canon,
    )

    annotated = annotate(read_transcripts(tiny_transcripts),
                         concurrency=2, emit="link")
    linked = link(annotated).materialize()
    mentions, triples = split_linked(linked)
    canon_map = build_canon_map(
        surfaces_for_canon(mentions, triples)).materialize()

    bcast = canonicalize_triples(
        triples, ray.put(canon_map_to_dict(canon_map))).to_pandas()
    joined = canonicalize_triples(triples, canon_map).to_pandas()

    assert list(joined.columns) == list(bcast.columns)
    key = ["conv_id", "turn_idx", "pred", "subj", "obj"]
    b = bcast.sort_values(key).reset_index(drop=True)
    j = joined.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(b, j)


def test_full_pipeline_with_distributed_canon_path(ray_session, tiny_transcripts,
                                                   monkeypatch):
    """End-to-end KG build with the DISTRIBUTED canonicalization path forced
    (DRIVER_CLUSTER_LIMIT=0: LSH banding + star components, no driver
    clustering) must produce the identical graph."""
    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline
    from ontonotes_5_parsing_ray.stages import canonicalize

    fast = run_kg_pipeline(tiny_transcripts, concurrency=2)
    monkeypatch.setattr(canonicalize, "DRIVER_CLUSTER_LIMIT", 0)
    dist = run_kg_pipeline(tiny_transcripts, concurrency=2)
    f_edges = fast["edges"].to_pandas()
    d_edges = dist["edges"].to_pandas()
    key = lambda df: set(zip(df["subj_id"], df["pred"], df["obj_id"],
                             df["n_occurrences"]))
    assert key(f_edges) == key(d_edges)
    f_nodes = fast["nodes"].to_pandas()
    d_nodes = dist["nodes"].to_pandas()
    assert (set(zip(f_nodes["canonical_id"], f_nodes["n_mentions"]))
            == set(zip(d_nodes["canonical_id"], d_nodes["n_mentions"])))


_TABLE_KEYS = (
    ("triples", ["conv_id", "turn_idx", "pred", "subj", "obj"]),
    ("nodes", ["canonical_id"]),
    ("edges", ["subj_id", "pred", "obj_id"]),
    ("errors", ["conv_id", "turn_idx"]),
)


def _assert_tables_equal(want, got):
    """Each graph table in ``got`` equals ``want`` row for row, with the same
    columns in the same order."""
    import pandas as pd

    for name, key in _TABLE_KEYS:
        assert list(got[name].columns) == list(want[name].columns), name
        pd.testing.assert_frame_equal(
            want[name].sort_values(key).reset_index(drop=True),
            got[name].sort_values(key).reset_index(drop=True),
        )


def _count_hash_joins(monkeypatch):
    """kg's ``hash_join`` calls, each logged as the number of keyed
    exchanges (``relational._exchange``) it built: 0 on the broadcast
    route, 1 on the exchange route."""
    from ontonotes_5_parsing_ray.pipelines import kg
    from ontonotes_5_parsing_ray.stages import relational

    joins, exchanges = [], []
    real_join, real_exchange = kg.hash_join, relational._exchange

    def exchange(*args, **kwargs):
        exchanges.append(1)
        return real_exchange(*args, **kwargs)

    def join(*args, **kwargs):
        before = len(exchanges)
        out = real_join(*args, **kwargs)
        joins.append(len(exchanges) - before)
        return out

    monkeypatch.setattr(relational, "_exchange", exchange)
    monkeypatch.setattr(kg, "hash_join", join)
    return joins


def _materialized(tiny_transcripts, out_dir):
    import ray.data as rd

    from ontonotes_5_parsing_ray.pipelines.materialize import materialize_kg

    paths = materialize_kg(tiny_transcripts, out_dir,
                           num_partitions=2, concurrency=2)
    return {name: rd.read_parquet(paths[name]).to_pandas()
            for name, _ in _TABLE_KEYS}


def test_full_pipeline_auto_routes_join_canon_apply(ray_session, kg_result,
                                                    tiny_transcripts,
                                                    monkeypatch):
    """Canon APPLICATION forced onto the keyed exchange (through
    ``hash_join``'s predicate) in the full pipeline (triples AND nodes AND
    edges) — the output must equal the broadcast route's exactly."""
    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline
    from tests.conftest import exchange_joins

    joins = _count_hash_joins(monkeypatch)
    exchange_joins(monkeypatch)
    joined = {name: ds.to_pandas() for name, ds in
              run_kg_pipeline(tiny_transcripts, concurrency=2).items()}
    # (subj, obj, mention surface) lookups, each one exchange
    assert joins == [1, 1, 1]
    _assert_tables_equal(kg_result, joined)


def test_materialize_auto_routes_join_canon_apply(ray_session, kg_result,
                                                  tiny_transcripts, tmp_path,
                                                  monkeypatch):
    """materialize_kg with the canon joins forced onto the keyed exchange
    writes the same graph tables as the default broadcast route."""
    from tests.conftest import exchange_joins

    joins = _count_hash_joins(monkeypatch)
    exchange_joins(monkeypatch)
    written = _materialized(tiny_transcripts, str(tmp_path / "join"))
    assert joins == [1, 1, 1]
    _assert_tables_equal(kg_result, written)


def test_entry_points_agree_on_broadcast_route(ray_session, kg_result,
                                               tiny_transcripts, tmp_path,
                                               monkeypatch):
    """run_kg_pipeline and materialize_kg share build_graph: on the default
    route neither canon join builds a keyed exchange (the map is broadcast),
    and both produce the default build's triples / nodes / edges / errors
    exactly."""
    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline

    joins = _count_hash_joins(monkeypatch)
    built = {name: ds.to_pandas() for name, ds in
             run_kg_pipeline(tiny_transcripts, concurrency=2).items()}
    written = _materialized(tiny_transcripts, str(tmp_path / "bcast"))
    assert joins == [0] * 6
    _assert_tables_equal(kg_result, built)
    _assert_tables_equal(kg_result, written)


def test_kg_pipeline_execution_count(ray_session, tiny_transcripts,
                                     monkeypatch):
    """``run_kg_pipeline`` plus consuming its triples, edges, nodes and
    errors starts 8 Ray Data executions on the tiny fixture (a spy on
    ``StreamingExecutor.__init__``): 4 to build, 4 to consume. Canon
    application adds none: its joins broadcast the materialized map."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline

    starts = []
    real_init = StreamingExecutor.__init__

    def init(self, *args, **kwargs):
        starts.append(1)
        return real_init(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "__init__", init)
    out = run_kg_pipeline(tiny_transcripts, concurrency=2)
    built = len(starts)
    rows = {name: len(out[name].to_pandas())
            for name in ("triples", "edges", "nodes", "errors")}
    assert all(rows.values()), rows
    assert (built, len(starts)) == (4, 8)


def test_surface_forms_capped_topn(ray_session):
    """A node with more distinct surfaces than the cap keeps only the top-N
    by count (ties lexicographic) in surface_forms, while n_surface_forms
    reports the true distinct total."""
    import json

    import pyarrow as pa
    import ray
    import ray.data as rd

    from ontonotes_5_parsing_ray.pipelines.kg import (
        SURFACE_FORMS_CAP,
        build_nodes,
    )

    n_forms = SURFACE_FORMS_CAP + 8
    rows = []
    for i in range(n_forms):
        # surface i appears (n_forms - i) times -> count-rank == index order
        for rep in range(n_forms - i):
            rows.append((f"c{rep}", rep, f"MegaCorp v{i:03d}", "ORG"))
    mentions = rd.from_arrow(pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int64()),
        "start": pa.array([0] * len(rows), pa.int64()),
        "end": pa.array([1] * len(rows), pa.int64()),
        "surface": pa.array([r[2] for r in rows], pa.string()),
        "entity_type": pa.array([r[3] for r in rows], pa.string()),
        "is_pronoun": pa.array([False] * len(rows), pa.bool_()),
        "chain_id": pa.array([0] * len(rows), pa.int64()),
        "antecedent": pa.array([""] * len(rows), pa.string()),
        "ts": pa.array([0] * len(rows), pa.int64()),
        "lang": pa.array(["en"] * len(rows), pa.string()),
    }))
    # canon map folds every surface onto one canonical entity
    from ontonotes_5_parsing_ray.functions.kgrules import normalize_surface

    canon = {normalize_surface(f"MegaCorp v{i:03d}"): "megacorp"
             for i in range(n_forms)}
    nodes = build_nodes(mentions, ray.put(canon)).to_pandas()
    assert len(nodes) == 1
    node = nodes.iloc[0]
    forms = json.loads(node["surface_forms"])
    assert len(forms) == SURFACE_FORMS_CAP
    assert int(node["n_surface_forms"]) == n_forms
    # top-N by count: the most frequent surfaces (lowest i) survive
    assert forms == [f"MegaCorp v{i:03d}" for i in range(SURFACE_FORMS_CAP)]
    assert int(node["n_mentions"]) == sum(n_forms - i for i in range(n_forms))


def test_node_edge_combine_routes_equal(ray_session, tiny_transcripts,
                                        monkeypatch):
    """PREAGG_DRIVER_LIMIT=0 forces the distributed node/edge combines;
    output must equal the driver fast path row-for-row."""
    import pandas as pd
    import ray

    from ontonotes_5_parsing_ray.pipelines.kg import (
        annotate,
        build_edges,
        build_nodes,
        canonicalize_triples,
        link,
        read_transcripts,
        split_linked,
        surfaces_for_canon,
    )
    from ontonotes_5_parsing_ray.stages import relational
    from ontonotes_5_parsing_ray.stages.canonicalize import (
        build_canon_map,
        canon_map_to_dict,
    )

    annotated = annotate(
        read_transcripts(tiny_transcripts), concurrency=2, emit="link"
    ).materialize()
    linked = link(annotated).materialize()
    mentions, triples = split_linked(linked)
    canon = build_canon_map(
        surfaces_for_canon(mentions, triples)).materialize()
    ref = ray.put(canon_map_to_dict(canon))
    ct = canonicalize_triples(triples, ref).materialize()

    def norm(df):
        return df.sort_values(list(df.columns), kind="mergesort") \
            .reset_index(drop=True)

    e_drv = norm(build_edges(ct).to_pandas())
    n_drv = norm(build_nodes(mentions, ref).to_pandas())
    monkeypatch.setattr(relational, "PREAGG_DRIVER_LIMIT", 0)
    e_dist = norm(build_edges(ct).to_pandas())
    n_dist = norm(build_nodes(mentions, ref).to_pandas())
    pd.testing.assert_frame_equal(e_drv, e_dist)
    pd.testing.assert_frame_equal(n_drv, n_dist)
    assert len(e_drv) > 0 and len(n_drv) > 0


def test_annotate_is_fused_into_the_read(ray_session, tiny_transcripts, tmp_path):
    """annotate runs as stateless tasks fused with the read (no actor pool),
    and its per-batch memo is invisible: a turn repeated inside a batch and
    across batches gets the same columns as annotating it alone."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ontonotes_5_parsing_ray.functions.record import annotate_turn_text
    from ontonotes_5_parsing_ray.pipelines.kg import annotate, read_transcripts

    stats = annotate(read_transcripts(tiny_transcripts),
                     emit="link").materialize().stats()
    ops = [line for line in stats.splitlines() if line.startswith("Operator ")]
    assert len(ops) == 1, stats
    assert "ReadParquet->MapBatches(annotate_turns)" in ops[0], stats

    from ontonotes_5_parsing_ray.stages.annotate import _link_payload_json

    repeated = "Alice met Bob in Paris."
    texts = [repeated, repeated, "", "", repeated,
             "Carol visited Berlin.", repeated]
    roles = ["user", "tool", "user", "tool", "assistant", "user", "tool"]
    for f in range(3):  # one file per read task -> one batch each
        pq.write_table(pa.table({
            "conv_id": [f"c{f}"] * len(texts),
            "turn_idx": pa.array(range(len(texts)), pa.int32()),
            "role": roles, "text": texts,
        }), str(tmp_path / f"part-{f}.parquet"))
    annotated = annotate(read_transcripts(str(tmp_path)),
                         emit="link").materialize()
    assert annotated.num_blocks() > 1
    out = annotated.to_pandas()
    assert len(out) == 3 * len(texts)
    assert out["ok"].sum() == 3 * 5
    for row in out.itertuples():
        record, err = annotate_turn_text(
            row.text, simulate_model_tokens=row.role == "tool")
        assert row.error == err
        assert row.link_json == (
            "" if record is None else _link_payload_json(record))


def test_errors_keep_their_schema_without_dead_letters(ray_session, tiny_table,
                                                       tmp_path):
    """On an input whose every turn annotates cleanly the errors table is
    empty but typed. (Ray's ``to_pandas()`` of an all-empty Dataset has no
    columns, so the check reads ``schema()``.)"""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ontonotes_5_parsing_ray.functions.record import annotate_turn_text
    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline

    ok = [annotate_turn_text(t, simulate_model_tokens=r == "tool")[0]
          is not None for t, r in zip(tiny_table.column("text").to_pylist(),
                                      tiny_table.column("role").to_pylist())]
    assert not all(ok)
    src = str(tmp_path / "all_ok.parquet")
    pq.write_table(tiny_table.filter(pa.array(ok)), src)
    out = run_kg_pipeline(src, concurrency=2)
    assert out["errors"].count() == 0
    assert out["errors"].schema().names == ["conv_id", "turn_idx", "error"]
    assert out["triples"].count() > 100


def test_corpus_without_entities_gives_typed_empty_tables(ray_session,
                                                          kg_result,
                                                          tmp_path):
    """Turns that name no entity: both entry points finish, all five tables
    are empty with the columns of a normal build, and a second
    ``materialize_kg`` call writes nothing."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline
    from ontonotes_5_parsing_ray.pipelines.materialize import materialize_kg

    src = str(tmp_path / "no_entities.parquet")
    pq.write_table(pa.table({
        "conv_id": ["c0", "c0"],
        "turn_idx": pa.array([0, 1], pa.int64()),
        "role": ["user", "assistant"],
        "text": ["hello there .", "ok ."],
    }), src)
    names = ["mentions", "triples", "nodes", "edges", "errors"]

    built = run_kg_pipeline(src, concurrency=2)
    for name in names:
        assert built[name].count() == 0, name
        assert built[name].schema().names == list(kg_result[name].columns)

    out = str(tmp_path / "kg")
    paths = materialize_kg(src, out, num_partitions=2, concurrency=2)
    for name in names:
        written = rd.read_parquet(paths[name])
        assert written.count() == 0, name
        assert written.schema().names == list(kg_result[name].columns)

    def stamps():
        return {os.path.join(d, f): os.path.getmtime(os.path.join(d, f))
                for d, _, files in os.walk(out) for f in files}

    before = stamps()
    assert materialize_kg(src, out, num_partitions=2, concurrency=2) == paths
    assert stamps() == before


@pytest.mark.parametrize("texts", [
    ["he said it .", "she saw him ."],
    ["", "   ", "[CLS] [SEP]"],
], ids=["pronouns_only", "dead_letters_only"])
def test_linked_rows_without_entity_surfaces_match_oracle(
        ray_session, kg_result, tmp_path, texts):
    """Linked rows but no entity surface, so the canon map is empty
    (pronoun mentions only; dead letters only): both entry points finish,
    every table has the columns of a normal build, and its rows equal
    the single-process oracle's."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from ontonotes_5_parsing_ray.oracle.kg import extract_kg_single_process
    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline
    from ontonotes_5_parsing_ray.pipelines.materialize import materialize_kg

    table = pa.table({
        "conv_id": ["c0"] * len(texts),
        "turn_idx": pa.array(range(len(texts)), pa.int64()),
        "role": ["user"] * len(texts),
        "text": texts,
    })
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(table, src)
    want = extract_kg_single_process(table)
    keys = {"mentions": ["conv_id", "turn_idx", "start"],
            "errors": ["conv_id", "turn_idx"]}

    built = run_kg_pipeline(src, concurrency=2)
    paths = materialize_kg(src, str(tmp_path / "kg"), num_partitions=2,
                           concurrency=2)
    for name in ("mentions", "triples", "nodes", "edges", "errors"):
        for ds in (built[name], rd.read_parquet(paths[name])):
            assert ds.schema().names == list(kg_result[name].columns), name
            got, exp = ds.to_pandas(), want[name]
            assert len(got) == len(exp), name
            if len(exp):
                if name == "mentions":   # the pipeline writes "" for none
                    exp = exp.assign(antecedent=exp["antecedent"].fillna(""))
                cols = list(exp.columns)
                pd.testing.assert_frame_equal(
                    got[cols].sort_values(keys[name]).reset_index(drop=True),
                    exp[cols].sort_values(keys[name]).reset_index(drop=True),
                    check_dtype=False)
