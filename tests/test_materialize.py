"""Resumable materialization: markers, idempotence, partial-resume equality."""

import os
import shutil

import pandas as pd
import pytest


def _triples(out, ray_session):
    import ray.data as rd

    return rd.read_parquet(out["triples"]).to_pandas().sort_values(
        ["conv_id", "turn_idx", "pred", "subj", "obj"]
    ).reset_index(drop=True)


def test_materialize_write_resume(ray_session, tiny_transcripts, tmp_path):
    from ontonotes_5_parsing_ray.pipelines.materialize import materialize_kg
    from ontonotes_5_parsing_ray.state.checkpoint import (
        pending_partitions,
        read_lineage,
    )

    out_dir = str(tmp_path / "kg")
    out = materialize_kg(tiny_transcripts, out_dir, num_partitions=4,
                         concurrency=2)
    first = _triples(out, ray_session)
    assert len(first) > 100

    linked_dir = os.path.join(out_dir, "linked")
    assert pending_partitions(linked_dir, 4) == []
    lineage = read_lineage(linked_dir)
    assert len(lineage) == 4
    assert sum(l["rows"] for l in lineage) > 0
    assert all(l["engine_version"] for l in lineage)

    # idempotent rerun: markers present -> nothing recomputed, same output
    mtime_before = os.path.getmtime(os.path.join(linked_dir, "part-00001"))
    out2 = materialize_kg(tiny_transcripts, out_dir, num_partitions=4,
                          concurrency=2)
    assert os.path.getmtime(os.path.join(linked_dir, "part-00001")) == mtime_before
    pd.testing.assert_frame_equal(first, _triples(out2, ray_session))

    # partial resume: kill one linked partition + downstream stage markers,
    # rerun -> only that partition recomputed; final output identical
    shutil.rmtree(os.path.join(linked_dir, "part-00002"))
    os.remove(os.path.join(linked_dir, "_DONE-00002"))
    for stage in ("mentions", "triples", "nodes", "edges", "errors", "canonmap"):
        marker = os.path.join(out_dir, stage, "_DONE-00000")
        if os.path.isfile(marker):
            os.remove(marker)
    assert pending_partitions(linked_dir, 4) == [2]
    untouched_mtime = os.path.getmtime(os.path.join(linked_dir, "part-00001"))
    out3 = materialize_kg(tiny_transcripts, out_dir, num_partitions=4,
                          concurrency=2)
    assert os.path.getmtime(os.path.join(linked_dir, "part-00001")) == untouched_mtime
    pd.testing.assert_frame_equal(first, _triples(out3, ray_session))


def test_resume_rejects_config_drift(ray_session, tiny_transcripts, tmp_path):
    """Resuming a checkpoint with a different input path / threshold must
    raise instead of silently mixing stale partitions."""
    import pytest

    from ontonotes_5_parsing_ray.pipelines.materialize import materialize_kg

    out_dir = str(tmp_path / "kg_cfg")
    materialize_kg(tiny_transcripts, out_dir, num_partitions=2, concurrency=2)
    with pytest.raises(ValueError, match="checkpoint"):
        materialize_kg(tiny_transcripts, out_dir, num_partitions=2,
                       concurrency=2, canon_threshold=0.31)


def test_resume_accepts_config_with_default_salting(ray_session,
                                                    tiny_transcripts,
                                                    tmp_path, monkeypatch):
    """A checkpoint whose _CONFIG records the removed salting option at its
    default (``"salted_bucket_size": null``) resumes with no stage rerun."""
    import json

    from ontonotes_5_parsing_ray.pipelines import materialize

    materialize_kg = materialize.materialize_kg
    out_dir = str(tmp_path / "kg_null_salt")
    first = materialize_kg(tiny_transcripts, out_dir, num_partitions=2,
                           concurrency=2)
    cfg_path = os.path.join(out_dir, "_CONFIG")
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    with open(cfg_path, "w") as fh:
        json.dump({**cfg, "salted_bucket_size": None}, fh)

    def rerun(*_args, **_kwargs):
        raise AssertionError("a finished stage reran")

    for name in ("annotate_and_link", "_write_stage"):
        monkeypatch.setattr(materialize, name, rerun)
    assert materialize_kg(tiny_transcripts, out_dir, num_partitions=2,
                          concurrency=2) == first


def test_resume_accepts_older_config_subset(ray_session, tiny_transcripts,
                                            tmp_path):
    """A checkpoint whose _CONFIG predates newer lineage keys (e.g. only
    num_partitions) must still resume when the overlapping settings match."""
    import json

    from ontonotes_5_parsing_ray.pipelines.materialize import materialize_kg

    from ontonotes_5_parsing_ray.state.checkpoint import PARTITION_HASH

    out_dir = str(tmp_path / "kg_old_cfg")
    materialize_kg(tiny_transcripts, out_dir, num_partitions=2, concurrency=2)
    cfg_path = os.path.join(out_dir, "_CONFIG")
    with open(cfg_path, "w") as fh:
        # simulate an older config format: fewer keys, same partitioner
        json.dump({"num_partitions": 2, "partition_hash": PARTITION_HASH}, fh)
    out = materialize_kg(tiny_transcripts, out_dir, num_partitions=2,
                         concurrency=2)  # must not raise
    assert os.path.isdir(out["triples"])

    # a checkpoint with NO recorded partition hash predates the vectorized
    # partitioner: its conv->partition layout is incompatible -> refuse
    with open(cfg_path, "w") as fh:
        json.dump({"num_partitions": 2}, fh)
    with pytest.raises(ValueError, match="partition_hash"):
        materialize_kg(tiny_transcripts, out_dir, num_partitions=2,
                       concurrency=2)


def test_no_resume_rewrites_config(ray_session, tiny_transcripts, tmp_path):
    """resume=False is an intentional full rerun: the old _CONFIG must not
    block it, and the new config becomes authoritative."""
    import json

    from ontonotes_5_parsing_ray.pipelines.materialize import materialize_kg

    out_dir = str(tmp_path / "kg_rerun")
    materialize_kg(tiny_transcripts, out_dir, num_partitions=2, concurrency=2)
    materialize_kg(tiny_transcripts, out_dir, num_partitions=2,
                   concurrency=2, canon_threshold=0.31, resume=False)
    with open(os.path.join(out_dir, "_CONFIG")) as fh:
        cfg = json.load(fh)
    assert cfg["canon_threshold"] == 0.31


def test_materialize_without_dead_letters(ray_session, tiny_table, tmp_path):
    """An input whose every turn annotates cleanly has an empty errors
    table: the stage must still write a readable, schema-typed empty table,
    and a rerun must resume from it."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from ontonotes_5_parsing_ray.functions.record import annotate_turn_text
    from ontonotes_5_parsing_ray.pipelines.materialize import materialize_kg

    ok = [annotate_turn_text(t, simulate_model_tokens=r == "tool")[0]
          is not None for t, r in zip(tiny_table.column("text").to_pylist(),
                                      tiny_table.column("role").to_pylist())]
    assert not all(ok)  # the fixture itself has dead letters to drop
    src = str(tmp_path / "all_ok.parquet")
    pq.write_table(tiny_table.filter(pa.array(ok)), src)

    out_dir = str(tmp_path / "kg_all_ok")
    out = materialize_kg(src, out_dir, num_partitions=2, concurrency=2)
    errors = pq.read_table(out["errors"])
    assert errors.num_rows == 0
    assert errors.schema.names == ["conv_id", "turn_idx", "error"]
    assert rd.read_parquet(out["triples"]).count() > 100
    out2 = materialize_kg(src, out_dir, num_partitions=2, concurrency=2)
    assert pq.read_table(out2["errors"]).num_rows == 0


def test_resume_builds_no_graph_tables(ray_session, tiny_transcripts,
                                       tmp_path, monkeypatch):
    """Stage-level resume: after a completed run, a rerun must not build
    nodes or edges again (every graph-table stage has its marker)."""
    from ontonotes_5_parsing_ray.pipelines import kg
    from ontonotes_5_parsing_ray.pipelines.materialize import materialize_kg

    out_dir = str(tmp_path / "kg_resume")
    first = materialize_kg(tiny_transcripts, out_dir, num_partitions=2,
                           concurrency=2)

    def boom(*args, **kwargs):
        raise AssertionError("a resumed stage was rebuilt")

    monkeypatch.setattr(kg, "build_nodes", boom)
    monkeypatch.setattr(kg, "build_edges", boom)
    assert materialize_kg(tiny_transcripts, out_dir, num_partitions=2,
                          concurrency=2) == first


def _stage_frames(out):
    """Every materialized table as a sorted frame of strings (the linked
    partitions read file by file: their directories also hold markers)."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    def frame(files):
        df = pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()
        df = df.astype(str)
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    linked = sorted(glob.glob(os.path.join(out["linked"], "part-*",
                                           "*.parquet")))
    tables = {"linked": frame(linked)}
    for name in ("canonmap", "mentions", "triples", "nodes", "edges",
                 "errors"):
        tables[name] = frame(sorted(glob.glob(
            os.path.join(out[name], "*.parquet"))))
    return tables


def test_resume_after_crash_between_data_and_marker(ray_session,
                                                    tiny_transcripts,
                                                    tmp_path, monkeypatch):
    """A run that dies after writing data but before its marker — after
    the linked hive write, before the per-partition markers; after the
    nodes data, before its marker — resumes to the tables of a clean
    run."""
    from ontonotes_5_parsing_ray.pipelines import materialize

    clean = _stage_frames(materialize.materialize_kg(
        tiny_transcripts, str(tmp_path / "clean"), num_partitions=2,
        concurrency=2))
    real_write_lineage = materialize.write_lineage

    for stage in ("linked", "nodes"):
        out_dir = str(tmp_path / f"crash_{stage}")

        def crash(out, partition, at_stage, rows, extra=None):
            if at_stage == stage:
                raise RuntimeError(f"crash before the {stage} marker")
            real_write_lineage(out, partition, at_stage, rows, extra)

        with monkeypatch.context() as mp:
            mp.setattr(materialize, "write_lineage", crash)
            with pytest.raises(RuntimeError, match="crash before"):
                materialize.materialize_kg(tiny_transcripts, out_dir,
                                           num_partitions=2, concurrency=2)
        marker_dir = os.path.join(out_dir, stage)
        assert not any(f.startswith("_DONE-")
                       for f in os.listdir(marker_dir)), stage
        if stage == "nodes":
            assert os.listdir(os.path.join(marker_dir, "data"))
        else:
            assert os.listdir(os.path.join(marker_dir, ".tmp-write"))

        resumed = _stage_frames(materialize.materialize_kg(
            tiny_transcripts, out_dir, num_partitions=2, concurrency=2))
        for name, want in clean.items():
            pd.testing.assert_frame_equal(want, resumed[name], obj=name)
