"""Checkpointed, resumable graph materialization (north_rule requirement).

Layout under ``out_dir``::

    linked/part-{p:05d}/   per conv-hash partition: the linked union table
    linked/_DONE-{p}       lineage marker (rows, stage, engine version)
    canon/                 the norm -> canon map        + _DONE-00000
    mentions/ triples/ nodes/ edges/ errors/            + _DONE-00000 each

Resume semantics (``resume=True``, the default):

* The expensive stage (annotate + conversation linking) is resumable at
  conv-partition granularity: ``partition = stable_hash64(conv_id) %
  num_partitions`` (the SAME key the transcript generator shards by).
  On rerun, completed partitions are skipped (anti-join of ``_DONE``
  markers vs the partition list); only pending conversations are read,
  annotated and linked.
* Downstream stages (canonicalize, graph tables) are stage-resumable:
  present marker -> the stage's Parquet is reused as-is.
* Every write is atomic at marker granularity: data first, marker after;
  a crash between them re-runs just that partition/stage.

This is the "exact resume via per-partition lineage + checkpoint markers"
the reference lacks entirely (SURVEY.md §4: 'Checkpoint / resume: None —
rerun from scratch').
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ..functions.canon import DEFAULT_THRESHOLD
from ..state.checkpoint import (
    is_partition_done,
    pending_partitions,
    write_lineage,
)
from ..stages.canonicalize import build_canon_map
from ..stages.link import union_schema
from .kg import (
    annotate_and_link,
    build_graph,
    read_transcripts,
    split_linked,
    surfaces_for_canon,
)


def _add_partition_col(ds: rd.Dataset, num_partitions: int) -> rd.Dataset:
    from ..functions.hashing import partition_vec

    def add(batch: pa.Table) -> pa.Table:
        parts = partition_vec(
            batch.column("conv_id").to_numpy(zero_copy_only=False),
            num_partitions)
        return batch.append_column("part", pa.array(parts, pa.int32()))

    return ds.map_batches(add, batch_format="pyarrow")


def _write_stage(ds: rd.Dataset, stage_dir: str, stage: str) -> int:
    """Atomic single-marker stage write: tmp dir -> rename -> marker."""
    tmp = stage_dir + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    if os.path.isdir(stage_dir):
        shutil.rmtree(stage_dir)
    ds.write_parquet(tmp)
    if not os.path.isdir(tmp):
        # an empty Dataset writes no files: leave one schema-typed empty
        # file so the stage reads back (and resumes) like any other
        os.makedirs(tmp)
        pq.write_table(ds.schema().base_schema.empty_table(),
                       os.path.join(tmp, "empty.parquet"))
    os.replace(tmp, stage_dir)
    rows = rd.read_parquet(stage_dir).count()
    write_lineage(os.path.dirname(stage_dir), 0, stage, rows,
                  extra={"dir": os.path.basename(stage_dir)})
    return rows


def materialize_kg(
    transcript_path: str,
    out_dir: str,
    num_partitions: int = 16,
    canon_threshold: float = DEFAULT_THRESHOLD,
    concurrency: Optional[int] = None,
    resume: bool = True,
) -> Dict[str, str]:
    """Run the KG pipeline to durable, partitioned, resumable Parquet.

    Returns {table_name: directory}. Idempotent: a completed run is a no-op;
    a partially completed run finishes only the pending work. The graph
    tables come from :func:`kg.build_graph` — the same path (and the same
    broadcast-vs-join canon routing) as ``run_kg_pipeline``; a table whose
    stage marker exists is not built at all.
    """
    linked_dir = os.path.join(out_dir, "linked")
    os.makedirs(linked_dir, exist_ok=True)

    # Partitioning config is part of the checkpoint: resuming with a
    # different num_partitions would silently mis-read the layout.
    import json as _json

    config_path = os.path.join(out_dir, "_CONFIG")
    # The FULL lineage-relevant config is part of the checkpoint: resuming
    # with a different input or threshold would silently mix stale
    # and fresh partitions (markers alone don't validate what they recorded).
    from ..state.checkpoint import PARTITION_HASH

    config = {
        "num_partitions": num_partitions,
        "transcript_path": os.path.abspath(transcript_path),
        "canon_threshold": canon_threshold,
        "partition_hash": PARTITION_HASH,
    }
    if resume and os.path.isfile(config_path):
        with open(config_path) as fh:
            existing = _json.load(fh)
        # A checkpoint with no recorded partition_hash predates the
        # vectorized partitioner: its on-disk conv->partition mapping is
        # incompatible, so it must NOT resume silently.
        existing.setdefault("partition_hash", "blake2b-v0")
        # Compare only keys the stored config actually recorded: older
        # checkpoints (fewer lineage keys) still resume with identical
        # settings; a genuinely different setting still fail-stops.
        mismatched = {k: (v, config.get(k))
                      for k, v in existing.items() if config.get(k) != v}
        if mismatched:
            raise ValueError(
                f"checkpoint at {out_dir} was written with {existing}; "
                f"got {config} (mismatched: {mismatched}). "
                "Use the original settings or a fresh out_dir."
            )
    else:
        # fresh run (or resume=False: every partition reruns anyway, so the
        # new config is authoritative — an intentional full rerun into an
        # existing out_dir must not be blocked by the old _CONFIG)
        with open(config_path, "w") as fh:
            _json.dump(config, fh)

    # ---- stage 1: annotate + link, per conv-partition, resumable ---------
    pending = pending_partitions(linked_dir, num_partitions) if resume \
        else list(range(num_partitions))
    if pending:
        ds = _add_partition_col(read_transcripts(transcript_path), num_partitions)
        pending_set = set(pending)
        ds = ds.map_batches(
            lambda t: t.filter(
                pc.is_in(t.column("part"),
                         value_set=pa.array(sorted(pending_set), pa.int32()))
            ),
            batch_format="pyarrow",
        )
        linked = _add_partition_col(annotate_and_link(ds, concurrency),
                                    num_partitions)
        # ONE hive-partitioned write for every pending partition, then
        # atomic per-partition renames + markers (resume granularity kept).
        tmp_root = os.path.join(linked_dir, ".tmp-write")
        if os.path.isdir(tmp_root):
            shutil.rmtree(tmp_root)
        linked.write_parquet(tmp_root, partition_cols=["part"])
        for p in pending:
            part_dir = os.path.join(linked_dir, f"part-{p:05d}")
            if os.path.isdir(part_dir):
                shutil.rmtree(part_dir)
            hive_dir = os.path.join(tmp_root, f"part={p}")
            if os.path.isdir(hive_dir):
                os.replace(hive_dir, part_dir)
            else:
                os.makedirs(part_dir, exist_ok=True)  # empty partition
            # lineage row count from the written files' footers
            write_lineage(linked_dir, p, "linked", sum(
                pq.ParquetFile(os.path.join(part_dir, f)).metadata.num_rows
                for f in os.listdir(part_dir) if f.endswith(".parquet")),
                extra={"input": transcript_path})
        shutil.rmtree(tmp_root, ignore_errors=True)

    part_dirs = [
        os.path.join(linked_dir, f"part-{p:05d}") for p in range(num_partitions)
    ]
    # ray.data.read_parquet expands a single directory but not a list of
    # directories -> enumerate the parquet files explicitly.
    part_files = [
        os.path.join(d, f)
        for d in part_dirs if os.path.isdir(d)
        for f in sorted(os.listdir(d)) if f.endswith(".parquet")
    ]
    # an input with no linked rows writes no linked files
    linked_all = (rd.read_parquet(part_files) if part_files
                  else rd.from_arrow(union_schema().empty_table()))

    # ---- stage 2: canonicalization (stage-resumable) ---------------------
    canon_parent = os.path.join(out_dir, "canonmap")
    canon_dir = os.path.join(canon_parent, "data")
    os.makedirs(canon_parent, exist_ok=True)
    if not (resume and is_partition_done(canon_parent, 0)):
        canon_map = build_canon_map(
            surfaces_for_canon(*split_linked(linked_all)),
            threshold=canon_threshold,
        )
        _write_stage(canon_map, canon_dir, "canonmap")
    # ---- stage 3: graph tables (stage-resumable each) --------------------
    builders = build_graph(linked_all, rd.read_parquet(canon_dir).materialize())
    out: Dict[str, str] = {"linked": linked_dir, "canonmap": canon_dir}
    for name, builder in builders.items():
        parent = os.path.join(out_dir, name)
        data_dir = os.path.join(parent, "data")
        os.makedirs(parent, exist_ok=True)
        if not (resume and is_partition_done(parent, 0)):
            _write_stage(builder(), data_dir, name)
        out[name] = data_dir
    return out
