"""KG pipeline queries over the deterministic synthetic transcript table.

The transcript input is synthesized per ``BASELINE.json`` ``input_hint``
(no external data), sized by the scale factor implied by ``sf_dir`` and
cached under /tmp. These are the non-SQL-expressible entries in
``__ray_entry__.queries`` (the driver records rows-only checks); exact
correctness is gated separately by the pytest P/R >= 0.95 comparison against
the single-process oracle.
"""

from __future__ import annotations

import os
from typing import Dict

import pandas as pd
import ray.data as rd

from ..sources.transcripts import default_transcripts_dir, generate_transcripts
from ..stages.annotate import annotations_long_form
from .kg import annotate, read_transcripts, run_kg_pipeline

_SF_CONVS = {"sf0.001": 30, "sf0.01": 120, "sf0.1": 500}


def transcripts_for(sf_dir: str) -> str:
    """Deterministic transcript parquet sized to the sf tag of ``sf_dir``."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    if tag not in _SF_CONVS:
        tag = "sf0.01"
    n_convs = _SF_CONVS[tag]
    out = default_transcripts_dir(tag)
    return generate_transcripts(out, n_convs=n_convs, seed=42,
                                skew_frac=0.02 if n_convs >= 100 else 0.0)


_KG_CACHE: Dict[str, dict] = {}


def _kg(sf_dir: str) -> dict:
    """Run (or reuse) the KG pipeline for this sf tag — several queries view
    one build, like several reports over one materialized graph."""
    path = transcripts_for(sf_dir)
    if path not in _KG_CACHE:
        _KG_CACHE[path] = run_kg_pipeline(path)
    return _KG_CACHE[path]


def kg_triples(sf_dir: str) -> pd.DataFrame:
    t = _kg(sf_dir)["triples"].to_pandas()
    return t.sort_values(["conv_id", "turn_idx", "pred", "subj", "obj"]) \
            .reset_index(drop=True)


def kg_nodes(sf_dir: str) -> pd.DataFrame:
    n = _kg(sf_dir)["nodes"].to_pandas()
    return n.sort_values("canonical_id").reset_index(drop=True)


def kg_edges(sf_dir: str) -> pd.DataFrame:
    e = _kg(sf_dir)["edges"].to_pandas()
    return e.sort_values(["subj_id", "pred", "obj_id"]).reset_index(drop=True)


def kg_mentions(sf_dir: str) -> pd.DataFrame:
    m = _kg(sf_dir)["mentions"].to_pandas()
    return m.sort_values(["conv_id", "turn_idx", "start"]).reset_index(drop=True)


def kg_errors(sf_dir: str) -> pd.DataFrame:
    e = _kg(sf_dir)["errors"].to_pandas()
    return e.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def kg_annotations(sf_dir: str) -> rd.Dataset:
    """Long-form per-turn annotation table over the synthetic transcripts."""
    ds = annotate(read_transcripts(transcripts_for(sf_dir)))
    return ds.map_batches(annotations_long_form, batch_format="pyarrow")


def kg_entity_freq(sf_dir: str) -> pd.DataFrame:
    """Entity-type frequency report (A2 analogue) over the annotations."""
    from .stats import entity_frequencies

    return entity_frequencies(kg_annotations(sf_dir), kind="entities")


def kg_tag_reduce(sf_dir: str) -> pd.DataFrame:
    """Two-pass tag reduction (reduce_entities analogue) summarized as the
    post-rewrite (kind, tag) span counts."""
    from .reduce_tags import reduce_tags
    from .stats import tag_frequencies_by_kind

    reduced = reduce_tags(kg_annotations(sf_dir), max_types=8)
    return tag_frequencies_by_kind(reduced)


def media_exact_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact content dedup over the BINARY media column: duplicate groups
    by payload md5 (the synthetic table plants byte-identical re-uploads),
    keeper = lowest media_id. The content key is ``md5(hex(payload))`` on
    both sides — DuckDB's md5 only takes VARCHAR, so the Ray side hashes
    the identical uppercase-hex rendering. The multimodal x dedup
    crossover: at 100 TB the payload never leaves its scan (only 16-byte
    keys shuffle)."""
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from ..stages.multimodal import media_table_path
    from ..stages.relational import preagg_groupby

    media = rd.read_parquet(media_table_path(),
                            columns=["media_id", "payload"])

    def content_keys(batch: pd.DataFrame) -> pa.Table:
        keys = [hashlib.md5(p.hex().upper().encode()).hexdigest()
                for p in batch["payload"]]
        return pa.table({
            "content_md5": pa.array(keys, pa.string()),
            "media_id": pa.array(batch["media_id"].to_numpy(), pa.int64()),
        })

    agg = preagg_groupby(
        media.map_batches(content_keys, batch_format="pandas"),
        ["content_md5"],
        {"n_copies": ("media_id", "count"),
         "keeper_id": ("media_id", "min")},
    )
    agg["n_copies"] = agg["n_copies"].astype("int64")
    agg["keeper_id"] = agg["keeper_id"].astype("int64")
    return agg.sort_values("content_md5").reset_index(drop=True)


def media_frames(sf_dir: str) -> pd.DataFrame:
    """Frame-sampling stage over the PERSISTED deterministic media parquet
    (flat-map fan-out: one row per sampled video frame; image/audio rows
    pass through). ``n_bytes`` carries each frame slice's real size so the
    whole result has an exact DuckDB twin over the same parquet
    (``octet_length`` + ``generate_series`` reproduce the slicing)."""
    from ..stages.multimodal import media_table_path, sample_frames

    media = rd.read_parquet(media_table_path())
    out = sample_frames(media, fps_out=1.0, max_frames=6).to_pandas()
    out["n_bytes"] = out["frame_bytes"].map(len).astype("int64")
    out = out.drop(columns=["frame_bytes"])
    return out.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)


def media_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal decode/feature stage over the PERSISTED deterministic
    media parquet, LONG FORM: one row per (media_id, feature_idx) with the
    fake-decode histogram value — no list column, so the driver can
    value-hash it against a DuckDB twin that recomputes the byte histogram
    from ``hex(payload)`` over the same file. The blake2b payload_crc
    stays covered by pytest (it is not SQL-expressible)."""
    import numpy as np

    from ..stages.multimodal import decode_media, media_table_path

    media = rd.read_parquet(media_table_path())
    out = decode_media(media, mode="fake").to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    dim = len(out["features"].iloc[0])
    long = pd.DataFrame({
        "media_id": np.repeat(out["media_id"].to_numpy(), dim),
        "kind": np.repeat(out["kind"].to_numpy(), dim),
        "width": np.repeat(out["width"].to_numpy(), dim).astype("int64"),
        "height": np.repeat(out["height"].to_numpy(), dim).astype("int64"),
        "sample_rate": np.repeat(out["sample_rate"].to_numpy(),
                                 dim).astype("int64"),
        "duration_ms": np.repeat(out["duration_ms"].to_numpy(),
                                 dim).astype("int64"),
        "n_bytes": np.repeat(out["n_bytes"].to_numpy(), dim).astype("int64"),
        "feature_idx": np.tile(np.arange(dim, dtype=np.int64), len(out)),
        "feature_value": np.concatenate(
            [np.asarray(f, dtype=np.float64) for f in out["features"]]),
    })
    return long.sort_values(["media_id", "feature_idx"]).reset_index(drop=True)
