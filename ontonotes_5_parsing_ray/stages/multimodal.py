"""Multimodal columns: opaque binary payloads + typed metadata.

Image/audio/video payloads are ``binary`` columns with a sidecar metadata
struct; decode/feature stages are actor pools operating on small Arrow
batches (large payloads -> small ``batch_size``, see SURVEY.md 'Memory-
aware'). The actual codecs are NOT in this container, so the decode kernel
is stubbed: ``decode=fake`` produces a deterministic fake decode (shape +
checksum features) and ``decode=strict`` raises ``NotImplementedError`` —
the Ray-side plumbing (schema, actor signature, batching, output layout)
is real and tested either way.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np
import pyarrow as pa
import ray.data as rd

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),            # image | audio | video
    ("payload", pa.binary()),         # opaque encoded bytes
    ("width", pa.int32()),            # typed metadata (0 when unknown)
    ("height", pa.int32()),
    ("sample_rate", pa.int32()),
    ("duration_ms", pa.int32()),
])


def media_table_path(n: int = 96, seed: int = 23) -> str:
    """Persist the deterministic synthetic media table as parquet under /tmp
    (idempotent, atomic) and return the path.

    This is what makes the media queries DRIVER-CHECKABLE: the Ray query
    reads this parquet and its ``oracle_sql`` twin ``read_parquet``s the
    same file — both sides see one persisted source instead of an
    in-process table the oracle cannot reach. Built in a per-process
    scratch file then ``os.replace``d so concurrent bench/test processes
    cannot clobber each other's half-written file."""
    import os

    import pyarrow.parquet as pq

    # v2: the synthetic table now plants exact payload duplicates (the
    # media_exact_dedup signal); new filename so a stale v1 file from an
    # earlier round can never be read against v2 oracles
    path = f"/tmp/onr_media/media_{n}_{seed}_v2.parquet"
    if not os.path.isfile(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        pq.write_table(synthesize_media_table(n=n, seed=seed), tmp)
        os.replace(tmp, path)
    return path


def synthesize_media_table(n: int = 64, seed: int = 23) -> pa.Table:
    """Deterministic fake media table for tests/benchmarks (binary payloads
    from a seeded RNG; no external data)."""
    rng = np.random.RandomState(seed)
    kinds = ["image", "audio", "video"]
    rows = {k.name: [] for k in MEDIA_SCHEMA}
    for i in range(n):
        kind = kinds[i % 3]
        if i % 9 == 8:
            # plant exact content duplicates (re-encoded uploads): every
            # ninth row reuses an earlier payload byte-for-byte
            payload = rows["payload"][i - 4]
        else:
            payload = rng.bytes(256 + int(rng.randint(0, 1024)))
        rows["media_id"].append(i)
        rows["kind"].append(kind)
        rows["payload"].append(payload)
        rows["width"].append(int(rng.randint(16, 512)) if kind != "audio" else 0)
        rows["height"].append(int(rng.randint(16, 512)) if kind != "audio" else 0)
        rows["sample_rate"].append(16000 if kind != "image" else 0)
        rows["duration_ms"].append(int(rng.randint(100, 10_000)) if kind != "image" else 0)
    return pa.table(rows, schema=MEDIA_SCHEMA)


class DecodeMedia:
    """Actor-pool decode/feature stage.

    ``mode='fake'``: deterministic pseudo-decode — feature vector =
    normalized byte histogram moments + payload checksum. ``mode='strict'``:
    raises ``NotImplementedError`` (real codecs, e.g. PIL/ffmpeg, are not in
    this container; swap this class's body when they are).
    """

    def __init__(self, mode: str = "fake", feature_dim: int = 8):
        if mode not in ("fake", "strict"):
            raise ValueError(mode)
        self.mode = mode
        self.dim = feature_dim

    def _fake_features(self, payload: bytes) -> List[float]:
        from ..functions.rounding import round_half_away

        arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
        hist = np.histogram(arr, bins=self.dim, range=(0, 256))[0].astype(np.float64)
        total = hist.sum() or 1.0
        # half-away rounding = DuckDB round(): the media_features oracle
        # recomputes these ratios in SQL (np.round is half-even)
        return list(round_half_away(hist / total, 6))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode == "strict":
            raise NotImplementedError(
                "media codecs are not available in this environment; "
                "use mode='fake' or install decoders"
            )
        payloads = batch.column("payload").to_pylist()
        feats = [self._fake_features(p) for p in payloads]
        checksums = [
            int.from_bytes(hashlib.blake2b(p, digest_size=4).digest(), "big")
            for p in payloads
        ]
        return (
            batch.drop_columns(["payload"])  # decoded stages drop the heavy bytes
            .append_column("features", pa.array(feats, pa.list_(pa.float64())))
            .append_column("payload_crc", pa.array(checksums, pa.int64()))
            .append_column("n_bytes", pa.array(
                [len(p) for p in payloads], pa.int32()))
        )


def decode_media(media: rd.Dataset, mode: str = "fake") -> rd.Dataset:
    """Small batches + explicit actor pool: the binary column dominates block
    size, so batch_size stays low (SURVEY.md 'large binary payloads need
    small batches')."""
    from .util import pool_size

    return media.map_batches(
        DecodeMedia, fn_constructor_kwargs={"mode": mode},
        batch_format="pyarrow", batch_size=32, concurrency=pool_size(2),
        num_cpus=1,
    )


class SampleFrames:
    """Actor-pool frame-sampling stage (video only): emits one row PER
    SAMPLED FRAME (flat-map shape — output rows > input rows), each frame a
    deterministic byte slice of the encoded payload in fake mode. Audio/image
    rows pass through with frame_idx = -1."""

    def __init__(self, fps_out: float = 1.0, max_frames: int = 8,
                 mode: str = "fake"):
        if mode not in ("fake", "strict"):
            raise ValueError(mode)
        self.fps_out, self.max_frames, self.mode = fps_out, max_frames, mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode == "strict":
            raise NotImplementedError(
                "video codecs are not available; use mode='fake'")
        out = {"media_id": [], "kind": [], "frame_idx": [], "frame_ms": [],
               "frame_bytes": []}
        for row in batch.to_pylist():
            if row["kind"] != "video":
                out["media_id"].append(row["media_id"])
                out["kind"].append(row["kind"])
                out["frame_idx"].append(-1)
                out["frame_ms"].append(-1)
                out["frame_bytes"].append(row["payload"])
                continue
            n = max(1, min(self.max_frames,
                           int(row["duration_ms"] / 1000.0 * self.fps_out)))
            payload = row["payload"]
            step = max(1, len(payload) // n)
            for f in range(n):
                out["media_id"].append(row["media_id"])
                out["kind"].append("video_frame")
                out["frame_idx"].append(f)
                out["frame_ms"].append(int(f * 1000.0 / self.fps_out))
                out["frame_bytes"].append(payload[f * step:(f + 1) * step])
        return pa.table({
            "media_id": pa.array(out["media_id"], pa.int64()),
            "kind": pa.array(out["kind"], pa.string()),
            "frame_idx": pa.array(out["frame_idx"], pa.int32()),
            "frame_ms": pa.array(out["frame_ms"], pa.int32()),
            "frame_bytes": pa.array(out["frame_bytes"], pa.binary()),
        })


def sample_frames(media: rd.Dataset, fps_out: float = 1.0,
                  max_frames: int = 8, mode: str = "fake") -> rd.Dataset:
    from .util import pool_size

    return media.map_batches(
        SampleFrames,
        fn_constructor_kwargs={"fps_out": fps_out, "max_frames": max_frames,
                               "mode": mode},
        batch_format="pyarrow", batch_size=16, concurrency=pool_size(2),
        num_cpus=1,
    )
