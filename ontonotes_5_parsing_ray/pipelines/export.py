"""Reference-format JSON interchange.

The reference engine's product is one JSON file
(``ontonotes5_to_json.py:131-141``)::

    {"TRAINING": [sample...], "VALIDATION": [...], "TESTING": [...]}

where every sample is ``{"text": str, "morphology"|"syntax"|"entities":
{tag: [[start, end], ...]}, "language": str}``. A user migrating between
engines needs both directions:

* :func:`build_reference_samples` — DISTRIBUTED construction of sample
  objects (one JSON string per annotated turn, language attached) with the
  reference's split-part names; write them as partitioned Parquet/JSONL for
  scale, or
* :func:`write_reference_json` — assemble the exact single-file format.
  Driver-bound BY THE FORMAT: the reference itself loads this whole file
  into RAM (``utils.py:1106-1257``), so anything the reference can read
  fits on the driver by definition.
* :func:`load_reference_json` — the validating loader
  (``load_ontonotes5_from_json`` analogue): structural validation, span
  sorting, whitespace-strip bound adjustment, reference-style error
  messages. Returns (samples table, long-form annotation table).
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

import pandas as pd
import pyarrow as pa
import ray.data as rd

SPLIT_TO_PART = {"train": "TRAINING", "validation": "VALIDATION",
                 "test": "TESTING"}
ENTITY_CLASSES = ("syntax", "morphology", "entities")


def build_reference_samples(annotated: rd.Dataset) -> rd.Dataset:
    """Annotated turns (``emit='record'``/'both', with a ``split`` column)
    -> Dataset of ``(part, conv_id, turn_idx, sample_json)``.

    Wholly distributed; dead-letter turns (``ok == False``) are skipped,
    exactly as the reference drops unparsable members."""

    def to_samples(batch: pd.DataFrame) -> pa.Table:
        parts, convs, turns, samples = [], [], [], []
        for row in batch.itertuples(index=False):
            if not row.ok:
                continue
            sample = json.loads(row.record_json)
            sample["language"] = getattr(row, "lang", "") or "unknown"
            parts.append(SPLIT_TO_PART.get(row.split, row.split))
            convs.append(row.conv_id)
            turns.append(int(row.turn_idx))
            samples.append(json.dumps(sample, ensure_ascii=False))
        return pa.table({
            "part": pa.array(parts, pa.string()),
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array(turns, pa.int64()),
            "sample_json": pa.array(samples, pa.string()),
        })

    return annotated.map_batches(to_samples, batch_format="pandas")


def write_reference_samples_parquet(samples: rd.Dataset, out_dir: str) -> str:
    """The scale path: samples partitioned by part (resumable shards)."""
    samples.write_parquet(out_dir, partition_cols=["part"])
    return out_dir


def write_reference_json(
    samples: rd.Dataset, out_file: str, random_seed: Optional[int] = None
) -> str:
    """Assemble the exact reference single-file format. Sample order is the
    stable (conv_id, turn_idx) sort, optionally followed by a seeded shuffle
    per part — the reference's ``random.seed(...)`` + ``random.shuffle``
    (``ontonotes5_to_json.py:49-51,125-129``) made reproducible."""
    import random

    df = samples.to_pandas().sort_values(["part", "conv_id", "turn_idx"])
    out: Dict[str, list] = {}
    for part, group in df.groupby("part", sort=True):
        part_samples = [json.loads(s) for s in group["sample_json"]]
        if random_seed is not None:
            random.Random(random_seed).shuffle(part_samples)
        out[part] = part_samples
    if "TRAINING" not in out:
        out["TRAINING"] = []   # the reference always emits TRAINING
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(out, fh, ensure_ascii=False)
    return out_file


def _err(msg: str) -> ValueError:
    return ValueError(msg)


def load_reference_json(
    file_name: str,
) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """Validating loader for the reference JSON format
    (``utils.py:1106-1257`` semantics, independently implemented):

    * the top level must be a dict of part -> list of sample dicts;
    * every sample needs ``text`` and all three entity classes;
    * span lists are sorted, must be non-empty, in-bounds, strictly
      ordered, non-empty after strip; bounds shrink to the stripped text.

    Returns ``(samples, annotations)``: samples =
    (part, sample_idx, text, language); annotations = long-form
    (part, sample_idx, kind, tag, start, end).
    """
    with open(file_name, encoding="utf-8") as fh:
        source = json.load(fh)
    if not isinstance(source, dict):
        raise _err(f'File "{file_name}" contains wrong data! Expected '
                   f"{type({'a': 1})}, got {type(source)}.")
    sample_rows = []
    ann_rows = []
    for part, samples in source.items():
        if not isinstance(samples, list):
            raise _err(f'The {part} part in the file "{file_name}" contains '
                       f"wrong data! Expected {type([1, 2])}, "
                       f"got {type(samples)}.")
        for sample_idx, sample in enumerate(samples):
            if not isinstance(sample, dict):
                raise _err(f'Sample {sample_idx} of the {part} part in the '
                           f'file "{file_name}" contains wrong data! Expected '
                           f"{type({'a': 1})}, got {type(sample)}.")
            if "text" not in sample:
                raise _err(f'Sample {sample_idx} of the {part} part in the '
                           f'file "{file_name}" contains wrong data! '
                           "Information about text is not specified.")
            missing = sorted(set(ENTITY_CLASSES) - set(sample.keys()))
            if missing:
                desc = (", ".join(missing[:-1]) + ", and " + missing[-1]
                        if len(missing) > 1 else missing[0])
                raise _err(f'Sample {sample_idx} of the {part} part in the '
                           f'file "{file_name}" contains wrong data! '
                           f"Information about {desc} is not specified.")
            text = sample["text"]
            max_end = 0
            for kind in ENTITY_CLASSES:
                spans_of = sample[kind]
                if not isinstance(spans_of, dict):
                    raise _err(
                        f'Sample {sample_idx} of the {part} part in the file '
                        f'"{file_name}" contains wrong data! Information '
                        f"about {kind} is specified incorrectly! Expected "
                        f"{type({'a': 1})}, got {type(spans_of)}.")
                for tag, bounds in spans_of.items():
                    if not isinstance(bounds, list):
                        raise _err(
                            f'Sample {sample_idx} of the {part} part in the '
                            f'file "{file_name}" contains wrong data! Bounds '
                            f"of {tag} in the {kind} are specified "
                            "incorrectly! Expected a list.")
                    if not bounds:
                        raise _err(
                            f'Sample {sample_idx} of the {part} part in the '
                            f'file "{file_name}" contains wrong data! Bounds '
                            f"of {tag} in the {kind} are specified "
                            "incorrectly! Expected a non-empty list, got an "
                            "empty one.")
                    prev_end = -1
                    for item in sorted(bounds, key=lambda b: (b[0], b[1])):
                        bad = (f'Sample {sample_idx} of the {part} part in '
                               f'the file "{file_name}" contains wrong data! '
                               f"Bounds of {tag} in the {kind} are specified "
                               f"incorrectly! Item {item} is inadmissible.")
                        if not isinstance(item, (list, tuple)) or len(item) != 2:
                            raise _err(bad)
                        start, end = item
                        if start >= end or start <= prev_end or end > len(text):
                            raise _err(bad)
                        span_text = text[start:end]
                        if not span_text.strip():
                            raise _err(bad + " Its text is empty.")
                        stripped = span_text.strip()
                        if span_text != stripped:
                            found = span_text.find(stripped)
                            if found > 0:
                                start += found
                                end = start + len(stripped)
                        ann_rows.append((part, sample_idx, kind, tag,
                                         int(start), int(end)))
                        prev_end = end
                        max_end = max(max_end, end)
            if max_end > len(text):
                raise _err(
                    f'Sample {sample_idx} of the {part} part in the file '
                    f'"{file_name}" contains wrong data! List of span bounds '
                    f"does not correspond to the text. {max_end} > {len(text)}")
            sample_rows.append((part, sample_idx, text,
                                sample.get("language", "unknown")))
    samples_df = pd.DataFrame(
        sample_rows, columns=["part", "sample_idx", "text", "language"])
    ann_df = pd.DataFrame(
        ann_rows,
        columns=["part", "sample_idx", "kind", "tag", "start", "end"])
    return samples_df, ann_df


def load_reference_json_dataset(file_name: str) -> rd.Dataset:
    """Loader -> long-form annotation Dataset (driver parse, distributed
    downstream: the format is single-file by the reference's design)."""
    _samples, ann = load_reference_json(file_name)
    return rd.from_pandas(ann)
