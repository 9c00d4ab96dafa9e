"""Config-driven CLI — the Ray-Data analogue of the reference's three
console scripts (``/root/reference/setup.py:61-66``):

    ontonotes5_to_json  ->  run-kg        (corpus -> annotated KG tables)
    reduce_entities     ->  reduce-tags   (annotation table -> reduced table)
    show_statistics     ->  stats         (frequency / split reports)

plus ``splits`` (S4/S6/S7: manifest-driven split assignment + seeded-shuffle
write). Runnable standalone (``python -m ontonotes_5_parsing_ray ...``) or
under ``ray job submit -- python -m ontonotes_5_parsing_ray run-kg ...`` —
the CLI attaches to an existing Ray session when one is present and only
initialises local Ray otherwise (the library itself never calls
``ray.init``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional


def _ensure_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")


def _cmd_run_kg(args: argparse.Namespace) -> int:
    """Transcripts parquet -> checkpointed KG tables (resumable)."""
    _ensure_ray()
    from .pipelines.materialize import materialize_kg

    out = materialize_kg(
        args.src,
        args.dst,
        num_partitions=args.num_partitions,
        canon_threshold=args.canon_threshold,
        concurrency=args.concurrency,
        resume=not args.no_resume,
    )
    print(json.dumps({"tables": out}))
    return 0


def _cmd_reduce_tags(args: argparse.Namespace) -> int:
    """Long-form annotation parquet -> reduced-vocabulary parquet."""
    if args.number < 2:
        print(f"{args.number} is too small value for maximal number of "
              "entity types.", file=sys.stderr)
        return 2
    _ensure_ray()
    import ray.data as rd

    from .pipelines.reduce_tags import reduce_tags

    annotations = rd.read_parquet(args.src)
    reduced = reduce_tags(annotations, max_types=args.number)
    reduced.write_parquet(args.dst)
    print(json.dumps({"rows": rd.read_parquet(args.dst).count(),
                      "out": args.dst}))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Frequency report over an annotation table (A2/A3 analogue of
    show_statistics: per-kind tag frequencies, descending)."""
    _ensure_ray()
    import ray.data as rd

    from .pipelines.stats import tag_frequencies_by_kind

    freqs = tag_frequencies_by_kind(rd.read_parquet(args.src))
    for kind, group in freqs.groupby("kind"):
        print(f"{kind}:")
        ordered = group.sort_values(["n_spans", "tag"],
                                    ascending=[False, True])
        for row in ordered.itertuples(index=False):
            print(f"  {row.tag}\t{row.n_spans}")
    return 0


def _cmd_splits(args: argparse.Namespace) -> int:
    """Assign splits (manifest dir or deterministic hash) and write one
    seeded-shuffled parquet directory per split."""
    _ensure_ray()
    import ray.data as rd

    from .pipelines.splits import (
        assign_splits,
        assign_splits_from_dir,
        split_counts,
        write_split_dataset,
    )

    ds = rd.read_parquet(args.src)
    if args.ids:
        ds = assign_splits_from_dir(ds, args.ids)
    else:
        ds = assign_splits(ds)
    out = write_split_dataset(ds, args.dst, seed=args.random_seed)
    # read_parquet expands ONE directory but not a list of them
    files = [os.path.join(d, f)
             for d in out.values() if os.path.isdir(d)
             for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    counts = split_counts(rd.read_parquet(files))
    print(counts.to_string(index=False))
    return 0


def _cmd_export_json(args: argparse.Namespace) -> int:
    """Transcripts -> annotated samples -> the reference's single-file JSON
    (the ``ontonotes5_to_json`` output surface)."""
    _ensure_ray()
    from .pipelines.export import (
        build_reference_samples,
        write_reference_json,
        write_reference_samples_parquet,
    )
    from .pipelines.kg import annotate, read_transcripts
    from .pipelines.splits import assign_splits, assign_splits_from_dir

    ds = annotate(read_transcripts(args.src), concurrency=args.concurrency,
                  emit="record")
    ds = (assign_splits_from_dir(ds, args.ids) if args.ids
          else assign_splits(ds))
    samples = build_reference_samples(ds).materialize()
    if args.parquet_dir:
        write_reference_samples_parquet(samples, args.parquet_dir)
    write_reference_json(samples, args.dst, random_seed=args.random_seed)
    print(json.dumps({"out": args.dst, "samples": samples.count()}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontonotes_5_parsing_ray",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-kg", help="transcripts -> knowledge-graph tables")
    p.add_argument("-s", "--src", required=True,
                   help="source transcripts parquet (conv_id, turn_idx, role, text[, ts])")
    p.add_argument("-d", "--dst", required=True,
                   help="destination directory for the KG tables (checkpointed)")
    p.add_argument("--num-partitions", type=int, default=16)
    p.add_argument("--canon-threshold", type=float, default=None)
    p.add_argument("--concurrency", type=int, default=None)
    p.add_argument("--no-resume", action="store_true",
                   help="ignore existing checkpoint markers and rerun all")
    p.set_defaults(fn=_cmd_run_kg)

    p = sub.add_parser("reduce-tags",
                       help="reduce the tag vocabulary of an annotation table")
    p.add_argument("-s", "--src", required=True,
                   help="source long-form annotation parquet")
    p.add_argument("-d", "--dst", required=True, help="destination parquet dir")
    p.add_argument("-n", "--number", type=int, required=True,
                   help="maximal number of tag types per annotation kind")
    p.set_defaults(fn=_cmd_reduce_tags)

    p = sub.add_parser("stats", help="per-kind tag frequency report")
    p.add_argument("-s", "--src", required=True,
                   help="source long-form annotation parquet")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("export-json",
                       help="annotate + export the reference's JSON format")
    p.add_argument("-s", "--src", required=True, help="transcripts parquet")
    p.add_argument("-d", "--dst", required=True, help="destination .json file")
    p.add_argument("-i", "--ids", default=None,
                   help="split-manifest directory (reference -i/--ids)")
    p.add_argument("-r", "--random-seed", type=int, default=None,
                   help="seeded per-part sample shuffle (reference -r)")
    p.add_argument("--parquet-dir", default=None,
                   help="also write partitioned sample parquet (scale path)")
    p.add_argument("--concurrency", type=int, default=None)
    p.set_defaults(fn=_cmd_export_json)

    p = sub.add_parser("splits",
                       help="assign + write train/validation/test splits")
    p.add_argument("-s", "--src", required=True, help="source parquet")
    p.add_argument("-d", "--dst", required=True, help="destination directory")
    p.add_argument("-i", "--ids", default=None,
                   help="split-manifest directory ('all/{train,development,test}.id')")
    p.add_argument("-r", "--random-seed", type=int, default=42)
    p.set_defaults(fn=_cmd_splits)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run-kg" and args.canon_threshold is None:
        from .functions.canon import DEFAULT_THRESHOLD

        args.canon_threshold = DEFAULT_THRESHOLD
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
