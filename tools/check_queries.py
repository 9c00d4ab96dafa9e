"""Driver-style correctness harness: run queries() vs oracle_sql() via DuckDB.

Usage: python tools/check_queries.py [sf_dir] [query ...]
Mimics the graft driver: row-count + schema + order-insensitive value-hash
with columns sorted by name. Owns the Ray session (the real driver inits Ray
itself before importing __ray_entry__). Each ``ok``/``FAIL`` line ends with
the query's wall time (the query call plus its conversion to pandas), e.g.
``ok   q3_top_orders: 10 rows MATCH (2.41 s)``.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        if df[col].dtype == object:
            df[col] = df[col].astype(str)
        elif np.issubdtype(df[col].dtype, np.floating):
            df[col] = df[col].round(6)
        elif np.issubdtype(df[col].dtype, np.integer):
            df[col] = df[col].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR", ignore_reinit_error=True)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    qs = e.queries()
    sqls = e.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            result = to_pandas(fn(sf_dir))
        except Exception as exc:
            wall = f"({time.perf_counter() - t0:.2f} s)"
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc} "
                  f"{wall}")
            failures += 1
            continue
        wall = f"({time.perf_counter() - t0:.2f} s)"
        mine = canon(result)
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(mine)} rows, "
                  f"cols={list(mine.columns)}) {wall}")
            continue
        try:
            oracle = canon(con.execute(sqls[name]).df())
        except Exception as exc:
            print(f"FAIL {name}: oracle SQL raised {exc} {wall}")
            failures += 1
            continue
        if list(mine.columns) != list(oracle.columns):
            print(f"FAIL {name}: columns {list(mine.columns)} != "
                  f"{list(oracle.columns)} {wall}")
            failures += 1
            continue
        if len(mine) != len(oracle):
            print(f"FAIL {name}: rows {len(mine)} != {len(oracle)} {wall}")
            failures += 1
            continue
        eq = mine.equals(oracle)
        if not eq:
            diff_cols = [c for c in mine.columns if not mine[c].equals(oracle[c])]
            print(f"FAIL {name}: value mismatch in {diff_cols} {wall}")
            for c in diff_cols[:2]:
                neq = mine[c] != oracle[c]
                print("  mine:  ", mine.loc[neq, c].head(3).tolist())
                print("  oracle:", oracle.loc[neq, c].head(3).tolist())
            failures += 1
        else:
            print(f"ok   {name}: {len(mine)} rows MATCH {wall}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
