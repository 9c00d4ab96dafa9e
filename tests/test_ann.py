"""Similarity search: brute-force exactness, LSH recall, centroid merging."""

import numpy as np
import pyarrow as pa
import pytest

from tests.conftest import SF_DIR


def _emb_ds(ray_session, n=200, dim=16, seed=5):
    import ray.data as rd

    rng = np.random.RandomState(seed)
    vecs = rng.randn(n, dim).astype(np.float32)
    labels = rng.randint(0, 4, size=n)
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })), vecs


def test_knn_bruteforce_matches_numpy(ray_session):
    from ontonotes_5_parsing_ray.stages.ann import knn_bruteforce

    ds, vecs = _emb_ds(ray_session)
    q = vecs[0].astype(np.float64)
    out = knn_bruteforce(ds, q, k=10)
    unit = vecs.astype(np.float64) / np.linalg.norm(vecs, axis=1, keepdims=True)
    qv = q / np.linalg.norm(q)
    cos = unit @ qv
    expected = np.lexsort((np.arange(len(cos)), -cos))[:10]
    assert out["vec_id"].tolist() == expected.tolist()
    assert out["vec_id"].iloc[0] == 0 and out["cosine"].iloc[0] == 1.0


def test_knn_lsh_recall_and_subset(ray_session):
    from ontonotes_5_parsing_ray.stages.ann import knn_bruteforce, knn_lsh

    ds, vecs = _emb_ds(ray_session)
    q = vecs[7].astype(np.float64)
    exact = set(knn_bruteforce(ds, q, k=10)["vec_id"])
    approx = knn_lsh(ds, q, k=10, n_planes=6, multiprobe=3)
    # approximate: top hit must be found, results must be real vectors
    assert 7 in set(approx["vec_id"])
    assert len(set(approx["vec_id"]) & exact) >= 3  # sane recall on buckets


def test_label_centroids_merge_partials(ray_session):
    from ontonotes_5_parsing_ray.stages.ann import label_centroids

    ds, vecs = _emb_ds(ray_session)
    labels = ds.to_pandas()["label"].to_numpy()
    out = label_centroids(ds)
    for row in out.itertuples(index=False):
        expected = vecs[labels == row.label].astype(np.float64).mean(axis=0)
        assert np.allclose(np.asarray(row.centroid), expected, atol=1e-9)
        assert row.n == int((labels == row.label).sum())


def test_lsh_index_partitioned_equals_filter_path(ray_session, tmp_path):
    """The partitioned on-disk LSH index must return exactly what the
    scan+filter path returns (identical planes/probe set; only WHERE the
    pruning happens differs)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.ann import (
        build_lsh_index,
        knn_lsh,
        knn_lsh_indexed,
    )

    rng = np.random.RandomState(5)
    vecs = rng.randn(400, 24).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(400), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    }))
    idx = build_lsh_index(ds, str(tmp_path / "lsh_idx"), n_planes=6, seed=7)
    query = vecs[17]
    via_index = knn_lsh_indexed(idx, query, k=10, multiprobe=3)
    via_scan = knn_lsh(ds, query, k=10, n_planes=6, seed=7, multiprobe=3)
    assert via_index["vec_id"].tolist() == via_scan["vec_id"].tolist()
    assert via_index["cosine"].tolist() == via_scan["cosine"].tolist()
    assert via_index["vec_id"].iloc[0] == 17  # self is its own nearest


def test_label_centroids_distributed_equals_driver(ray_session, monkeypatch):
    """PREAGG_DRIVER_LIMIT=0 forces the per-partition vector-sum combine; it
    must equal the driver combine to float precision."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import relational
    from ontonotes_5_parsing_ray.stages.ann import label_centroids

    rng = np.random.RandomState(2)
    n = 600
    ds = rd.from_arrow(pa.table({
        "label": pa.array([int(rng.randint(0, 7)) for _ in range(n)], pa.int32()),
        "embedding": pa.array([rng.randn(12).round(5).tolist() for _ in range(n)],
                              pa.list_(pa.float64())),
    }))
    drv = label_centroids(ds)
    monkeypatch.setattr(relational, "PREAGG_DRIVER_LIMIT", 0)
    dist = label_centroids(ds)
    assert drv["label"].tolist() == dist["label"].tolist()
    assert drv["n"].tolist() == dist["n"].tolist()
    for a, b in zip(drv["centroid"], dist["centroid"]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_ivf_full_probe_equals_bruteforce(ray_session, tmp_path):
    """IVF with n_probe == n_clusters degenerates to the exact scan: result
    must equal brute force row for row. Fewer probes stay a subset of the
    corpus with high recall on clustered data."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.ann import (
        build_ivf_index,
        kmeans_fit,
        knn_bruteforce,
        knn_ivf_indexed,
    )

    rng = np.random.RandomState(5)
    centers = rng.randn(8, 24).astype(np.float64) * 3
    vecs = np.concatenate([
        centers[i % 8] + rng.randn(24) * 0.2 for i in range(400)
    ]).reshape(400, 24)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(400), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float64())),
    }))
    idx = str(tmp_path / "ivf")
    build_ivf_index(ds, idx, n_clusters=8, n_iter=4)
    query = vecs[7]

    exact = knn_bruteforce(ds, query, k=10)
    full = knn_ivf_indexed(idx, query, k=10, n_probe=8)
    pd.testing.assert_frame_equal(exact, full)

    probed = knn_ivf_indexed(idx, query, k=10, n_probe=2)
    # clustered data: the query's own cluster holds its neighbors
    overlap = len(set(probed["vec_id"]) & set(exact["vec_id"]))
    assert overlap >= 8

    # determinism: refit yields identical centroids
    c1 = kmeans_fit(ds, n_clusters=8, n_iter=4)
    c2 = kmeans_fit(ds, n_clusters=8, n_iter=4)
    assert np.array_equal(c1, c2)


def test_knn_graph_matches_numpy_bruteforce(ray_session):
    """knn_graph == per-row numpy brute force with the (rounded cosine
    desc, id asc) tie rule, across batch boundaries; self never appears;
    the broadcast_limit guard trips on oversized corpora."""
    import pandas as pd
    import pytest

    from ontonotes_5_parsing_ray.functions.rounding import round_half_away
    from ontonotes_5_parsing_ray.stages.ann import knn_graph

    ds, vecs = _emb_ds(ray_session, n=150, dim=8, seed=9)
    ds = ds.repartition(7)
    k = 5
    out = knn_graph(ds, k=k).to_pandas().sort_values(
        ["src_id", "cosine", "dst_id"], ascending=[True, False, True],
    ).reset_index(drop=True)

    v = vecs.astype(np.float64)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    cos = round_half_away(v @ v.T, 6)
    np.fill_diagonal(cos, -np.inf)
    want = []
    for i in range(len(v)):
        order = np.lexsort((np.arange(len(v)), -cos[i]))[:k]
        for j in order:
            want.append((i, int(j), cos[i, j]))
    want_df = pd.DataFrame(want, columns=["src_id", "dst_id", "cosine"])
    assert len(out) == len(want_df)
    pd.testing.assert_frame_equal(out, want_df, check_dtype=False)

    with pytest.raises(ValueError, match="broadcast_limit"):
        knn_graph(ds, k=2, broadcast_limit=10)


@pytest.mark.parametrize("mapped", [False, True])
def test_label_centroids_on_empty_input(ray_session, mapped):
    """A typed 0-row embeddings table gives 0 centroids with the output
    columns (the partial sees a column-less batch once a map drops the
    input's schema, and Ray's ``to_pandas`` of 0 rows has no columns)."""
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.ann import label_centroids

    ds = rd.from_arrow(pa.table({
        "label": pa.array([], pa.int32()),
        "embedding": pa.array([], pa.list_(pa.float64())),
    }))
    if mapped:
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    out = label_centroids(ds)
    assert len(out) == 0
    assert list(out.columns) == ["label", "n", "centroid"]
