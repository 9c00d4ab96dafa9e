"""Distributed canonicalization == driver kernel (order-free determinism)."""

import pyarrow as pa

from ontonotes_5_parsing_ray.functions.canon import (
    canonical_entity_id,
    cluster_surfaces,
    connected_components,
)
from ontonotes_5_parsing_ray.functions.kgrules import normalize_surface

SURFACES = [
    "Acme Corp", "Acme Corporation", "ACME Corp", "Globex", "Globex Inc",
    "Initech", "Initech LLC", "New York", "new york city", "Grace Hopper",
    "Hooli", "Pied Piper", "pied pipers", "Black Mesa", "Stark Industries",
]


def _lsh_brute_force(norms):
    """Uncapped reference clustering: every pair of distinct norms that
    shares an LSH band key and verifies is an edge; components by
    union-find; representative = (len, lex)-min member."""
    from ontonotes_5_parsing_ray.functions.canon import (
        surface_band_keys,
        verify_pair,
    )
    from ontonotes_5_parsing_ray.functions.hashing import MinHasher

    hasher = MinHasher(64)
    uniq = sorted(set(norms))
    keys = {n: set(surface_band_keys(n, hasher)) for n in uniq}
    parent = {n: n for n in uniq}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(uniq):
        for b in uniq[i + 1:]:
            if keys[a] & keys[b] and verify_pair(a, b):
                parent[find(a)] = find(b)
    members = {}
    for n in uniq:
        members.setdefault(find(n), []).append(n)
    return {n: min(ms, key=lambda m: (len(m), m))
            for ms in members.values() for n in ms}


def _mid_scale_norms():
    """2k+ surface vocabulary with planted variant clusters."""
    import numpy as np

    rng = np.random.RandomState(3)
    syllables = ["bar", "zan", "kel", "mor", "tay", "vin", "qua", "led",
                 "nim", "sor", "pex", "dul"]
    norms = set()
    for _ in range(800):
        base = "".join(rng.choice(syllables, 2)) + " " + "".join(rng.choice(syllables, 2))
        norms.add(base)
        if rng.rand() < 0.4:
            norms.add(base + " inc")        # suffix variant -> should cluster
        if rng.rand() < 0.2:
            norms.add(base + " corporation")
    norms = sorted(norms)
    assert len(norms) > 1200
    return norms


def test_connected_components_min_rep():
    comp = connected_components(["a", "bb", "c"], [("a", "bb"), ("bb", "c")])
    assert comp == {"a": "a", "bb": "a", "c": "a"}
    comp = connected_components(["x", "y"], [])
    assert comp == {"x": "x", "y": "y"}


def test_cluster_surfaces_merges_variants():
    norms = sorted({normalize_surface(s) for s in SURFACES})
    mapping = cluster_surfaces(norms)
    assert mapping["acme corporation"] == "acme corp"
    assert mapping["globex inc"] == "globex"
    assert mapping["initech llc"] == "initech"
    assert mapping["black mesa"] == "black mesa"  # singleton unchanged
    assert canonical_entity_id("acme corp") == canonical_entity_id("acme corp")


def test_distributed_path_equals_driver_kernel(ray_session, monkeypatch):
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import canonicalize
    from ontonotes_5_parsing_ray.stages.canonicalize import build_canon_map

    norms = sorted({normalize_surface(s) for s in SURFACES})
    ds = rd.from_arrow(pa.table({"norm": pa.array(norms, pa.string())}))
    # DRIVER_CLUSTER_LIMIT=0 forces the ranked band pairs + star-components
    # path
    monkeypatch.setattr(canonicalize, "DRIVER_CLUSTER_LIMIT", 0)
    dist = {r["norm"]: r["canon"] for r in build_canon_map(ds).take_all()}
    assert dist == cluster_surfaces(norms) == _lsh_brute_force(norms)


def test_distributed_path_at_mid_scale(ray_session, monkeypatch):
    """2k+ surface vocabulary with planted variant clusters: the distributed
    path must equal the driver kernel and the uncapped reference exactly."""
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import canonicalize
    from ontonotes_5_parsing_ray.stages.canonicalize import build_canon_map

    norms = _mid_scale_norms()
    ds = rd.from_arrow(pa.table({"norm": pa.array(norms, pa.string())}))
    monkeypatch.setattr(canonicalize, "DRIVER_CLUSTER_LIMIT", 0)
    dist = {r["norm"]: r["canon"] for r in build_canon_map(ds).take_all()}
    driver = cluster_surfaces(norms)
    assert dist == driver == _lsh_brute_force(norms)
    # the planted variants actually merged (clustering did real work)
    merged = sum(1 for k, v in driver.items() if k != v)
    assert merged > 100


def test_star_components_random_graphs_vs_union_find(ray_session):
    """The distributed star-contraction must compute exact connected
    components on random graphs (checked against a pure union-find)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.dedup import _star_components

    def label(n):  # (len, lex) order as plain string order
        return f"{len(n):06d}\x01{n}"

    for seed in (0, 1, 2):
        rng = np.random.RandomState(seed)
        names = [f"n{i:03d}" for i in range(30)]
        edges = set()
        for i in range(30):
            for j in range(i + 1, 30):
                if rng.rand() < 0.08:
                    edges.add((names[i], names[j]))
        if not edges:
            continue
        # union-find ground truth with (len, lex)-min representative
        parent = {n: n for n in names}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps = {}
        for n in names:
            comps.setdefault(find(n), []).append(n)
        truth = {}
        for members in comps.values():
            rep = min(members, key=lambda s: (len(s), s))
            for m in members:
                truth[m] = rep

        enc = [(min(label(a), label(b)), max(label(a), label(b)))
               for a, b in edges]
        D = rd.from_arrow(pa.table({
            "a": pa.array([e[0] for e in enc], pa.string()),
            "b": pa.array([e[1] for e in enc], pa.string()),
        }))
        final = _star_components(D).to_pandas()
        got = {n: n for n in names}
        nbrs = {}
        for a, b in zip(final["a"], final["b"]):
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
        for n in names:
            e = label(n)
            if e in nbrs:
                got[n] = min(min(nbrs[e]), e).split("\x01", 1)[1]
        # isolated nodes keep themselves; connected nodes point at comp min
        assert got == {n: truth[n] for n in names}, f"seed {seed}"


def test_hot_band_cap_binds_equally_on_both_routes(ray_session, monkeypatch,
                                                   caplog):
    """10,000 ID-like surfaces put thousands of norms into one LSH band
    bucket. Under a tight pair budget both routes finish, log the cap, and
    return the same map: the cap comes from the same band-size histogram
    over the same (len, norm)-ranked ids."""
    import logging

    import ray.data as rd

    from ontonotes_5_parsing_ray.functions import hashing
    from ontonotes_5_parsing_ray.stages import canonicalize
    from ontonotes_5_parsing_ray.stages.canonicalize import build_canon_map

    norms = [f"acme corp {i:05d}" for i in range(10_000)]
    monkeypatch.setattr(hashing, "LSH_PAIR_BUDGET", 200_000)
    caplog.set_level(logging.WARNING, logger=hashing.__name__)

    driver = cluster_surfaces(norms)
    assert "LSH pair budget tightened" in caplog.text
    caplog.clear()

    monkeypatch.setattr(canonicalize, "DRIVER_CLUSTER_LIMIT", 0)
    ds = rd.from_arrow(pa.table({"norm": pa.array(norms, pa.string())}))
    dist = {r["norm"]: r["canon"] for r in build_canon_map(ds).take_all()}
    assert "LSH pair budget tightened" in caplog.text
    assert dist == driver
    assert len(set(driver.values())) < len(norms)  # clustering did merge
