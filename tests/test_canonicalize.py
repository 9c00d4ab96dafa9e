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
    # DRIVER_CLUSTER_LIMIT=0 forces the band-groupby + min-label-propagation
    # path
    monkeypatch.setattr(canonicalize, "DRIVER_CLUSTER_LIMIT", 0)
    dist = {r["norm"]: r["canon"] for r in build_canon_map(ds).take_all()}
    assert dist == cluster_surfaces(norms)


def test_distributed_path_at_mid_scale(ray_session, monkeypatch):
    """2k+ surface vocabulary with planted variant clusters: the distributed
    label-propagation path must equal the driver kernel exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages import canonicalize
    from ontonotes_5_parsing_ray.stages.canonicalize import build_canon_map

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
    ds = rd.from_arrow(pa.table({"norm": pa.array(norms, pa.string())}))
    monkeypatch.setattr(canonicalize, "DRIVER_CLUSTER_LIMIT", 0)
    dist = {r["norm"]: r["canon"] for r in build_canon_map(ds).take_all()}
    driver = cluster_surfaces(norms)
    assert dist == driver
    # the planted variants actually merged (clustering did real work)
    merged = sum(1 for k, v in driver.items() if k != v)
    assert merged > 100


def test_star_components_random_graphs_vs_union_find(ray_session):
    """The distributed star-contraction must compute exact connected
    components on random graphs (checked against a pure union-find)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ontonotes_5_parsing_ray.stages.canonicalize import (
        _label_key,
        _label_to_norm,
        _star_components,
    )

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

        enc = [(min(_label_key(a), _label_key(b)),
                max(_label_key(a), _label_key(b))) for a, b in edges]
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
            e = _label_key(n)
            if e in nbrs:
                got[n] = _label_to_norm(min(min(nbrs[e]), e))
        # isolated nodes keep themselves; connected nodes point at comp min
        assert got == {n: truth[n] for n in names}, f"seed {seed}"
