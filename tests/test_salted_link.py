"""Salted two-phase linking must equal the plain conv-group linking —
including on skewed conversations whose buckets split coref chains and
leading pronouns across bucket boundaries."""

import pandas as pd
import pytest


@pytest.fixture(scope="module")
def skewed_transcripts(ray_session):
    from ontonotes_5_parsing_ray.sources.transcripts import generate_transcripts

    # skew: one conversation of 300 turns -> many buckets at bucket_size=16
    return generate_transcripts(
        "/tmp/onr_transcripts/pytest_skewed", n_convs=15, seed=11,
        skew_frac=0.1, skew_turns=300,
    )


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def test_salted_equals_plain(ray_session, skewed_transcripts):
    from ontonotes_5_parsing_ray.pipelines.kg import (
        annotate,
        link,
        link_salted,
        read_transcripts,
        split_linked,
    )

    annotated = annotate(
        read_transcripts(skewed_transcripts), concurrency=2, emit="link"
    ).materialize()

    plain = link(annotated).materialize()
    # bucket_size=16 guarantees the 300-turn conversation spans ~19 buckets
    salted = link_salted(annotated, bucket_size=16).materialize()

    pm, pt = split_linked(plain)
    sm, st = split_linked(salted)
    pm, pt, sm, st = (x.to_pandas() for x in (pm, pt, sm, st))

    pd.testing.assert_frame_equal(_sorted(pm), _sorted(sm))
    pd.testing.assert_frame_equal(_sorted(pt), _sorted(st))

    # error channel passes through identically
    import pyarrow.compute as pc

    perr = plain.map_batches(
        lambda t: t.filter(pc.equal(t.column("row_kind"), "error")),
        batch_format="pyarrow",
    ).to_pandas()
    serr = salted.map_batches(
        lambda t: t.filter(pc.equal(t.column("row_kind"), "error")),
        batch_format="pyarrow",
    ).to_pandas()
    assert len(perr) == len(serr)


def test_salted_pipeline_end_to_end_matches_oracle(ray_session, skewed_transcripts):
    from ontonotes_5_parsing_ray.oracle import extract_kg_single_process
    from ontonotes_5_parsing_ray.oracle.kg import precision_recall, triple_set
    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline
    from ontonotes_5_parsing_ray.sources.transcripts import build_transcripts_table

    out = run_kg_pipeline(skewed_transcripts, concurrency=2, salted_bucket_size=16)
    golden = extract_kg_single_process(
        build_transcripts_table(n_convs=15, seed=11, skew_frac=0.1, skew_turns=300)
    )
    p, r = precision_recall(
        triple_set(out["triples"].to_pandas()), triple_set(golden["triples"])
    )
    assert p == 1.0 and r == 1.0, (p, r)


def test_salted_copartition_phase_c_equals_broadcast(ray_session,
                                                     skewed_transcripts,
                                                     monkeypatch):
    """RESOLUTION_BROADCAST_LIMIT=0 forces the co-partitioned phase C (no
    driver dicts); output must equal both the broadcast salted route and
    plain linking."""
    from ontonotes_5_parsing_ray.pipelines import kg
    from ontonotes_5_parsing_ray.pipelines.kg import (
        annotate,
        link_salted,
        read_transcripts,
        split_linked,
    )

    annotated = annotate(
        read_transcripts(skewed_transcripts), concurrency=2, emit="link"
    ).materialize()

    bcast = link_salted(annotated, bucket_size=16).materialize()
    monkeypatch.setattr(kg, "RESOLUTION_BROADCAST_LIMIT", 0)
    copart = link_salted(annotated, bucket_size=16).materialize()

    bm, bt = (x.to_pandas() for x in split_linked(bcast))
    cm, ct = (x.to_pandas() for x in split_linked(copart))
    pd.testing.assert_frame_equal(_sorted(bm), _sorted(cm))
    pd.testing.assert_frame_equal(_sorted(bt), _sorted(ct))

    # the error channel survives the co-partition route too
    import pyarrow.compute as pc

    berr = bcast.map_batches(
        lambda t: t.filter(pc.equal(t.column("row_kind"), "error")),
        batch_format="pyarrow",
    ).to_pandas()
    cerr = copart.map_batches(
        lambda t: t.filter(pc.equal(t.column("row_kind"), "error")),
        batch_format="pyarrow",
    ).to_pandas()
    assert len(berr) == len(cerr)


@pytest.fixture(scope="module")
def adversarial_transcripts(ray_session):
    """Round-4 adversarial gate fixture: EXTREME skew (a quarter of the
    conversations at 600 turns — ~38 buckets at bucket_size=16), the
    generator's tool-role and CJK turns mixed in, and per-turn unique
    reference tokens so coref chains carry real entropy across bucket
    boundaries."""
    from ontonotes_5_parsing_ray.sources.transcripts import generate_transcripts

    return generate_transcripts(
        "/tmp/onr_transcripts/pytest_adversarial", n_convs=12, seed=77,
        skew_frac=0.25, skew_turns=600, unique_refs=True,
    )


def test_adversarial_routes_triple_equality(ray_session,
                                            adversarial_transcripts,
                                            monkeypatch):
    """plain link == salted broadcast == salted co-partitioned phase C,
    triple-for-triple and mention-for-mention, on the adversarial mix."""
    from ontonotes_5_parsing_ray.pipelines import kg
    from ontonotes_5_parsing_ray.pipelines.kg import (
        annotate,
        link,
        link_salted,
        read_transcripts,
        split_linked,
    )

    annotated = annotate(
        read_transcripts(adversarial_transcripts), concurrency=2, emit="link"
    ).materialize()
    routes = {
        "plain": link(annotated).materialize(),
        "salted": link_salted(annotated, bucket_size=16).materialize(),
    }
    monkeypatch.setattr(kg, "RESOLUTION_BROADCAST_LIMIT", 0)
    routes["copart"] = link_salted(annotated, bucket_size=16).materialize()
    frames = {}
    for name, linked in routes.items():
        m, t = (x.to_pandas() for x in split_linked(linked))
        frames[name] = (_sorted(m), _sorted(t))
    for name in ("salted", "copart"):
        pd.testing.assert_frame_equal(frames["plain"][0], frames[name][0])
        pd.testing.assert_frame_equal(frames["plain"][1], frames[name][1])


def test_adversarial_pr_gate(ray_session, adversarial_transcripts):
    """P/R == 1.0 vs the single-process oracle through the salted route on
    the adversarial mix (north_rule gate, hardened)."""
    from ontonotes_5_parsing_ray.oracle import extract_kg_single_process
    from ontonotes_5_parsing_ray.oracle.kg import precision_recall, triple_set
    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline
    from ontonotes_5_parsing_ray.sources.transcripts import (
        build_transcripts_table,
    )

    out = run_kg_pipeline(adversarial_transcripts, concurrency=2,
                          salted_bucket_size=16)
    golden = extract_kg_single_process(build_transcripts_table(
        n_convs=12, seed=77, skew_frac=0.25, skew_turns=600,
        unique_refs=True))
    p, r = precision_recall(
        triple_set(out["triples"].to_pandas()),
        triple_set(golden["triples"]))
    assert p == 1.0 and r == 1.0, (p, r)
