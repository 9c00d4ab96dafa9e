"""The one linker keys turns by salted buckets ``(conv_id, max(turn_idx, 0)
// LINK_BUCKET_TURNS)``. Patched to 16 turns, the skewed fixtures' long
conversations span many buckets, so coref chains and leading pronouns cross
bucket boundaries; the output must still equal the single-process oracle
row for row — mentions with chain ids, triples and dead letters."""

import pandas as pd
import pyarrow.compute as pc
import pytest

SKEWED = dict(n_convs=15, seed=11, skew_frac=0.1, skew_turns=300)
# Round-4 adversarial gate fixture: EXTREME skew (a quarter of the
# conversations at 600 turns — ~38 buckets at 16 turns), the generator's
# tool-role and CJK turns mixed in, and per-turn unique reference tokens so
# coref chains carry real entropy across bucket boundaries.
ADVERSARIAL = dict(n_convs=12, seed=77, skew_frac=0.25, skew_turns=600,
                   unique_refs=True)
# One conversation past two default (512-turn) buckets.
GIANT = dict(n_convs=10, seed=5, skew_frac=0.1, skew_turns=1100)

MENTION_COLUMNS = ["conv_id", "turn_idx", "start", "end", "surface",
                   "entity_type", "is_pronoun", "chain_id", "antecedent"]
TRIPLE_COLUMNS = ["conv_id", "turn_idx", "pred", "subj", "obj",
                  "subj_type", "obj_type"]
ERROR_COLUMNS = ["conv_id", "turn_idx", "error"]


def _fixture(name, params):
    from ontonotes_5_parsing_ray.oracle import extract_kg_single_process
    from ontonotes_5_parsing_ray.sources.transcripts import (
        build_transcripts_table,
        generate_transcripts,
    )

    path = generate_transcripts(f"/tmp/onr_transcripts/pytest_{name}", **params)
    return path, extract_kg_single_process(build_transcripts_table(**params))


@pytest.fixture(scope="module")
def skewed_transcripts(ray_session):
    return _fixture("skewed", SKEWED)


@pytest.fixture(scope="module")
def adversarial_transcripts(ray_session):
    return _fixture("adversarial", ADVERSARIAL)


@pytest.fixture(scope="module")
def spread_transcripts(ray_session, tmp_path_factory):
    """The ``SKEWED`` rows dealt round-robin into 4 Parquet files, so every
    multi-turn conversation spans several read blocks."""
    import pyarrow.parquet as pq

    from ontonotes_5_parsing_ray.oracle import extract_kg_single_process
    from ontonotes_5_parsing_ray.sources.transcripts import (
        build_transcripts_table,
    )

    table = build_transcripts_table(**SKEWED)
    out = tmp_path_factory.mktemp("spread_transcripts")
    for f in range(4):
        pq.write_table(table.take(list(range(f, len(table), 4))),
                       str(out / f"part-{f}.parquet"))
    return str(out), extract_kg_single_process(table)


@pytest.fixture
def bucket_16(monkeypatch):
    from ontonotes_5_parsing_ray.pipelines import kg

    monkeypatch.setattr(kg, "LINK_BUCKET_TURNS", 16)


def _sorted(df: pd.DataFrame, columns) -> pd.DataFrame:
    df = df[columns].astype({c: "int64" for c in ("turn_idx", "start", "end",
                                                  "chain_id") if c in columns})
    return df.sort_values(columns, kind="mergesort").reset_index(drop=True)


def _assert_equals_oracle(mentions, triples, errors, golden):
    """Mentions (chain ids and antecedents included), triples and dead
    letters, row for row."""
    want = golden["mentions"].assign(
        antecedent=golden["mentions"]["antecedent"].fillna(""))
    pd.testing.assert_frame_equal(_sorted(mentions, MENTION_COLUMNS),
                                  _sorted(want, MENTION_COLUMNS))
    pd.testing.assert_frame_equal(_sorted(triples, TRIPLE_COLUMNS),
                                  _sorted(golden["triples"], TRIPLE_COLUMNS))
    pd.testing.assert_frame_equal(_sorted(errors, ERROR_COLUMNS),
                                  _sorted(golden["errors"], ERROR_COLUMNS))


def _link(path):
    from ontonotes_5_parsing_ray.pipelines.kg import (
        annotate,
        link,
        read_transcripts,
    )

    return link(annotate(read_transcripts(path), concurrency=2,
                         emit="link")).materialize()


def _assert_link_equals_oracle(linked, golden):
    from ontonotes_5_parsing_ray.pipelines.kg import split_linked

    mentions, triples = (x.to_pandas() for x in split_linked(linked))
    errors = linked.map_batches(
        lambda t: t.filter(pc.equal(t.column("row_kind"), "error")),
        batch_format="pyarrow",
    ).to_pandas()
    _assert_equals_oracle(mentions, triples, errors, golden)


def _assert_pipeline_equals_oracle(path, golden):
    from ontonotes_5_parsing_ray.oracle.kg import precision_recall, triple_set
    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline

    out = {k: v.to_pandas() for k, v in
           run_kg_pipeline(path, concurrency=2).items()}
    p, r = precision_recall(triple_set(out["triples"]),
                            triple_set(golden["triples"]))
    assert p == 1.0 and r == 1.0, (p, r)
    _assert_equals_oracle(out["mentions"], out["triples"], out["errors"],
                          golden)


def _spans_buckets(golden, bucket_turns):
    """The fixture really exercises phases B/C: some conversation has
    mentions past its first bucket."""
    return (golden["mentions"]["turn_idx"] >= bucket_turns).any()


def test_salted_equals_plain(ray_session, skewed_transcripts, bucket_16):
    path, golden = skewed_transcripts
    assert _spans_buckets(golden, 16)
    _assert_link_equals_oracle(_link(path), golden)


def test_salted_pipeline_end_to_end_matches_oracle(ray_session,
                                                   skewed_transcripts,
                                                   bucket_16):
    _assert_pipeline_equals_oracle(*skewed_transcripts)


def test_spread_layout_link_equals_oracle(ray_session, spread_transcripts,
                                          bucket_16):
    """A conversation split across read blocks links like the oracle
    through phases A, B and C."""
    path, golden = spread_transcripts
    assert _spans_buckets(golden, 16)
    _assert_link_equals_oracle(_link(path), golden)


def test_spread_layout_pipeline_equals_oracle(ray_session,
                                              spread_transcripts):
    """At the default bucket size phase A alone finishes every conversation,
    wherever its turns were read."""
    _assert_pipeline_equals_oracle(*spread_transcripts)


def test_salted_copartition_phase_c_equals_broadcast(ray_session,
                                                     skewed_transcripts,
                                                     bucket_16, monkeypatch):
    """RESOLUTION_BROADCAST_LIMIT=0 forces phases B/C through the
    co-partitioned route (no driver dicts); output must still equal the
    oracle."""
    from ontonotes_5_parsing_ray.pipelines import kg
    from ontonotes_5_parsing_ray.stages import relational

    calls = []
    exchange = relational.partition_map_groups
    monkeypatch.setattr(kg, "RESOLUTION_BROADCAST_LIMIT", 0)
    monkeypatch.setattr(relational, "partition_map_groups",
                        lambda *a, **k: calls.append(a[1]) or exchange(*a, **k))
    path, golden = skewed_transcripts
    _assert_link_equals_oracle(_link(path), golden)
    assert calls == [["conv_id", "bucket"], "conv_id"]


def test_adversarial_routes_triple_equality(ray_session,
                                            adversarial_transcripts,
                                            bucket_16, monkeypatch):
    """Driver-dict and co-partitioned phases B/C both equal the oracle,
    mention for mention, triple for triple and dead letter for dead letter,
    on the adversarial mix."""
    from ontonotes_5_parsing_ray.pipelines import kg

    path, golden = adversarial_transcripts
    _assert_link_equals_oracle(_link(path), golden)
    monkeypatch.setattr(kg, "RESOLUTION_BROADCAST_LIMIT", 0)
    _assert_link_equals_oracle(_link(path), golden)


def test_adversarial_pr_gate(ray_session, adversarial_transcripts, bucket_16):
    """P/R == 1.0 vs the single-process oracle through bucketed linking on
    the adversarial mix (north_rule gate, hardened)."""
    _assert_pipeline_equals_oracle(*adversarial_transcripts)


def test_default_bucket_giant_conversation_equals_oracle(ray_session):
    """No patch: a conversation of more than 1,024 turns spans three
    default-size buckets, and the pipeline still equals the oracle."""
    from ontonotes_5_parsing_ray.pipelines import kg

    path, golden = _fixture("giant", GIANT)
    assert golden["mentions"]["turn_idx"].max() >= 2 * kg.LINK_BUCKET_TURNS
    _assert_pipeline_equals_oracle(path, golden)


def test_link_execution_shape(ray_session, tiny_transcripts,
                              skewed_transcripts, monkeypatch):
    """Conversations shorter than one bucket cost exactly one keyed
    exchange (``relational.partition_map_groups`` on ``(conv_id, bucket)``),
    no Ray ``groupby`` and no phase-B/C code; past one bucket, phases B/C
    run only for the conversations that span buckets, through driver dicts
    (no second exchange)."""
    from ray.data import Dataset

    from ontonotes_5_parsing_ray.pipelines import kg
    from ontonotes_5_parsing_ray.stages import relational

    exchanges = []
    exchange = relational.partition_map_groups

    def spy_exchanges():
        def no_groupby(*_args, **_kwargs):
            raise AssertionError("Dataset.groupby called")

        monkeypatch.setattr(Dataset, "groupby", no_groupby)
        monkeypatch.setattr(relational, "partition_map_groups",
                            lambda *a, **k: exchanges.append(a[1])
                            or exchange(*a, **k))

    def phase_b_c(*_args):
        raise AssertionError("phase B/C code ran")

    spy_exchanges()
    for name in ("bucket_summaries", "resolve_buckets", "apply_resolutions",
                 "finalize_partition"):
        monkeypatch.setattr(kg, name, phase_b_c)
    linked = _link(tiny_transcripts)
    assert exchanges == [["conv_id", "bucket"]]
    assert linked.count() > 0

    monkeypatch.undo()
    spy_exchanges()
    monkeypatch.setattr(kg, "LINK_BUCKET_TURNS", 16)
    merged = []
    resolve = kg.resolve_buckets
    monkeypatch.setattr(kg, "resolve_buckets",
                        lambda s: merged.append(set(s["conv_id"])) or resolve(s))
    exchanges.clear()
    path, golden = skewed_transcripts
    _link(path)
    assert exchanges == [["conv_id", "bucket"]]
    mentions = golden["mentions"]
    spanning = set(mentions.loc[mentions["turn_idx"] >= 16, "conv_id"])
    assert merged == [spanning]
    assert 0 < len(spanning) < mentions["conv_id"].nunique()
