import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole test run (per project instructions)."""
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield ray
    ray.shutdown()


@pytest.fixture
def pin_exchange_partitions(monkeypatch):
    """``pin(n)``: every hash exchange in the package uses ``n``
    partitions (patches the one shared rule,
    ``relational.exchange_partitions``)."""
    from ontonotes_5_parsing_ray.stages import relational

    def pin(n: int) -> None:
        monkeypatch.setattr(relational, "exchange_partitions",
                            lambda *inputs: n)
    return pin


def exchange_joins(mp) -> None:
    """Every ``hash_join`` takes the keyed exchange: patches its one
    broadcast-or-shuffle predicate, ``relational._broadcasts``, on the
    ``monkeypatch`` (or ``monkeypatch.context()``) ``mp``."""
    from ontonotes_5_parsing_ray.stages import relational

    mp.setattr(relational, "_broadcasts", lambda *args: False)


@pytest.fixture(scope="session")
def tiny_transcripts(ray_session):
    """Deterministic tiny transcript parquet (cached under /tmp)."""
    from ontonotes_5_parsing_ray.sources.transcripts import generate_transcripts

    return generate_transcripts(
        "/tmp/onr_transcripts/pytest_tiny", n_convs=30, seed=42, skew_frac=0.0
    )


@pytest.fixture(scope="session")
def tiny_table():
    from ontonotes_5_parsing_ray.sources.transcripts import build_transcripts_table

    return build_transcripts_table(n_convs=30, seed=42, skew_frac=0.0)


@pytest.fixture(scope="session")
def kg_result(ray_session, tiny_transcripts):
    """One distributed KG build shared by the pipeline tests (pandas dict)."""
    from ontonotes_5_parsing_ray.pipelines.kg import run_kg_pipeline

    out = run_kg_pipeline(tiny_transcripts, concurrency=2)
    return {k: v.to_pandas() for k, v in out.items()}


@pytest.fixture(scope="session")
def golden_result(tiny_table):
    from ontonotes_5_parsing_ray.oracle import extract_kg_single_process

    return extract_kg_single_process(tiny_table)


SF_DIR = "/root/testdata/sf0.001"
