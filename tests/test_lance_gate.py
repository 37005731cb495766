"""The Lance-format gate (BASELINE.json input_hint names Lance as the
production table format; the package is absent in this container, so
the parquet fallback is the path that runs here).  These tests keep
the gated branch import-checked so a future container WITH lance
exercises the real path without code changes."""

from __future__ import annotations

import importlib.util

import pytest

_HAS_LANCE = importlib.util.find_spec("lance") is not None


def test_gate_matches_environment():
    import ray.data

    from ray_script_extract.pipelines.extract_pipeline import read_corpus

    # the fallback decision must track the actual environment
    if _HAS_LANCE:
        assert hasattr(ray.data, "read_lance")
    else:
        with pytest.raises(ImportError):
            import lance  # noqa: F401
    # the gated function itself is importable and callable either way
    assert callable(read_corpus)


@pytest.mark.skipif(not _HAS_LANCE, reason="lance not installed in "
                    "this container — parquet fallback covered by "
                    "test_parquet_fallback_roundtrip")
def test_lance_roundtrip(tmp_path, ray_session):
    import ray.data

    from ray_script_extract.pipelines.extract_pipeline import (
        read_corpus,
        write_corpus,
    )

    from tests.helpers import corpus_dataset

    # round-trip the REAL interleaved schema (doc_id, spans
    # list<struct<kind,text,media_ref,offset>>), not a toy range
    ds = corpus_dataset(8)
    write_corpus(ds, str(tmp_path / "t.lance"))
    back = read_corpus(str(tmp_path / "t.lance"))
    assert back.count() == 8
    assert set(back.schema().names) >= {"doc_id", "spans"}


@pytest.mark.usefixtures("ray_session")
def test_parquet_fallback_roundtrip(tmp_path):
    from ray_script_extract.corpus import write_corpus_parquet
    from ray_script_extract.pipelines.extract_pipeline import read_corpus

    d = str(tmp_path / "corpus")
    write_corpus_parquet(40, d, docs_per_shard=20)
    ds = read_corpus(d)
    assert ds.count() == 40
    assert set(ds.schema().names) >= {"doc_id", "spans"}


def test_lance_dispatch_wiring(monkeypatch):
    """Prove the Lance branch's WIRING without the package: with a
    mock ``lance`` module present, read_corpus must call
    ``ray.data.read_lance`` (not the parquet fallback) and
    write_corpus must call ``Dataset.write_lance`` — so a container
    WITH lance takes the production path with zero code changes."""
    import sys
    import types

    import ray.data

    from ray_script_extract.pipelines import extract_pipeline as ep

    fake = types.ModuleType("lance")
    monkeypatch.setitem(sys.modules, "lance", fake)

    calls = {}

    def fake_read_lance(path):
        calls["read"] = path
        return "LANCE_DS"

    monkeypatch.setattr(ray.data, "read_lance", fake_read_lance,
                        raising=False)
    assert ep.read_corpus("/tmp/corpus.lance") == "LANCE_DS"
    assert calls["read"] == "/tmp/corpus.lance"

    class FakeDS:
        def write_lance(self, path):
            calls["write"] = path

        def write_parquet(self, path):
            calls["write_pq"] = path

    ep.write_corpus(FakeDS(), "/tmp/out.lance")
    assert calls["write"] == "/tmp/out.lance"
    assert "write_pq" not in calls
