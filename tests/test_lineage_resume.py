"""Resume-from-checkpoint: kill after K partitions, restart, assert
exactly-once output with identical bytes."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest


@pytest.mark.usefixtures("ray_session")
def test_resumable_extract_exactly_once(tmp_path):
    from ray_script_extract.stages.lineage import (
        completed_partitions,
        run_resumable_extract,
    )

    out = str(tmp_path / "extract_out")
    summary1 = run_resumable_extract(120, out, docs_per_shard=30)
    assert summary1["partitions_written"] == 4
    assert summary1["partitions_skipped"] == 0
    assert summary1["rows_written"] == 120

    done = completed_partitions(out)
    assert len(done) == 4
    checksums = {k: v["checksum"] for k, v in done.items()}

    # simulate a mid-run crash: remove one finished partition and
    # corrupt another's lineage (invalid size → must be redone)
    parts = sorted(p for p in os.listdir(out) if p.startswith("part-"))
    shutil.rmtree(os.path.join(out, parts[0]))
    bad = os.path.join(out, parts[1], "_LINEAGE.json")
    record = json.load(open(bad))
    record["size_bytes"] = -1
    json.dump(record, open(bad, "w"))

    summary2 = run_resumable_extract(120, out, docs_per_shard=30)
    assert summary2["partitions_skipped"] == 2
    assert summary2["partitions_written"] == 2

    done2 = completed_partitions(out)
    assert len(done2) == 4
    # determinism: re-extracted partitions byte-identical to round 1
    assert {k: v["checksum"] for k, v in done2.items()} == checksums

    # full second resume is a no-op
    summary3 = run_resumable_extract(120, out, docs_per_shard=30)
    assert summary3["partitions_written"] == 0
    assert summary3["partitions_skipped"] == 4

    total_rows = sum(
        pq.read_table(os.path.join(out, p, "data.parquet")).num_rows
        for p in sorted(os.listdir(out)) if p.startswith("part-"))
    assert total_rows == 120


@pytest.mark.usefixtures("ray_session")
def test_same_size_corruption_is_redone(tmp_path):
    """A data file corrupted WITHOUT changing its size must fail the
    checksum re-verify and be re-extracted on resume (size-only
    validation would silently accept it)."""
    from ray_script_extract.stages.lineage import (
        completed_partitions,
        run_resumable_extract,
    )

    out = str(tmp_path / "extract_out")
    run_resumable_extract(60, out, docs_per_shard=30)
    parts = sorted(p for p in os.listdir(out) if p.startswith("part-"))
    data = os.path.join(out, parts[0], "data.parquet")
    raw = bytearray(open(data, "rb").read())
    raw[len(raw) // 2] ^= 0xFF  # flip one byte, same length
    open(data, "wb").write(bytes(raw))

    assert len(completed_partitions(out)) == 1
    summary = run_resumable_extract(60, out, docs_per_shard=30)
    assert summary["partitions_written"] == 1
    assert summary["partitions_skipped"] == 1
    assert len(completed_partitions(out)) == 2


@pytest.mark.usefixtures("ray_session")
def test_corpus_dir_stale_surplus_shards_removed(tmp_path):
    """Reusing a corpus dir with a smaller num_docs must not leave the
    previous run's surplus shards to be read as extra documents."""
    import pyarrow.parquet as _pq

    from ray_script_extract.corpus import write_corpus_parquet

    d = str(tmp_path / "corpus")
    write_corpus_parquet(100, d, docs_per_shard=25)  # 4 shards
    assert len(os.listdir(d)) == 4
    write_corpus_parquet(50, d, docs_per_shard=25)   # 2 shards
    names = sorted(os.listdir(d))
    assert names == ["shard-00000.parquet", "shard-00001.parquet"]
    total = sum(_pq.read_table(os.path.join(d, n)).num_rows for n in names)
    assert total == 50


@pytest.mark.usefixtures("ray_session")
def test_resumable_extract_dir_real_corpus(tmp_path):
    """The --input (real corpus directory) variant: one input shard =
    one verified output partition; resume skips finished shards."""
    from ray_script_extract.corpus import write_corpus_parquet
    from ray_script_extract.stages.lineage import (
        completed_partitions,
        run_resumable_extract_dir,
    )

    corpus = str(tmp_path / "corpus")
    write_corpus_parquet(60, corpus, docs_per_shard=20)  # 3 shards
    out = str(tmp_path / "out")

    s1 = run_resumable_extract_dir(corpus, out)
    assert s1["partitions_written"] == 3
    assert s1["rows_written"] == 60
    assert len(completed_partitions(out)) == 3

    parts = sorted(p for p in os.listdir(out) if p.startswith("part-"))
    shutil.rmtree(os.path.join(out, parts[0]))
    s2 = run_resumable_extract_dir(corpus, out)
    assert s2["partitions_written"] == 1
    assert s2["partitions_skipped"] == 2
    total = sum(
        pq.read_table(os.path.join(out, p, "data.parquet")).num_rows
        for p in sorted(os.listdir(out)) if p.startswith("part-"))
    assert total == 60


def test_write_sec_times_the_data_write(tmp_path, monkeypatch):
    """``write_sec`` in a lineage record is the parquet write and fsync
    of its partition, measured while they run."""
    import time

    import pyarrow as pa

    from ray_script_extract.stages import lineage

    write_table = pq.write_table

    def slow_write_table(*args, **kwargs):
        time.sleep(0.05)
        return write_table(*args, **kwargs)

    monkeypatch.setattr(lineage.pq, "write_table", slow_write_table)
    out = str(tmp_path / "out")
    record = lineage.write_partition(
        out, "k", pa.table({"x": [1, 2]}), "file:x", metrics={"rows": 2})
    assert record["metrics"]["rows"] == 2
    assert record["metrics"]["write_sec"] >= 0.05
    on_disk = json.load(open(os.path.join(out, "part-k", "_LINEAGE.json")))
    assert on_disk["metrics"] == record["metrics"]
