"""Resumable partitioned output: lineage records + per-stage metrics.

The north rule requires exact resume-from-checkpoint with
per-partition lineage (input fragment, row range, checksum) and
metrics — the reference has nothing comparable (its temp-file cleanup
is even disabled, `convert_script.controller.ts:144-170`), so this is
new design per SURVEY.md §4.

Layout under ``output_dir``:

    part-<key>/data.parquet        one partition of extracted docs
    part-<key>/_LINEAGE.json      written ATOMICALLY (tmp+rename) after
                                  the partition's data is durable
    _manifest/                    (driver-side roll-up, optional)

A partition is "done" iff its _LINEAGE.json exists and its recorded
checksum matches the data file; on restart, done partitions are
skipped (anti-join of fragment keys against completed lineage — the
small side is the lineage listing, read once on the driver).

Partition key = deterministic hash of the input fragment (for file
inputs: the file path + row-group range; for synthetic shards: the
shard descriptor), NOT of the data — so a resume sees the same keys.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq


def fragment_key(descriptor: str) -> str:
    return hashlib.sha256(descriptor.encode()).hexdigest()[:16]


def _file_sha256(path: str) -> str:
    """Checksum of the data file's BYTES — what resume re-verifies.
    (Hashing the in-memory Arrow buffers instead would not survive a
    parquet round-trip: encodings change the byte layout.)"""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def completed_partitions(output_dir: str) -> Dict[str, Dict]:
    """Read all VERIFIED lineage records under output_dir: a partition
    counts as done only when the data file's recomputed sha256 matches
    the recorded checksum (size alone passes a same-length corruption;
    the re-hash costs one sequential read per finished partition at
    startup, which is the price of the exact-resume guarantee)."""
    done: Dict[str, Dict] = {}
    if not os.path.isdir(output_dir):
        return done
    for name in os.listdir(output_dir):
        lineage_path = os.path.join(output_dir, name, "_LINEAGE.json")
        data_path = os.path.join(output_dir, name, "data.parquet")
        if not (name.startswith("part-") and os.path.exists(lineage_path)
                and os.path.exists(data_path)):
            continue
        try:
            with open(lineage_path) as f:
                record = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if (record.get("size_bytes") == os.path.getsize(data_path)
                and record.get("checksum") == _file_sha256(data_path)):
            done[record["fragment_key"]] = record
    return done


def write_partition(output_dir: str, key: str, table: pa.Table,
                    descriptor: str, metrics: Optional[Dict] = None) -> Dict:
    """Write one partition + its lineage record atomically.  The data
    file is fsynced BEFORE the lineage record exists, so a crash can
    never leave a valid _LINEAGE.json next to unsynced data."""
    part_dir = os.path.join(output_dir, f"part-{key}")
    os.makedirs(part_dir, exist_ok=True)
    data_path = os.path.join(part_dir, "data.parquet")
    tmp_path = data_path + ".tmp"
    pq.write_table(table, tmp_path)
    with open(tmp_path, "rb+") as f:
        os.fsync(f.fileno())
    os.replace(tmp_path, data_path)
    record = {
        "fragment_key": key,
        "input_fragment": descriptor,
        "row_count": table.num_rows,
        "checksum": _file_sha256(data_path),
        "size_bytes": os.path.getsize(data_path),
        "written_unix": time.time(),
        "metrics": metrics or {},
    }
    lineage_tmp = os.path.join(part_dir, "_LINEAGE.json.tmp")
    with open(lineage_tmp, "w") as f:
        json.dump(record, f)
    os.replace(lineage_tmp, os.path.join(part_dir, "_LINEAGE.json"))
    return record


def run_resumable_extract_dir(input_dir: str, output_dir: str) -> Dict:
    """Resumable extraction over a REAL corpus directory (one parquet
    shard file = one output partition = one lineage record).  The
    fragment descriptor is the input file path, so a resume after a
    crash skips exactly the shards whose output re-verifies — the
    production shape of the `ray job submit` entrypoint for user data
    (the synthetic variant below keeps the descriptor-only shape the
    tests soak)."""
    import glob

    import ray

    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    done = completed_partitions(output_dir)
    todo = [f for f in files if fragment_key(f"file:{f}") not in done]
    skipped = len(files) - len(todo)

    @ray.remote(num_cpus=1)
    def process_file(path: str) -> Dict:
        from ..stages.extract import extract_batch

        t0 = time.time()
        table = pq.read_table(path)
        out = extract_batch(table)
        extract_sec = time.time() - t0
        t1 = time.time()
        return write_partition(
            output_dir, fragment_key(f"file:{path}"), out, f"file:{path}",
            metrics={"rows": out.num_rows,
                     "extract_sec": round(extract_sec, 4),
                     "write_sec": round(time.time() - t1, 4)})

    t0 = time.time()
    new_records = ray.get([process_file.remote(f) for f in todo])
    return {
        "partitions_total": len(files),
        "partitions_skipped": skipped,
        "partitions_written": len(new_records),
        "rows_written": sum(r["row_count"] for r in new_records),
        "wall_sec": round(time.time() - t0, 3),
    }


def run_resumable_extract(num_docs: int, output_dir: str, *, seed: int = 42,
                          docs_per_shard: int = 100) -> Dict:
    """Resumable flagship run over the synthetic corpus.

    Shard descriptors → (skip completed) → per-shard task: generate →
    extract → write partition + lineage.  Returns summary metrics.
    Safe to kill and re-run: finished partitions are skipped exactly.
    """
    import ray

    from ..corpus import make_doc, size_class_for
    from ..schema import DOC_SCHEMA, SPAN_STRUCT
    from ..stages.extract import ExtractorActor

    shards = []
    for start in range(0, num_docs, docs_per_shard):
        descriptor = (f"synthetic:seed={seed}:start={start}"
                      f":count={min(docs_per_shard, num_docs - start)}")
        shards.append({"descriptor": descriptor, "start": start,
                       "count": min(docs_per_shard, num_docs - start),
                       "seed": seed})

    done = completed_partitions(output_dir)
    todo = [s for s in shards if fragment_key(s["descriptor"]) not in done]
    skipped = len(shards) - len(todo)

    @ray.remote(num_cpus=1)
    def process_shard(shard: Dict) -> Dict:
        t0 = time.time()
        extractor = ExtractorActor()
        rows = []
        for i in range(shard["start"], shard["start"] + shard["count"]):
            doc = make_doc(shard["seed"], i, size_class_for(i))
            spans = extractor.extract_doc(doc["doc_id"], doc["spans"])
            rows.append({"doc_id": doc["doc_id"], "spans": spans,
                         "n_spans": len(spans)})
        gen_extract_sec = time.time() - t0
        table = pa.Table.from_pylist(rows, schema=pa.schema([
            pa.field("doc_id", pa.string()),
            pa.field("spans", pa.list_(SPAN_STRUCT)),
            pa.field("n_spans", pa.int64()),
        ]))
        t1 = time.time()
        record = write_partition(
            output_dir, fragment_key(shard["descriptor"]), table,
            shard["descriptor"],
            metrics={"rows": table.num_rows,
                     "extract_sec": round(gen_extract_sec, 4),
                     "write_sec": round(time.time() - t1, 4)})
        return record

    t0 = time.time()
    new_records = ray.get([process_shard.remote(s) for s in todo])
    return {
        "partitions_total": len(shards),
        "partitions_skipped": skipped,
        "partitions_written": len(new_records),
        "rows_written": sum(r["row_count"] for r in new_records),
        "wall_sec": round(time.time() - t0, 3),
    }
