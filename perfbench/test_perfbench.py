"""Self-test of the benchmark.

    python3 -m pytest perfbench -q -p no:cacheprovider

Runs every workload at a tiny size in both modes, checks the result line
against BENCHMARK.json, and checks that corrupted output is counted as
failed documents.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
run.import_program()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == layers.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) \
        == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_prints_with_name_and_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--docs", "20")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 20
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{workload} {m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    if trace:
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9


def _tables(workload: str):
    import pyarrow.parquet as pq

    return [(p, pq.read_table(p)) for p in run.build_corpus(workload, 3, 20)]


def test_exact_counts_repeat():
    tables = _tables("pdf_raw")
    counts = []
    for _ in range(2):
        tracer = layers.Tracer()
        with layers.traced(tracer):
            run.run_in_process(tables, "pdf_raw")
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["pdfnative.pages"] > 0
    assert counts[0]["extract.spans_out"] > 0


def _expected_and_output():
    from ray_script_extract.corpus import make_corpus_table
    from ray_script_extract.stages.extract import extract_batch

    out = extract_batch(make_corpus_table(12, seed=5))
    return verify.doc_digests([out]), out


def _replace_text(table, row: int, span: int, text: str):
    import pyarrow as pa

    rows = table.to_pylist()
    rows[row]["spans"][span]["text"] = text
    return pa.Table.from_pylist(rows, schema=table.schema)


def test_clean_output_has_no_failures():
    expected, out = _expected_and_output()
    assert verify.count_failed(expected, out) == 0


def test_corrupted_output_counts_failures():
    import pyarrow as pa

    expected, out = _expected_and_output()
    n = len(expected)
    changed = _replace_text(out, 3, 0, "corrupted")
    dropped = out.slice(1)
    duplicated = pa.concat_tables([out, out.slice(5, 1)])
    for bad, n_bad in ((changed, 1), (dropped, 1), (duplicated, 1)):
        failed = verify.count_failed(expected, bad)
        assert failed == n_bad
        assert failed / n > 0
    all_three = pa.concat_tables([changed.slice(1), out.slice(5, 1)])
    assert verify.count_failed(expected, all_three) == 3


def test_pinned_digest_checker():
    tables = _tables("mixed_resume")
    outs, _ = run.run_in_process(tables, "mixed_resume")
    digest = verify.corpus_digest(verify.doc_digests(outs))
    out = outs[0]
    checker = run.Checker(tables, "mixed_resume", digest)
    assert checker.failed(out) == 0
    assert checker.failed(_replace_text(out, 0, 0, "x")) == 1
    drifted = run.Checker(tables, "mixed_resume", "0" * 64)
    assert drifted.failed(out) == 20


@pytest.mark.parametrize("trace", [0, 1])
def test_a_job_that_always_raises_still_reports(monkeypatch, capsys, trace):
    """An engine that raises on every document, from the untimed warm-up
    on, still ends the run with a result line: every document attempted
    has failed and every metric is present.  The Ray session is replaced
    by in-process jobs so that the patched engine is the one they run."""
    import pyarrow.parquet as pq
    from ray_script_extract.stages import extract

    def broken(batch):
        raise RuntimeError("engine failure")

    def job(in_dir: str, out_dir: str) -> None:
        for path in sorted(Path(in_dir).glob("*.parquet")):
            extract.extract_batch(pq.read_table(path))

    monkeypatch.setattr(extract, "extract_batch", broken)
    monkeypatch.setattr(run, "ray_up", lambda num_cpus: 1.0)
    monkeypatch.setattr(run, "ray_down", lambda: None)
    monkeypatch.setattr(run, "extraction_job", lambda workload: job)
    monkeypatch.setattr(run, "floor_job", job)
    assert run.main(["--workload", "html_plays", "--seed", "3",
                     "--seconds", "1", "--trace", str(trace),
                     "--docs", "20"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 20
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}


def test_exits_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "pdf_raw", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
