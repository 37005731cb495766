"""The extract stage's columnar sink, its collector pause, its size guard
on every driver, and what importing a stage costs a Ray worker."""

from __future__ import annotations

import base64
import gc
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ray_script_extract.corpus import make_doc
from ray_script_extract.schema import DOC_SCHEMA, SPAN_STRUCT
from ray_script_extract.sources.pdf_fixtures import build_pdf
from ray_script_extract.stages.extract import ExtractorActor
from ray_script_extract.stages.sizebucket import add_size_stats

OVER_LIMIT = ExtractorActor.MAX_DOC_BYTES + 1


def _dict_build(actor: ExtractorActor, batch: pa.Table) -> pa.Table:
    """The build the sink replaced: one dict per span, one ``pa.array``
    over all of them."""
    docs = batch.column("spans").to_pylist()
    sizes = [sum(len((s["text"] or "").encode()) for s in spans or [])
             for spans in docs]
    out = []
    for doc_id, spans, size in zip(batch.column("doc_id").to_pylist(),
                                   docs, sizes):
        records = ([] if size > actor.MAX_DOC_BYTES
                   else actor.extract_doc(doc_id, spans or []))
        out.append([{"kind": k, "text": t, "media_ref": r, "offset": i}
                    for i, (k, t, r) in enumerate(records)])
    return pa.table({
        "doc_id": pa.array(batch.column("doc_id").to_pylist(), pa.string()),
        "spans": pa.array(out, pa.list_(SPAN_STRUCT)),
        "n_spans": pa.array([len(s) for s in out], pa.int64()),
    })


FILLER = [f"Filler action line {k} with plenty of words to exceed the caps."
          for k in range(10)]


def _pdf_with_images(title_page: bool = False) -> str:
    """Three pages, two images on page 1 and one on page 3; page 1 is a
    title page or a page of script."""
    image = {"data": b"\xff\xd8fake-jpeg", "w": 32, "h": 16, "x": 72,
             "y": 600, "dw": 64, "dh": 32}
    filler = [(96 + 24 * k, 108, line) for k, line in enumerate(FILLER)]
    page1 = ([(300, 250, "THE LAB"), (336, 230, "Written by A. Writer")]
             if title_page else [(72, 108, "INT. LAB - NIGHT")] + filler)
    pdf = build_pdf([page1,
                     [(72, 108, "EXT. STREET - DAY")] + filler,
                     [(72, 108, "INT. CAR - DAY")]],
                    images=[[image, dict(image, x=200)], [],
                            [dict(image, data=b"\xff\xd8other")]])
    return base64.b64encode(pdf).decode()


def _span(kind, text=None, media_ref=None, offset=0):
    return {"kind": kind, "text": text, "media_ref": media_ref,
            "offset": offset}


CASES = {
    "empty": [("d0", [])],
    "null_spans": [("d0", None), ("d1", [_span("text", "after a null")])],
    "over_limit": [("d0", [_span("text", "before")]),
                   ("d1", [_span("text", "x" * OVER_LIMIT)]),
                   ("d2", [_span("text", "after")])],
    "unknown_kinds": [("d0", [_span("weird", "kept as Text"),
                              _span("weird"), _span("image"),
                              _span("media", media_ref="vid://1"),
                              _span("text")])],
    "pdf_raw_images": [("d0", [_span("text", "cover note"),
                               _span("pdf_raw", _pdf_with_images()),
                               _span("image", media_ref="img://tail")])],
    "pdf_raw_title_images": [("d0", [
        _span("pdf_raw", _pdf_with_images(title_page=True))])],
    "corpus": [(d["doc_id"], d["spans"])
               for d in (make_doc(3, i, "small") for i in range(12))],
}


def _table(rows) -> pa.Table:
    return pa.Table.from_pylist(
        [{"doc_id": doc_id, "spans": spans} for doc_id, spans in rows],
        schema=DOC_SCHEMA)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("with_doc_bytes", [False, True])
def test_sink_equals_the_dict_build(case, with_doc_bytes):
    batch = _table(CASES[case])
    if with_doc_bytes:
        batch = add_size_stats(batch)
    actor = ExtractorActor()
    got = actor(batch)
    expected = _dict_build(actor, batch)
    assert got.schema == expected.schema
    assert got.equals(expected)


def _kinds_and_texts(case: str) -> list:
    spans = ExtractorActor()(_table(CASES[case])).column("spans").to_pylist()
    return [(span["kind"], span["text"]) for span in spans[0]]


def test_page_images_follow_their_page():
    """Each page's images come right after the text that starts on that
    page, whether or not page 1 is a title page; the input's own image
    span stays last."""
    image = ("image", "32x16")
    page2 = [("Scene", "EXT. STREET - DAY")] + [("Action", line)
                                                for line in FILLER]
    page3 = [("Scene", "INT. CAR - DAY"), image]
    assert _kinds_and_texts("pdf_raw_images") == (
        [("Text", "cover note"), ("Scene", "INT. LAB - NIGHT")]
        + [("Action", line) for line in FILLER] + [image, image]
        + page2 + page3 + [("image", "")])
    blank = ("Text", "")
    title_page = ([blank] * 19 + [("Title", "THE LAB"), blank, blank,
                                  ("Text", "Written by"),
                                  ("Author", "A. Writer")])
    assert _kinds_and_texts("pdf_raw_title_images") == (
        title_page + [image, image] + page2 + page3)


def test_sink_cases_are_not_vacuous():
    actor = ExtractorActor()
    over = actor(_table(CASES["over_limit"]))
    assert over.column("n_spans").to_pylist() == [1, 0, 1]
    nulls = actor(_table(CASES["unknown_kinds"])).column("spans").to_pylist()
    assert [(s["kind"], s["text"], s["media_ref"]) for s in nulls[0]] == [
        ("Text", "kept as Text", ""), ("Text", None, ""),
        ("image", "", None), ("media", "", "vid://1"), ("Text", None, "")]
    empty = actor(_table([]))
    assert empty.num_rows == 0 and empty.schema == over.schema


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_waits_out_the_batch(monkeypatch, enabled):
    """No collection runs while documents are extracted, and the
    collector's state is back as it was after the batch."""
    seen = []
    original = ExtractorActor.extract_doc

    def extract_doc(self, doc_id, spans):
        seen.append(gc.isenabled())
        return original(self, doc_id, spans)

    monkeypatch.setattr(ExtractorActor, "extract_doc", extract_doc)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        ExtractorActor()(_table(CASES["corpus"]))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * len(CASES["corpus"])


def test_oversized_doc_rejected_on_the_resumable_dir_path(ray_session,
                                                          tmp_path):
    """``cli extract`` over a directory goes through no size-stats
    stage: the stage itself must size the documents."""
    from ray_script_extract.stages.lineage import run_resumable_extract_dir

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rows = [(d["doc_id"], d["spans"])
            for d in (make_doc(5, i, "small") for i in range(4))]
    rows.insert(2, ("doc-big", [_span("text", "y" * OVER_LIMIT)]))
    pq.write_table(_table(rows), corpus / "shard-00000.parquet")
    summary = run_resumable_extract_dir(str(corpus), str(tmp_path / "out"))
    assert summary["rows_written"] == 5
    (part,) = [p for p in (tmp_path / "out").iterdir()
               if p.name.startswith("part-")]
    got = pq.read_table(part / "data.parquet")
    n_spans = dict(zip(got.column("doc_id").to_pylist(),
                       got.column("n_spans").to_pylist()))
    assert n_spans["doc-big"] == 0
    neighbours = ExtractorActor()(_table(rows[:2] + rows[3:]))
    keep = [i for i, doc_id in enumerate(got.column("doc_id").to_pylist())
            if doc_id != "doc-big"]
    assert got.take(keep).equals(neighbours)


def _fresh_python(code: str) -> str:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout.strip()


def test_stage_import_leaves_ray_data_and_pandas_out():
    out = _fresh_python(
        "import sys\n"
        "import ray_script_extract.stages.extract\n"
        "import ray_script_extract.stages.lineage\n"
        "print(sorted(m for m in ('ray.data', 'pandas') if m in sys.modules))")
    assert out == "[]"


def test_read_floor_applies_after_importing_pipelines():
    out = _fresh_python(
        "import os\n"
        "import ray_script_extract.pipelines\n"
        "from ray.data.context import DataContext\n"
        "floor = max(2 * (os.cpu_count() or 8), 16)\n"
        "print(DataContext.get_current().read_op_min_num_blocks"
        " <= min(floor, 200))")
    assert out == "True"
