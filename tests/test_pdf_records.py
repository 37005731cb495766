"""The PDF extract path reads ``(kind, text, page)`` records projected
from the block engine's output and builds no ScriptObject; the writers'
ScriptObjects come from the same items.

Both PDF input kinds are held to it: ``pdf_raw`` through
``extract_pdf_raw_document_with_media`` and ``pdf_page_xml`` through
``extract_pdf_xml_document``.  Every record equals its object's JSON
type name and content, on every PDF the suite builds and on generated
corpora of three seeds, and each record sits on the physical page its
first line is on.
"""

from __future__ import annotations

import base64

import pytest

from ray_script_extract.corpus import make_doc, size_class_for
from ray_script_extract.engine.objects import ScriptObject, json_type_name
from ray_script_extract.engine.parse_text import parse_pages_xml
from ray_script_extract.engine.pdfdoc import (
    extract_pdf_raw_document_with_media, extract_pdf_xml_document)
from ray_script_extract.sources.pdf_fixtures import build_pdf
from ray_script_extract.sources.pdfnative import pdf_to_page_xml
from ray_script_extract.stages.extract import ExtractorActor
from tests.test_pdf_convert_golden import CASES, _ranges_pdf


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _held_to_objects(script) -> list:
    """The script's records, after checking them against its objects."""
    records = script.records()
    assert [(kind, text) for kind, text, _ in records] == [
        (json_type_name(o.type), o.content) for o in script]
    pages = [page for _, _, page in records]
    assert pages == sorted(pages) and all(page >= 1 for page in pages)
    return records


@pytest.mark.parametrize("name,raw", CASES, ids=[name for name, _ in CASES])
def test_records_equal_objects_on_every_pdf(name, raw):
    script, media = extract_pdf_raw_document_with_media(_b64(raw))
    records = _held_to_objects(script)
    assert all(page <= len(media) for _, _, page in records)
    pages = pdf_to_page_xml(raw)
    assert [(kind, text) for kind, text, _ in records] == [
        (kind, text) for kind, text, _ in extract_pdf_xml_document(pages)]
    _held_to_objects(parse_pages_xml(pages))


def test_records_cover_the_engine_special_cases():
    """The ranges PDF has a title page with a "by" split, a Dialog
    carried across a page break, a Contact Info block and dual
    dialogue; a one-page document gives nothing (the form-feed
    quirk)."""
    script, _ = extract_pdf_raw_document_with_media(_b64(_ranges_pdf()))
    records = [r for r in _held_to_objects(script) if r[1]]
    assert records[:3] == [("Title", "THE RANGES", 1),
                           ("Text", "Written by", 1),
                           ("Author", "A. Writer", 1)]
    assert ("Text", "Call 555-123-4567 for the keys,", 2) in records
    assert ("Text", "Springfield IL 62704", 2) in records
    assert ("Character", "ANN", 2) in records
    assert ("Character", "BOB", 2) in records
    # the merged Dialog sits on the page of its first line
    assert ("Dialogue", "We keep going until the bottom of the page and "
            "then you follow me.", 2) in records
    assert records[-1] == ("Action", "An older blue change surviving here.",
                           3)
    one_page, _ = extract_pdf_raw_document_with_media(_b64(build_pdf(
        [[(72 + 12 * k, 108, f"Line {k} of a lone page.")
          for k in range(40)]])))
    assert one_page.records() == [] and list(one_page) == []


def _corpus_docs(seed: int, mix: str, n: int = 300):
    for index in range(n):
        yield make_doc(seed, index, size_class_for(index), mix=mix)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_records_equal_objects_on_generated_corpora(seed):
    raw_docs = xml_docs = 0
    for mix in ("pdf_heavy", "default"):
        for doc in _corpus_docs(seed, mix):
            pages = [s["text"] for s in doc["spans"]
                     if s["kind"] == "pdf_page_xml"]
            if pages:
                xml_docs += 1
                _held_to_objects(parse_pages_xml(pages))
            for span in doc["spans"]:
                if span["kind"] == "pdf_raw":
                    raw_docs += 1
                    _held_to_objects(
                        extract_pdf_raw_document_with_media(span["text"])[0])
    assert raw_docs > 100 and xml_docs > 100


def test_extract_path_builds_no_script_objects(monkeypatch):
    raw = _ranges_pdf()
    doc = [{"kind": "pdf_raw", "text": _b64(raw), "media_ref": ""},
           *({"kind": "pdf_page_xml", "text": page, "media_ref": ""}
             for page in pdf_to_page_xml(raw))]
    expected = ExtractorActor().extract_doc("d", doc)

    def refuse(*args, **kwargs):
        raise AssertionError("ScriptObject built on the PDF extract path")

    monkeypatch.setattr(ScriptObject, "__init__", refuse)
    got = ExtractorActor().extract_doc("d", doc)
    monkeypatch.undo()
    assert got == expected and len(got) > 40
    script, _ = extract_pdf_raw_document_with_media(_b64(raw))
    records = [(kind, text, "") for kind, text, _ in script.records()]
    assert got == records + records
