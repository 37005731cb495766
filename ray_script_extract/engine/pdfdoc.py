"""PDF document extraction entry points (page-XML path and native path).

``extract_pdf_xml_document`` consumes a list of pdftohtml-style
``<page>`` XML strings (one per page, in order) and runs the full
line-assembly + block-classification engine — the semantics of
`/root/reference/src/parser/analyzer/ParseText.php` re-expressed in
Python.  ``extract_pdf_raw_document`` runs the native PDF front-end,
whose typed page records (``pdfnative.pdf_page_records``) go straight
into the same line assembly: a raw PDF is never serialized to XML.
"""

from __future__ import annotations

from typing import List

from .objects import ScriptObject


def extract_pdf_xml_document(pages: List[str]) -> List[ScriptObject]:
    from .parse_text import parse_pages_xml

    return parse_pages_xml(pages)


def extract_pdf_raw_document(pdf_data: str) -> List[ScriptObject]:
    """``pdf_data`` is base64 (text column) of a native PDF."""
    return extract_pdf_raw_document_with_media(pdf_data)[0]


def extract_pdf_raw_document_with_media(pdf_data: str):
    """(ScriptObjects, per-page media-ref lists) — the media half
    feeds interleaved ``image`` spans (content-addressed refs for
    page image XObjects; the reference's pdftohtml text path drops
    images, SURVEY §1.2, so this is new-capability tier)."""
    import base64

    from ..sources.pdfnative import pdf_page_records
    from .parse_text import parse_page_records_full

    pages, media = pdf_page_records(base64.b64decode(pdf_data))
    return parse_page_records_full(pages)[0], media


def fixup_title_page(objects: List[ScriptObject]) -> None:
    """Title-page cleanup (Parser.php:92-107): strip chr(1..8)
    formatting marks from Title/Author; blank generic Final Draft
    placeholders."""
    from ..functions.textutil import strip_format_marks

    for obj in objects:
        if obj.type in ("Title", "Author"):
            content = strip_format_marks(obj.content)
            if obj.type == "Title" and content.lower() == "script title":
                content = ""
            if obj.type == "Author" and content.lower() == "name of first writer":
                content = ""
            obj.set_content(content)


def convert_pdf_xml_document(pages: List[str], output: str = "json"):
    """Full conversion parity with `Parser::parse` + writers: extract,
    title cleanup, then Fountain text or the WD-JSON document (with
    revisions + lineNumbers post-passes)."""
    from .parse_text import parse_pages_xml_full

    return _convert(*parse_pages_xml_full(pages), output)


def convert_pdf_raw_document(raw: bytes, output: str = "json"):
    """``convert_pdf_xml_document`` for native PDF bytes, through the
    typed page records (no XML)."""
    from ..sources.pdfnative import pdf_page_records
    from .parse_text import parse_page_records_full

    return _convert(*parse_page_records_full(pdf_page_records(raw)[0]),
                    output)


def _convert(objects: List[ScriptObject], state, output: str):
    from ..engine.postpass import parse_line_numbers, parse_revisions
    from ..sources.writers import write_fountain, write_wd_json

    fixup_title_page(objects)
    if output == "fountain":
        return write_fountain(objects)
    revisions = parse_revisions(objects, state.colors)
    line_numbers = parse_line_numbers(objects)
    return write_wd_json(
        objects, state.header_objects, state.footer_objects, revisions,
        line_numbers, state.page_size,
        scene_continued={"top": state.scene_continued_top,
                         "bottom": state.scene_continued_bottom,
                         "number": state.scene_continued_number})
