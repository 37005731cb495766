"""The output record of the extraction engine: a typed, ordered span.

Behavioral spec re-derived from the reference's ScriptObject
(`/root/reference/src/parser/analyzer/Objects.php:27-253`): closed type
set with coercion to Text, inline color-marker stripping, PDF-path-only
space compression, and the JSON type-name mapping
(Dialog→Dialogue, Slugline→Scene, Paren→Parens, Act→New Act).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..functions.textutil import compress_spaces, strip_color_formatting

VALID_TYPES = frozenset({
    "Text", "Slugline", "Act", "Action", "Character", "Dialog", "Paren",
    "Transition", "Shot", "The End", "Page Header", "Title", "Author",
    "Fly Page Text",
})

_JSON_TYPE = {
    "Dialog": "Dialogue",
    "Slugline": "Scene",
    "Paren": "Parens",
    "Act": "New Act",
}


_TYPE_OF_JSON = {v: k for k, v in _JSON_TYPE.items()}


def json_type_name(t: str) -> str:
    return _JSON_TYPE.get(t, t)


def internal_type_name(json_name: str) -> str:
    """Inverse of ``json_type_name``."""
    return _TYPE_OF_JSON.get(json_name, json_name)


class ScriptObject:
    """One typed span of the extracted document, in reading order."""

    __slots__ = ("type", "content", "page_num", "given_page_num", "colors",
                 "num_lines", "has_dual_line", "is_dual_line", "attributes",
                 "_pdf_path")

    def __init__(self, type_: str, content: str, page_num: int,
                 given_page_num: Any, colors: Optional[Dict] = None,
                 font_size: Any = 16, text_attributes: Optional[Dict] = None,
                 number_object: Optional[Dict] = None,
                 pdf_path: bool = False) -> None:
        if type_ not in VALID_TYPES:
            type_ = "Text"
        self.type = type_
        self._pdf_path = pdf_path
        self.content = compress_spaces(strip_color_formatting(content), pdf_path)
        self.page_num = page_num
        self.given_page_num = given_page_num
        self.num_lines = 1
        self.has_dual_line = False
        self.is_dual_line = False
        self.colors = colors if colors is not None else {}
        self.attributes: Dict[str, Any] = {
            "fontSize": font_size,
            "textAttributes": text_attributes if text_attributes is not None else {},
            "numberObject": number_object if number_object is not None else {},
        }

    # -- accessors mirroring the reference's surface -------------------
    def get_type_json(self) -> str:
        return json_type_name(self.type)

    def set_content(self, c: str) -> None:
        self.content = compress_spaces(c, self._pdf_path)

    def get_color_ids(self) -> List:
        return list(self.colors.keys())

    def get_attribute(self, name: str) -> Any:
        return self.attributes.get(name)

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def get_font_size(self) -> Any:
        return self.attributes.get("fontSize", 16)

    def add_revision(self, weight_num: int, instance: Dict) -> None:
        self.attributes.setdefault("revisions", {}).setdefault(weight_num, []).append(instance)

    def merged_ranges(self, own: Dict, other: Dict, offset: int) -> Dict:
        """Concatenate {id: [{start,end}...]} range maps, shifting the
        other side by ``offset`` (Objects.php:211-224)."""
        merged = {k: list(v) for k, v in own.items()}
        for attr_id, entries in other.items():
            for e in entries:
                merged.setdefault(attr_id, []).append(
                    {"start": e["start"] + offset, "end": e["end"] + offset})
        return merged

    def __repr__(self) -> str:  # debug only
        return f"<{self.type} {self.content[:40]!r} p{self.page_num}>"
