"""Pure string helpers shared by all extraction paths.

Semantics re-derived from the reference's utility layer
(`/root/reference/src/parser/UniversalUtilities.php:17-42,140-143`,
`/root/reference/src/parser/analyzer/Objects.php:3-25`); the exact
behaviors (case-fold comparison, blank-class collapse) are the spec.
"""

from __future__ import annotations

import re

# PHP's [[:blank:]] is space + tab only (NOT \n\r); reduce_spaces
# collapses blank runs to a single space (UniversalUtilities.php:140-143).
_BLANK_RUN = re.compile(r"[ \t]+")
# The shakespeare reader collapses blanks AND newlines (ParseShakespeare.php:35).
_BLANK_NL_RUN = re.compile(r"[ \t\r\n]+")
# compress_spaces uses \s+ but only on the PDF path (Objects.php:3-10).
_WS_RUN = re.compile(r"\s+")

# chr(15)..chr(30) are inline color markers (Objects.php:12-18).
_COLOR_MARKS = re.compile("[" + "".join(chr(i) for i in range(15, 31)) + "]")
# chr(1)..chr(8) are bold/italic/underline/strike markers (Parser.php:96-100).
_FORMAT_MARKS = re.compile("[" + "".join(chr(i) for i in range(1, 9)) + "]")


def reduce_spaces(s: str) -> str:
    """Collapse runs of spaces/tabs to a single space."""
    return _BLANK_RUN.sub(" ", s)


def collapse_blanks_and_newlines(s: str) -> str:
    """trim + collapse [blank\\r\\n]+ to one space (shakespeare reader)."""
    return _BLANK_NL_RUN.sub(" ", s.strip())


def compress_spaces(s: str, pdf_path: bool) -> str:
    """\\s+ -> ' ' on the PDF path only; identity elsewhere."""
    return _WS_RUN.sub(" ", s) if pdf_path else s


def strip_color_formatting(s: str) -> str:
    return _COLOR_MARKS.sub("", s)


def strip_format_marks(s: str) -> str:
    return _FORMAT_MARKS.sub("", s)


def is_prefix(s: str, prefix: str, case_sensitive: bool = True) -> bool:
    a = s[: len(prefix)]
    return a == prefix if case_sensitive else a.lower() == prefix.lower()


def is_suffix(s: str, suffix: str, case_sensitive: bool = True) -> bool:
    a = s[-len(suffix):] if suffix else ""
    return a == suffix if case_sensitive else a.lower() == suffix.lower()


def is_uppercase(s: str) -> bool:
    """True iff uppercasing the string leaves it unchanged (so digits,
    punctuation and empty strings count as uppercase)."""
    return s.upper() == s
