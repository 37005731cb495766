"""Classification predicate library.

Behavioral spec re-derived from the reference's predicate file
(`/root/reference/src/parser/analyzer/LooksLike.php:1-188`).  Every
regex below is the published classification rule; all predicates are
pure ``str -> bool`` and precompiled at import (warm state for the
extraction actors).
"""

from __future__ import annotations

import re
from typing import Sequence

from .textutil import is_uppercase

_TRANSITION_RES = [
    re.compile(r"^FADE (IN|OUT|TO)"),
    re.compile(r"^(JUMP |SLOW |WHIP )?(CUT|DISSOLVE|WIPE|PAN|PULL BACK) TO"),
    re.compile(r"^(SMASH|SLAM) TO"),
    re.compile(r"^(SMASH|SLAM) CUT"),
    re.compile(r"^MUSIC BEGINS[:]?$"),
    re.compile(r"^TRANSITION[.]?$"),
]


def looks_like_transition(s: str) -> bool:
    if not is_uppercase(s):
        return False
    return any(r.search(s) for r in _TRANSITION_RES)


_TIMES_OF_DAY = ("DAY", "EVENING", "LATER", "MOMENTS LATER", "MORNING",
                 "NIGHT", "SUNSET", "DAWN")
_SCENEHEAD_RES = [
    re.compile(r"^(IN|EX)TERIOR"),
    re.compile(r"^(INT|EXT|I/E)[ ./]"),
    re.compile(r"[^A-Za-z]CONTINUOUS$"),
] + [re.compile(r"[^A-Za-z]" + t + r"$") for t in _TIMES_OF_DAY]


def looks_like_sceneheading(s: str) -> bool:
    return any(r.search(s) for r in _SCENEHEAD_RES)


_SLUG_EXTRA_RES = [
    re.compile(r"^TITLE CARD"),
    re.compile(r"^SERIES OF SHOTS"),
    re.compile(r"^MONTAGE"),
    re.compile(r"^SUPER:"),
]


def looks_like_slugline(s: str) -> bool:
    if not is_uppercase(s):
        return False
    if looks_like_sceneheading(s):
        return True
    return any(r.search(s) for r in _SLUG_EXTRA_RES)


_SERIES_MONTAGE_RES = [re.compile(r"^SERIES OF SHOTS"), re.compile(r"^MONTAGE")]


def looks_like_series_or_montage_slugline(s: str) -> bool:
    return any(r.search(s) for r in _SERIES_MONTAGE_RES)


def looks_like_slugline_or_transition(s: str) -> bool:
    return looks_like_slugline(s) or looks_like_transition(s)


_VO_OS_RES = [
    re.compile(r"^m\. ?o\. ?s\.?$", re.I),
    re.compile(r"^mos$", re.I),
    re.compile(r"^vo$", re.I),
    re.compile(r"^v\. ?o\.?$", re.I),
    re.compile(r"^os$", re.I),
    re.compile(r"^o\. ?s\.?$", re.I),
    re.compile(r"^off[- ]?screen$", re.I),
]


def looks_like_vo_or_os(s: str) -> bool:
    return any(r.search(s) for r in _VO_OS_RES)


def looks_like_parenthetical(s: str) -> bool:
    return bool(s) and s[0] == "(" and s[-1] == ")" and not looks_like_vo_or_os(s)


_VO_OS_NOTATION_RES = [
    re.compile(r"\(vo\)", re.I),
    re.compile(r"\(os\)", re.I),
    re.compile(r"\(oc\)", re.I),
    re.compile(r"\(v\. ?o.*\)", re.I),
    re.compile(r"\(o\. ?s.*\)", re.I),
    re.compile(r"\(o\. ?c.*\)", re.I),
    re.compile(r"\(off[- ]?screen.*\)", re.I),
]


def contains_vo_os_notation(s: str) -> bool:
    return any(r.search(s) for r in _VO_OS_NOTATION_RES)


_VO_OS_TRAILING_RES = [
    re.compile(r" vo$", re.I),
    re.compile(r" os$", re.I),
    re.compile(r" oc$", re.I),
    re.compile(r" v\. ?o.$", re.I),
    re.compile(r" o\. ?s.$", re.I),
    re.compile(r" o\. ?c.$", re.I),
]


def contains_vo_os(s: str) -> bool:
    return any(r.search(s) for r in _VO_OS_TRAILING_RES)


_EMPHATIC_END = re.compile(r"[-!?.;…]$")


def looks_like_character(s: str) -> bool:
    if s[:1] == "(":
        return False
    if contains_vo_os_notation(s):
        return True
    if _EMPHATIC_END.search(s) and not contains_vo_os(s):
        return False
    max_spaces = 6 if is_uppercase(s) else 3
    return s.count(" ") < max_spaces


_THE_END_RES = [
    re.compile(r"^T(HE|he) E(ND|nd)[.!?]?"),
    re.compile(r"^END( AND CREDITS)?[.]?$"),
]


def looks_like_the_end(s: str) -> bool:
    return s == "(END)" or any(r.search(s) for r in _THE_END_RES)


_PAGE_NUM_RES = [re.compile(r"^[0-9]+[A-Z]?\.?$"), re.compile(r"^\([0-9]+[A-Z]?\.?\)$")]


def looks_like_page_number(s: str) -> bool:
    return any(r.search(s) for r in _PAGE_NUM_RES)


_SCENE_NUM_RE = re.compile(r"^[0-9]+[A-Z]?\.?$")


def looks_like_scene_number(s: str) -> bool:
    return bool(_SCENE_NUM_RE.search(s))


_HRULE_RE = re.compile(r"^[-]*$")


def looks_like_hrule(s: str) -> bool:
    # NOTE: byte length in the reference; ASCII '-' so char length is equal.
    return len(s) > 10 and bool(_HRULE_RE.search(s))


def looks_like_changebar(lines: Sequence[str]) -> bool:
    if not lines or lines[0] != "*":
        return False
    return all(line == "*" for line in lines)


_ZIP_RE = re.compile(r"[A-Z][A-Z],? [0-9]{5}(, USA)?$")
_PHONE_RE = re.compile(r"[^0-9][0-9]{3}[-.][0-9]{3}[-.][0-9]{4}[^0-9]")
# _PHONE_RE without its edges: a line it misses has no phone number, and
# the regex engine skips to digits for it, where _PHONE_RE tries every
# position
_PHONE_DIGITS_RE = re.compile(r"[0-9]{3}[-.][0-9]{3}[-.][0-9]{4}")


def looks_like_contact_info(lines: Sequence[str]) -> bool:
    for line in lines:
        if _ZIP_RE.search(line) or (_PHONE_DIGITS_RE.search(line)
                                    and _PHONE_RE.search(line)):
            return True
    return False


_DATE_RES = [
    re.compile(r"^(.*[^0-9])?[0-9]?[0-9][-./][0-9]?[0-9][-./][0-9][0-9]([^0-9].*)?$"),
    re.compile(r"^(.*[^0-9])?[0-9]?[0-9][-./][0-9]?[0-9][-./](19|20)[0-9][0-9]([^0-9].*)?$"),
    re.compile(r"^(.*[^0-9])?(19|20)[0-9][0-9][-./][0-9]?[0-9][-./][0-9]?[0-9]([^0-9].*)?$"),
]


def contains_date(s: str) -> bool:
    return any(r.search(s) for r in _DATE_RES)


# ---------------------------------------------------------------------------
# Bounded per-process memo on the pure str->bool predicates: the block
# engine re-evaluates the same line across classification passes (and
# corpora repeat transitions/headers across docs) — measured 65% of
# all predicate calls are repeats on the pdf-heavy mix.  lru_cache is
# BOUNDED so long-lived Ray workers never grow a vocabulary-sized
# cache (same discipline as bpe._ENCODE_MEMO).  Sequence-arg
# predicates (changebar/contact_info) stay unwrapped.
# ---------------------------------------------------------------------------
from functools import lru_cache  # noqa: E402

_MEMO_PREDICATES = (
    "looks_like_transition", "looks_like_sceneheading",
    "looks_like_slugline", "looks_like_series_or_montage_slugline",
    "looks_like_slugline_or_transition", "looks_like_vo_or_os",
    "looks_like_parenthetical", "contains_vo_os_notation",
    "contains_vo_os", "looks_like_character", "looks_like_the_end",
    "looks_like_page_number", "looks_like_scene_number",
    "looks_like_hrule", "contains_date",
)
for _name in _MEMO_PREDICATES:
    globals()[_name] = lru_cache(maxsize=1 << 16)(globals()[_name])
del _name
