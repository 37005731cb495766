"""The acceptance rule ``tools/ab_perfbench.py`` reports from its pairs."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import ab_perfbench  # noqa: E402

METRICS = [{"name": "docs_per_s", "better": "higher", "bound": 0.25},
           {"name": "setup_s", "better": "lower", "bound": 0.25}]


def _pairs(base, change, setup=(2.0, 2.0)):
    return [{"base": {"docs_per_s": b, "setup_s": setup[0], "correct": 1.0},
             "change": {"docs_per_s": c, "setup_s": setup[1],
                        "correct": 1.0}}
            for b, c in zip(base, change)]


def test_rule_holds_with_nine_wins_and_a_gap_over_the_spread():
    base = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    change = [120, 121, 119, 122, 118, 120, 121, 95, 120, 119]
    s = ab_perfbench.summarize(_pairs(base, change), METRICS, "docs_per_s")
    row = s["docs_per_s"]
    assert row["wins"] == 9 and row["accepted"]
    assert row["change_median"] == 120 and row["base_median"] == 100
    assert s["all_correct"] and s["setup_s"]["within_bound"]


def test_rule_fails_on_eight_wins_or_a_gap_inside_the_spread():
    base = [100] * 10
    eight = [120] * 8 + [90, 90]
    assert not ab_perfbench.summarize(_pairs(base, eight), METRICS,
                                      "docs_per_s")["docs_per_s"]["accepted"]
    wide = [80, 120, 85, 115, 90, 110, 95, 105, 100, 100]
    small_gain = [b + 1 for b in wide]
    row = ab_perfbench.summarize(_pairs(wide, small_gain), METRICS,
                                 "docs_per_s")["docs_per_s"]
    assert row["wins"] == 10 and not row["accepted"]


def test_bound_is_checked_in_the_worse_direction():
    s = ab_perfbench.summarize(_pairs([100] * 4, [100] * 4, (2.0, 2.6)),
                               METRICS, "docs_per_s")
    assert s["setup_s"]["median_move"] == pytest.approx(0.3)
    assert not s["setup_s"]["within_bound"]


def test_a_pair_without_result_is_a_lost_pair():
    pairs = _pairs([100] * 20, [120] * 20)
    for i in (2, 9, 15):
        pairs[i]["base"] = {}
    row = ab_perfbench.summarize(pairs, METRICS, "docs_per_s")["docs_per_s"]
    assert row["wins"] == 17 and not row["accepted"]
    pairs = _pairs([100] * 10, [120] * 10)
    pairs[3]["change"] = {}
    s = ab_perfbench.summarize(pairs, METRICS, "docs_per_s")
    assert s["docs_per_s"]["wins"] == 9
    assert not s["all_correct"] and not s["docs_per_s"]["accepted"]


def test_an_incorrect_or_failing_change_is_not_accepted():
    base, change = [100] * 10, [120] * 10
    pairs = _pairs(base, change)
    assert ab_perfbench.summarize(pairs, METRICS,
                                  "docs_per_s")["docs_per_s"]["accepted"]
    pairs[0]["change"]["correct"] = 0.0
    s = ab_perfbench.summarize(pairs, METRICS, "docs_per_s")
    assert not s["all_correct"] and not s["docs_per_s"]["accepted"]
    pairs = _pairs(base, change)
    pairs[5]["change"]["docs_failed_frac"] = 0.01
    assert not ab_perfbench.summarize(pairs, METRICS,
                                      "docs_per_s")["docs_per_s"]["accepted"]
