"""Alternating A/B runs of ``perfbench/run.py``: a base revision against
this checkout.

    python tools/ab_perfbench.py --base HEAD~1 --workload pdf_raw --pairs 10

The base revision is checked out into a temporary ``git worktree``
(removed on exit, also after an error or Ctrl-C).  Each pair runs the
benchmark once on each side, and the side that goes first alternates
from pair to pair, so a slow spell on a shared host lands on both.
Each pair is printed as it finishes; the last stdout line is one JSON
summary: per end-to-end metric of ``BENCHMARK.json``, both sides'
medians and quartiles, the wins of this checkout, and the median's
move against its bound; for the claimed metric (``--metric``), whether
the acceptance rule holds: this checkout wins at least nine pairs in
ten (a pair where either side gave no result is lost), its median
beats the base's by more than the base's interquartile range, every
one of its runs is correct, and it fails no larger share of documents
than the base.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_side(checkout: str, args) -> Dict[str, float]:
    """One ``perfbench/run.py`` run in ``checkout``: metric -> value,
    plus ``correct`` as 1.0 or 0.0 (empty when the run gave no
    result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return {}
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out["correct"] = 1.0 if result.get("correct") else 0.0
    return out


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: List[Dict[str, Dict[str, float]]], metrics: List[Dict],
              claimed: str) -> Dict:
    summary: Dict = {"pairs": len(pairs),
                     "all_correct": all(p[s].get("correct") == 1.0
                                        for p in pairs
                                        for s in ("base", "change"))}

    def failed(side: str) -> float:
        return sum(p[side].get("docs_failed_frac", 0.0) for p in pairs)

    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        done = [p for p in pairs if name in p["base"] and name in p["change"]]
        base = [p["base"][name] for p in done]
        change = [p["change"][name] for p in done]
        if not done:
            continue
        bq, cq = quartiles(base), quartiles(change)
        wins = sum((c > b) if higher else (c < b)
                   for b, c in zip(base, change))
        move = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        worse = -move if higher else move
        row = {"base_median": bq[1], "change_median": cq[1],
               "base_quartiles": [bq[0], bq[2]],
               "change_quartiles": [cq[0], cq[2]],
               "base_iqr": bq[2] - bq[0], "wins": wins,
               "median_move": move, "bound": spec["bound"],
               "within_bound": worse <= spec["bound"]}
        if name == claimed:
            # a pair with no result on either side counts as a loss, and
            # a change that fails a run or more documents is no gain
            gap = (cq[1] - bq[1]) if higher else (bq[1] - cq[1])
            row["accepted"] = (wins * 10 >= 9 * len(pairs)
                               and gap > bq[2] - bq[0]
                               and all(p["change"].get("correct") == 1.0
                                       for p in pairs)
                               and failed("change") <= failed("base"))
        summary[name] = row
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--metric", default="docs_per_s",
                   help="the claimed end-to-end metric")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    tmp = tempfile.mkdtemp(prefix="ab_perfbench_")
    base_dir = os.path.join(tmp, "base")
    pairs: List[Dict[str, Dict[str, float]]] = []
    try:
        subprocess.run(["git", "worktree", "add", "--detach", base_dir,
                        args.base], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {side: run_side(base_dir if side == "base" else ROOT,
                                   args) for side in order}
            pairs.append(pair)
            print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
                f"{name} {pair['base'].get(name, float('nan')):.4g} -> "
                f"{pair['change'].get(name, float('nan')):.4g}"
                for name in [m["name"] for m in metrics]), flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_dir],
                       cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
    print(json.dumps(summarize(pairs, metrics, args.metric)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
