"""Layered extraction benchmark for ray-script-extract.

    python3 perfbench/run.py --workload pdf_raw --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The corpus for (workload, seed, size)
is generated with the program's own generators (``corpus.make_doc``,
``size_class_for``, ``CORPUS_MIXES``), written as 50-doc parquet shards
under ``.bench_cache/`` and reused; nothing of it is timed.

``--trace 0`` brings a Ray session sized by ``nproc`` up and down
``SETUPS`` times (``setup_s`` is the median), warms it with one
untimed job, then repeats the workload's real extraction job on fresh
output directories until ``--seconds`` of job time have been measured:
``docs_per_s`` is the median over those jobs.  Every job's output, the
warm-up's too, is read back after its timer stops and checked document
by document.  A job that raises counts all of its documents as failed,
and the run still prints its result.

``--trace 1`` adds a single-process traced run over the same documents
(see ``layers.py``) and reports the per-layer split instead.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``;
lines before it repeat each metric for humans.  Exits non-zero without a
result when the checkout holds no ``ray_script_extract`` package.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache"
WORK = ROOT / ".bench_work"

# workload -> (CORPUS_MIXES key, input span kind every doc must carry,
# default corpus size).  Sizes make one job about 1.5 s on one CPU, so
# a 10 s run takes the median of six or seven jobs: on a shared host the
# speed of one job varies by +-15%, far more than the fixed cost of a job.
WORKLOADS: Dict[str, Tuple[str, Optional[str], int]] = {
    "pdf_raw": ("pdf_heavy", "pdf_raw", 200),
    "html_plays": ("default", "html", 400),
    "mixed_resume": ("default", None, 300),
}
# size_class_for's shares; a 60-act "large" doc costs ~60 small ones
SIZE_SHARES = {"small": 0.90, "medium": 0.09, "large": 0.01}
PRIMARY_KINDS = ("html", "pdf_page_xml", "pdf_raw", "text")
DOCS_PER_SHARD = 50
BATCH_SIZE = 32  # build_extract_pipeline's default batch size
SETUPS = 5
SHIPPED_SEED = 0
OBJECT_STORE_BYTES = 512 * 2**20

# end-to-end metrics with their units
E2E = {"docs_per_s": "docs/s", "setup_s": "s", "worker_peak_rss_mib": "MiB"}
TRACE_ROUNDS = 2
FLOOR_RUNS = 3


def import_program():
    """Import the package under test from this checkout, never from
    anywhere else on the path."""
    if not (ROOT / "ray_script_extract" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ray_script_extract package under {ROOT}")
    sys.path.insert(0, str(ROOT))
    import ray_script_extract

    if Path(ray_script_extract.__file__).resolve().parent.parent != ROOT:
        sys.exit("perfbench: ray_script_extract imported from "
                 f"{ray_script_extract.__file__}, not from {ROOT}")
    # Ray workers inherit the raylet's environment: hand them the same
    # package explicitly instead of relying on the current directory.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    # the CLI's production malloc settings, inherited by every worker
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", "1073741824")
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "1073741824")


# -- corpus ------------------------------------------------------------

def _largest_remainder(total: int, shares: Dict) -> Dict:
    raw = {key: total * share for key, share in shares.items()}
    out = {key: int(v) for key, v in raw.items()}
    for key in sorted(raw, key=lambda k: out[k] - raw[k])[
            :total - sum(out.values())]:
        out[key] += 1
    return out


def corpus_quotas(workload: str, docs: int) -> Dict[Tuple[str, str], int]:
    """Documents wanted per (primary input kind, size class).

    The shares are the generators' own (``size_class_for`` and the
    ``CORPUS_MIXES`` kind rolls), rounded once per corpus: first the size
    classes, then the kinds within each.  Drawing them freely would let
    the number of 60-act outliers, and with it the work in a corpus,
    vary from seed to seed.
    """
    from ray_script_extract.corpus import CORPUS_MIXES

    mix, kind, _ = WORKLOADS[workload]
    t_html, t_xml, t_pdf = CORPUS_MIXES[mix]
    kind_shares = ({kind: 1.0} if kind else dict(zip(
        PRIMARY_KINDS, (t_html, t_xml - t_html, t_pdf - t_xml, 1 - t_pdf))))
    quotas = {}
    for size, n in _largest_remainder(docs, SIZE_SHARES).items():
        for k, q in _largest_remainder(n, kind_shares).items():
            quotas[(k, size)] = q
    return quotas


def build_corpus(workload: str, seed: int, docs: int) -> List[str]:
    """Shard paths of the (workload, seed, docs) corpus, generated once
    and then reused from the cache.  Documents are ``make_doc(seed, i,
    size_class_for(i), mix)`` for ascending ``i``, kept while their
    (kind, size class) quota is open."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ray_script_extract.corpus import make_doc, size_class_for
    from ray_script_extract.schema import DOC_SCHEMA

    out = CACHE / f"{workload}-seed{seed}-docs{docs}"
    if not out.is_dir():
        mix = WORKLOADS[workload][0]
        open_cells = {c: n for c, n in corpus_quotas(workload, docs).items()
                      if n}
        rows: List[Dict] = []
        index = -1
        while open_cells:
            index += 1
            size = size_class_for(index)
            if not any(s == size for _, s in open_cells):
                continue
            doc = make_doc(seed, index, size, mix=mix)
            kind = next(s["kind"] for s in doc["spans"]
                        if s["kind"] in PRIMARY_KINDS)
            if open_cells.get((kind, size)):
                rows.append(doc)
                open_cells[(kind, size)] -= 1
                if not open_cells[(kind, size)]:
                    del open_cells[(kind, size)]
        tmp = CACHE / f".{out.name}.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        for start in range(0, docs, DOCS_PER_SHARD):
            pq.write_table(
                pa.Table.from_pylist(rows[start:start + DOCS_PER_SHARD],
                                     schema=DOC_SCHEMA),
                tmp / f"shard-{start // DOCS_PER_SHARD:05d}.parquet")
        try:
            tmp.rename(out)
        except OSError:  # another run finished the same corpus first
            shutil.rmtree(tmp, ignore_errors=True)
    return sorted(str(p) for p in out.glob("shard-*.parquet"))


# -- single-process run ------------------------------------------------

def run_in_process(tables, workload: str,
                   lineage_dir: Optional[str] = None):
    """The workload's per-shard work in this process: ``add_size_stats``
    then ``extract_batch`` in pipeline-sized batches for the Ray Data
    workloads; ``extract_batch`` per shard, plus the lineage write and
    the restart verification when ``lineage_dir`` is given, for
    ``mixed_resume``.  Returns (output tables, wall seconds).  Stage
    functions are looked up at call time so that traced wrappers apply.
    """
    from ray_script_extract.stages import extract, lineage, sizebucket

    outs = []
    t0 = time.perf_counter()
    for path, table in tables:
        if workload == "mixed_resume":
            out = extract.extract_batch(table)
            if lineage_dir is not None:
                key = lineage.fragment_key(f"file:{path}")
                lineage.write_partition(lineage_dir, key, out, f"file:{path}")
            outs.append(out)
            continue
        for start in range(0, table.num_rows, BATCH_SIZE):
            batch = sizebucket.add_size_stats(table.slice(start, BATCH_SIZE))
            outs.append(extract.extract_batch(batch))
    if lineage_dir is not None:
        lineage.completed_partitions(lineage_dir)
    return outs, time.perf_counter() - t0


class Checker:
    """Counts failed documents in a job's output.

    For the shipped seed at the default size the expectation is the
    corpus digest pinned in ``expected.json``; otherwise (or when the
    pinned digest does not match, to say which documents failed) it is
    this checkout's engine run in-process, outside every timer."""

    def __init__(self, tables, workload: str, pinned: Optional[str]) -> None:
        self.tables = tables
        self.workload = workload
        self.pinned = pinned
        self.n_docs = sum(t.num_rows for _, t in tables)
        self.digests: Optional[Dict[str, str]] = None
        self.engine_drift = False

    def set_expected(self, digests: Dict[str, str]) -> None:
        import verify

        self.digests = digests
        self.engine_drift = (self.pinned is not None
                             and verify.corpus_digest(digests) != self.pinned)
        if self.engine_drift:
            print("perfbench: the engine no longer reproduces the pinned "
                  "output for this seed; every document counts as failed",
                  file=sys.stderr)

    def failed(self, got) -> int:
        import verify

        if self.digests is None and self.pinned is not None:
            ids = got.column("doc_id").to_pylist()
            if (len(ids) == len(set(ids)) == self.n_docs
                    and verify.corpus_digest(verify.doc_digests([got]))
                    == self.pinned):
                return 0
        if self.digests is None:
            outs, _ = run_in_process(self.tables, self.workload)
            self.set_expected(verify.doc_digests(outs))
        if self.engine_drift:
            return self.n_docs
        return verify.count_failed(self.digests, got)


def pinned_digest(workload: str, seed: int, docs: int) -> Optional[str]:
    with open(HERE / "expected.json") as f:
        entry = json.load(f).get(workload, {})
    if entry.get("seed") == seed and entry.get("docs") == docs:
        return entry["digest"]
    return None


# -- Ray session -------------------------------------------------------

def _proc_children() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    return children


def descendants() -> List[int]:
    children = _proc_children()
    out, todo = [], [os.getpid()]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    if state == "Z":
        try:
            os.waitpid(pid, os.WNOHANG)  # reap if it is our own child
        except ChildProcessError:
            pass
        return False
    return True


def wait_ended(pids: List[int], timeout_s: float = 20.0) -> None:
    deadline = time.monotonic() + timeout_s
    while any(_running(p) for p in pids):
        if time.monotonic() > deadline:
            for p in pids:
                if _running(p):
                    try:
                        os.kill(p, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            deadline = time.monotonic() + timeout_s
        time.sleep(0.05)


def nproc() -> int:
    """CPUs as ``nproc`` counts them (affinity, capped by
    OMP_NUM_THREADS): the session size this box is measured at."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True,
                                  check=True, text=True).stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


def ray_up(num_cpus: int) -> float:
    """``ray.init`` plus one warm-up task that imports the extract stage;
    returns the seconds both took."""
    import logging

    import ray

    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES)

    @ray.remote(num_cpus=1)
    def warm() -> str:
        import ray_script_extract.stages.extract as extract

        return extract.__file__

    module_file = ray.get(warm.remote())
    elapsed = time.perf_counter() - t0
    if Path(module_file).resolve().parent.parent.parent != ROOT:
        raise RuntimeError(f"Ray worker imported {module_file}, "
                           f"not the package under {ROOT}")
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return elapsed


def ray_down() -> None:
    import ray

    pids = descendants()
    ray.shutdown()
    wait_ended(pids)


def worker_peak_rss_mib() -> float:
    """Highest VmHWM among this session's Ray worker processes."""
    peak_kib = 0
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if not f.read().startswith(b"ray::"):
                    continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kib = max(peak_kib, int(line.split()[1]))
        except OSError:
            continue
    return peak_kib / 1024.0


# -- jobs --------------------------------------------------------------

def extraction_job(workload: str) -> Callable[[str, str], None]:
    """The production job each workload runs, from submit until its sink
    returns."""
    import ray.data

    if workload == "mixed_resume":
        from ray_script_extract.stages.lineage import \
            run_resumable_extract_dir

        return run_resumable_extract_dir

    from ray_script_extract.pipelines.extract_pipeline import \
        build_extract_pipeline

    def job(in_dir: str, out_dir: str) -> None:
        build_extract_pipeline(ray.data.read_parquet(in_dir)) \
            .write_parquet(out_dir)

    return job


def floor_job(in_dir: str, out_dir: str) -> None:
    """The Ray Data job with the extract step removed: read, size stats,
    sink."""
    import ray.data

    from ray_script_extract.stages.sizebucket import add_size_stats

    ray.data.read_parquet(in_dir).map_batches(
        add_size_stats, batch_format="pyarrow", zero_copy_batch=True) \
        .write_parquet(out_dir)


class Measurement:
    """Job walls and the documents attempted and failed, across the
    traced rounds and the measured jobs of one run."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors = 0


def run_job(job, in_dir: str, out_dir: Path, checker: Checker,
            m: Measurement) -> Optional[float]:
    """Run ``job`` into ``out_dir`` and check its output after the timer
    stops.  Returns the job's wall seconds, or None when the job or its
    check raised: then all of its documents count as failed."""
    import verify

    m.attempted += checker.n_docs
    t0 = time.perf_counter()
    try:
        job(in_dir, str(out_dir))
        wall = time.perf_counter() - t0
        m.failed += checker.failed(verify.read_output(str(out_dir)))
    except Exception:
        traceback.print_exc()
        m.errors += 1
        m.failed += checker.n_docs
        wall = None
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall


def measure(job, in_dir: str, work: Path, checker: Checker,
            seconds: float, m: Measurement) -> None:
    """Run ``job`` on fresh output directories until ``seconds`` of job
    wall time are measured; after two failed jobs the measurement
    stops."""
    for i in itertools.count():
        if sum(m.walls) >= seconds or m.errors >= 2:
            return
        wall = run_job(job, in_dir, work / f"out-{i:03d}", checker, m)
        if wall is not None:
            m.walls.append(wall)


# -- main --------------------------------------------------------------

def _rmdir_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:  # not empty, or already gone
        pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=SHIPPED_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--docs", type=_positive_int, default=None,
                   help="corpus size (default: the workload's)")
    return p.parse_args(argv)


def traced_split(tables, workload: str, work: Path, checker: Checker,
                 m: Measurement) -> Dict[str, float]:
    """Per-layer metrics from alternating untraced and traced in-process
    rounds; the faster of each is kept, so one slow spell does not land
    on one side only.  The first untraced round is the expectation the
    traced output and every later job are checked against."""
    import pyarrow as pa

    import layers
    import verify

    lineage = workload == "mixed_resume"
    run_in_process(tables[:1], workload)  # lazy imports and caches
    untraced_wall = traced_wall = float("inf")
    for r in range(TRACE_ROUNDS):
        outs, wall = run_in_process(
            tables, workload, str(work / f"inproc-{r}") if lineage else None)
        untraced_wall = min(untraced_wall, wall)
        if r == 0:
            checker.set_expected(verify.doc_digests(outs))
        round_tracer = layers.Tracer()
        with layers.traced(round_tracer):
            outs, wall = run_in_process(
                tables, workload,
                str(work / f"traced-{r}") if lineage else None)
        m.attempted += checker.n_docs
        m.failed += checker.failed(pa.concat_tables(outs))
        if wall < traced_wall:
            traced_wall, tracer = wall, round_tracer
    return layers.layer_metrics(tracer, traced_wall, untraced_wall,
                                checker.n_docs)


def ray_phase(workload: str, shards: List[str], work: Path,
              checker: Checker, seconds: float, m: Measurement,
              n_setups: int, floor_runs: int) -> Dict[str, float]:
    """Set the session up ``n_setups`` times, warm it with one untimed
    but checked job (the first job over a corpus runs measurably slower),
    measure the workload's job, and optionally time the floor job; the
    session is always shut down and its processes waited for.  A job
    that fails leaves the metrics it would have given at 0."""
    in_dir = os.path.dirname(shards[0])
    num_cpus = nproc()
    setups: List[float] = []
    floors: List[float] = []
    try:
        for i in range(n_setups):
            if i:
                ray_down()
            setups.append(ray_up(num_cpus))
        job = extraction_job(workload)
        if run_job(job, in_dir, work / "warm-out", checker, m) is not None:
            measure(job, in_dir, work, checker, seconds, m)
        for i in range(floor_runs):
            t0 = time.perf_counter()
            try:
                floor_job(in_dir, str(work / f"floor-{i}"))
            except Exception:
                traceback.print_exc()
                m.errors += 1
                break
            floors.append(time.perf_counter() - t0)
        rss = worker_peak_rss_mib()
    finally:
        ray_down()
    return {"setup_s": statistics.median(setups), "worker_peak_rss_mib": rss,
            "docs_per_s": _median([checker.n_docs / w for w in m.walls]),
            "extract_pipeline.job_wall_s": _median(m.walls),
            "extract_pipeline.floor_s": _median(floors)}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import pyarrow.parquet as pq

    import layers

    docs = args.docs or WORKLOADS[args.workload][2]
    shards = build_corpus(args.workload, args.seed, docs)
    tables = [(path, pq.read_table(path)) for path in shards]
    checker = Checker(tables, args.workload,
                      pinned_digest(args.workload, args.seed, docs))
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    m = Measurement()
    layer: Dict[str, float] = {}
    try:
        if args.trace:
            try:
                layer = traced_split(tables, args.workload, work, checker, m)
            except Exception:
                traceback.print_exc()
                m.errors += 1
                m.attempted += checker.n_docs
                m.failed += checker.n_docs
                layer = dict.fromkeys(layers.PER_LAYER, 0.0)
        e2e = ray_phase(args.workload, shards, work, checker, args.seconds,
                        m, n_setups=1 if args.trace else SETUPS,
                        floor_runs=FLOOR_RUNS if args.trace else 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _rmdir_if_empty(WORK)
    ok = m.errors == 0 and m.failed == 0 and not checker.engine_drift
    if args.trace:
        metrics = {**layer, **e2e}
        metrics["extract_pipeline.engine_wall_s"] = \
            metrics["trace.untraced_wall_s"]
        metrics["extract_pipeline.overhead_frac"] = (1.0 - (
            metrics["extract_pipeline.engine_wall_s"]
            / metrics["extract_pipeline.job_wall_s"])
            if metrics["extract_pipeline.job_wall_s"] else 0.0)
        metrics["docs_failed_frac"] = m.failed / m.attempted
        if metrics["trace.coverage_frac"] < 0.9:
            print("perfbench: named layers cover only "
                  f"{metrics['trace.coverage_frac']:.1%} of traced wall",
                  file=sys.stderr)
            ok = False
        units = layers.PER_LAYER
    else:
        metrics = e2e
        units = E2E
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} check: {m.failed}/{m.attempted} docs failed "
          f"(docs_failed_frac = {m.failed / m.attempted:.6g}); job walls "
          f"{' '.join(f'{w:.3f}' for w in m.walls)} s")
    print(json.dumps({
        "correct": ok, "attempted": m.attempted, "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
