"""Job entrypoints — what `ray job submit` runs on a real cluster.

On a multi-node cluster:

    ray job submit --working-dir . -- \
        python -m ray_script_extract.cli extract \
            --num-docs 100000 --output /mnt/out/extract

In this sandbox (no dashboard/job server) the same entrypoint runs
directly; it guards ray.init so the driver contract (driver owns the
session) still holds when imported.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ray_script_extract")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_extract = sub.add_parser("extract", help="resumable corpus extraction")
    p_extract.add_argument("--input", default=None,
                           help="corpus directory of parquet shards "
                                "(doc_id, spans); omitted = synthetic "
                                "corpus of --num-docs")
    p_extract.add_argument("--num-docs", type=int, default=1000)
    p_extract.add_argument("--output", required=True)
    p_extract.add_argument("--seed", type=int, default=42)
    p_extract.add_argument("--docs-per-shard", type=int, default=100)

    p_convert = sub.add_parser("convert", help="convert one document")
    p_convert.add_argument("path", help=".shakespeare/.pdf input file")
    p_convert.add_argument("--format", choices=("json", "fountain"),
                           default="json")

    p_query = sub.add_parser("query", help="run a registered query")
    p_query.add_argument("name")
    p_query.add_argument("--sf-dir", default="/root/testdata/sf0.01")

    p_export = sub.add_parser(
        "export", help="resumable curated training-set export "
                       "(quality filter → keep-best dedup → "
                       "partitioned parquet + lineage)")
    p_export.add_argument("--sf-dir", required=True)
    p_export.add_argument("--output", required=True)
    p_export.add_argument("--num-partitions", type=int, default=32)

    args = parser.parse_args(argv)

    if args.cmd == "convert":
        # single-document conversion needs no cluster
        return _convert(args)

    import os

    import ray

    # inherited by raylet → workers (see ray_script_extract._tune_malloc)
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", "1073741824")
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "1073741824")
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    try:
        if args.cmd == "extract":
            from .stages.lineage import (
                run_resumable_extract,
                run_resumable_extract_dir,
            )

            if args.input:
                summary = run_resumable_extract_dir(args.input, args.output)
            else:
                summary = run_resumable_extract(
                    args.num_docs, args.output, seed=args.seed,
                    docs_per_shard=args.docs_per_shard)
            print(json.dumps(summary))
        elif args.cmd == "export":
            from .pipelines.curation import export_curated

            print(json.dumps(export_curated(
                args.sf_dir, args.output,
                num_partitions=args.num_partitions)))
        elif args.cmd == "query":
            from .pipelines.queries import QUERIES

            if args.name not in QUERIES:
                print(f"unknown query {args.name!r}; known: "
                      f"{sorted(QUERIES)}", file=sys.stderr)
                return 2
            res = QUERIES[args.name](args.sf_dir)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            print(df.to_string())
    finally:
        ray.shutdown()
    return 0


def _convert(args) -> int:
    if args.path.endswith(".shakespeare"):
        from .sources.shakespeare import (
            parse_shakespeare_text,
            records_to_objects,
        )

        objects = records_to_objects(parse_shakespeare_text(
            open(args.path, "rb").read().decode("iso-8859-1")))
        if args.format == "fountain":
            from .sources.writers import write_fountain

            print(write_fountain(objects))
        else:
            from .sources.writers import dumps_wd_json, write_wd_json

            print(dumps_wd_json(write_wd_json(objects)))
    elif args.path.endswith(".pdf"):
        from .engine.pdfdoc import convert_pdf_raw_document

        result = convert_pdf_raw_document(open(args.path, "rb").read(),
                                          output=args.format)
        if args.format == "json":
            print(json.dumps(result, ensure_ascii=False))
        else:
            print(result)
    else:
        print("unsupported input (expect .shakespeare or .pdf)",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
