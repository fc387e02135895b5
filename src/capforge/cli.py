"""Command-line surface.

Subcommands: gen, score, filter, mix, metrics, report, sweep, validate.
Exit codes: 0 success, 1 usage/config error, 2 data/format error.
``--workers`` (or CAPFORGE_WORKERS) parallelizes pool generation only and never
changes outputs; ``--seed`` flows to every seeded operation of a subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .curation import (
    ClusterParams,
    FilterSpec,
    StrategySpec,
    STRATEGY_NAMES,
    apply_strategy,
    in1k_cluster_mask,
    resolve_syn_source,
    threshold_filter,
    top_fraction,
    write_curated,
)
from .errors import CapforgeError, ConfigError
from .pool import open_pool, validate_pool
from .poolgen import generate_pool, load_config
from .report import (
    DEFAULT_SAMPLE_SIZE,
    MetricConfig,
    build_quality_report,
    make_table_getter,
    run_report,
    run_sweep,
    strategy_tables,
)
from .curation import read_curated
from .scoring import score_pool
from .textmetrics import default_noun_lexicon, default_visual_vocab, load_token_file


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_workers(args) -> int:
    if getattr(args, "workers", None) is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        return args.workers
    env = os.environ.get("CAPFORGE_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"CAPFORGE_WORKERS={env!r} is not an integer") from exc
    return 1


def _resolve_source(handle, requested: str) -> str:
    if requested == "raw":
        return "raw"
    return resolve_syn_source(handle.manifest.embedding_sources, requested)


def _metric_config(args) -> MetricConfig:
    vocab = load_token_file(args.vocab) if getattr(args, "vocab", None) else None
    lexicon = load_token_file(args.lexicon) if getattr(args, "lexicon", None) else None
    refs = None
    if getattr(args, "in1k_refs", None):
        refs = fileio.read_embeddings(args.in1k_refs)
    sample_size = getattr(args, "sample_size", None)
    if sample_size is not None and sample_size < 0:
        raise ConfigError(f"--sample-size must be >= 0, got {sample_size}")
    return MetricConfig(
        sample_size=DEFAULT_SAMPLE_SIZE if sample_size is None else sample_size,
        seed=getattr(args, "seed", None) or 0,
        vocab=vocab,
        lexicon=lexicon,
        workers=args.workers,
        in1k_refs=refs,
    )


def _load_strategy_file(path: str) -> list[StrategySpec]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a JSON list of strategy specs")
    return [StrategySpec.from_dict(entry) for entry in obj]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
        config.validate()
    manifest = generate_pool(config, args.out, workers=args.workers)
    print(f"generated {manifest.num_records} records in {manifest.num_shards} shards at {args.out}")
    return 0


def _cmd_score(args) -> int:
    handle = open_pool(args.pool)
    label = _resolve_source(handle, args.source)
    table = score_pool(handle, label)
    mean = float(np.mean(table.scores.astype(np.float64))) if table.scores.size else 0.0
    print(f"scored {table.scores.size} records for {label}: mean cosine {mean:.6f}")
    return 0


def _cmd_validate(args) -> int:
    handle = open_pool(args.pool)
    report = validate_pool(handle)
    if report.ok:
        print(f"ok: {handle.num_records} records, {handle.manifest.num_shards} shards")
        return 0
    for finding in report.findings:
        print(f"{finding.kind}: {finding.message}", file=sys.stderr)
    print(f"{len(report.findings)} finding(s)", file=sys.stderr)
    return 2


def _cmd_filter(args) -> int:
    if (args.p is None) == (args.tau is None):
        raise ConfigError("filter requires exactly one of --p or --tau")
    kind = "top_fraction" if args.p is not None else "threshold"
    filter_spec = FilterSpec(kind=kind, p=args.p, tau=args.tau)
    filter_spec.validate()
    handle = open_pool(args.pool)
    label = _resolve_source(handle, args.source)
    table = make_table_getter(handle)(label)
    if filter_spec.kind == "top_fraction":
        mask, tau_used = top_fraction(table, filter_spec.p)
        header = {"kind": kind, "source": label, "p": filter_spec.p,
                  "tau_used": tau_used, "count": mask.cardinality}
    else:
        mask = threshold_filter(table, filter_spec.tau)
        header = {"kind": kind, "source": label, "tau": filter_spec.tau,
                  "tau_used": filter_spec.tau, "count": mask.cardinality}
    ids = handle.ids()[mask.indices()].tolist()
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for rec_id in ids:
            fh.write(json.dumps({"id": rec_id}, separators=(",", ":")) + "\n")
    print(f"selected {len(ids)} of {handle.num_records} records -> {args.out}")
    return 0


def _cmd_mix(args) -> int:
    handle = open_pool(args.pool)
    cluster_params = None
    if args.in1k_refs:
        cluster_params = ClusterParams(
            k=args.cluster_k,
            max_iters=args.cluster_iters,
            tol=args.cluster_tol,
            seed=args.cluster_seed if args.cluster_seed is not None else (args.seed or 0),
        )
    spec = StrategySpec(
        name=args.strategy,
        p=args.p,
        syn_source=args.syn_source,
        in1k_intersect=args.in1k_refs is not None,
        cluster_params=cluster_params,
    )
    spec.validate()
    get_table = make_table_getter(handle)
    tables = strategy_tables(handle, spec, get_table)
    mask = None
    if spec.in1k_intersect:
        refs = fileio.read_embeddings(args.in1k_refs)
        mask = in1k_cluster_mask(handle, refs, cluster_params)
    curated = apply_strategy(handle, spec, tables, mask)
    write_curated(curated, args.out)
    tau = "none" if curated.tau_used is None else f"{curated.tau_used:.6f}"
    print(f"{spec.name}: {len(curated)} entries (tau_used {tau}) -> {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    handle = open_pool(args.pool)
    curated = read_curated(args.curated)
    config = _metric_config(args)
    row = build_quality_report(
        handle,
        curated,
        make_table_getter(handle),
        vocab=config.vocab if config.vocab is not None else default_visual_vocab(),
        lexicon=config.lexicon if config.lexicon is not None else default_noun_lexicon(),
        sample_size=config.sample_size,
        seed=config.seed,
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(row.to_dict(), fh, indent=2)
        fh.write("\n")
    print(f"metrics for {row.strategy}: {row.entries} entries -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    specs = _load_strategy_file(args.strategies)
    config = _metric_config(args)
    rows = run_report(args.pool, specs, config, out_dir=args.out_dir)
    print(f"report: {len(rows)} strategies -> {args.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    template = load_config(args.config)
    if args.seed is not None:
        template = dataclasses.replace(template, seed=args.seed)
        template.validate()
    try:
        scales = [int(s) for s in args.scales.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--scales must be comma-separated integers: {exc}") from exc
    specs = _load_strategy_file(args.strategies)
    config = _metric_config(args)
    result = run_sweep(template, scales, specs, config, out_dir=args.out_dir)
    print(f"sweep: {len(result.rows)} rows -> {args.out_dir}/sweep.csv")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="capforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p, seed_help="seed for sampled metrics"):
        p.add_argument("--workers", type=int, default=None,
                       help="pool-generation workers (default CAPFORGE_WORKERS or 1)")
        p.add_argument("--seed", type=int, default=None, help=seed_help)

    p = sub.add_parser("gen", help="generate a synthetic pool")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output pool directory")
    add_common(p, seed_help="override the config seed")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("score", help="compute and store cosine scores")
    p.add_argument("--pool", required=True)
    p.add_argument("--source", required=True,
                   help='caption source: "raw" or a synthetic source name/label')
    add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("validate", help="check pool invariants")
    p.add_argument("pool", help="pool directory")
    add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("filter", help="select records by score")
    p.add_argument("--pool", required=True)
    p.add_argument("--source", default="raw")
    p.add_argument("--p", type=float, default=None, help="top percentage in (0, 100]")
    p.add_argument("--tau", type=float, default=None, help="inclusive score threshold")
    p.add_argument("--out", required=True, help="output id-list JSONL")
    add_common(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("mix", help="apply a caption-mixing strategy")
    p.add_argument("--pool", required=True)
    p.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--syn-source", dest="syn_source", default=None)
    p.add_argument("--in1k-refs", dest="in1k_refs", default=None,
                   help="EMB1 file of reference image embeddings; enables intersection")
    p.add_argument("--cluster-k", dest="cluster_k", type=int, default=64)
    p.add_argument("--cluster-iters", dest="cluster_iters", type=int, default=100)
    p.add_argument("--cluster-tol", dest="cluster_tol", type=float, default=1e-4)
    p.add_argument("--cluster-seed", dest="cluster_seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output curated JSONL")
    add_common(p)
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("metrics", help="quality metrics for a curated set")
    p.add_argument("--pool", required=True)
    p.add_argument("--curated", required=True, help="curated JSONL from mix")
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.add_argument("--sample-size", dest="sample_size", type=int, default=None)
    p.add_argument("--vocab", default=None, help="visual vocabulary file")
    p.add_argument("--lexicon", default=None, help="noun lexicon file")
    add_common(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("report", help="noise-vs-diversity report for strategies")
    p.add_argument("--pool", required=True)
    p.add_argument("--strategies", required=True, help="JSON list of strategy specs")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--sample-size", dest="sample_size", type=int, default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--in1k-refs", dest="in1k_refs", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sweep", help="multi-scale generate-and-report sweep")
    p.add_argument("--config", required=True, help="generator config template JSON")
    p.add_argument("--scales", required=True, help="comma-separated pool sizes")
    p.add_argument("--strategies", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--sample-size", dest="sample_size", type=int, default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--lexicon", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.workers = _resolve_workers(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CapforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
