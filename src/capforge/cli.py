"""Command-line surface.

Subcommands: gen, score, filter, mix, metrics, report, sweep, validate.
Exit codes: 0 success, 1 usage/config error, 2 data/format error.
Every subcommand takes ``--workers`` (default 1, at least 1), but only gen and
sweep use it, to parallelize pool generation, and it never changes outputs.
gen, sweep, mix, metrics and report take ``--seed``: in gen and sweep it
replaces the config's seed before the config is checked, and in sweep, mix,
metrics and report it seeds the sampled metrics and k-means (default 0).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import fileio
from .curation import (
    ClusterParams,
    StrategySpec,
    STRATEGY_NAMES,
    apply_strategy,
    read_curated,
    resolve_syn_source,
    threshold_filter,
    top_fraction,
    write_curated,
)
from .errors import CapforgeError, ConfigError, DataError
from .pool import open_pool, score_sidecar_name, validate_pool
from .poolgen import generate_pool, load_config
from .report import (
    DEFAULT_SAMPLE_SIZE,
    MetricConfig,
    build_quality_report,
    caption_features,
    run_report,
    run_sweep,
)
from .scoring import ScoreTables, score_pool
from .textmetrics import load_token_file


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_source(handle, requested: str) -> str:
    if requested == "raw":
        return "raw"
    if requested == "image":
        raise DataError("'image' is the image embedding, not a caption source")
    return resolve_syn_source(handle.manifest.embedding_sources, requested)


def _config_overrides(args) -> dict:
    """The config fields gen's and sweep's flags replace: ``--seed``, if given."""
    return {"seed": args.seed} if "seed" in args else {}


def _metric_config(args) -> MetricConfig:
    """The metric settings of mix, metrics, report and sweep, read and checked
    here alone: mix has no ``--sample-size``, and sweep's metric seed is 0
    unless ``--seed`` is given."""
    vocab = load_token_file(args.vocab) if getattr(args, "vocab", None) else None
    lexicon = load_token_file(args.lexicon) if getattr(args, "lexicon", None) else None
    refs = None
    if getattr(args, "in1k_refs", None):
        refs = fileio.read_embeddings(args.in1k_refs)
    sample_size = getattr(args, "sample_size", DEFAULT_SAMPLE_SIZE)
    if sample_size < 0:
        raise ConfigError(f"--sample-size must be >= 0, got {sample_size}")
    seed = getattr(args, "seed", 0)
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    return MetricConfig(
        sample_size=sample_size,
        seed=seed,
        vocab=vocab,
        lexicon=lexicon,
        in1k_refs=refs,
    )


def _load_strategy_file(path: str) -> list[StrategySpec]:
    obj = fileio.read_json(path, ConfigError)
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a JSON list of strategy specs")
    return [StrategySpec.from_dict(entry) for entry in obj]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    config = load_config(args.config, **_config_overrides(args))
    manifest = generate_pool(config, args.out, workers=args.workers)
    print(f"generated {manifest.num_records} records in {manifest.num_shards} shards at {args.out}")
    return 0


def _cmd_score(args) -> int:
    handle = open_pool(args.pool)
    label = _resolve_source(handle, args.source)
    table = score_pool(handle, label)
    fileio.write_scores(handle.path / score_sidecar_name(label), table.scores)
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
    if args.p is not None and not 0 < args.p <= 100:
        raise ConfigError(f"p must lie in (0, 100], got {args.p}")
    if args.tau is not None and not math.isfinite(args.tau):
        raise ConfigError(f"tau must be finite, got {args.tau}")
    handle = open_pool(args.pool)
    label = _resolve_source(handle, args.source)
    table = ScoreTables(handle)[label]
    if args.p is not None:
        mask, tau_used = top_fraction(table, args.p, handle.ids())
        header = {"kind": "top_fraction", "source": label, "p": args.p, "tau_used": tau_used}
    else:
        mask = threshold_filter(table, args.tau)
        header = {"kind": "threshold", "source": label, "tau": args.tau, "tau_used": args.tau}
    header["count"] = int(mask.sum())
    ids = handle.ids()[mask].tolist()
    lines = itertools.chain([header], ({"id": rec_id} for rec_id in ids))
    fileio.write_atomic(
        args.out, (json.dumps(obj, separators=(",", ":")).encode() + b"\n" for obj in lines)
    )
    print(f"selected {len(ids)} of {handle.num_records} records -> {args.out}")
    return 0


def _cmd_mix(args) -> int:
    handle = open_pool(args.pool)
    config = _metric_config(args)
    cluster_params = None
    if args.in1k_refs:
        k = args.cluster_k
        cluster_params = ClusterParams(
            k=ClusterParams.default_k(handle.num_records) if k is None else k,
            max_iters=args.cluster_iters,
            tol=args.cluster_tol,
            seed=config.seed,
        )
    spec = StrategySpec(
        name=args.strategy,
        p=args.p,
        syn_source=args.syn_source,
        in1k_intersect=args.in1k_refs is not None,
        cluster_params=cluster_params,
    )
    curated = apply_strategy(handle, spec, ScoreTables(handle), config.in1k_refs, seed=config.seed)
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
        ScoreTables(handle),
        caption_features(handle, config),
        sample_size=config.sample_size,
        seed=config.seed,
    )
    fileio.write_atomic(args.out, (json.dumps(row.to_dict(), indent=2) + "\n").encode())
    print(f"metrics for {row.strategy}: {row.entries} entries -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    specs = _load_strategy_file(args.strategies)
    config = _metric_config(args)
    rows = run_report(args.pool, specs, config, out_dir=args.out_dir)
    print(f"report: {len(rows)} strategies -> {args.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    # each scale replaces num_records, and run_sweep validates the largest first
    template = load_config(args.config, num_records=0, **_config_overrides(args))
    try:
        scales = [int(s) for s in args.scales.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--scales must be comma-separated integers: {exc}") from exc
    specs = _load_strategy_file(args.strategies)
    config = _metric_config(args)
    result = run_sweep(template, scales, specs, config, out_dir=args.out_dir,
                       workers=args.workers)
    print(f"sweep: {len(result.rows)} rows -> {args.out_dir}/sweep.csv")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="capforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    p = sub.add_parser("gen", help="generate a synthetic pool")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output pool directory")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="replaces the config's seed")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("score", help="compute and store cosine scores")
    p.add_argument("--pool", required=True)
    p.add_argument("--source", required=True,
                   help='caption source: "raw" or a synthetic source name/label')
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("validate", help="check pool invariants")
    p.add_argument("pool", help="pool directory")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("filter", help="select records by score")
    p.add_argument("--pool", required=True)
    p.add_argument("--source", default="raw")
    p.add_argument("--p", type=float, default=None, help="top percentage in (0, 100]")
    p.add_argument("--tau", type=float, default=None, help="inclusive score threshold")
    p.add_argument("--out", required=True, help="output id-list JSONL")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("mix", help="apply a caption-mixing strategy")
    p.add_argument("--pool", required=True)
    p.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--syn-source", dest="syn_source", default=None)
    p.add_argument("--in1k-refs", dest="in1k_refs", default=None,
                   help="EMB1 file of reference image embeddings; enables intersection")
    p.add_argument("--cluster-k", dest="cluster_k", type=int, default=None,
                   help="k-means clusters (default 64, or the pool size if smaller)")
    p.add_argument("--cluster-iters", dest="cluster_iters", type=int,
                   default=ClusterParams.max_iters)
    p.add_argument("--cluster-tol", dest="cluster_tol", type=float, default=ClusterParams.tol)
    p.add_argument("--out", required=True, help="output curated JSONL")
    p.add_argument("--seed", type=int, default=0, help="k-means seed with --in1k-refs")
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("metrics", help="quality metrics for a curated set")
    p.add_argument("--pool", required=True)
    p.add_argument("--curated", required=True, help="curated JSONL from mix")
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.add_argument("--sample-size", dest="sample_size", type=int, default=DEFAULT_SAMPLE_SIZE)
    p.add_argument("--vocab", default=None, help="visual vocabulary file")
    p.add_argument("--lexicon", default=None, help="noun lexicon file")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled metrics")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("report", help="noise-vs-diversity report for strategies")
    p.add_argument("--pool", required=True)
    p.add_argument("--strategies", required=True, help="JSON list of strategy specs")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--sample-size", dest="sample_size", type=int, default=DEFAULT_SAMPLE_SIZE)
    p.add_argument("--vocab", default=None)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--in1k-refs", dest="in1k_refs", default=None)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled metrics and k-means")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sweep", help="multi-scale generate-and-report sweep")
    p.add_argument("--config", required=True, help="generator config template JSON")
    p.add_argument("--scales", required=True, help="comma-separated pool sizes")
    p.add_argument("--strategies", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--sample-size", dest="sample_size", type=int, default=DEFAULT_SAMPLE_SIZE)
    p.add_argument("--vocab", default=None)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="replaces the config's seed and seeds sampled metrics (default 0)")
    p.set_defaults(func=_cmd_sweep)

    for p in sub.choices.values():  # gen and sweep use it; the rest accept it alike
        p.add_argument("--workers", type=int, default=1, help="pool-generation workers")
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
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
