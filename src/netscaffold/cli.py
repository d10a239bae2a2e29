"""Command-line interface.

Subcommands: scaffold (all scaffold variants plus barcode and ranking
files), persistence (barcode only), generate (seeded random graphs),
compare (minimal vs loose with crossed null baselines), bench (loose
vs minimal wall-clock scaling).

Exit codes: 0 success, 2 usage, 3 file system errors, 4 malformed or
invalid input data. Seeds default to 0 and never fall back to clock
time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .graph import (
    GraphFormatError,
    WeightedGraph,
    build_filtration,
    orient_filtration,
    parse_adjacency,
    parse_edge_list,
    serialize_edge_list,
)
from .persistence import barcode_to_csv, barcode_to_json, compute_persistence
from .randnet import GeneratorConfig, gen_er_null, generate
from .scaffold import (
    Scaffold,
    loose_scaffold,
    minimal_scaffold,
    minimal_scaffold_with_draws,
    node_strength,
    rank_nodes,
    scaffold_report,
    scaffold_to_csv,
    step_bases,
)
from .stats import VERTEX_METRICS, aggregate_comparisons, compare_scaffolds

EXIT_OK = 0
EXIT_IO = 3
EXIT_DATA = 4

WORKERS_ENV = "NETSCAFFOLD_WORKERS"


def resolve_workers(cli_value: int | None) -> int:
    """--parallelism wins, then the environment override, then 1."""
    if cli_value is not None:
        return max(1, cli_value)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise GraphFormatError(f"bad {WORKERS_ENV} value {env!r}") from None
    return 1


def _read_graph(path: Path, fmt: str, orientation: str) -> tuple[WeightedGraph, WeightedGraph]:
    """Returns (original, oriented)."""
    text = path.read_text()
    g = parse_edge_list(text) if fmt == "edgelist" else parse_adjacency(text)
    return g, orient_filtration(g, orientation)


def _mu_weights(original: WeightedGraph, mode: str):
    if mode == "filtration":
        return None
    return {i: w for i, (_, _, w) in enumerate(original.edges)}


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _ranking_csv(s: Scaffold) -> str:
    strength = node_strength(s)
    lines = ["rank,vertex,strength_decimal,strength_num,strength_den,relative_strength"]
    for i, (v, rel) in enumerate(rank_nodes(s), start=1):
        w = strength[v]
        lines.append(
            f"{i},{v},{float(w)!r},{w.numerator},{w.denominator},{rel!r}"
        )
    return "\n".join(lines) + "\n"


def cmd_scaffold(args: argparse.Namespace) -> int:
    workers = resolve_workers(args.parallelism)
    path = Path(args.input)
    original, oriented = _read_graph(path, args.format, args.orientation)
    filtration = build_filtration(oriented)
    stem = path.stem
    outdir = Path(args.output_dir)

    barcode = compute_persistence(filtration)
    _write(outdir / f"{stem}_barcode.csv", barcode_to_csv(barcode))
    _write(outdir / f"{stem}_barcode.json", barcode_to_json(barcode))

    produced: dict[str, Scaffold] = {}
    if args.which in ("loose", "all"):
        produced["loose"] = loose_scaffold(
            filtration, barcode, include_essential=args.essential == "include"
        )
    if args.which in ("minimal", "draws", "all"):
        mu = _mu_weights(original, args.mu_weights)
        results = step_bases(filtration, barcode, mu, workers)
        if args.which in ("minimal", "all"):
            produced["minimal"] = minimal_scaffold(filtration, results)
        if args.which in ("draws", "all"):
            produced["minimal_draws"] = minimal_scaffold_with_draws(
                filtration, results
            )

    report: dict = {
        "input": str(path),
        "format": args.format,
        "orientation": args.orientation,
        "mu_weights": args.mu_weights,
        "essential": args.essential,
        "seed": args.seed,
        "scaffolds": {},
    }
    for name, s in produced.items():
        _write(outdir / f"{stem}_{name}.csv", scaffold_to_csv(s))
        if s.edge_weights:
            _write(outdir / f"{stem}_{name}_ranking.csv", _ranking_csv(s))
        report["scaffolds"][name] = scaffold_report(s)
    _write(outdir / f"{stem}_report.json", json.dumps(report, indent=2))
    return EXIT_OK


def cmd_persistence(args: argparse.Namespace) -> int:
    _, oriented = _read_graph(Path(args.input), args.format, args.orientation)
    filtration = build_filtration(oriented)
    barcode = compute_persistence(filtration)
    outdir = Path(args.output_dir)
    stem = Path(args.input).stem
    _write(outdir / f"{stem}_barcode.csv", barcode_to_csv(barcode))
    _write(outdir / f"{stem}_barcode.json", barcode_to_json(barcode))
    return EXIT_OK


def _generator_params(args: argparse.Namespace) -> dict:
    """The generator params of --model, read off the command's options;
    empty for no model, which GeneratorConfig then rejects."""
    if args.model == "ws":
        return {"n": args.n, "k": args.k, "p": args.p}
    if args.model == "rgg":
        return {"n": args.n, "threshold": args.threshold, "dim": args.dim}
    if args.model == "er":
        return {"n": args.n, "m": args.m}
    return {}


def cmd_generate(args: argparse.Namespace) -> int:
    if args.config is not None:
        config = GeneratorConfig.from_json(Path(args.config).read_text())
    else:
        config = GeneratorConfig(
            model=args.model, params=_generator_params(args), seed=args.seed
        )
    g = generate(config)
    _write(Path(args.out), serialize_edge_list(g))
    return EXIT_OK


def _scaffold_pair(
    g: WeightedGraph, workers: int
) -> tuple[Scaffold, Scaffold]:
    filtration = build_filtration(g)
    barcode = compute_persistence(filtration)
    results = step_bases(filtration, barcode, None, workers)
    return minimal_scaffold(filtration, results), loose_scaffold(filtration, barcode)


def _compare_one(
    g: WeightedGraph, use_nulls: bool, seed: int, workers: int
):
    minimal, loose = _scaffold_pair(g, workers)
    nulls = None
    if use_nulls:
        null_g = gen_er_null(g.n_vertices, g.n_edges, seed)
        nulls = _scaffold_pair(null_g, workers)  # (null_minimal, null_loose)
    return compare_scaffolds(minimal, loose, nulls=nulls)


def cmd_compare(args: argparse.Namespace) -> int:
    workers = resolve_workers(args.parallelism)
    outdir = Path(args.output_dir)
    use_nulls = args.nulls == "er"
    if args.input is not None:
        _, oriented = _read_graph(Path(args.input), args.format, args.orientation)
        report = _compare_one(oriented, use_nulls, args.seed, workers)
        _write(outdir / "comparison.json", report.to_json())
        return EXIT_OK

    if args.model is None:
        raise GraphFormatError("compare needs either --input or --model")
    if args.sample < 1:
        raise GraphFormatError(f"--sample must be at least 1, got {args.sample}")
    reports = []
    rows = ["instance,metric,slot,pearson,spearman,ks_stat,ks_p,ks_inconclusive"]
    for i in range(args.sample):
        seed = args.seed + i
        g = generate(
            GeneratorConfig(model=args.model, params=_generator_params(args), seed=seed)
        )
        rep = _compare_one(g, use_nulls, seed + 10_000, workers)
        reports.append(rep)
        for metric in VERTEX_METRICS:
            for slot, statsrow in rep.metrics[metric].items():
                rows.append(
                    f"{i},{metric},{slot},{statsrow['pearson']},"
                    f"{statsrow['spearman']},{statsrow['ks_stat']},"
                    f"{statsrow['ks_p']},{int(statsrow['ks_inconclusive'])}"
                )
    _write(outdir / "comparison_rows.csv", "\n".join(rows) + "\n")
    _write(
        outdir / "comparison.json",
        json.dumps(aggregate_comparisons(reports), indent=2),
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    workers = resolve_workers(args.parallelism)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        raise GraphFormatError("empty --sizes")
    if args.seeds < 1:
        raise GraphFormatError(f"--seeds must be at least 1, got {args.seeds}")
    rows = ["model,n,k,p,seed,loose_ms,minimal_ms"]
    for n in sizes:
        k = args.k if args.k is not None else n // 2
        for i in range(args.seeds):
            seed = args.seed + i
            g = generate(
                GeneratorConfig(model="ws", params={"n": n, "k": k, "p": args.p}, seed=seed)
            )
            filtration = build_filtration(g)
            t0 = time.perf_counter()
            barcode = compute_persistence(filtration)
            loose_scaffold(filtration, barcode)
            t1 = time.perf_counter()
            # minimal_ms reuses the barcode, so it holds no reduction
            results = step_bases(filtration, barcode, None, workers)
            minimal_scaffold(filtration, results)
            t2 = time.perf_counter()
            rows.append(
                f"ws,{n},{k},{args.p},{seed},"
                f"{(t1 - t0) * 1000.0!r},{(t2 - t1) * 1000.0!r}"
            )
    _write(Path(args.out), "\n".join(rows) + "\n")
    return EXIT_OK


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input graph file")
    p.add_argument(
        "--format",
        choices=("edgelist", "adjacency"),
        default="edgelist",
        help="input layout (default edgelist)",
    )
    p.add_argument(
        "--orientation",
        choices=("ascending", "descending"),
        default="ascending",
        help="weight orientation; use descending for affinity data",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netscaffold",
        description="Homological scaffolds of weighted networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sc = sub.add_parser("scaffold", help="compute scaffolds and barcode")
    _add_io_args(p_sc)
    p_sc.add_argument(
        "--which",
        choices=("loose", "minimal", "draws", "all"),
        default="all",
        help="scaffold variants to compute (default all)",
    )
    p_sc.add_argument(
        "--mu-weights",
        choices=("filtration", "original"),
        default="filtration",
        help="edge lengths for basis minimization (default filtration)",
    )
    p_sc.add_argument(
        "--essential",
        choices=("include", "exclude"),
        default="include",
        help="count never-dying classes in the loose scaffold (default include)",
    )
    p_sc.add_argument("--parallelism", type=int, default=None)
    p_sc.add_argument("--seed", type=int, default=0)
    p_sc.add_argument("--output-dir", required=True)

    p_pe = sub.add_parser("persistence", help="compute the barcode only")
    _add_io_args(p_pe)
    p_pe.add_argument("--output-dir", required=True)

    p_ge = sub.add_parser("generate", help="write a seeded random graph")
    p_ge.add_argument("--model", choices=("ws", "rgg", "er"))
    p_ge.add_argument("--config", default=None, help="JSON GeneratorConfig file")
    p_ge.add_argument("--n", type=int, default=None)
    p_ge.add_argument("--k", type=int, default=None)
    p_ge.add_argument("--p", type=float, default=None)
    p_ge.add_argument("--threshold", type=float, default=None)
    p_ge.add_argument("--dim", type=int, default=2)
    p_ge.add_argument("--m", type=int, default=None)
    p_ge.add_argument("--seed", type=int, default=0)
    p_ge.add_argument("--out", required=True)

    p_cm = sub.add_parser("compare", help="minimal vs loose with null baselines")
    p_cm.add_argument("--input", default=None, help="graph file (single mode)")
    p_cm.add_argument("--format", choices=("edgelist", "adjacency"), default="edgelist")
    p_cm.add_argument(
        "--orientation", choices=("ascending", "descending"), default="ascending"
    )
    p_cm.add_argument("--model", choices=("ws", "rgg"), default=None)
    p_cm.add_argument("--sample", type=int, default=10)
    p_cm.add_argument("--n", type=int, default=20)
    p_cm.add_argument("--k", type=int, default=10)
    p_cm.add_argument("--p", type=float, default=0.025)
    p_cm.add_argument("--threshold", type=float, default=0.3)
    p_cm.add_argument("--dim", type=int, default=2)
    p_cm.add_argument("--nulls", choices=("er", "none"), default="er")
    p_cm.add_argument("--seed", type=int, default=0)
    p_cm.add_argument("--parallelism", type=int, default=None)
    p_cm.add_argument("--output-dir", required=True)

    p_be = sub.add_parser("bench", help="loose vs minimal wall-clock scaling")
    p_be.add_argument("--sizes", default="10,20,30,40", help="comma-separated n values")
    p_be.add_argument("--k", type=int, default=None, help="override k (default n//2)")
    p_be.add_argument("--p", type=float, default=0.025)
    p_be.add_argument("--seeds", type=int, default=5)
    p_be.add_argument("--seed", type=int, default=0)
    p_be.add_argument("--parallelism", type=int, default=None)
    p_be.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = {
        "scaffold": cmd_scaffold,
        "persistence": cmd_persistence,
        "generate": cmd_generate,
        "compare": cmd_compare,
        "bench": cmd_bench,
    }[args.command]
    try:
        return command(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
