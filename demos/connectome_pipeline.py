"""End-to-end pipeline for a real weighted connectome.

Run from the repo root after installing the package:

    python3 demos/connectome_pipeline.py path/to/edges.csv

The input is a plain edge list (u,v,w per row, 0-based ids, '#'
comments allowed). Weights are treated as affinities: the strongest
connections enter the filtration first (descending orientation), and
cycle lengths use the oriented values. Prints the scaffold summary and
the top vertices by relative strength, and writes the scaffold CSVs
next to the input.

Without an argument it falls back to data/celegans.csv, the placement
spot the test suite also checks (see README for the expected format).
"""

import sys
from fractions import Fraction
from pathlib import Path

from netscaffold.graph import build_filtration, orient_filtration, parse_edge_list
from netscaffold.persistence import compute_persistence
from netscaffold.scaffold import (
    minimal_scaffold,
    node_strength,
    rank_nodes,
    scaffold_report,
    scaffold_to_csv,
    step_bases,
)


def main():
    default = Path(__file__).resolve().parent.parent / "data" / "celegans.csv"
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    if not path.exists():
        print(f"no dataset at {path}; pass an edge list as the argument")
        return 1

    g = parse_edge_list(path.read_text())
    print(f"{path.name}: {g.n_vertices} vertices, {g.n_edges} edges")

    f = build_filtration(orient_filtration(g, "descending"))
    print(f"filtration has {len(f.steps)} steps")

    s = minimal_scaffold(f, step_bases(f, compute_persistence(f), workers=4))
    report = scaffold_report(s)
    print(f"minimal scaffold: {report['n_scaffold_edges']} edges")
    print(f"pathology events: {report['n_pathology_events']}")

    strengths = node_strength(s)
    mean = sum(strengths.values(), Fraction(0)) / g.n_vertices
    print(f"mean node strength: {float(mean):.2f}")
    print("top 10 vertices by strength relative to the mean:")
    for v, rel in rank_nodes(s)[:10]:
        print(f"  vertex {v:>4}  {float(rel):6.2f}x mean")

    out = path.with_name(path.stem + "_minimal.csv")
    out.write_text(scaffold_to_csv(s))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
