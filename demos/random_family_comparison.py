"""Compare minimal and loose scaffolds on one random instance.

Run from the repo root after installing the package:

    python3 demos/random_family_comparison.py [seed]

Generates a random geometric graph, builds both scaffolds, then checks
how similar their vertex metrics are, against an edge-count-matched
random null. Main-slot correlations above the null slots mean the two
scaffolds agree on which vertices matter beyond what density alone
would predict. One instance is noisy; the test suite pools 60 of them.
"""

import logging
import sys

from netscaffold.graph import build_filtration
from netscaffold.persistence import compute_persistence
from netscaffold.randnet import GeneratorConfig, gen_er_null, generate
from netscaffold.scaffold import loose_scaffold, minimal_scaffold, step_bases
from netscaffold.stats import compare_scaffolds

# dense unit-weight nulls hit draw ties constantly; not interesting here
logging.getLogger("netscaffold.minbasis").setLevel(logging.ERROR)


def both_scaffolds(g):
    f = build_filtration(g)
    barcode = compute_persistence(f)
    results = step_bases(f, barcode, workers=4)
    return minimal_scaffold(f, results), loose_scaffold(f, barcode)


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    cfg = GeneratorConfig(model="rgg", params={"n": 25, "threshold": 0.3}, seed=seed)
    g = generate(cfg)
    print(f"rgg graph: {g.n_vertices} vertices, {g.n_edges} edges, seed {seed}")

    minimal, loose = both_scaffolds(g)
    nulls = both_scaffolds(gen_er_null(g.n_vertices, g.n_edges, seed + 10_000))
    report = compare_scaffolds(minimal, loose, nulls=nulls)

    def fmt(x):
        return "   none" if x is None else f"{x:+7.3f}"

    print(f"\n{'metric':<12} {'slot':<12} {'pearson':>8} {'spearman':>9} {'ks_p':>7}")
    for metric in ("degree", "strength", "betweenness", "closeness"):
        for slot, row in report.metrics[metric].items():
            ks_p = "   none" if row["ks_p"] is None else f"{row['ks_p']:7.3f}"
            print(
                f"{metric:<12} {slot:<12} {fmt(row['pearson']):>8} "
                f"{fmt(row['spearman']):>9} {ks_p}"
            )

    shared = report.metrics["edge_weight"]["main"]["intersection"]
    if shared is None:
        print("\nscaffolds share fewer than 2 edges; no weight comparison")
    elif shared["pearson"] is None:
        print("\nshared-edge weights are constant on one side; pearson undefined")
    else:
        print(f"\nedge-weight pearson on shared support: {fmt(shared['pearson'])}")


if __name__ == "__main__":
    main()
