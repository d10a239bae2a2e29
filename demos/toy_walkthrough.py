"""Walk through the core pipeline on two tiny graphs.

Run from the repo root after installing the package:

    python3 demos/toy_walkthrough.py

In the first graph the surviving loop can route down either side of a
diamond; the two routes tie, so the draws scaffold splits their credit.
The theta graph has a tie ACROSS homology classes instead, which the
library flags loudly.
"""

from fractions import Fraction

from netscaffold.graph import build_filtration, make_graph
from netscaffold.persistence import compute_persistence
from netscaffold.scaffold import (
    loose_scaffold,
    minimal_scaffold,
    minimal_scaffold_with_draws,
    scaffold_report,
    step_bases,
)


def show(title, scaffold):
    print(f"\n{title} ({scaffold.provenance})")
    for u, v, w in scaffold.edge_weights:
        print(f"  ({u},{v})  {w}")


def main():
    # a unit diamond (square plus chord) with a tail closing a big loop;
    # the chord's triangles make the two diamond sides homologous
    diamond = make_graph(
        6,
        [
            (0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1), (1, 2, 1),
            (3, 4, 1), (4, 5, 1), (0, 5, 1),
        ],
    )
    f = build_filtration(diamond)

    barcode = compute_persistence(f)
    print("diamond dim-1 bars:")
    for bar in barcode.in_dim(1):
        death = "inf" if bar.death is None else str(bar.death)
        print(f"  birth {bar.birth}  death {death}  edges {bar.generator.edges}")

    # one barcode feeds every scaffold; step_bases solves each step once
    results = step_bases(f, barcode)
    show("loose scaffold", loose_scaffold(f, barcode))
    show("minimal scaffold", minimal_scaffold(f, results))
    show("draws scaffold", minimal_scaffold_with_draws(f, results))
    print(
        "\nthe loop's two tied routes each carry 1/2 on the diamond sides;"
        "\nthe tail edges sit on both routes, so they keep the full 1"
    )

    # theta graph: square of weight-1 edges, crossed by two 3/2 edges.
    # the square (length 4) beats the two theta loops (length 5 each),
    # and those two loops tie at 5 across DIFFERENT homology classes.
    theta = make_graph(
        5,
        [
            (0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1),
            (0, 4, Fraction(3, 2)), (2, 4, Fraction(3, 2)),
        ],
    )
    f = build_filtration(theta)
    results = step_bases(f, compute_persistence(f))
    print("\ntheta graph pathology events (also logged as warnings):")
    for eps, mb in results:
        for ev in mb.pathology_events:
            print(
                f"  step {eps}: {ev.n_classes} distinct classes tied at "
                f"length {ev.level}, joint rank gain {ev.rank_increment}"
            )

    report = scaffold_report(minimal_scaffold_with_draws(f, results))
    print("\ntheta draws report:")
    for key in ("n_scaffold_edges", "variant_histogram", "n_pathology_events"):
        print(f"  {key}: {report[key]}")


if __name__ == "__main__":
    main()
