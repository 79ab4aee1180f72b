#!/usr/bin/env python3
"""Survey seeded random two-step pipelines: how often the lifted generators
are nondegenerate, which group orders appear, and how often the closure is
dihedral of order 8 (two involutions generate a dihedral group, so that is
every closure of order 8)."""

import argparse
from collections import Counter

from involift.lifting import product_orders, random_pipeline
from involift.permgroup import closure, element_order_histogram


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pipelines", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-width", type=int, default=3)
    args = parser.parse_args()

    orders = Counter()
    defect_kinds = Counter()
    histograms = Counter()
    for k in range(args.pipelines):
        pipeline = random_pipeline(args.seed + k, steps=2, max_width=args.max_width)
        # a zero table lifts to the identity, and two identities are equal
        first, second = (f.is_constant_zero for f in pipeline.steps)
        kinds = {
            "generator 1 is the identity": first,
            "generator 2 is the identity": second,
            "generators 1 and 2 are equal": first and second,
            "product of adjacent generators 1 and 2": product_orders(pipeline)[0][1] != 4,
        }
        defect_kinds.update(kind for kind, seen in kinds.items() if seen)
        group = closure(pipeline)
        orders[len(group)] += 1
        histograms[tuple(sorted(element_order_histogram(group).items()))] += 1

    total = args.pipelines
    dihedral = orders[8]
    print(f"pipelines: {total} (seed {args.seed}, widths 1..{args.max_width})")
    print(f"dihedral of order 8: {dihedral} ({100 * dihedral / total:.1f}%)")
    print("closure orders:")
    for order, count in sorted(orders.items()):
        print(f"  {order:3d}: {count}")
    print("element-order histograms:")
    for histogram, count in sorted(histograms.items()):
        rendered = ", ".join(f"{k}:{v}" for k, v in histogram)
        print(f"  {{{rendered}}}: {count}")
    if defect_kinds:
        print("degeneracy defects seen:")
        for kind, count in sorted(defect_kinds.items()):
            print(f"  {count:4d}  {kind}")


if __name__ == "__main__":
    main()
