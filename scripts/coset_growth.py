#!/usr/bin/env python3
"""Compare the order of the claimed Coxeter group (coset enumeration on the
relators of its matrix) with the concrete group generated by the n-step
identity pipeline on 1-bit registers.

For n = 2 the enumeration closes at 8 and matches the concrete order.  For
n >= 3 the claimed group is infinite (affine type C~2 for n = 3, containing
C~2 as a parabolic subgroup for n >= 4), so the enumeration only ever hits the cap,
while the concrete group stays finite: a proper quotient situation the
verifier reports rather than assumes away.  The verifier knows the claim is
infinite from three steps on and skips the enumeration; this script runs it
anyway, at each cap, to show the coset growth."""

import argparse

from involift.boolfn import identity_fn
from involift.coxeter import claimed_coxeter_matrix, todd_coxeter, verify_pipeline
from involift.lifting import PipelineSpec
from involift.permgroup import ClosureCapExceeded


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-steps", type=int, default=3, help="largest n to try (n >= 4 is slow)")
    parser.add_argument("--caps", type=int, nargs="+", default=[100, 1_000, 10_000, 100_000])
    args = parser.parse_args()

    one_bit = identity_fn(1)
    for n in range(2, args.max_steps + 1):
        pipeline = PipelineSpec((1,) * (n + 1), (one_bit,) * n)
        print(f"n = {n}:")
        try:
            report = verify_pipeline(pipeline, coset_cap=args.caps[-1])
            print(f"  concrete order: {report.concrete_order}  verdict: {report.verdict}")
        except ClosureCapExceeded as e:
            print(f"  concrete closure: {e}")
        relators = claimed_coxeter_matrix(n).relators
        for cap in args.caps:
            result = todd_coxeter(n, relators, cap)
            if result is None:
                print(f"  coset cap {cap:>7}: exceeded")
            else:
                print(f"  coset cap {cap:>7}: closed with {result} cosets")
                break


if __name__ == "__main__":
    main()
