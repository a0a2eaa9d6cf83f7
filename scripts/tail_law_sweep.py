#!/usr/bin/env python3
"""Sweep the population-dynamics recursion over iteration counts and print
the empirical-tail / predicted-tail ratio table for each.

The prediction is the first-order constant, so expect ratios near 1 for
k = 1 at moderate alpha, and a visible pre-asymptotic shortfall for deep
recursions when alpha is close to 1 (the constant is only approached at
depths that grow explosively as alpha falls toward 1).

Example:
    python scripts/tail_law_sweep.py --alpha 1.5 --mean-degree 8 \
        --damping 0.85 --pool-size 1000000 --ks 1 2 converged
"""

import argparse
import json
import sys

from ranktail.simulate import ModelSpec, simulate_R, tail_ratio_table
from ranktail.theory import TheoryParams, coefficient_Ck
from synthetic_experiment import default_hist


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--mean-degree", type=float, default=8.0)
    ap.add_argument("--dangling", type=float, default=0.1)
    ap.add_argument("--damping", type=float, default=0.85)
    ap.add_argument("--pool-size", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--ks", nargs="+", default=["1", "2", "converged"])
    ap.add_argument("--ccdf-window", type=float, nargs=2, default=[1e-5, 1e-3])
    args = ap.parse_args(argv)

    spec = ModelSpec(c=args.damping, alpha=args.alpha, d=args.mean_degree,
                     outdeg_hist=default_hist(args.mean_degree, args.dangling),
                     pool_size=args.pool_size, seed=args.seed)
    params = TheoryParams.from_histogram(spec.c, spec.alpha, spec.outdeg_hist,
                                         d=spec.d)
    print(f"spec: {json.dumps(spec.to_dict(), indent=2)}")
    print(f"b = {params.b:.4f}, geometric ratio = {params.geometric_ratio:.4f}")
    for k in args.ks:
        pool = simulate_R(spec, k)
        c_value = coefficient_Ck(params, pool.generation)
        print(f"\nk={k} (generations run: {pool.generation}, "
              f"coefficient {c_value:.5g}, pool mean {pool.values.mean():.4f})")
        print(f"{'x':>12} {'empirical':>11} {'predicted':>11} {'ratio':>7}")
        for row in tail_ratio_table(pool, spec, c_value,
                                    ccdf_window=tuple(args.ccdf_window)):
            mark = "" if row["in_window"] else "  (outside window)"
            print(f"{row['x']:12.2f} {row['empirical']:11.3e} "
                  f"{row['theory']:11.3e} {row['ratio']:7.3f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
