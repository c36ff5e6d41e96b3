#!/usr/bin/env python3
"""Random survey of the classified two-component pair families.

Draws random instantiations of each family, runs both the tensor-based
compatibility check and the formal-pencil oracle, and reports agreement.

Usage: python scripts/family_survey.py [--draws 5] [--seed 0]
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from hamops.compatibility import (
    FAMILIES_2COMP,
    Pair2Params,
    build_pair_2comp,
    check_pair,
)


def random_profile(rng, degree, affine=False):
    top = 1 if affine else degree
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(top + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    return tuple(coeffs)


def draw(rng, family) -> Pair2Params:
    c = Fraction(rng.randint(-3, 3))
    if family == "B1":
        a, b = rng.choice([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        return Pair2Params(
            a=a, b=b, c=c,
            k1=Fraction(rng.randint(-4, 4)),
            k2=Fraction(rng.randint(-4, 4)),
            k3=Fraction(rng.randint(-4, 4)),
        )
    if family == "B2-laplace":
        a, b = rng.choice([(1, 1), (-1, -1)])
        flip = rng.random() < 0.5
        return Pair2Params(
            a=a, b=b, c=c,
            xi1=random_profile(rng, 3, affine=flip),
            xi2=random_profile(rng, 3, affine=not flip),
        )
    a, b = rng.choice([(1, -1), (-1, 1)])
    if family == "B2-wave":
        flip = rng.random() < 0.5
        return Pair2Params(
            a=a, b=b, c=c,
            xi1=random_profile(rng, 3, affine=flip),
            xi2=random_profile(rng, 3, affine=not flip),
        )
    return Pair2Params(
        a=a, b=b, c=c,
        xi1=random_profile(rng, 3),
        xi2=random_profile(rng, 2),
        xi3=random_profile(rng, 3),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    bad = 0
    for family in FAMILIES_2COMP:
        for i in range(args.draws):
            params = draw(rng, family)
            t0 = time.time()
            A, B = build_pair_2comp(family, params)
            pair = check_pair(A, B)
            tensor, oracle = pair.tensor.verdict, pair.oracle.verdict
            ok = tensor and oracle and tensor == oracle
            if not ok:
                bad += 1
            print(
                f"{family:13s} draw {i}: tensor={tensor} oracle={oracle} "
                f"({time.time() - t0:.2f}s)"
            )
    print(f"\n{bad} disagreements/failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
