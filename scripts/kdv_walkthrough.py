#!/usr/bin/env python3
"""End-to-end walkthrough on the inverted KdV pair.

Checks both structures, their compatibility by the two independent routes,
the quadratic Casimir of the degenerate structure, and shows why the
bi-pencil test declines this pair (the second leading coefficient has rank
two).
"""

from hamops import catalog, expr as E
from hamops.casimir import CasimirCandidate, casimir_report
from hamops.compatibility import check_pair
from hamops.geometry import bi_pencil_check


def main() -> int:
    ctx = catalog.kdv_context()
    A = catalog.kdv_A(ctx)
    B = catalog.kdv_B(ctx)
    pair = check_pair(A, B)

    print("== first structure ==")
    print(pair.hamiltonian_A)
    print("\n== second structure ==")
    print(pair.hamiltonian_B)

    print("\n== compatibility: explicit obstruction tensors ==")
    print(pair.tensor)
    print("\n== compatibility: formal-pencil oracle ==")
    print(pair.oracle)

    print("\n== quadratic Casimir of the second structure ==")
    density = E.parse("(u - w)^2 - sqrt2*(u + w)", ctx)
    print(casimir_report(B, CasimirCandidate(ctx, density), "C10"))

    print("\n== bi-pencil attempt (expected to decline: rank-two block) ==")
    print(bi_pencil_check(A, B))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
