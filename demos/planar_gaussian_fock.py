#!/usr/bin/env python3
"""The planar standard gaussian and its Fock-space reconstruction.

In two dimensions the moment functional no longer reduces to a scalar
three-term recurrence: each level n carries a whole matrix of creation,
preservation and annihilation blocks per coordinate.  For the standard
gaussian everything is explicit, which makes it the canonical check:

  - the level Gram matrix is n! times the symmetric tensor metric T_n,
  - every preservation block is zero,
  - the creation blocks are the plain index shifts m -> m + e_j.

The second half rebuilds the measure from nothing but that operator data
and confirms mixed moments like E[x^2 y^2] come back exactly.
"""

from math import factorial

from favard import (
    build_fock,
    build_gradation,
    extract_cap,
    extract_jacobi,
    from_catalog,
    moment_of_word,
    verify_adjointness,
    verify_commutators,
    verify_jacobi_relation,
)
from favard.mindex import enumerate_level, tensor_metric

N = 4
phi = from_catalog("gaussian_product", 2, 2 * N + 1)
gb = build_gradation(phi, N)
cap = extract_cap(gb)
js = extract_jacobi(gb, cap)

print("level Gram matrices vs n! T_n:")
for n in range(N + 1):
    t = tensor_metric(2, n)
    expect = [[factorial(n) * x for x in row] for row in t.metric_matrix()]
    tag = "==" if js.gomega[n] == expect else "!="
    print(f"  level {n}: Gomega_{n} {tag} {factorial(n)} * T_{n}   "
          f"(indices {list(t.indices)})")

print("\npreservation blocks (all should vanish):")
flat = [x for j in (1, 2) for n in range(cap.alpha_levels + 1)
        for row in cap.azero[j][n] for x in row]
print(f"  {len(flat)} entries, all zero: {all(x == 0 for x in flat)}")

print("\noperator identity reports:")
for rep in (verify_jacobi_relation(cap, gb), verify_adjointness(cap, gb),
            verify_commutators(cap)):
    worst = max((c.deviation for c in rep.checks), default=0)
    print(f"  {rep.summary().splitlines()[0]}  "
          f"({len(rep.checks)} identities, worst deviation {worst})")

# reconstruction: words in the two coordinate directions against known moments
ops = build_fock(js)
print("\nreconstructed moments (word -> value, expected):")
for word, m in [((1, 1), (2, 0)), ((1, 1, 2, 2), (2, 2)),
                ((1,) * 4, (4, 0)), ((1, 2), (1, 1)), ((2,) * 6, (0, 6))]:
    got = moment_of_word(ops, word)
    expect = phi.moment(m)
    print(f"  {word} -> {got}  (moment {m} = {expect}, match: {got == expect})")

# the annihilation blocks recover the number-operator ladder coordinatewise
print("\nannihilator acting on pure powers: a-_1 maps e_(n,0) to n e_(n-1,0):")
for n in range(1, N + 1):
    idx = enumerate_level(2, n).index((n, 0))
    col = [row[idx] for row in ops.aminus[1][n]]
    target = enumerate_level(2, n - 1).index((n - 1, 0))
    print(f"  n={n}: coefficient {col[target]} (rest zero: "
          f"{all(x == 0 for i, x in enumerate(col) if i != target)})")
