#!/usr/bin/env python3
"""Measures with vanishing orthogonal polynomials.

Nothing in the pipeline assumes the Gram matrices are invertible.  Three
degenerate regimes are walked through here:

  - two-point support (Rademacher): the ladder terminates at level 2 and
    every later level carries rank zero;
  - finite support (three atoms): termination at level 3;
  - the uniform measure on the unit circle: never terminates, but every
    level from 2 on has a one-dimensional kernel, the shadow of the
    relation x^2 + y^2 = 1 that holds on the support.

Zero-norm polynomials are kept as honest basis members (pre-Hilbert
convention), the kernels are reported exactly, and reconstruction still
returns every moment on the nose.
"""

from fractions import Fraction

from favard import (
    build_fock,
    build_gradation,
    extract_cap,
    extract_jacobi,
    from_catalog,
    kernel_basis,
    moment_of_word,
    termination_level,
    verify_favard_conditions,
)
from favard.linalg import mat_vec
from favard.mindex import creation_shift, enumerate_level

print("Rademacher (fair coin on {-1,+1}):")
phi = from_catalog("rademacher_product", 1, 9)
gb = build_gradation(phi, 4)
ranks = [gb.level(n).rank for n in range(5)]
print(f"  level ranks: {ranks}  termination at level {termination_level(gb)}")
js = extract_jacobi(gb, extract_cap(gb))
ops = build_fock(js)
words = [str(moment_of_word(ops, (1,) * k)) for k in range(8)]
print(f"  reconstructed m_0..m_7: {' '.join(words)}  (even powers 1, odd 0)")

print("\nThree atoms at -1, 0, 2 with weights 1/4, 1/2, 1/4:")
atoms = [((Fraction(-1),), Fraction(1, 4)), ((Fraction(0),), Fraction(1, 2)),
         ((Fraction(2),), Fraction(1, 4))]
phi = from_catalog("atoms", 1, 9, atoms=atoms)
gb = build_gradation(phi, 4)
print(f"  level ranks: {[gb.level(n).rank for n in range(5)]}  "
      f"termination at level {termination_level(gb)}")

print("\nUniform measure on the unit circle:")
phi = from_catalog("circle_uniform", 2, 9)
gb = build_gradation(phi, 4)
print(f"  level ranks: {[gb.level(n).rank for n in range(5)]}  (never terminates)")
print(f"  level 2 Gram: {gb.level(2).gram}")
ker = kernel_basis(gb, 2)[0]
scaled = [x / ker[0] for x in ker]
print(f"  level 2 kernel vector (indices {list(enumerate_level(2, 2))}): {scaled}")
print("  that is the coefficient vector of x^2 + y^2 - 1, the zero-norm")
print("  polynomial the support relation forces into every higher level:")
for n in (2, 3):
    for kv in kernel_basis(gb, n):
        for j in (1, 2):
            lifted = mat_vec(creation_shift(2, n, j), kv)
            dead = all(x == 0 for x in mat_vec(gb.level(n + 1).gram, lifted))
            print(f"    shift_{j} of a level-{n} kernel vector is null at "
                  f"level {n + 1}: {dead}")

js = extract_jacobi(gb, extract_cap(gb))
rep = verify_favard_conditions(js)
print(f"  sequence conditions: {rep.summary().splitlines()[0]}")
ops = build_fock(js)
pairs = [((1, 1), (2, 0)), ((1, 1, 2, 2), (2, 2)), ((2,) * 8, (0, 8))]
for word, m in pairs:
    print(f"  word {word}: {moment_of_word(ops, word)} "
          f"== moment {m}: {phi.moment(m)}")
