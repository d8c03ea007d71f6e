#!/usr/bin/env python3
"""Symmetric tensors: canonical storage and evaluation.

A symmetric tensor keeps one value per sorted multi-index; every
permutation of an index names the same entry.  Evaluation weights each
stored entry by the number of ordered rearrangements.
"""

from copos import all_indices, build, canonicalize, multiplicity

# order 3, dimension 2: four independent entries 111, 112, 122, 222
g = build(3, 2, {(1, 1, 1): 1.0, (1, 1, 2): -0.5, (2, 2, 2): 2.0})

print("order", g.order, "dim", g.dim)
print("canonical indices:", list(all_indices(3, 2)))
print()

# any permutation reads the same entry
for idx in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
    print(f"g[{idx}] = {g.get(idx)}")
print("canonicalize((2, 1, 1)) =", canonicalize((2, 1, 1), 2))
print()

# multiplicity = number of ordered words spelling the sorted index
for idx in all_indices(3, 2):
    print(f"multiplicity{idx} = {multiplicity(idx)}")
print()

# G x^3 = sum over stored entries of value * multiplicity * prod x_i
x = (1.0, 2.0)
expected = (1.0 * 1 * 1.0 + (-0.5) * 3 * 1.0 * 1.0 * 2.0 + 2.0 * 1 * 8.0)
print("G x^3 at", x, "=", g.evaluate(x), "(by hand:", expected, ")")
