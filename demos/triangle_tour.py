#!/usr/bin/env python3
"""A tour of the triangle itself: four ways to compute one entry, the
classic display, symmetry, and what changes when more ascents are allowed.

Run: python demos/triangle_tour.py
"""

from rascal import TriangleCache, closed_row, e_defect, rascal_value, triangle_rows

print("=" * 64)
print("One entry, four independent routes")
print("=" * 64)
cache = TriangleCache()
for method in ("closed", "multiplicative", "linear", "enumeration"):
    print(f"  R(6, 3) via {method:<14} = {rascal_value(6, 3, method, cache=cache)}")
print("  outside the triangle:    R(3, 5) =", rascal_value(3, 5))

print()
print("The first seven rows:")
for row in triangle_rows(6):
    print("   ", " ".join(str(v) for v in row))

print()
print("Rows are symmetric and unimodal; row 12 for example:")
row = triangle_rows(12)[12]
print("   ", row)
assert row == row[::-1]

print()
print("=" * 64)
print("Allowing up to j ascents (row 8 for growing j)")
print("=" * 64)
for j in range(5):
    row = closed_row(8, j)
    print(f"  j={j}: {row}" + ("   <- plain binomials from here on" if j >= 4 else ""))

print()
print("The product-recurrence defect E(n,k,j) = R(n,k;j)R(n-2,k-1;j) -")
print("R(n-1,k;j)R(n-1,k-1;j) is 1 on the interior for j=1 and stays")
print("nonnegative in every tabulated case, e.g. row 6:")
for j in range(3):
    print(f"  j={j}:", [e_defect(6, k, j) for k in range(7)])
print()
print("E(6,3,2) =", e_defect(6, 3, 2))
