"""
Exhaustive search and classification within a bound
===================================================

For a fixed s, every solution with components <= bound can be found by
solving the component quadratic in c for the pairs (a, b) whose product
(a^2 - s^2)(b^2 - s^2) is a square: both factors must lie in one signed
square class, so the values are grouped by class and only pairs within a
class are tried.  The rows are then tagged: chain
members, base triples, isolated points, and triples whose only moves leave
the bound.
"""

from cayleycubic import classify, enumerate_solutions, family_membership

# s=12 up to 40: forty base triples (p,p,12)/(12,p,p) plus one surprise
# pair that no chain generates.
sols = enumerate_solutions(12, 40)
print("count at s=12, bound 40:", len(sols))
print("last four:", [t.components for t in sols[-4:]])

# family_membership descends a solution to its terminal (s, b, b), looks its
# components up in the chain at base (s, b) and reports (b, n, m), or None.
print("membership of (13,15,20):", family_membership(sols[-2]))
print("membership of (12,18,18):",
      family_membership([t for t in sols if t.components == (12, 18, 18)][0]))

# classify adds tags, connected components, and exact conjugates.
rows = classify(24, 80)
print("rows at s=24, bound 80:", len(rows))
for r in rows:
    if r.tags not in ((), ("base",)):
        print("   ", r.triple.components, "|".join(r.tags) or "-", r.family)

# The isolated triple really has no integral conjugate at all:
iso = [r for r in rows if "isolated" in r.tags][0]
print("isolated:", iso.triple.components,
      [str(c) for c in iso.conjugates])

# At s=1 every solution is a chain member.
unit = classify(1, 100)
print("s=1 rows:", len(unit),
      "all chain members:", all("r-family" in r.tags for r in unit))

# Budgets make the quadratic-solve count explicit before work starts.
try:
    enumerate_solutions(1, 10**6, budget=1000)
except Exception as exc:
    print("budget refusal:", exc)
