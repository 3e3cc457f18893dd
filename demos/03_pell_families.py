"""
Two Pell equations hiding in the chains
=======================================

Chain values and their companions solve z^2 - d a^2 = s^2 with d = y^2 - s^2;
differences of chain values solve a second, negated equation.  An exhaustive
oracle, which knows nothing about the chains, double-checks both claims.
"""

from cayleycubic import (
    family_one_instance,
    family_two_instance,
    pell_family_one,
    pell_family_two,
    pell_oracle,
)

# Family one at s=1, y=2: the classical x^2 - 3y^2 = 1 ladder.
inst = family_one_instance(1, 2)
print("instance:", inst.d, inst.rhs, inst.form)
sols = [pell_family_one(1, 2, n) for n in range(1, 7)]
print("chain solutions:", [tuple(s) for s in sols])

# The oracle finds every solution up to the bound from the unit 2 + sqrt(3)
# of x^2 - 3y^2 = 1: it scans one fundamental domain of that unit, then
# multiplies each solution found there by the unit until it passes the bound.
found = pell_oracle(inst, 1400)
print("scan agrees:", [tuple(s) for s in found] == [tuple(s) for s in sols])

# The last convergent approximates sqrt(3) to better than 5e-7 -- entirely
# a statement about integers: 1351^2 - 3*780^2 = 1.
z, a = sols[-1]
print(f"{z}^2 - 3*{a}^2 =", z * z - 3 * a * a)

# Family two: pick a chain anchor R_n, then d = R_n^2 - s^2 and the scaled
# differences (R_{n+m} - R_{|n-m|}) * s / 2 solve a^2 - d z^2 = -s^2 d.
inst2 = family_two_instance(1, 4, 2)
print("second instance:", inst2.d, inst2.rhs, inst2.form)
sols2 = [pell_family_two(1, 4, 2, m) for m in (1, 2, 3)]
print("difference solutions:", [tuple(s) for s in sols2])
# d = 960 = 15 * 8^2: the oracle works with the unit 4 + sqrt(15) and keeps
# the solutions of a^2 - 15 w^2 = -960 whose w is a multiple of 8.
print("scan agrees:", pell_oracle(inst2, 250) == sols2)

# The same construction scales: s=3, y=6 gives z^2 - 27 a^2 = 9.
inst3 = family_one_instance(3, 6)
print("scaled instance:", inst3.d, inst3.rhs)
print("first three:", [tuple(pell_family_one(3, 6, n)) for n in (1, 2, 3)])
print("scan:", [tuple(s) for s in pell_oracle(inst3, 100)])
