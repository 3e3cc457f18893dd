"""
The Markov tree and a chain component, side by side
===================================================

Both graphs grow by Vieta moves along the Euclid tree of coprime pairs, yet
they spend their values very differently.

A chain vertex (i, j) of base (s, p) is (X_i, X_j, X_{i+j}), where
X_n = (s/2) tr M^n for the one matrix M = [[2p/s, -1], [1, 0]].  Since
M^i M^j = M^(i+j), a value depends on the index sum alone: the component cut
at X_N has one vertex per coprime pair i <= j with i + j <= N, about 3N^2/(2 pi^2)
of them, but only N + 1 distinct values.

A Markov triple is a third of the traces of Cohn matrices, products of the two
non-commuting matrices [[2, 1], [1, 1]] and [[5, 2], [2, 1]], so a Markov
number depends on its whole word.  Every triple past the root brings a new
maximum: the triples and the distinct numbers among them grow together.
"""

from cayleycubic import Triple, markov_tree, scaled_cheb_t, solution_graph

S, P = 2, 4
print(f"{'':>3}  {'Markov tree, depth d':>26}  {f'chain ({S}, {P}) cut at X_N':>26}")
print(f"{'d/N':>3}  {'triples':>12}  {'numbers':>12}  {'vertices':>12}  {'values':>12}")
for n in range(1, 13):
    tree = markov_tree(n)
    numbers = {x for t in tree for x in t}
    # every maximum is new: no Markov number is the maximum of two triples
    assert len({t[2] for t in tree}) == len(tree)
    graph = solution_graph(Triple(S, S, P, P), scaled_cheb_t(S, P, n))
    values = {x for v in graph.vertices for x in v}
    assert len(values) == n + 1
    print(f"{n:>3}  {len(tree):>12}  {len(numbers):>12}  {len(graph.vertices):>12}  {len(values):>12}")
