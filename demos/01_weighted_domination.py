"""Solve weighted efficient domination on a small cycle, two ways.

An efficient dominating set (a perfect code) covers every vertex exactly
once by closed neighborhoods. On the 6-cycle there are three of them,
the antipodal pairs; with weights 1..6 the cheapest is {0, 3}. The main
solver finds it through an independent-set computation on the square,
and the exact-cover oracle confirms it from first principles.
"""

from perfcode import cycle_graph, oracle_ed, solve, square_diagnostics, verify_ed, write_dimacs

g = cycle_graph(6)
weights = (1, 2, 3, 4, 5, 6)

print("The 6-cycle, with vertex weights", weights)
print()

solution = solve(g, weights)
print("pipeline:", solution.path)
print("  efficient dominating set:", solution.vertices)
print("  total weight:", solution.user_weight)
print("  square diagnostics:", square_diagnostics(g))
assert verify_ed(g, solution.vertices)

reference = oracle_ed(g, weights)
print("oracle:", reference.vertices, "weight", reference.user_weight)
assert reference.user_weight == solution.user_weight

print()
print("The same instance as a graph file:")
print(write_dimacs(g, weights), end="")
