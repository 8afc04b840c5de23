"""Why squaring can ruin chordality, and when it provably cannot.

The complete 4-sun is chordal, yet its square acquires an induced 4-cycle
on the four outer vertices. The saving grace: the 4-sun has no efficient
dominating set. For (P6, house, hole, domino)-free graphs that DO have
one, the square is guaranteed chordal, which is exactly what lets the
solver take its fast greedy path.
"""

from perfcode import (
    class_membership,
    complete_sun,
    find_pattern,
    gen_random_graph,
    is_chordal,
    oracle_ed,
    solve,
    square,
    square_diagnostics,
)

sun = complete_sun(4)
print("complete 4-sun:", sun, "chordal:", is_chordal(sun)[0])

sq = square(sun)
witness = find_pattern(sq, "C4")
print("its square contains an induced C4 on vertices", witness.vertices)
print("…but the 4-sun has no efficient dominating set:", oracle_ed(sun).exists)
print()

print("Hunting for class members whose square the solver can exploit:")
found = 0
seed = 0
while found < 4:
    seed += 1
    g = gen_random_graph(9, 0.18, seed)
    if not class_membership(g, "(P6,HHD)-free").member:
        continue
    solution = solve(g)
    if not solution.exists:
        continue
    found += 1
    print(
        f"  seed {seed}: n={g.n} m={g.edge_count}  "
        f"square chordal: {square_diagnostics(g).chordal}  "
        f"path: {solution.path}  e.d.: {solution.vertices}"
    )
print()
print("Every one of those squares is chordal, so the greedy path applies.")
