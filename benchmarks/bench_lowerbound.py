"""E3 — the Ω(log n) one-way broadcast lower bound (Theorem 3).

The series brackets the optimum number of one-way rounds on complete
binary trees of growing depth:

* ``lower``  — Theorem 3's adversary bound ceil((D-5)/5);
* ``exact``  — exhaustive optimum (small depths only);
* ``greedy`` — the greedy schedule's rounds (an upper bound);
* ``bpaths`` — what the branching-paths broadcast achieves (= D here:
  on complete binary trees every decomposed path is a single edge).

The shape to check: all columns grow linearly in D = log2(n+1), i.e.
the one-way broadcast time is Θ(log n), matching Theorems 2 and 3.
The witness column confirms the adversary's ``V_t`` construction
succeeds against the greedy schedule (2^t uninformed nodes at depth 5t).
"""

from __future__ import annotations

from conftest import emit
from repro.core import (
    coverage_rounds,
    decompose_paths,
    exhaustive_min_rounds,
    greedy_schedule,
    max_chain_depth,
    theorem3_lower_bound,
    witness_uninformed_sets,
)
from repro.network import bfs_tree, topologies


def cbt_tree(depth):
    adjacency = topologies.complete_binary_tree(depth).adjacency()
    return bfs_tree({u: tuple(sorted(nbrs)) for u, nbrs in adjacency.items()}, 0)


def test_e3_lower_bound_series(benchmark, capsys):
    rows = []
    for depth in range(1, 13):
        tree = cbt_tree(depth)
        n = len(tree)
        schedule = greedy_schedule(tree)
        greedy_rounds = coverage_rounds(tree, schedule)
        bpaths_rounds = max_chain_depth(decompose_paths(tree))
        exact = exhaustive_min_rounds(tree) if depth <= 3 else "-"
        witnesses = witness_uninformed_sets(tree, schedule)
        rows.append(
            [
                depth,
                n,
                theorem3_lower_bound(depth),
                exact,
                greedy_rounds,
                bpaths_rounds,
                "/".join(str(len(w)) for w in witnesses) or "-",
            ]
        )
    emit(
        capsys,
        "E3 — one-way broadcast rounds on complete binary trees "
        "(paper: Omega(log n) lower bound, log n upper bound)",
        ["depth", "n", "thm3_lower", "exact_opt", "greedy", "bpaths", "witness|V_t|"],
        rows,
    )
    tree = cbt_tree(10)
    benchmark(lambda: coverage_rounds(tree, greedy_schedule(tree)))
