"""Tests for the network builders and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.network.builder import TOPOLOGY_FACTORIES, from_adjacency, from_edges, from_spec


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def test_from_edges():
    net = from_edges([(0, 1), (1, 2)])
    assert net.n == 3 and net.m == 2


def test_from_edges_with_isolated_nodes():
    net = from_edges([(0, 1)], nodes=[0, 1, 2])
    assert net.n == 3 and net.m == 1


def test_from_adjacency_one_sided():
    net = from_adjacency({0: [1, 2], 1: [], 2: []})
    assert net.n == 3 and net.m == 2
    assert set(net.node(0).links) == {1, 2}


@pytest.mark.parametrize(
    "spec,n",
    [
        ("ring:12", 12),
        ("line:5", 5),
        ("grid:3,4", 12),
        ("complete:7", 7),
        ("hypercube:3", 8),
        ("tree:3", 15),
        ("caterpillar:4,2", 12),
        ("broom:3,4", 7),
        ("random:20,1", 20),
        ("geometric:15,2", 15),
    ],
)
def test_from_spec(spec, n):
    assert from_spec(spec).n == n


def test_from_spec_unknown_topology():
    with pytest.raises(ValueError, match="unknown topology"):
        from_spec("donut:12")


def test_from_spec_bad_arity():
    with pytest.raises(ValueError, match="bad arguments"):
        from_spec("grid:3")


def test_factories_registry_covers_spec_names():
    assert {"line", "ring", "grid", "complete", "random"} <= set(TOPOLOGY_FACTORIES)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_broadcast(capsys):
    assert main(["broadcast", "--topology", "ring:16"]) == 0
    out = capsys.readouterr().out
    assert "bpaths" in out
    assert "16" in out


def test_cli_broadcast_compare(capsys):
    assert main(["broadcast", "--topology", "grid:3,3", "--compare"]) == 0
    out = capsys.readouterr().out
    for scheme in ("bpaths", "flood", "direct", "dfs"):
        assert scheme in out


def test_cli_election(capsys):
    assert main(["election", "--topology", "random:20,3"]) == 0
    out = capsys.readouterr().out
    assert "Cidon-Gopal-Kutten" in out
    assert "6n = 120" in out


def test_cli_election_with_baselines_on_ring(capsys):
    assert main(["election", "--topology", "ring:16", "--baselines"]) == 0
    out = capsys.readouterr().out
    assert "Chang-Roberts" in out and "Hirschberg-Sinclair" in out


def test_cli_election_single_starter(capsys):
    assert main(["election", "--topology", "grid:3,3", "--starters", "4"]) == 0
    assert "leader" in capsys.readouterr().out


def test_cli_converge_with_failures(capsys):
    assert main(["converge", "--topology", "grid:4,4", "--fail", "2"]) == 0
    out = capsys.readouterr().out
    assert "cold start" in out
    assert "link failures" in out


def test_cli_globalfn(capsys):
    assert main(["globalfn", "--n", "21", "--P", "1", "--C", "1"]) == 0
    out = capsys.readouterr().out
    assert "optimal tree for n=21" in out
    assert "t_star" in out


def test_cli_lowerbound(capsys):
    assert main(["lowerbound", "--max-depth", "4"]) == 0
    out = capsys.readouterr().out
    assert "thm3_lower" in out


def test_cli_multicast(capsys):
    assert main(["multicast", "--topology", "ring:12", "--messages", "2"]) == 0
    out = capsys.readouterr().out
    assert "setup: 11 system calls" in out
    assert "coverage: 11/11" in out


def test_cli_report(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "rep")]) == 0
    out = capsys.readouterr().out
    assert "report written to" in out
    report = (tmp_path / "rep" / "REPORT.md").read_text()
    for marker in ("E1/E2", "E3", "E4b", "E5/E6", "E10", "E12", "E14",
                   "DEADLOCK", "tree_recovered"):
        assert marker in report
    csvs = list((tmp_path / "rep").glob("*.csv"))
    assert len(csvs) == 10


def test_cli_broadcast_show_plan(capsys):
    assert main(["broadcast", "--topology", "star:5", "--show-plan"]) == 0
    out = capsys.readouterr().out
    assert "labels" in out
    assert "wave 1" in out
    assert "└──" in out


def test_cli_unknown_topology_errors():
    with pytest.raises(ValueError, match="unknown topology"):
        main(["broadcast", "--topology", "donut:9"])


def test_cli_election_baselines_skip_non_rings(capsys):
    assert main(["election", "--topology", "grid:3,3", "--baselines"]) == 0
    assert "(needs a ring)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Bulk construction and datacenter-fabric specs
# ----------------------------------------------------------------------
#: One small instance of every ``TOPOLOGY_FACTORIES`` family.
SMALL_SPECS = {
    "line": "line:5",
    "ring": "ring:6",
    "star": "star:5",
    "complete": "complete:5",
    "grid": "grid:3,4",
    "hypercube": "hypercube:3",
    "tree": "tree:3",
    "caterpillar": "caterpillar:3,2",
    "broom": "broom:3,4",
    "random": "random:20,3",
    "geometric": "geometric:15,2",
    "clos": "clos:4,3,2",
    "fat_tree": "fat_tree:4",
    "torus": "torus:3,4",
    "dragonfly": "dragonfly:4,3,2",
}


def _construction(net) -> dict:
    """Everything construction decides, in order."""
    return {
        "links": [
            (key, link._u_id, link._v_id, link._normal_u, link._normal_v)
            for key, link in net.links.items()
        ],
        "ports": {
            node_id: [(pid, port[1], port[2]) for pid, port in node.ss._port_by_id.items()]
            for node_id, node in net.nodes.items()
        },
        "adjacency": dict(net.adjacency()),
        "graph_nodes": list(net.graph.nodes),
        "graph_edges": list(net.graph.edges),
    }


def _reference_construction(graph) -> dict:
    """What ``Network(graph)`` built when it read the ``nx.Graph`` itself:
    links in ``graph.edges`` order sorted by endpoint reprs, each side's
    normal ID counted in that order, ports for both IDs of each side,
    and each node's neighbours in link order sorted by repr."""
    from repro.hardware.ids import copy_flag

    flag = copy_flag(max((d for _, d in graph.degree), default=1) or 1)
    index = dict.fromkeys(sorted(graph.nodes, key=repr), 0)
    ports: dict = {node_id: [] for node_id in index}
    neighbors: dict = {node_id: [] for node_id in index}
    links = []
    for u, v in sorted(graph.edges, key=lambda e: (repr(e[0]), repr(e[1]))):
        index[u] += 1
        index[v] += 1
        iu, iv = index[u], index[v]
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        links.append((key, u, v, iu, iv))
        ports[u] += [(iu, v, iv), (flag | iu, v, iv)]
        ports[v] += [(iv, u, iu), (flag | iv, u, iu)]
        neighbors[u].append(v)
        neighbors[v].append(u)
    return {
        "links": links,
        "ports": ports,
        "adjacency": {
            node_id: tuple(sorted(nbrs, key=repr)) for node_id, nbrs in neighbors.items()
        },
        "graph_nodes": list(graph.nodes),
        "graph_edges": list(graph.edges),
    }


def test_from_edge_arrays_matches_from_edges():
    from repro.network import (
        Network,
        Topology,
        from_edge_arrays,
        graph_from_spec,
        topology_from_spec,
    )

    assert set(SMALL_SPECS) == set(TOPOLOGY_FACTORIES)
    for spec in SMALL_SPECS.values():
        topology = topology_from_spec(spec)
        edges = list(topology.edges)
        expected = _reference_construction(graph_from_spec(spec))
        for how, net in {
            "from_spec": from_spec(spec),
            "Network(graph)": Network(graph_from_spec(spec)),
            "from_edges": from_edges(edges, nodes=topology.nodes),
        }.items():
            assert _construction(net) == expected, (spec, how)
        n = len(topology.node_order())
        by_id = _reference_construction(Topology(range(n), edges).to_graph())
        assert _construction(from_edge_arrays(n, edges)) == by_id, spec
    # Fabric node order is insertion order, not ID order: a fat tree's
    # edge switches join before the second aggregation switch of a pod.
    assert list(from_spec("fat_tree:4").graph.nodes)[:12] == [
        0, 1, 2, 3, 4, 6, 7, 5, 8, 9, 10, 11
    ]


def test_from_edge_arrays_isolated_and_invalid():
    from repro.network import from_edge_arrays

    net = from_edge_arrays(5, [(0, 1)])
    assert net.n == 5 and net.m == 1
    with pytest.raises(ValueError):
        from_edge_arrays(-1, [])


class _SameRepr:
    def __repr__(self) -> str:
        return "node"


def test_edge_sequences_merge_repeats_and_reject_self_loops():
    import networkx as nx

    from repro.network import Network, Topology, from_edge_arrays

    a, b, c = _SameRepr(), _SameRepr(), _SameRepr()
    cases = [
        ([], [(2, 0), (0, 1), (0, 2), (1, 0), (2, 0), (3, 1)]),
        # Equal reprs: links fall back to ``nx.Graph.edges`` order, which
        # is not the order the pairs arrive in.
        ([a, b, c], [(b, c), (a, c), (c, a)]),
    ]
    for nodes, pairs in cases:
        graph = Topology(nodes, pairs).to_graph()
        for net in (from_edges(pairs, nodes=nodes), Network(graph)):
            assert net.m == len(graph.edges) < len(pairs)
            assert _construction(net) == _reference_construction(graph)
    for build in (
        lambda: from_edge_arrays(2, [(0, 1), (1, 1)]),
        lambda: from_edges([(0, 0)]),
        lambda: Network(nx.Graph([(0, 1), (1, 1)])),
    ):
        with pytest.raises(ValueError, match="self-loops"):
            build()
    with pytest.raises(ValueError, match="at least one node"):
        from_edges([])


def test_net_graph_is_built_on_first_read_and_never_aliases():
    import networkx as nx

    from repro.network import Network

    net = from_spec("fat_tree:4")
    net.active_graph()
    net.adjacency()
    assert "graph" not in vars(net)  # construction and views never build it
    assert net.graph is net.graph
    net.reset()
    assert "graph" in vars(net)  # a build product: reset keeps it

    caller = nx.cycle_graph(5)
    net = Network(caller)
    assert net.graph is not caller
    caller.add_edge(0, 2)
    caller.add_node(9)
    assert net.graph.number_of_nodes() == 5 and net.graph.number_of_edges() == 5
    assert net.active_graph().number_of_edges() == 5


@pytest.mark.parametrize("scheme", ["flood", "bpaths"])
def test_fabric_broadcast_never_imports_networkx(scheme):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys\n"
        "import repro.cli\n"
        "code = repro.cli.main(['broadcast', '--topology', 'fat_tree:4', "
        f"'--scheme', {scheme!r}])\n"
        "assert code == 0, code\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "spec,n,m",
    [
        ("clos:8,4", 12, 32),
        ("clos:8,4,2", 28, 48),
        ("fat_tree:4", 36, 48),
        ("torus:4,4,4", 64, 192),
        ("dragonfly:9,4", 36, 90),
    ],
)
def test_from_spec_fabrics(spec, n, m):
    net = from_spec(spec)
    assert net.n == n and net.m == m


def test_graph_from_spec_returns_bare_graph():
    from repro.network import graph_from_spec

    g = graph_from_spec("fat_tree:4")
    assert g.number_of_nodes() == 36 and g.number_of_edges() == 48
    # Private copy: mutating it must not affect later builds.
    g.remove_node(0)
    assert from_spec("fat_tree:4").n == 36


# ----------------------------------------------------------------------
# topology info
# ----------------------------------------------------------------------
def test_cli_topology_info(capsys):
    assert main(["topology", "info", "fat_tree:8"]) == 0
    out = capsys.readouterr().out
    assert "208" in out  # nodes
    assert "384" in out  # links
    assert "diameter" in out and "6" in out
    assert "build bytes/node" in out


def test_cli_topology_info_exact_diameter(capsys):
    assert main(
        ["topology", "info", "torus:4,4,4", "--exact-diameter", "--no-build-memory"]
    ) == 0
    out = capsys.readouterr().out
    assert "64" in out
    assert "build bytes/node" not in out


def test_cli_topology_info_bad_spec(capsys):
    assert main(["topology", "info", "donut:12"]) == 1
    assert "unknown topology" in capsys.readouterr().err
