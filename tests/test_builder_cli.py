"""Tests for the network builders and the command-line interface."""

from __future__ import annotations

import argparse
import re

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


def test_cli_unknown_topology_errors(capsys):
    assert main(["broadcast", "--topology", "donut:9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown topology" in err
    assert "'donut:9'" in err


#: One malformed spec per kind: wrong arity, a non-integer argument, an
#: unknown name, and two of a generator's range checks.
BAD_SPECS = ("grid:8", "fat_tree:2.5", "nope:3", "ring:2", "grid:0,3")


@pytest.mark.parametrize("spec", BAD_SPECS)
@pytest.mark.parametrize(
    "argv",
    [
        ["broadcast"],
        ["election"],
        ["converge"],
        ["multicast"],
        ["observe"],
        ["scenario", "run"],
        ["campaign", "montecarlo", "--seeds", "2", "--no-cache"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_malformed_topology_is_one_error_line(argv, spec, capsys):
    assert main([*argv, "--topology", spec]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ") and repr(spec) in lines[0]
    # The campaign rejects the spec before any task runs.
    assert "mc[" not in captured.out


def test_cli_malformed_topology_exits_2_without_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "broadcast", "--topology", "grid:8"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: topology spec 'grid:8': bad arguments [8] for topology 'grid'"
    ]


@pytest.mark.parametrize("spec", [*BAD_SPECS, "random:0", "torus:"])
def test_topology_from_spec_raises_one_error_type(spec):
    from repro.network import TopologySpecError, topology_from_spec

    with pytest.raises(TopologySpecError, match=f"topology spec {spec!r}"):
        topology_from_spec(spec)


@pytest.mark.parametrize(
    "argv",
    [
        ["broadcast", "--root", "999"],
        ["broadcast", "--root", "999", "--compare"],
        ["broadcast", "--root", "999", "--show-plan"],
        ["observe", "--root", "999"],
        ["multicast", "--root", "999"],
        ["election", "--starters", "999"],
    ],
    ids=" ".join,
)
def test_cli_unknown_node_is_one_error_line(argv, capsys):
    assert main([*argv, "--topology", "grid:3,3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: no node 999 in the network"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["globalfn", "--n", "0"],
        ["globalfn", "--n", "-3"],
        ["globalfn", "--jobs", "0"],
        ["converge", "--max-rounds", "0"],
        ["converge", "--fail", "-1"],
        ["multicast", "--messages", "-2"],
        ["lowerbound", "--max-depth", "0"],
        ["lowerbound", "--max-depth", "-1"],
        ["campaign", "montecarlo", "--jobs", "0"],
        ["campaign", "montecarlo", "--jobs", "-2"],
        ["scenario", "search", "--jobs", "0"],
        # Tracebacks from a library ValueError without a bound.
        ["broadcast", "--link-rate", "0"],
        ["converge", "--link-rate", "-1"],
        ["election", "--link-buffer", "0"],
        ["broadcast", "--C", "-1"],
        ["multicast", "--P", "-1"],
        ["globalfn", "--P", "0"],
        ["globalfn", "--C", "-1"],
        ["campaign", "montecarlo", "--retries", "-1"],
        ["bench", "--flamegraph-hz", "0"],
        # Values accepted without a bound, run on nonsense.
        ["campaign", "montecarlo", "--max-tasks", "-1"],
        ["scenario", "search", "--max-tasks", "-1"],
        ["scenario", "search", "--trials", "-1"],
        ["scenario", "search", "--bias", "2"],
        ["scenario", "search", "--bias", "-1"],
        ["campaign", "montecarlo", "--timeout", "0"],
        ["campaign", "montecarlo", "--timeout", "-1"],
        ["campaign", "montecarlo", "--edge-prob", "2"],
        ["campaign", "montecarlo", "--n", "0"],
        ["campaign", "tradeoff", "--P", "-1"],
        ["observe", "--timeline-width", "-5"],
        ["observe", "--limit", "-1"],
        ["observe", "--heat-limit", "-1"],
        ["bench", "--profile-top", "-1"],
        ["scenario", "run", "--bias", "nan"],
    ],
    ids=" ".join,
)
def test_cli_count_flag_below_its_minimum_is_a_usage_error(argv, capsys):
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert re.search(rf"argument {flag}: must be (>=|>|<=) \S+, got {value}$", err, re.M)


#: Numeric flags where every integer names something: a node or a seed.
UNBOUNDED_NUMERIC_FLAGS = {"--root", "--seed", "--churn-seed", "--root-seed"}


def test_every_numeric_flag_states_its_bound():
    def actions(parser):
        for action in parser._actions:
            yield parser.prog, action
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)

    bare = [f"{prog} {action.option_strings[0]}"
            for prog, action in actions(build_parser())
            if action.type in (int, float)
            and not set(action.option_strings) & UNBOUNDED_NUMERIC_FLAGS]
    assert bare == []


@pytest.mark.parametrize("argv", [["campaign", "tradeoff", "--ratios", "1,1/0"],
                                  ["campaign", "tradeoff", "--P", "1/0"]], ids=" ".join)
def test_cli_campaign_zero_denominator_exits_2_without_traceback(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "1/0" in err


def test_cli_starters_is_all_or_a_node_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["election", "--topology", "ring:4", "--starters", "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "argument --starters: must be 'all' or a node id, got 'abc'" in err
    for starters in ("all", "2"):
        assert main(["election", "--topology", "ring:4", "--starters", starters]) == 0


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
    """Everything construction decides, in order.

    Each port lists ``(port ID, far node, receiving normal)`` for its
    normal ID and then its copy ID: entry ``i`` of the port table
    answers to normal ID ``i`` and copy ID ``flag | i``.
    """
    flag = net.id_space.flag

    def port_entries(node_id, ports):
        entries = []
        for index, link in enumerate(ports):
            if link is None:
                continue
            far = link.other(node_id).node_id
            receiving_normal = link.ids_at(far)[0]
            entries += [(index, far, receiving_normal),
                        (flag | index, far, receiving_normal)]
        return entries

    return {
        "links": [
            (key, link.node_u.node_id, link.node_v.node_id, link._normal_u,
             link._normal_v)
            for key, link in net.links.items()
        ],
        "ports": {
            node_id: port_entries(node_id, node.ports)
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


@pytest.mark.parametrize("spec", sorted(SMALL_SPECS.values()))
def test_topology_nodes_list_every_node(spec):
    from repro.network import topology_from_spec

    topology = topology_from_spec(spec)
    assert list(topology.nodes) == topology.node_order()
    assert len(topology.nodes) == from_spec(spec).n


def test_spec_builds_match_reference_construction():
    from repro.network import Network, graph_from_spec, topology_from_spec

    assert set(SMALL_SPECS) == set(TOPOLOGY_FACTORIES)
    for spec in SMALL_SPECS.values():
        topology = topology_from_spec(spec)
        expected = _reference_construction(graph_from_spec(spec))
        for how, net in {
            "from_spec": from_spec(spec),
            "Network(topology)": Network(topology),
            "Network(graph)": Network(graph_from_spec(spec)),
            "from_edges": from_edges(topology.edges, nodes=topology.nodes),
        }.items():
            assert _construction(net) == expected, (spec, how)
    # Fabric node order is insertion order, not ID order: a fat tree's
    # edge switches join before the second aggregation switch of a pod.
    assert list(from_spec("fat_tree:4").graph.nodes)[:12] == [
        0, 1, 2, 3, 4, 6, 7, 5, 8, 9, 10, 11
    ]


class _SameRepr:
    def __repr__(self) -> str:
        return "node"


def test_edge_sequences_merge_repeats_and_reject_self_loops():
    import networkx as nx

    from repro.network import Network, Topology

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
        lambda: Network(Topology(range(2), [(0, 1), (1, 1)])),
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


def test_link_lookups_scan_the_port_tables():
    from repro.cli import _broadcast

    net = from_spec("fat_tree:8")
    _broadcast("bpaths", net, 0)  # one ID lookup per tree edge
    assert "links" not in vars(net)

    net = from_spec("ring:5")
    assert net.link(1, 0) is net.link(0, 1) is net.node(0).link_to(1)
    with pytest.raises(KeyError):
        net.link(0, 2)
    with pytest.raises(KeyError):
        net.node(2).link_to(0)
    assert "links" not in vars(net)
    assert net.link(4, 0) is net.links[(0, 4)]


#: OpenSSL's libcrypto behind ``_hashlib``, which no command loads: the
#: SHA-256 of string seeds, task-spec hashes and cache keys comes from
#: the interpreter's built-in module.
OPENSSL = ("hashlib", "_hashlib")

#: What only a campaign's process pool needs: ``multiprocessing``
#: behind ``concurrent.futures``.
CAMPAIGN_ONLY = ("multiprocessing", "concurrent.futures")

#: The paper's election and its domain state, which neither a broadcast
#: nor topology maintenance runs.
ELECTION = ("repro.core.election", "repro.core.election_state")


@pytest.mark.parametrize(
    "argv,blocked",
    [
        pytest.param(
            ["broadcast", "--topology", "fat_tree:4", "--scheme", "flood"],
            ("networkx", *OPENSSL, *CAMPAIGN_ONLY, *ELECTION, "repro.core.topology_maintenance",
             "repro.core.globalfn"),
            id="flood",
        ),
        pytest.param(
            ["broadcast", "--topology", "fat_tree:4", "--scheme", "bpaths"],
            ("networkx", *OPENSSL, *CAMPAIGN_ONLY),
            id="bpaths",
        ),
        # Theorem 2's budgets need the closed forms, not the election.
        pytest.param(
            ["broadcast", "--topology", "fat_tree:4", "--monitor", "budgets"],
            ("networkx", *OPENSSL, *CAMPAIGN_ONLY, *ELECTION,
             "repro.analysis.invariants"),
            id="broadcast-budgets",
        ),
        pytest.param(
            ["converge", "--topology", "torus:4,4", "--fail", "2",
             "--link-rate", "1", "--link-buffer", "2"],
            ("networkx", *OPENSSL, *CAMPAIGN_ONLY, *ELECTION, "repro.core.election_baselines",
             "repro.core.flooding"),
            id="converge",
        ),
        pytest.param(
            ["bench", "--name", "hotpath_forwarding"],
            ("networkx", *OPENSSL, *CAMPAIGN_ONLY),
            id="bench",
        ),
        # A churn story derives its seeds from strings, and a campaign
        # hashes its specs and forks workers (which inherit the block).
        # The churn monitor reads no closed form and no `analysis`.
        pytest.param(
            ["scenario", "run", "--topology", "clos:8,4,2", "--churn-seed", "1"],
            ("networkx", *OPENSSL, "repro.analysis", "fractions", "decimal",
             "repro.obs.perf", "repro.obs.bench", "repro.core.flooding"),
            id="scenario",
        ),
        pytest.param(
            ["campaign", "montecarlo", "--seeds", "4", "--topology", "random:24,3",
             "--jobs", "2", "--no-cache"],
            ("networkx", *OPENSSL, "repro.analysis", "repro.scenario",
             "repro.obs.monitors", "repro.core.flooding"),
            id="campaign",
        ),
        # The paper's own shapes and the commands that only print.
        *(
            pytest.param(argv, ("networkx",), id=name)
            for name, argv in {
                "broadcast-compare": ["broadcast", "--topology", "grid:4,4", "--compare"],
                "broadcast-show-plan": ["broadcast", "--topology", "grid:4,4", "--show-plan"],
                "election-baselines": ["election", "--topology", "ring:16", "--baselines"],
                "converge-grid": ["converge", "--topology", "grid:4,4", "--fail", "2"],
                "observe-broadcast": ["observe", "--topology", "grid:3,3"],
                "observe-election": ["observe", "--topology", "grid:3,3",
                                     "--workload", "election"],
                "observe-congestion": ["observe", "--topology", "grid:3,3", "--congestion"],
                "topology-info": ["topology", "info", "fat_tree:4"],
                "topology-info-exact": ["topology", "info", "torus:4,4", "--exact-diameter"],
                "lowerbound": ["lowerbound"],
                "report": ["report", "--out", "report"],
            }.items()
        ),
        # No command: the CLI's own import loads no algorithm and no
        # optional subpackage.
        pytest.param(
            None,
            ("networkx", *OPENSSL, *CAMPAIGN_ONLY,
             "repro.analysis", "repro.core", "repro.scenario", "repro.exec", "repro.obs"),
            id="import-cli",
        ),
    ],
)
def test_command_import_budget(argv, blocked, tmp_path):
    """A command imports nothing ``blocked``: each such module is set to
    ``None`` in ``sys.modules`` first, so any import of it fails the
    run, and none of it may be loaded afterwards.  Like the benchmark's
    child process, every command run also imports ``repro.exec.engine``.
    Commands run in a scratch directory, where ``report`` writes.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = "import sys\n"
    code += "".join(f"sys.modules[{name!r}] = None\n" for name in blocked)
    code += "import repro.cli\n"
    if argv is not None:
        code += (
            "from repro.exec import engine\n"
            f"code = repro.cli.main({argv!r})\n"
            "assert code == 0, code\n"
        )
    code += (
        f"blocked = {blocked!r}\n"
        "loaded = [m for m in sys.modules if sys.modules[m] is not None\n"
        "          and any(m == b or m.startswith(b + '.') for b in blocked)]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
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
