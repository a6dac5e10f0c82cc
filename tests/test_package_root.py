"""The package root resolves its exports on first access (PEP 562).

``import repro`` imports no subpackage; each public name is imported
when first read and is the very object its subpackage defines.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

#: The public names of the package root.  Resolving them lazily must
#: not change this list.
PUBLIC = {
    "BranchingPathsBroadcast", "ChangRoberts", "DfsBroadcast", "DirectBroadcast",
    "FixedDelays", "FloodingBroadcast", "HirschbergSinclair", "LayeredBfsBroadcast",
    "LeaderElection", "MetricsCollector", "MetricsSnapshot", "Network",
    "OptTreeBuilder", "Protocol", "RandomDelays", "Scheduler", "TopologyMaintenance",
    "Tree", "TreeAggregation", "analysis", "attach_topology_maintenance", "bfs_tree",
    "converge_by_rounds", "core", "format_table", "hardware", "is_converged",
    "limiting_model", "metrics", "network", "optimal_spanning_tree",
    "parameterized_model", "run_standalone_broadcast", "run_tree_aggregation",
    "scenario", "sim", "topologies", "__version__",
}

NAMES = sorted(set(repro.__all__) - {"__version__"})


def test_public_names_unchanged():
    assert set(repro.__all__) == PUBLIC
    assert len(repro.__all__) == len(PUBLIC)


@pytest.mark.parametrize("name", NAMES)
def test_export_is_the_object_its_subpackage_defines(name):
    home = repro._EXPORTS[name]
    if home is None:
        assert getattr(repro, name) is importlib.import_module(f"repro.{name}")
    else:
        subpackage = importlib.import_module(f"repro.{home}")
        assert name in subpackage.__all__
        assert getattr(repro, name) is vars(subpackage)[name]


def test_dir_lists_every_export():
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_name_fails_when_accessed():
    with pytest.raises(AttributeError, match="'repro' has no attribute 'no_such_name'"):
        repro.no_such_name
    assert not hasattr(repro, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        from repro import no_such_name  # noqa: F401


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)


def test_quickstart_in_the_docstring_runs():
    doc = repro.__doc__
    block = doc[doc.index("Quickstart::") + len("Quickstart::"):]
    namespace: dict = {}
    exec(textwrap.dedent(block), namespace)
    assert len(namespace["leader"]) == 1


def test_import_repro_loads_no_subpackage_until_a_name_is_read():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import sys\n"
        "import repro\n"
        "assert [m for m in sys.modules if m.startswith('repro.')] == []\n"
        "assert 'Network' not in vars(repro)\n"
        "net_cls = repro.Network\n"
        "assert 'repro.network' in sys.modules and 'Network' in vars(repro)\n"
        "assert net_cls is sys.modules['repro.network.network'].Network\n"
        "assert 'repro.analysis' not in sys.modules\n"
        "assert 'repro.scenario' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
