"""Keep the documentation honest: run its code, compile the examples."""

from __future__ import annotations

import py_compile
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def test_readme_quickstart_snippet_runs():
    readme = (REPO / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks, "README lost its python quickstart block"
    namespace: dict = {}
    exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)
    # The snippet's variables must exist and be sane.
    assert len(namespace["leader"]) == 1
    assert namespace["calls"] > 0


@pytest.mark.parametrize(
    "script", sorted((REPO / "examples").glob("*.py")), ids=lambda p: p.name
)
def test_examples_compile(script):
    py_compile.compile(str(script), doraise=True)


def test_examples_table_matches_directory():
    readme = (REPO / "README.md").read_text()
    on_disk = {p.name for p in (REPO / "examples").glob("*.py")}
    documented = set(re.findall(r"`(\w+\.py)`", readme))
    assert on_disk <= documented | {"__init__.py"}, (
        f"undocumented examples: {on_disk - documented}"
    )


def test_design_md_module_references_exist():
    design = (REPO / "DESIGN.md").read_text()
    package = REPO / "src" / "repro"
    subpackages = "|".join(sorted(p.parent.name for p in package.glob("*/__init__.py")))
    modules = re.findall(rf"`((?:{subpackages})/\w+\.py)`", design)
    assert modules
    for module in modules:
        assert (package / module).exists(), f"DESIGN.md references missing {module}"


def test_experiments_md_mentions_every_bench_file():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for bench in sorted((REPO / "benchmarks").glob("bench_*.py")):
        # Every bench file's experiments should be discussed (by id).
        text = bench.read_text()
        ids = set(re.findall(r"E\d+", text.split('"""')[1]))
        assert any(exp_id in experiments for exp_id in ids), (
            f"{bench.name} experiments {ids} not discussed in EXPERIMENTS.md"
        )


def test_tutorial_numbers_are_accurate():
    # The tutorial quotes exact measurements; keep them true.
    from repro import FixedDelays, Network, Protocol, topologies
    from repro.core import run_group_multicast
    from repro.hardware import build_anr, reply_route

    net = Network(topologies.grid(4, 4), delays=FixedDelays(0.0, 1.0))

    class PingService(Protocol):
        def on_start(self, payload):
            if payload is None:
                return
            self.api.send(build_anr(payload, net.id_lookup), "ping")

        def on_packet(self, packet):
            if packet.payload == "ping":
                self.api.send(reply_route(packet), "pong")
            else:
                self.api.report("rtt_done", self.api.now)

    net.attach(lambda api: PingService(api))
    net.start([0], payload=(0, 1, 2, 3, 7))
    net.run_to_quiescence()
    assert net.output(0, "rtt_done") == 3.0
    assert net.metrics.system_calls == 3
    assert net.metrics.hops == 8

    fresh = Network(topologies.grid(4, 4), delays=FixedDelays(0.0, 1.0))
    run = run_group_multicast(fresh, 0, bodies=["status-1", "status-2"])
    assert run.setup_calls == 15
    assert run.per_message_time == [2.0, 2.0]


def test_tutorial_scenario_numbers_are_accurate():
    # §10 quotes the churn-grid:4,4-s7 run verbatim; keep it true.
    from repro import FixedDelays, Network, topologies
    from repro.scenario import churn_scenario, run_scenario

    spec = churn_scenario("grid:4,4", seed=7)
    net = Network(topologies.grid(4, 4), delays=FixedDelays(0.0, 1.0))
    row = run_scenario(net, spec)
    assert row["final_time"] == 1023.0
    assert row["system_calls"] == 243
    assert row["tour_return_calls"] == 142
    assert row["leaders"] == ["9"]
    assert row["violations"] == 0
