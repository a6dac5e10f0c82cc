"""The CLI identity corpus: every run command's output, pinned.

Each case runs ``repro.cli.main(argv)`` in process and records its exit
code, stdout, stderr and every file it wrote, with the fields that read
the wall clock masked by :func:`mask`.  The cases run in order in one
scratch directory, so a later case may read what an earlier one wrote
(``observe --from-trace`` replays the corpus's own traces; a campaign
resumes from an earlier case's cache).  ``parser.json`` records every
(sub)parser's actions.  The recorded forms live in ``tests/golden/cli/``.

    PYTHONPATH=src python tests/cli_corpus.py check   # exit 1 with a diff on any change
    PYTHONPATH=src python tests/cli_corpus.py regen   # rewrite tests/golden/cli/

A change that alters a command's output on purpose runs ``regen`` and
says why.  This module uses the standard library only, so it also runs
on a plain install, without networkx or pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

#: ``(name, argv)`` in run order; each name is a file ``<name>.txt``.
CASES: tuple[tuple[str, list[str]], ...] = (
    # Broadcast: each scheme, the comparison table and the plan.
    ("broadcast-bpaths", ["broadcast", "--topology", "grid:3,3"]),
    ("broadcast-flood", ["broadcast", "--topology", "random:16,2", "--scheme", "flood",
                         "--root", "3"]),
    ("broadcast-direct", ["broadcast", "--topology", "ring:8", "--scheme", "direct"]),
    ("broadcast-dfs", ["broadcast", "--topology", "grid:3,3", "--scheme", "dfs",
                       "--root", "4"]),
    ("broadcast-compare", ["broadcast", "--topology", "grid:4,4", "--compare"]),
    ("broadcast-show-plan", ["broadcast", "--topology", "grid:3,3", "--show-plan"]),
    # Every export at once; under --compare they cover the --scheme run.
    ("broadcast-observed", ["broadcast", "--topology", "grid:3,3", "--compare",
                            "--scheme", "flood", "--stats", "--monitor", "all",
                            "--trace-out", "obs/b.jsonl", "--chrome-trace", "obs/b.json",
                            "--flight-recorder", "obs/b-fr.jsonl"]),
    ("broadcast-trace-capacity", ["broadcast", "--topology", "ring:6", "--trace-out",
                                  "obs/cap.jsonl", "--trace-capacity", "7",
                                  "--manifest-out", "obs/cap-manifest.json"]),
    # Election: the baselines on a ring and off one, one starter.
    ("election-baselines", ["election", "--topology", "ring:8", "--baselines"]),
    ("election-baselines-grid", ["election", "--topology", "grid:3,3", "--baselines",
                                 "--monitor", "all", "--manifest-out", "e-manifest.json"]),
    ("election-starter", ["election", "--topology", "ring:6", "--starters", "2",
                          "--stats"]),
    # Topology maintenance: failures, local scope, flow control.
    ("converge-fail", ["converge", "--topology", "grid:4,4", "--fail", "2", "--seed", "1"]),
    ("converge-local-fc", ["converge", "--topology", "torus:4,4", "--scope", "local",
                           "--strategy", "flood", "--link-rate", "1", "--link-buffer", "2",
                           "--monitor", "all", "--manifest-out", "cv-manifest.json"]),
    ("multicast", ["multicast", "--topology", "grid:3,3", "--messages", "2", "--stats",
                   "--chrome-trace", "obs/mc.json"]),
    ("globalfn", ["globalfn", "--n", "16", "--P", "1", "--C", "2"]),
    ("lowerbound", ["lowerbound", "--max-depth", "5"]),
    ("topology-info", ["topology", "info", "fat_tree:4"]),
    ("topology-info-exact", ["topology", "info", "torus:4,4", "--exact-diameter",
                             "--no-build-memory"]),
    ("topology-info-bad", ["topology", "info", "grid:8"]),
    # Observe: both workloads, congestion with and without flow control.
    ("observe-broadcast", ["observe", "--topology", "grid:3,3", "--limit", "12",
                           "--trace-out", "obs/o.jsonl"]),
    ("observe-election", ["observe", "--topology", "ring:6", "--workload", "election",
                          "--timeline-width", "30", "--stats", "--monitor", "all"]),
    ("observe-congestion-fc", ["observe", "--topology", "ring:6", "--workload",
                               "election", "--congestion", "--link-rate", "0.5",
                               "--link-buffer", "1", "--no-timeline",
                               "--trace-out", "obs/cong.jsonl"]),
    ("observe-congestion", ["observe", "--topology", "grid:3,3", "--congestion",
                            "--scheme", "flood", "--limit", "4"]),
    ("observe-from-trace", ["observe", "--from-trace", "obs/cong.jsonl", "--limit", "5",
                            "--heat-limit", "2"]),
    ("observe-from-trace-broadcast", ["observe", "--from-trace", "obs/o.jsonl",
                                      "--timeline-width", "24"]),
    ("observe-from-trace-missing", ["observe", "--from-trace", "obs/missing.jsonl"]),
    # Scenario: the churn preset, a monitor alert that dumps the flight
    # recorder (links too slow for the story's traffic: netcalc), replays
    # of the saved spec, the delay search.
    ("scenario-run", ["scenario", "run", "--topology", "grid:4,4", "--churn-seed", "7",
                      "--spec-out", "churn.json", "--trace-out", "obs/sc.jsonl",
                      "--trace-capacity", "50"]),
    ("scenario-run-alert", ["scenario", "run", "--topology", "grid:4,4", "--churn-seed",
                            "3", "--monitor", "all", "--flight-recorder", "obs/fr.jsonl",
                            "--flight-capacity", "16", "--link-rate", "0.5",
                            "--link-buffer", "1"]),
    ("observe-from-flight-recorder", ["observe", "--from-trace", "obs/fr.jsonl"]),
    ("scenario-run-spec", ["scenario", "run", "--spec", "churn.json", "--stats",
                           "--manifest-out", "sc-manifest.json"]),
    ("election-scenario", ["election", "--topology", "grid:4,4", "--scenario", "churn.json",
                           "--monitor", "churn,watchdog"]),
    ("broadcast-scenario-compare", ["broadcast", "--topology", "grid:4,4", "--scenario",
                                    "churn.json", "--compare"]),
    ("scenario-search", ["scenario", "search", "--spec", "churn.json", "--trials", "3",
                         "--no-cache", "--rows-out", "search.json",
                         "--manifest-out", "search-manifest.json"]),
    ("scenario-search-interrupted", ["scenario", "search", "--spec", "churn.json",
                                     "--trials", "3", "--jobs", "2", "--cache-dir",
                                     "cache", "--max-tasks", "2"]),
    ("scenario-search-resumed", ["scenario", "search", "--spec", "churn.json",
                                 "--trials", "3", "--jobs", "2", "--cache-dir", "cache"]),
    # Campaigns: each workload, serial and sharded, interrupted.
    ("campaign-tradeoff", ["campaign", "tradeoff", "--n", "12", "--ratios", "0,1,4",
                           "--no-cache", "--rows-out", "tradeoff.json",
                           "--manifest-out", "tradeoff-manifest.json"]),
    ("campaign-tradeoff-bad-ratio", ["campaign", "tradeoff", "--ratios", "1,x"]),
    ("campaign-bench", ["campaign", "bench", "--names", "hotpath_forwarding", "--no-cache",
                        "--perf"]),
    ("campaign-montecarlo-j1", ["campaign", "montecarlo", "--seeds", "4", "--n", "12",
                                "--no-cache", "--rows-out", "mc-j1.json"]),
    ("campaign-montecarlo-j2", ["campaign", "montecarlo", "--seeds", "4", "--n", "12",
                                "--jobs", "2", "--no-cache", "--rows-out", "mc-j2.json",
                                "--manifest-out", "mc-j2-manifest.json"]),
    ("campaign-montecarlo-interrupted", ["campaign", "montecarlo", "--seeds", "5",
                                         "--topology", "random:16,3", "--jobs", "2",
                                         "--cache-dir", "cache", "--max-tasks", "2",
                                         "--rows-out", "mc-partial.json",
                                         "--manifest-out", "mc-partial-manifest.json"]),
    ("bench", ["bench", "--name", "congested_forwarding", "--perf"]),
    ("bench-unknown", ["bench", "--name", "nope"]),
    # Misuse: one error line, or argparse's usage error.
    ("broadcast-bad-topology", ["broadcast", "--topology", "grid:8"]),
    ("broadcast-unknown-root", ["broadcast", "--topology", "grid:3,3", "--root", "99"]),
    ("election-bad-starters", ["election", "--starters", "abc"]),
    # bench/'s five workloads, at small sizes.
    ("bench-flood", ["broadcast", "--topology", "fat_tree:4", "--scheme", "flood",
                     "--root", "5"]),
    ("bench-bpaths", ["broadcast", "--topology", "fat_tree:4", "--scheme", "bpaths",
                      "--root", "7"]),
    ("bench-churn", ["scenario", "run", "--topology", "clos:8,4,2", "--churn-seed", "1",
                     "--crashes", "2"]),
    ("bench-maintain", ["converge", "--topology", "torus:4,4", "--strategy", "bpaths",
                        "--fail", "4", "--seed", "1", "--link-rate", "1",
                        "--link-buffer", "2"]),
    ("bench-montecarlo", ["campaign", "montecarlo", "--seeds", "8", "--root-seed", "1",
                          "--topology", "random:24,3", "--jobs", "2", "--no-cache",
                          "--rows-out", "bench/rows.json",
                          "--manifest-out", "bench/manifest.json"]),
)

#: Files under these directories are not recorded: cache entries are
#: named by a hash of the workload module's source, so any edit to it
#: renames them.  The resumed cases' ``[cache]`` lines cover them.
UNRECORDED_DIRS = ("cache",)

#: Table rows whose cells after the label read the wall clock (a
#: ``count`` column stays), and table columns that do.
WALL_ROWS = (
    "wall-clock per event (us)", "ncu handler wall (us)", "sched_run_s",
    "ncu_handler_s", "substrate_build_s", "substrate_reset_s", "wall_ms",
    "events_per_sec", "build bytes/node", "build memory (est)",
)
WALL_COLUMNS = ("wall_ms",)
#: JSON keys whose values depend on the clock, the host or what ran
#: earlier in the process (a manifest's ``substrate_pool``).
WALL_KEYS = ("created_at", "git", "python", "platform", "wall_ms", "substrate_pool")
MASK = "<masked>"

_JSON_VALUE = re.compile(
    r'("(?:%s)": )(null|true|false|"[^"]*"|-?[0-9][0-9.eE+-]*|\{[^{}]*\})'
    % "|".join(WALL_KEYS)
)
_STATUS_LINE = re.compile(r"^\[ *(ran|cache|FAIL|skip|ok|failed|skipped) *\] ")


def _mask_table(lines: list[str], dash: int) -> int:
    """Mask the wall-clock cells of the table underlined at ``dash``
    and re-render it as ``format_table`` would; returns the index of
    the first line after the table.

    Re-rendering matters: a wall-clock cell also sets its column's
    width and its dash run.
    """
    underline = lines[dash]
    spans, col = [], 0
    for run in underline.split(" "):
        if run:
            spans.append((col, col + len(run)))
        col += len(run) + 1
    gaps = [a - 1 for a, _ in spans[1:]]
    end = dash + 1
    while (end < len(lines) and len(lines[end]) == len(underline)
           and all(lines[end][g] == " " for g in gaps)):
        end += 1

    def cells(line: str) -> list[str]:
        return [line[a:b].strip() for a, b in spans]

    header = cells(lines[dash - 1])
    rows = [cells(line) for line in lines[dash + 1:end]]
    masked = False
    for row in rows:
        for i, name in enumerate(header):
            wall_row = i > 0 and row[0] in WALL_ROWS and name != "count"
            if (wall_row or name in WALL_COLUMNS) and row[i] != MASK:
                row[i], masked = MASK, True
    if masked:
        widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]

        def line(parts: list[str]) -> str:
            return "  ".join(text.rjust(widths[i]) for i, text in enumerate(parts))

        lines[dash - 1:end] = [line(header), line(["-" * w for w in widths]),
                               *map(line, rows)]
    return end


def mask(text: str, work: str = "") -> str:
    """``text`` with everything that varies from run to run replaced.

    Masked: the scratch directory's path; wall-clock table cells
    (:data:`WALL_ROWS`, :data:`WALL_COLUMNS`); the JSON values of
    :data:`WALL_KEYS`; and the order of a run of campaign status lines,
    which a sharded campaign prints as tasks settle.
    """
    if work:
        text = text.replace(work, "<work>")
    text = _JSON_VALUE.sub(lambda m: m.group(1) + json.dumps(MASK), text)
    lines = text.split("\n")
    i = 1
    while i < len(lines):
        if lines[i] and set(lines[i]) <= {"-", " "} and lines[i - 1].strip():
            i = _mask_table(lines, i)
        else:
            i += 1
    out, block = [], []
    for line in lines + [""]:
        if _STATUS_LINE.match(line):
            block.append(line)
            continue
        out.extend(sorted(block))
        block = []
        out.append(line)
    return "\n".join(out[:-1])


def _files(root: Path) -> dict[str, bytes]:
    found = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and rel.parts[0] not in UNRECORDED_DIRS:
            found[rel.as_posix()] = path.read_bytes()
    return found


def run_case(argv: list[str], work: Path) -> str:
    """Run one argv in ``work`` and render what it did."""
    from repro.cli import main

    before = _files(work)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded, so a new traceback shows
                code = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(limit=0, file=err)
    finally:
        os.chdir(cwd)
    parts = [f"argv: {' '.join(argv)}", f"exit: {code}",
             "--- stdout", out.getvalue(), "--- stderr", err.getvalue()]
    for name, data in _files(work).items():
        if before.get(name) != data:
            parts += [f"--- file {name}", data.decode("utf-8", "replace")]
    return mask("\n".join(parts), str(work)) + "\n"


def parser_snapshot() -> str:
    """Every (sub)parser's actions as JSON: what ``--help`` is made of."""
    from repro.cli import build_parser

    doc: dict[str, list[dict]] = {}

    def walk(parser: argparse.ArgumentParser) -> None:
        actions = doc.setdefault(parser.prog, [])
        for action in parser._actions:
            choices = action.choices
            if isinstance(choices, dict):
                choices = list(choices)
            help_text = action.help
            if isinstance(action, argparse.BooleanOptionalAction) and help_text:
                # Python 3.10 appends this to the help it is given; 3.11+ do not.
                help_text = help_text.removesuffix(" (default: %(default)s)")
            actions.append({
                "option_strings": action.option_strings,
                "dest": action.dest,
                "default": action.default,
                "choices": choices,
                "metavar": action.metavar,
                "help": help_text,
            })
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)

    walk(build_parser())
    return json.dumps(doc, indent=1, default=repr) + "\n"


def render_all() -> dict[str, str]:
    """Every corpus file's expected text, by file name."""
    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal
    rendered = {"parser.json": parser_snapshot()}
    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as tmp:
        work = Path(tmp).resolve()
        for name, argv in CASES:
            rendered[f"{name}.txt"] = run_case(argv, work)
    return rendered


def check(rendered: dict[str, str]) -> list[str]:
    """Differences between ``rendered`` and the committed corpus."""
    problems = []
    committed = {path.name for path in GOLDEN.glob("*") if path.is_file()}
    for name in sorted(committed - set(rendered)):
        problems.append(f"{name}: committed but no case renders it")
    for name, text in rendered.items():
        path = GOLDEN / name
        if not path.exists():
            problems.append(f"{name}: not committed (run regen)")
            continue
        expected = path.read_text(encoding="utf-8")
        if expected != text:
            diff = difflib.unified_diff(
                expected.splitlines(), text.splitlines(),
                f"committed/{name}", f"now/{name}", lineterm="", n=1,
            )
            problems.append("\n".join(list(diff)[:60]))
    return problems


def regen(rendered: dict[str, str]) -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for path in GOLDEN.glob("*"):
        if path.is_file() and path.name not in rendered:
            path.unlink()
    for name, text in rendered.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("check", "regen"))
    args = parser.parse_args(argv)
    rendered = render_all()
    if args.action == "regen":
        regen(rendered)
        print(f"{len(rendered)} corpus files written to {GOLDEN}")
        return 0
    problems = check(rendered)
    for problem in problems:
        print(problem)
    print(f"{len(rendered) - len(problems)}/{len(rendered)} corpus files match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
