"""Self-tests of the campaign benchmark.

    python3 -m pytest perfbench -q

Every workload runs end to end at a tiny virtual budget (about a minute
in all), untraced and traced, through the same command the benchmark
uses; the span arithmetic is checked on synthetic trees.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import (  # noqa: E402
    SpanRecorder, collapsed_stacks, self_times, subtree,
)
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

TINY_BUDGET_MS = {"giftext-closurex": 4, "giftext-closurex-ckpt": 10,
                  "libpcap-i2s": 6, "giftext-forkserver": 8}
#: Per-layer counts each workload exercises, so must be above zero.
EXERCISED = {
    "giftext-closurex": ("runtime.restore.calls", "mutators.havoc.calls"),
    "giftext-closurex-ckpt": ("runtime.restore.calls", "checkpoint.save.calls",
                              "checkpoint.bytes", "checkpoint.load.wall_s"),
    "libpcap-i2s": ("runtime.restore.calls", "i2s.calls", "i2s.execs",
                    "i2s.self_s"),
    "giftext-forkserver": ("vm.load.calls", "vm.load.wall_s",
                           "mutators.havoc.calls"),
}
#: Every workload exercises these.
ALWAYS = ("import.wall_s", "targets.build_s", "execution.boot_s",
          "execution.run.calls", "vm.instructions", "vm.run.wall_s",
          "coverage.observe.calls", "campaign.loop_wall_s",
          "trace.host_execs_per_s", "trace.untraced_host_execs_per_s")
#: Layers a workload bypasses record nothing there.
BYPASSED = {
    "giftext-forkserver": ("runtime.restore.calls",),
    "giftext-closurex": ("i2s.calls", "checkpoint.save.calls"),
    "giftext-closurex-ckpt": ("i2s.calls",),
    "libpcap-i2s": ("checkpoint.save.calls",),
}


def bench(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--budget-ms", str(TINY_BUDGET_MS[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.fixture(scope="module")
def runs():
    cache: dict = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            lines = proc.stdout.splitlines()
            cache[workload, trace] = (lines, json.loads(lines[-1]))
        return cache[workload, trace]

    return get


def test_benchmark_file_and_expected_values():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    with open(run.EXPECTED_PATH) as fh:
        expected = json.load(fh)
    assert set(expected) == set(WORKLOADS)
    for values in expected.values():
        assert set(values) == set(run.DETERMINISTIC)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_run(runs, workload):
    lines, result = runs(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_CAMPAIGNS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    digests = {json.loads(line.split(" ", 1)[1])["digest"]
               for line in lines if line.startswith("campaign {")}
    assert len(digests) == 1   # every campaign of the run agreed


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run(runs, workload):
    lines, result = runs(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == PER_LAYER
    for name in ALWAYS + EXERCISED[workload]:
        assert metrics[name] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[name] == 0, name
    assert all(value >= 0 for value in metrics.values())
    # The layers' self times partition the loop wall ...
    layers = sum(v for n, v in metrics.items()
                 if n.startswith("layer.") and n.endswith(".self_s"))
    assert layers == pytest.approx(metrics["campaign.loop_wall_s"], rel=1e-6)
    # ... and so do the collapsed stacks.
    folded = next(line.split(": ", 1)[1] for line in lines
                  if line.startswith("collapsed stacks: "))
    with open(os.path.join(ROOT, folded)) as fh:
        total_ns = sum(int(line.rsplit(" ", 1)[1]) for line in fh)
    assert total_ns / 1e9 == pytest.approx(metrics["campaign.loop_wall_s"],
                                           rel=1e-6)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("giftext-forkserver", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_check_flags_a_changed_statistic_or_a_second_thread():
    good = {"digest": "d", "execs": 5, "virtual_execs_per_s": 1.5,
            "edges_found": 3, "unique_crashes": 0, "threads": 1,
            "has_children": False}
    ref = {key: good[key] for key in run.DETERMINISTIC}
    assert run.check(good, ref) is None
    assert "edges_found" in run.check(dict(good, edges_found=4), ref)
    assert "digest" in run.check(dict(good, digest="e"), ref)
    assert "threads" in run.check(dict(good, threads=2), ref)
    assert "exit 1" in run.check({"error": "exit 1: boom"}, ref)


def test_self_times_and_collapsed_stacks():
    # root [0, 100) > a [10, 60) > b [20, 30); root > c [70, 90)
    spans = [["root", 0, 100, -1, 0], ["a", 10, 60, 0, 0],
             ["b", 20, 30, 1, 0], ["c", 70, 90, 0, 0],
             ["after", 100, 120, -1, 0]]
    tree = subtree(spans, 0)
    assert tree == [0, 1, 2, 3]
    assert self_times(spans, tree) == {0: 30, 1: 40, 2: 10, 3: 20}
    assert collapsed_stacks(spans, tree) == {
        "root": 30, "root;a": 40, "root;a;b": 10, "root;c": 20}


def test_wrappers_record_recursion_once_and_follow_imported_names():
    recorder = SpanRecorder()

    class Walker:
        def walk(self, depth):
            return 0 if depth == 0 else 1 + self.walk(depth - 1)

    recorder.wrap(Walker, "walk", "walk", outermost=True,
                  count=lambda args, result: result)
    assert Walker().walk(3) == 3
    assert [s[0] for s in recorder.spans] == ["walk"]
    assert recorder.spans[0][4] == 3

    home = types.ModuleType("home")
    home.f = lambda: 7
    user = types.ModuleType("user")
    user.f = home.f            # what ``from home import f`` leaves behind
    sys.modules["home"], sys.modules["user"] = home, user
    try:
        recorder.wrap_everywhere(home, "f", "f")
        assert user.f() == 7
    finally:
        del sys.modules["home"], sys.modules["user"]
    assert [s[0] for s in recorder.spans] == ["walk", "f"]
