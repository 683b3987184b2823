"""One benchmark run: a fresh interpreter runs one seeded campaign.

    python3 perfbench/child.py WORKLOAD SEED TRACE SPAWN_NS WORKDIR [BUDGET_MS]

The run mirrors ``python -m repro.fuzzing``: the CLI's imports, the
target build, executor boot and seed-queue execs (set-up, timed from
SPAWN_NS, the parent's ``time.monotonic_ns()`` just before it started
this interpreter), then the fuzzing loop to the workload's virtual
budget (``step_until`` + ``finish_run``, plus loading the newest
checkpoint back on the checkpointing workload).  With TRACE=1 every
layer entry point is wrapped (:mod:`spans`) and the per-layer metrics
and a collapsed-stack file are produced as well.

Host speed.  A host shared with other tenants can change speed by up
to 2x within seconds, far more than the changes the benchmark must
resolve.  So the loop runs in SLICES slices of virtual time (pausing
``step_until`` between queue cycles leaves the campaign's states, and
its digest, unchanged), and a fixed pure-Python calibration loop is
timed between slices.  Each slice's wall time is scaled by
``REFERENCE_CAL_S / calibration`` (the mean of the calibrations just
before and after it): wall seconds at a reference host speed.  Set-up
is scaled the same way, by calibrations at interpreter start and right
after ``Campaign.start()``.  The raw wall times are reported alongside.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import (  # noqa: E402
    COUNT, END, NAME, START, SpanRecorder, collapsed_stacks, install,
    self_times, subtree, write_collapsed,
)
from workloads import MS, WORKLOADS  # noqa: E402

SLICES = 40                 # loop slices, each followed by a calibration
CAL_ITERATIONS = 50_000
#: Calibration time of the reference host (an idle core of the machine
#: the baseline numbers in README.md were taken on).
REFERENCE_CAL_S = 0.0035

#: Layers whose self times partition the loop wall.
LOOP_LAYERS = ("execution", "vm", "runtime", "coverage", "mutators", "i2s",
               "corpus", "triage", "checkpoint", "campaign")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    x = 0
    for i in range(CAL_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def host_shape() -> tuple[int, bool]:
    """(threads, has child processes) of this process."""
    threads = len(os.listdir("/proc/self/task"))
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return threads, False
    return threads, True


def percentile(sorted_values: list[int], q: float) -> int:
    if not sorted_values:
        return 0
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


def layer_metrics(spans: list[list], roots: list[int], setup: int, campaign,
                  executor) -> tuple[dict[str, float], dict[str, int]]:
    """Reduce the spans to the per-layer metrics of the benchmark and
    the collapsed stacks of the loop (the subtrees of *roots*)."""
    loop = [i for root in roots for i in subtree(spans, root)]
    own = self_times(spans, loop)
    calls: dict[str, int] = {}
    wall: dict[str, int] = {}
    selfs: dict[str, int] = {}
    counts: dict[str, int] = {}
    run_ns: list[int] = []
    for i in loop:
        name = spans[i][NAME]
        ns = spans[i][END] - spans[i][START]
        calls[name] = calls.get(name, 0) + 1
        wall[name] = wall.get(name, 0) + ns
        selfs[name] = selfs.get(name, 0) + own[i]
        counts[name] = counts.get(name, 0) + spans[i][COUNT]
        if name == "execution.run":
            run_ns.append(ns)
    run_ns.sort()
    setup_wall: dict[str, int] = {}
    for i in subtree(spans, setup):
        name = spans[i][NAME]
        setup_wall[name] = (setup_wall.get(name, 0)
                            + spans[i][END] - spans[i][START])

    def s(table, name):
        return table.get(name, 0) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    stages = campaign.stage_stats
    instructions = counts.get("execution.run", 0)
    out = {
        "import.wall_s": s(setup_wall, "import"),
        "targets.build_s": s(setup_wall, "targets.build"),
        "execution.boot_s": s(setup_wall, "execution.boot"),
        "execution.run.calls": calls.get("execution.run", 0),
        "execution.run.self_s": s(selfs, "execution.run"),
        "execution.run.us_p50": percentile(run_ns, 0.50) / 1e3,
        "execution.run.us_p99": percentile(run_ns, 0.99) / 1e3,
        "execution.respawns": executor.stats.respawns,
        "vm.run.wall_s": s(wall, "vm.run"),
        "vm.instructions": instructions,
        "vm.host_ns_per_instruction": ratio(wall.get("vm.run", 0),
                                            instructions),
        "vm.load.calls": calls.get("vm.load", 0),
        "vm.load.wall_s": s(wall, "vm.load"),
        "runtime.restore.calls": calls.get("runtime.restore", 0),
        "runtime.restore.wall_s": s(wall, "runtime.restore"),
        "runtime.restore.virtual_ns": counts.get("runtime.restore", 0),
        "coverage.observe.calls": calls.get("coverage.observe", 0),
        "coverage.observe.wall_s": s(wall, "coverage.observe"),
        "coverage.observe.us_mean": ratio(wall.get("coverage.observe", 0),
                                          calls.get("coverage.observe", 0))
        / 1e3,
        "coverage.signature.calls": calls.get("coverage.signature", 0),
        "coverage.signature.wall_s": s(wall, "coverage.signature"),
        "mutators.havoc.calls": calls.get("mutators.havoc", 0),
        "mutators.havoc.wall_s": s(wall, "mutators.havoc"),
        "mutators.splice.wall_s": s(wall, "mutators.splice"),
        "havoc.find_ratio": ratio(stages["havoc"].finds,
                                  stages["havoc"].execs),
        "i2s.calls": calls.get("i2s", 0),
        "i2s.wall_s": s(wall, "i2s"),
        "i2s.self_s": s(selfs, "i2s"),
        "i2s.execs": stages["i2s"].execs,
        "i2s.finds": stages["i2s"].finds,
        "i2s.find_ratio": ratio(stages["i2s"].finds, stages["i2s"].execs),
        "corpus.add.calls": calls.get("corpus.add", 0),
        "corpus.add.wall_s": s(wall, "corpus.add"),
        "corpus.select.wall_s": s(wall, "corpus.select"),
        "triage.record.calls": calls.get("triage.record", 0),
        "triage.record.wall_s": s(wall, "triage.record"),
        "checkpoint.save.calls": calls.get("checkpoint.save", 0),
        "checkpoint.save.wall_s": s(wall, "checkpoint.save"),
        "checkpoint.bytes": counts.get("checkpoint.save", 0),
        "checkpoint.load.wall_s": s(wall, "checkpoint.load"),
        "campaign.self_s": s(selfs, "campaign"),
        "campaign.loop_wall_s": s(wall, "campaign"),
        "campaign.unique_crashes": campaign.triage.unique_count,
    }
    layer_self: dict[str, int] = {}
    for name, ns in selfs.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + ns
    for layer in LOOP_LAYERS:
        out[f"layer.{layer}.self_s"] = s(layer_self, layer)
    return out, collapsed_stacks(spans, loop)


def main(argv: list[str]) -> int:
    name, seed, trace, spawn_ns, workdir = argv[:5]
    workload = WORKLOADS[name]
    seed, trace, spawn_ns = int(seed), trace == "1", int(spawn_ns)
    budget_ms = int(argv[5]) if len(argv) > 5 else workload.budget_ms
    cals = [calibrate()]
    recorder = SpanRecorder()
    setup = recorder.open("setup")

    index = recorder.open("import")
    from repro.fuzzing.__main__ import campaign_digest
    from repro.fuzzing import Campaign, CampaignConfig, checkpoint
    from repro.targets import get_target
    from repro.sim_os import Kernel
    from repro.experiments.campaign_runner import build_executor
    recorder.close(index)
    if trace:
        install(recorder)

    ckpt_dir = os.path.join(workdir, f"ckpt-{os.getpid()}")
    ckpt_path = None
    if workload.checkpoint_ms is not None:
        os.makedirs(ckpt_dir, exist_ok=True)
        ckpt_path = os.path.join(ckpt_dir, "fuzz.ckpt")
    spec = get_target(workload.target)
    executor = build_executor(workload.target, workload.mechanism, Kernel())
    campaign = Campaign(executor, spec.seeds, CampaignConfig(
        budget_ns=budget_ms * MS,
        seed=seed,
        i2s_enabled=workload.i2s,
        checkpoint_path=ckpt_path,
        checkpoint_interval_ns=(workload.checkpoint_ms or 4) * MS,
    ))
    campaign.start()
    recorder.close(setup)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9 - cals[0]
    setup_execs = campaign.execs
    cals.append(calibrate())
    setup_ref_s = setup_s * REFERENCE_CAL_S / ((cals[0] + cals[1]) / 2)

    # The loop, in slices: SLICES pauses of step_until, then finish_run,
    # then the checkpoint reload; one "campaign" span and one
    # calibration after each.
    roots: list[int] = []

    def timed_slice(work):
        root = recorder.open("campaign")
        value = work()
        recorder.close(root)
        roots.append(root)
        cals.append(calibrate())
        return value

    deadline = campaign.run_start_ns + campaign.config.budget_ns
    step = -(-campaign.config.budget_ns // SLICES)
    for k in range(1, SLICES + 1):
        pause = min(campaign.run_start_ns + k * step, deadline)
        timed_slice(lambda: campaign.step_until(pause))
    result = timed_slice(campaign.finish_run)
    state = None
    if ckpt_path is not None:
        state = timed_slice(lambda: checkpoint.load_checkpoint(ckpt_path))
    walls = [(recorder.spans[r][END] - recorder.spans[r][START]) / 1e9
             for r in roots]
    loop_wall_s = sum(walls)
    loop_ref_s = sum(
        wall * REFERENCE_CAL_S / ((before + after) / 2)
        for wall, before, after in zip(walls, cals[1:], cals[2:])
    )

    if state is not None:
        # The newest checkpoint must be this campaign's, from inside it.
        if (state["seed"] != seed
                or state["mechanism"] != workload.mechanism
                or not setup_execs <= state["execs"] <= result.execs):
            raise RuntimeError("reloaded checkpoint does not belong to "
                               "this campaign")
    shutil.rmtree(ckpt_dir, ignore_errors=True)

    threads, has_children = host_shape()
    loop_execs = result.execs - setup_execs
    out = {
        "trace": int(trace),
        "digest": campaign_digest(campaign, result),
        "execs": result.execs,
        "virtual_execs_per_s": result.execs_per_second,
        "edges_found": result.edges_found,
        "unique_crashes": result.unique_crashes,
        "setup_s": setup_ref_s,
        "raw_setup_s": setup_s,
        "loop_wall_s": loop_wall_s,
        "host_execs_per_s": loop_execs / loop_ref_s,
        "raw_host_execs_per_s": loop_execs / loop_wall_s,
        "calibration_s": sorted(cals)[len(cals) // 2],
        "loadavg_1m": os.getloadavg()[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "threads": threads,
        "has_children": has_children,
    }
    if trace:
        out["layers"], stacks = layer_metrics(
            recorder.spans, roots, setup, campaign, executor)
        out["spans"] = len(recorder.spans)
        folded = os.path.join(workdir, f"{name}-seed{seed}.folded")
        write_collapsed(stacks, folded)
        out["folded"] = os.path.relpath(folded, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
