"""Campaign benchmark: one command, named workloads, every metric by name.

    python3 perfbench/run.py --workload giftext-closurex --seed 0 \\
        --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs building.  For
``--seconds`` seconds the runner starts fresh single-threaded
interpreters (:mod:`child`) one after another, a closed loop of one
client, each running one complete seeded campaign of the workload.  A
campaign is one operation.  It fails if its interpreter exits non-zero,
spawns a thread or a process, or if its digest or any deterministic
statistic differs from the reference: ``expected.json`` on seed 0, on
any other seed the first campaign run on the same source tree.

``--trace 0`` prints the end-to-end metrics, medians over the
campaigns.  ``--trace 1`` alternates untraced and traced campaigns and
prints the per-layer metrics of the median traced one, the tracing
overhead, and the path of its collapsed-stack file.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
#: Fields of a campaign that are a pure function of (code, workload, seed).
DETERMINISTIC = ("digest", "execs", "virtual_execs_per_s", "edges_found",
                 "unique_crashes")
#: Per-campaign fields printed as it finishes, host readings included.
CAMPAIGN_LINE = ("trace", "digest", "execs", "setup_s", "raw_setup_s",
                 "loop_wall_s", "host_execs_per_s", "raw_host_execs_per_s",
                 "calibration_s", "loadavg_1m")
MIN_CAMPAIGNS = 3          # untraced campaigns per --trace 0 run, at least
DEADLINE_S = 170           # hard stop for the whole run
#: Threads that numeric libraries may start are pinned to one, so the
#: campaign stays the single-threaded closed loop it is measured as.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tree_digest() -> str:
    """Digest of the sources a campaign's statistics depend on."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fname in sorted(filenames):
                if fname.endswith((".py", ".json")):
                    path = os.path.join(dirpath, fname)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def reference(workload: str, seed: int,
              budget_ms: int | None) -> tuple[dict | None, str | None]:
    """(reference statistics or None, where to record the first campaign)."""
    if seed == DEFAULT_SEED and budget_ms is None:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)[workload], None
    path = os.path.join(WORKDIR, f"seen-{tree_digest()}",
                        f"{workload}-seed{seed}-b{budget_ms}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh), None
    return None, path


def run_campaign(workload: str, seed: int, trace: bool,
                 budget_ms: int | None, timeout: float) -> dict:
    """One campaign in a fresh interpreter: its JSON, or ``error``."""
    extra = [] if budget_ms is None else [str(budget_ms)]
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), "1" if trace else "0", str(time.monotonic_ns()),
           WORKDIR, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(camp: dict, ref: dict | None) -> str | None:
    """Why campaign *camp* failed, or None."""
    if "error" in camp:
        return camp["error"]
    if camp["threads"] != 1 or camp["has_children"]:
        return (f"not single-threaded and single-process: {camp['threads']} "
                f"threads, children={camp['has_children']}")
    if ref is not None:
        for key in DETERMINISTIC:
            if camp[key] != ref[key]:
                return f"{key} {camp[key]!r} != expected {ref[key]!r}"
    return None


def record(workload: str) -> int:
    """Store a seed-0 campaign's statistics in ``expected.json``; only
    for a change that means to alter simulated behaviour."""
    camp = run_campaign(workload, DEFAULT_SEED, False, None, DEADLINE_S)
    reason = check(camp, None)
    if reason is not None:
        print(f"error: {reason}", file=sys.stderr)
        return 1
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    expected[workload] = {key: camp[key] for key in DETERMINISTIC}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(expected[workload]))
    return 0


def median_campaign(campaigns: list[dict]) -> dict:
    """The campaign with the median host throughput (lower median)."""
    ranked = sorted(campaigns, key=lambda c: c["host_execs_per_s"])
    return ranked[(len(ranked) - 1) // 2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget-ms", type=int, default=None,
                        help="override the workload's virtual budget "
                             "(smoke runs; checked for agreement only)")
    parser.add_argument("--record", action="store_true",
                        help="run one seed-0 campaign and store its "
                             "statistics as the workload's expected ones")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no source tree at {os.path.join(ROOT, 'src')}; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    if args.record:
        return record(args.workload)
    started = time.monotonic()

    ref, record_at = reference(args.workload, args.seed, args.budget_ms)
    done = {False: [], True: []}     # passed campaigns, by traced
    attempted = failed = 0
    durations: list[float] = []
    while True:
        traced = args.trace == 1 and len(done[True]) < len(done[False])
        t0 = time.monotonic()
        camp = run_campaign(args.workload, args.seed, traced, args.budget_ms,
                            timeout=max(1.0, DEADLINE_S - (t0 - started)))
        durations.append(time.monotonic() - t0)
        attempted += 1
        reason = check(camp, ref)
        if reason is None and ref is None:
            ref = {key: camp[key] for key in DETERMINISTIC}
            os.makedirs(os.path.dirname(record_at), exist_ok=True)
            with open(record_at, "w") as fh:
                json.dump(ref, fh)
        if reason is None:
            done[traced].append(camp)
            print("campaign", json.dumps({k: camp[k] for k in CAMPAIGN_LINE}))
        else:
            failed += 1
            print(f"campaign FAILED: {reason}")
        enough = (len(done[True]) >= 1 if args.trace
                  else len(done[False]) >= MIN_CAMPAIGNS)
        elapsed = time.monotonic() - started
        if failed or (enough and elapsed + statistics.median(durations)
                      > args.seconds):
            break

    metrics: dict[str, dict] = {}
    if not failed and args.trace == 0:
        for name, unit in metric_units("end_to_end").items():
            value = statistics.median(c[name] for c in done[False])
            metrics[name] = {"value": value, "unit": unit}
    elif not failed:
        traced = median_campaign(done[True])
        plain = statistics.median(c["host_execs_per_s"] for c in done[False])
        values = dict(traced["layers"])
        values["trace.host_execs_per_s"] = traced["host_execs_per_s"]
        values["trace.untraced_host_execs_per_s"] = plain
        values["trace.slowdown"] = plain / traced["host_execs_per_s"]
        values["trace.spans"] = traced["spans"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
        print("collapsed stacks:", traced["folded"])
    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
