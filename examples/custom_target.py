#!/usr/bin/env python3
"""Bring your own target: write C, register it, fuzz it, validate it.

The downstream-user story: you have a parser you want to fuzz under
ClosureX.  Write it in MiniC, wrap it in a TargetSpec, and every tool
in the library — instrumentation, campaigns, triage, the §6.1.4
correctness checks — works on it unchanged.

Run:  python examples/custom_target.py
"""

import random

from repro.correctness import check_equivalence, run_memcheck
from repro.execution import ClosureXExecutor
from repro.fuzzing import Campaign, CampaignConfig
from repro.sim_os import Kernel
from repro.targets.framework import PlantedBug, TargetSpec
from repro.vm.errors import TrapKind

# An INI-style key=value config parser with two planted bugs.
SOURCE = r"""
int sections_seen;
int keys_seen;
char last_section[32];
int depth_table[8];

long line_length(char *p, long max) {
    long n = 0;
    while (n < max && p[n] && p[n] != '\n') { n++; }
    return n;
}

/* BUG ini-1: section nesting depth indexes a fixed table unchecked. */
void note_depth(long depth) {
    depth_table[depth]++;
}

/* BUG ini-2: '=' at position 0 makes the key length -1 -> memcpy. */
void copy_key(char *line, long eq_at) {
    char key[32];
    long n = eq_at - 1;
    if (n > 30) { n = 30; }
    memcpy(key, line + 1, n);
    keys_seen++;
}

int main(int argc, char **argv) {
    char buf[512];
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    long len = fread(buf, 1, 512, f);
    fclose(f);
    if (len < 3) { exit(2); }
    long off = 0;
    while (off < len) {
        long n = line_length(buf + off, len - off);
        char *line = buf + off;
        if (n > 0 && line[0] == '[') {
            long depth = 0;
            while (depth < n && line[depth] == '[') { depth++; }
            note_depth(depth);
            sections_seen++;
        } else if (n > 1) {
            long eq = 0;
            while (eq < n && line[eq] != '=') { eq++; }
            if (eq < n) { copy_key(line, eq); }
        }
        off += n + 1;
    }
    return sections_seen + keys_seen > 0 ? 0 : 3;
}
"""

SPEC = TargetSpec(
    name="ini-parser",
    input_format="ini",
    image_bytes=150_000,
    source=SOURCE,
    seeds=[
        b"[core]\nname=value\nmode=7\n",
        b"[[nested]]\nkey=1\n",
        b"a=b\nc=d\n[tail]\n",
    ],
    bugs=[
        PlantedBug("ini-1", "section depth unchecked against table size",
                   TrapKind.ARRAY_OOB, "note_depth",
                   "Array out of bounds access"),
        PlantedBug("ini-2", "'=' at column 0 drives memcpy size negative",
                   TrapKind.NEGATIVE_MEMCPY, "copy_key",
                   "Memcpy with negative size"),
    ],
    description="user-supplied INI parser",
)


def main():
    print(f"custom target: {SPEC.name} ({len(SPEC.bugs)} planted bugs)\n")

    # 1. fuzz it under ClosureX
    executor = ClosureXExecutor(SPEC.build_closurex(), SPEC.image_bytes, Kernel())
    campaign = Campaign(executor, SPEC.seeds,
                        CampaignConfig(budget_ns=60_000_000, seed=11))
    result = campaign.run()
    print(f"fuzzed {result.execs} execs, {result.unique_crashes} unique crashes")
    for report in result.crash_reports:
        bug = SPEC.find_bug(report.identity)
        label = bug.bug_id if bug else "UNEXPECTED"
        print(f"  [{label}] {report.describe()}")

    # 2. validate ClosureX's correctness on *your* target
    module = SPEC.build_closurex()
    rng = random.Random(0)
    pollution = [bytes(rng.randrange(256) for _ in range(20)) for _ in range(30)]
    dataflow, controlflow = check_equivalence(module, SPEC.seeds[0], pollution)
    memcheck = run_memcheck(module, SPEC.seeds * 5)
    print(f"\ndataflow equivalence after pollution: {dataflow.describe()}")
    print(f"control-flow equivalence after pollution: {controlflow.describe()}")
    print(f"memcheck: {memcheck.describe()}")


if __name__ == "__main__":
    main()
