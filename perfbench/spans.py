"""In-memory span recording around the public entry points of each layer.

Nothing under ``src/`` knows about this module: :func:`install` wraps
the layer functions at run time, from the benchmark's own code.  Each
call becomes one span ``[name, start_ns, end_ns, parent, count]``;
``count`` carries a per-call quantity measured at the same boundary
(instructions of an exec, virtual ns of a restore, bytes of a
checkpoint).  Spans stay in memory and are reduced once, at the end of
the run, to per-layer metrics and a collapsed-stack file.

Self time is a span's duration minus the durations of its direct
children.  The process is single-threaded, so children nest strictly
inside their parent and the self times of a tree sum to its root's
duration.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter_ns

NAME, START, END, PARENT, COUNT = range(5)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, 0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None,
             outermost: bool = False):
        """Replace ``owner.attr`` with a spanning wrapper.
        *count(args, result)* fills the span's count after the span
        closes.  With *outermost*, a recursive call inside an open span
        of this wrapper runs unrecorded."""
        original = getattr(owner, attr)
        recorder = self
        active = False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return original(*args, **kwargs)
            active = outermost
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
                active = False
            if count is not None:
                recorder.spans[index][COUNT] = count(args, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_everywhere(self, module, attr: str, name: str, count=None):
        """Wrap a module-level function under every name it is bound to.

        ``from m import f`` copies the binding, so patching only the
        defining module would leave callers calling the original.
        """
        original = getattr(module, attr)
        self.wrap(module, attr, name, count)
        wrapper = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if mod is not module and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point the benchmark's table names."""
    from repro.execution import ClosureXExecutor, ForkServerExecutor
    from repro.fuzzing import checkpoint, coverage
    from repro.fuzzing.corpus import Corpus
    from repro.fuzzing.i2s import I2SStage
    from repro.fuzzing.mutators import HavocMutator
    from repro.fuzzing.triage import CrashTriage
    from repro.runtime.harness import ClosureXHarness
    from repro.targets.framework import TargetSpec
    from repro.vm.interpreter import VM

    wrap = recorder.wrap
    wrap(TargetSpec, "build_closurex", "targets.build")
    wrap(TargetSpec, "build_baseline", "targets.build")
    for executor_cls in (ClosureXExecutor, ForkServerExecutor):
        wrap(executor_cls, "boot", "execution.boot")
        wrap(executor_cls, "run", "execution.run",
             count=lambda args, result: result.instructions)
    wrap(VM, "run_function", "vm.run", outermost=True)
    wrap(VM, "load", "vm.load")
    wrap(ClosureXHarness, "restore_state", "runtime.restore",
         count=lambda args, report: report.restore_ns)
    wrap(coverage.VirginMap, "observe", "coverage.observe")
    recorder.wrap_everywhere(coverage, "coverage_signature",
                             "coverage.signature")
    wrap(HavocMutator, "mutate", "mutators.havoc")
    wrap(HavocMutator, "splice", "mutators.splice")
    wrap(I2SStage, "run_entry", "i2s")
    wrap(Corpus, "add", "corpus.add")
    wrap(Corpus, "select_next", "corpus.select")
    wrap(CrashTriage, "record", "triage.record")
    recorder.wrap_everywhere(
        checkpoint, "save_checkpoint", "checkpoint.save",
        count=lambda args, result: os.path.getsize(args[1]),
    )
    recorder.wrap_everywhere(checkpoint, "load_checkpoint",
                             "checkpoint.load")


def subtree(spans: list[list], root: int) -> list[int]:
    """Indices of *root* and every span below it (spans are recorded
    in start order, so a subtree is a contiguous run)."""
    end = spans[root][END]
    out = [root]
    for index in range(root + 1, len(spans)):
        if spans[index][START] >= end:
            break
        out.append(index)
    return out


def self_times(spans: list[list], indices: list[int]) -> dict[int, int]:
    """Self time in ns of every span in *indices* (a closed subtree)."""
    own = {i: spans[i][END] - spans[i][START] for i in indices}
    for i in indices:
        parent = spans[i][PARENT]
        if parent in own:
            own[parent] -= spans[i][END] - spans[i][START]
    return own


def collapsed_stacks(spans: list[list], indices: list[int]) -> dict[str, int]:
    """``a;b;c -> self ns`` for each distinct stack, the input format of
    flamegraph.pl and speedscope."""
    own = self_times(spans, indices)
    path: dict[int, str] = {}
    stacks: dict[str, int] = {}
    for i in indices:
        prefix = path.get(spans[i][PARENT])
        name = spans[i][NAME]
        path[i] = name if prefix is None else f"{prefix};{name}"
        stacks[path[i]] = stacks.get(path[i], 0) + own[i]
    return stacks


def write_collapsed(stacks: dict[str, int], path: str) -> None:
    """One ``stack self-ns`` line per stack, heaviest first."""
    with open(path, "w") as out:
        for stack, ns in sorted(stacks.items(), key=lambda kv: -kv[1]):
            out.write(f"{stack} {ns}\n")
