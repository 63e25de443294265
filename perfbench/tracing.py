"""Spans and counters around pcia's public functions, recorded from outside.

Nothing inside the package is changed: the benchmark swaps module
attributes for wrappers while a traced round runs. ``run_experiment``
looks its collaborators up in ``pcia.evaluation`` and ``one_shot_ia``
looks its sub-steps up in ``pcia.oneshot``, so wrapping those names sees
every call the harness makes.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import time

# (module, attribute) -> span name.
TRACED = {
    ("pcia.evaluation", "generate_channel"): "network.draw",
    ("pcia.evaluation", "equivalent_channel"): "network.gather",
    ("pcia.evaluation", "one_shot_ia"): "oneshot.design",
    ("pcia.oneshot", "design_receive_beamformers"): "oneshot.receive",
    ("pcia.oneshot", "reciprocal_state"): "oneshot.nullspace",
    ("pcia.oneshot", "select_transmit_beamformer"): "oneshot.select",
    ("pcia.evaluation", "iterate_distributed_ia"): "distributed.iterate",
    ("pcia.evaluation", "bd_zero_forcing"): "zeroforcing.bd",
    ("pcia.evaluation", "sum_rate"): "evaluation.sum_rate",
    ("pcia.evaluation", "alignment_residual"): "evaluation.residual",
}

# The beamformer designs: a raise here is a failed design, which the
# harness turns into a zero-rate slot.
SOLVERS = {
    ("pcia.evaluation", "one_shot_ia"): "oneshot.design",
    ("pcia.evaluation", "iterate_distributed_ia"): "distributed.iterate",
    ("pcia.evaluation", "bd_zero_forcing"): "zeroforcing.bd",
}

HARNESS = "evaluation.harness"


@contextlib.contextmanager
def patched(names: dict, wrap):
    """Replace each ``(module, attribute)`` by ``wrap(original, label)``."""
    saved = []
    try:
        for (module_name, attr), label in names.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original, label))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class FailureCounter:
    """Counts solver calls that raise; adds no timing."""

    def __init__(self):
        self.failed = 0

    def wrap(self, fn, label):
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
        return counted


class Tracer:
    """In-memory spans ``[name, start, end, parent, trial]`` plus counters.

    ``parent`` indexes ``spans`` (-1 for a root). A trial starts at each
    channel draw, so every span carries the index of the trial it serves.
    """

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.trials = 0
        self._open = []

    def _enter(self, name, trial):
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), 0.0, parent, trial]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._open.pop()

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` (the harness entry point) as a root span."""
        span = self._enter(HARNESS, self.trials)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span)

    def wrap(self, fn, name):
        solver = name in SOLVERS.values()

        def traced(*args, **kwargs):
            if name == "network.draw":
                self.trials += 1
            span = self._enter(name, self.trials - 1)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if solver:
                    self.counts[name.split(".")[0] + ".failed"] += 1
                raise
            finally:
                self._exit(span)
            self._count(name, args, kwargs, out)
            return out
        return traced

    def _count(self, name, args, kwargs, out):
        if name == "evaluation.sum_rate":
            self.counts["evaluation.sum_rate_calls"] += 1
        elif name == "distributed.iterate":
            self.counts["distributed.iterations"] += out.iterations
            self.counts["distributed.unconverged"] += not out.converged
        elif name == "oneshot.nullspace":
            config = kwargs["config"] if "config" in kwargs else args[2]
            # Silent users and users with exactly d_k directions return
            # before any subset is scored.
            self.counts["oneshot.subsets_scored"] += sum(
                count for count, nullity, d in zip(
                    out.choice_counts, out.nullities, config.dof)
                if 0 < d < nullity)

    def self_seconds(self, first: int = 0) -> dict:
        """Self time per span name over ``spans[first:]``, which must hold
        whole root spans: each span's duration minus its children's."""
        spans = self.spans[first:]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent - first] -= end - start
        totals = collections.Counter()
        for span, seconds in zip(spans, own):
            totals[span[0]] += seconds
        return dict(totals)

    def write(self, path):
        """Spans as CSV, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,parent,trial,start_us,end_us\n")
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                out.write(f"{i},{name},{parent},{trial},"
                          f"{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}\n")
