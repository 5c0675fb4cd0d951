"""Spans around the program's public functions, and the per-layer metrics
computed from them.

`Tracer.install` replaces module and class attributes of the program with
wrappers that record one span per call (name, start, end, parent span, run
id) in memory; `Tracer.restore` puts the originals back. Nothing under
`src/` is edited. A wrap target that no longer exists is recorded in
`Tracer.missing` and reported, never skipped silently.
"""

from __future__ import annotations

import functools
import os
import statistics
from dataclasses import dataclass

from macrobottle import anm, autodiff, cae, cli, datagen, dataio, hsic


def _count_nodes(tracer: "Tracer", args, kwargs) -> None:
    """Nodes of the graph handed to `backward`, reached through parent links."""
    loss = args[0] if args else kwargs["loss"]
    if not hasattr(loss, "_parents"):
        if "autodiff.Tensor._parents" not in tracer.missing:
            tracer.missing.append("autodiff.Tensor._parents")
        return
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.node_counts.append(len(seen))


def _count_param_arrays(tracer: "Tracer", args, kwargs) -> None:
    tracer.counters["param_arrays"] += len(args[0].names())


def _count_bytes_read(tracer: "Tracer", args, kwargs) -> None:
    tracer.counters["csv_bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_bytes_written(tracer: "Tracer", args, kwargs) -> None:
    tracer.counters["csv_bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])


# (span name, owner, attribute, hook before the call, hook after the call).
# The benchmark calls and the program's modules call each of these through
# the attribute, so replacing the attribute reaches every call.
WRAPS = (
    ("autodiff.backward", autodiff, "backward", _count_nodes, None),
    ("autodiff.adam_step", autodiff.ParamStore, "adam_step", _count_param_arrays, None),
    ("autodiff.save_checkpoint", autodiff, "save_checkpoint", None, None),
    ("autodiff.load_checkpoint", autodiff, "load_checkpoint", None, None),
    ("cae.train_cae", cae, "train_cae", None, None),
    ("cae.loss_terms", cae, "loss_terms", None, None),
    ("cae.combine", cae, "combine", None, None),
    ("cae.evaluate_model", cae, "evaluate_model", None, None),
    ("hsic.median_bandwidth", hsic, "median_bandwidth", None, None),
    ("hsic.hsic_loss", hsic, "hsic_loss", None, None),
    ("hsic.hsic_statistic", hsic, "hsic_statistic", None, None),
    ("anm.direction_verdict", anm, "direction_verdict", None, None),
    ("anm.fit_transform", anm, "fit_transform", None, None),
    ("anm.residuals", anm, "residuals", None, None),
    ("dataio.load_matrix_csv", dataio, "load_matrix_csv", _count_bytes_read, None),
    ("dataio.save_matrix_csv", dataio, "save_matrix_csv", None, _count_bytes_written),
    ("dataio.save_report", dataio, "save_report", None, None),
    ("datagen.gen_main_synthetic", datagen, "gen_main_synthetic", None, None),
    ("cli.cmd_gen", cli, "cmd_gen", None, None),
    ("cli.cmd_train", cli, "cmd_train", None, None),
    ("cli.cmd_inspect", cli, "cmd_inspect", None, None),
    ("cli.cmd_direction", cli, "cmd_direction", None, None),
)

# Hooks run inside a span of this name, so their cost is charged to no layer.
HOOK_SPAN = "trace.hook"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    child_s: float = 0.0  # time covered by direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans of wrapped calls; single-threaded, like the program."""

    def __init__(self, clock, wraps=WRAPS):
        self.clock = clock
        self.wraps = wraps
        self.spans: list[Span] = []
        self.run = "setup"
        self.missing: list[str] = []
        self.node_counts: list[int] = []
        self.counters = {"param_arrays": 0, "csv_bytes_read": 0, "csv_bytes_written": 0}
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.run))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _hook(self, hook, args, kwargs) -> None:
        index = self._begin(HOOK_SPAN)
        try:
            hook(self, args, kwargs)
        finally:
            self._finish(index)

    def _wrapper(self, name: str, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(index)
            if after is not None:
                self._hook(after, args, kwargs)
            return result
        return traced

    def install(self, run: str) -> None:
        """Wrap every target; spans recorded until `restore` carry `run`."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.run = run
        self.missing = []
        for name, owner, attr, before, after in self.wraps:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, before, after))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def reset_counts(self) -> None:
        self.node_counts = []
        self.counters = dict.fromkeys(self.counters, 0)


def _under(spans: list[Span], span: Span, name: str) -> bool:
    """Whether a span named `name` encloses `span`; `spans` is the tracer's
    full list, into which parent indices point."""
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def _epoch_seconds(spans: list[Span], runs: set[str]) -> list[float]:
    """Epoch wall times inside each `train_cae` call. `train_cae` validates
    once at the end of every epoch, so consecutive ends of its
    `evaluate_model` children delimit the epochs; the first epoch starts
    with the call."""
    epochs = []
    for index, span in enumerate(spans):
        if span.name != "cae.train_cae" or span.run not in runs:
            continue
        mark = span.start
        for child in spans:
            if child.parent == index and child.name == "cae.evaluate_model":
                epochs.append(child.end - mark)
                mark = child.end
    return epochs


def layer_metrics(tracer: Tracer, runs: set[str]) -> dict[str, float]:
    """Per-layer metrics over the spans of the given run ids. Every `_s`
    value is self time summed over those spans unless noted otherwise."""
    spans = [s for s in tracer.spans if s.run in runs]

    def calls(name):
        return [s for s in spans if s.name == name]

    def self_s(*names):
        return sum(s.self_s for n in names for s in calls(n))

    def total_s(*names):  # inclusive of child spans
        return sum(s.duration for n in names for s in calls(n))

    backward = calls("autodiff.backward")
    epochs = _epoch_seconds(tracer.spans, runs)
    nodes = tracer.node_counts
    return {
        "autodiff.backward_s": self_s("autodiff.backward"),
        "autodiff.backward_calls": len(backward),
        "autodiff.adam_s": self_s("autodiff.adam_step"),
        "autodiff.adam_calls": len(calls("autodiff.adam_step")),
        "autodiff.param_arrays": tracer.counters["param_arrays"] / max(len(backward), 1),
        "autodiff.nodes_per_step": statistics.fmean(nodes) if nodes else 0.0,
        "cae.epoch_s.p50": statistics.median(epochs) if epochs else 0.0,
        "cae.epoch_s.tail": max(epochs, default=0.0),
        "cae.forward_s": self_s("cae.loss_terms", "cae.combine"),
        "cae.validate_s": self_s("cae.evaluate_model"),
        "cae.loop_self_s": self_s("cae.train_cae"),
        "cae.steps": sum(_under(tracer.spans, s, "cae.train_cae") for s in backward),
        "hsic.bandwidth_s": self_s("hsic.median_bandwidth"),
        "hsic.bandwidth_calls": len(calls("hsic.median_bandwidth")),
        "hsic.loss_s": self_s("hsic.hsic_loss"),
        "hsic.statistic_s": self_s("hsic.hsic_statistic"),
        "hsic.statistic_calls": len(calls("hsic.hsic_statistic")),
        "anm.fit_s": total_s("anm.fit_transform"),
        "anm.fit_self_s": self_s("anm.fit_transform"),
        "anm.fit_steps": sum(_under(tracer.spans, s, "anm.fit_transform") for s in backward),
        "anm.residuals_s": total_s("anm.residuals"),
        "dataio.csv_load_s": self_s("dataio.load_matrix_csv"),
        "dataio.csv_save_s": self_s("dataio.save_matrix_csv"),
        "dataio.csv_bytes_read": tracer.counters["csv_bytes_read"],
        "dataio.csv_bytes_written": tracer.counters["csv_bytes_written"],
        "dataio.checkpoint_save_s": self_s("autodiff.save_checkpoint"),
        "dataio.checkpoint_load_s": self_s("autodiff.load_checkpoint"),
        "dataio.report_s": self_s("dataio.save_report"),
        "datagen.gen_s": self_s("datagen.gen_main_synthetic"),
        # CLI stages are inclusive: the wall time of each command
        "cli.gen_s": total_s("cli.cmd_gen"),
        "cli.train_s": total_s("cli.cmd_train"),
        "cli.inspect_s": total_s("cli.cmd_inspect"),
        "cli.direction_s": total_s("cli.cmd_direction"),
        "cli.direction_pairs": sum(_under(tracer.spans, s, "cli.cmd_direction")
                                   for s in calls("anm.direction_verdict")),
        "trace.spans": sum(s.name != HOOK_SPAN for s in spans),
    }
