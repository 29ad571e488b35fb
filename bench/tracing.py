"""Span recorder for the traced benchmark run.

Spans are recorded at the boundaries between the package's modules, from the
benchmark's side: ``instrument`` rebinds each public entry point of a layer,
in every ``cwembed`` module that refers to it, to a wrapper that opens a span
around the call, and restores the originals on exit.  Nothing in the package
is edited.  A span is (name, start, end, parent index, op id); spans stay in
memory and the caller writes them out once.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all spans add up to the total
duration of the root spans; the runner checks that this total accounts for
the measured time of the operations.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

#: root span of each CLI command; its self time is JSON text, file I/O and glue
CLI_ROOTS = ("cli.analyze", "cli.build", "cli.verify", "cli.diagram")


class Recorder:
    """Spans and exact counters of one traced round."""

    def __init__(self, keep_plans: bool = True):
        self.keep_plans = keep_plans  # off when only spans are wanted, to hold no plans
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.plans: list = []  # plans returned by the construction calls
        self.simulated: list = []  # (plan, seed) of every Monte Carlo pass

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def span_self_times(self) -> list[tuple[str, int, float]]:
        """(name, op, self time) of every span."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [(name, op, (t1 - t0) - covered[i])
                for i, (name, t0, t1, _, op) in enumerate(self.spans)]

    def op_shares(self, prefix: str, n_ops: int) -> list[float]:
        """For each op, the share of its root spans' time spent in spans
        whose name starts with ``prefix``."""
        inside, total = [0.0] * n_ops, [0.0] * n_ops
        for name, t0, t1, parent, op in self.spans:
            if parent < 0:
                total[op] += t1 - t0
            if name.startswith(prefix):
                inside[op] += t1 - t0
        return [a / b if b else 0.0 for a, b in zip(inside, total)]

    def root_total(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)


def _wrap(fn, name, rec: Recorder, hook=None):
    @wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return traced


def _count_cut(rec, args, kwargs, step):
    rec.counts["cuts_tried"] += 1
    rec.counts["noops"] += step.noop
    rec.counts["steps_x_atoms"] += len(args[1])


def _count_balayage(rec, args, kwargs, _):
    rec.counts["balayage_atoms_in"] += len(args[0])


def _keep_plan(rec, args, kwargs, plan):
    if rec.keep_plans:
        rec.plans.append(plan)


def _count_pass(signature, law):
    def hook(rec, args, kwargs, _):
        call = signature.bind(*args, **kwargs).arguments
        rec.counts["verifies"] += law  # verify draws its law once, then the tails
        rec.counts["passes"] += 1
        rec.counts["path_steps"] += call["n"] * len(call["plan"].steps)
        if rec.keep_plans:
            rec.simulated.append((call["plan"], call["seed"]))

    return hook


def _targets():
    # the package namespace rebinds some module names to functions
    balayage, cli, construct, diagram, measure, minimality, simulate = (
        importlib.import_module(f"cwembed.{m}") for m in
        ("balayage", "cli", "construct", "diagram", "measure", "minimality", "simulate"))
    return [
        (cli.load_problem_spec, "cli.load_problem_spec", None),
        (measure.gap_constant, "measure.gap_constant", None),
        (measure.sup_difference, "measure.residual", None),
        (balayage.balayage, "balayage.balayage", _count_balayage),
        (construct.ay_sweep, "construct.tangents", None),
        (construct.reversed_ay_sweep, "construct.tangents", None),
        (construct.cw_run, "construct.plan", _keep_plan),
        (construct.jacka_plan, "construct.plan", _keep_plan),
        (construct.vallois_eps_plan, "construct.plan", _keep_plan),
        (construct.cw_step, "construct.cut", _count_cut),
        (minimality.contact_region, "minimality.contact_region", None),
        (minimality.max_law_bound, "minimality.max_law_bound", None),
        (minimality.ay_max_law, "minimality.ay_max_law", None),
        (minimality.minimality_report, "minimality.report", None),
        (simulate.empirical_law, "simulate.empirical_law",
         _count_pass(inspect.signature(simulate.empirical_law), True)),
        (simulate.tail_probability, "simulate.tail_probability",
         _count_pass(inspect.signature(simulate.tail_probability), False)),
        (diagram.render_plan_svg, "diagram.render", None),
    ]


@contextmanager
def instrument(rec: Recorder):
    """Record spans into ``rec`` for every call into a layer made while the
    context is open."""
    from cwembed.construct import EmbeddingPlan

    wrappers = {id(fn): _wrap(fn, name, rec, hook) for fn, name, hook in _targets()}
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "cwembed" or modname.startswith("cwembed.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    to_wire = EmbeddingPlan.__dict__["to_wire"]
    from_wire = EmbeddingPlan.__dict__["from_wire"]
    EmbeddingPlan.to_wire = _wrap(to_wire, "construct.to_wire", rec)
    EmbeddingPlan.from_wire = classmethod(_wrap(from_wire.__func__, "construct.from_wire", rec))
    try:
        yield rec
    finally:
        EmbeddingPlan.to_wire = to_wire
        EmbeddingPlan.from_wire = from_wire
        for module, attr, value in undo:
            setattr(module, attr, value)
