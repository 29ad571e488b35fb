"""Benchmark of the cwembed package: end-to-end times of its CLI commands and
library calls on seeded workloads, with an output oracle, and a traced run
that breaks the same operations down by layer.

    python3 bench/run.py --workload construct-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/selftest.py

Run from the root of a source checkout: the package is imported from its
``src`` directory, never from an installed copy.  Each workload runs in its
own fresh single-threaded process (``--workload all`` starts one per
workload, one after another).  Specs, plans, outputs, the span file and a
report with timings and exact counters kept apart go under
``bench/out/<workload>-seed<n>-trace<t>/``.

A round runs every operation of the workload once; rounds repeat until
``--seconds`` of rounds have passed.  Before them, an untimed profiling round
under tracing pays first-call costs and measures each operation's Monte Carlo
share.  Each timing is the median over rounds of its per-round sum, in
calibrated seconds: each operation's wall seconds, its Monte Carlo share
divided by how much slower than nominal a numpy reference computation ran
during its round and the rest by the same for a Fraction reference
computation (see SpeedProbe and calibrated).  Wall seconds are printed
alongside, kept in the report and reported as ``command.wall_total_s``.  The
oracle checks every operation of every round, outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``total_s`` (all operations of
a round), ``plan_bytes``, ``peak_rss_mb`` and ``setup_s`` (import the package
and write the specs in a fresh interpreter, median of several).  It also
prints the time of each command, verify's simulated paths per second and the
share of failed operations; these spread too much from run to run on a
shared machine to gate on, so they are per-layer metrics.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics: self
time per layer from spans, exact counters, the per-command times and the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Operations on a spec with a known defect (workloads.DECIMAL_DEFECT) are run
and checked in every round.  Failing through an exit code or a wrong output
is that defect: it is counted in ``command.fail_share`` but not in
``failed``.  Their time is reported as ``command.known_defect_s`` and left
out of every other timing.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported: one thread per workload

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Optional  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

KINDS = ("analyze", "build", "verify", "diagram", "max_law")
SETUP_REPEATS = 7
ACTIVE_SUBSAMPLE = 256  # paths replayed by sample_path per verified plan
PROBE_NOMINAL_S = {"python": 0.01, "numpy": 0.0075}  # nominal seconds of each probe
PROBE_ROWS = 16384  # paths in the numpy probe's block
PROBE_EVERY_S = 0.25  # at most this long between speed probes within a round
SPAN_TOLERANCE = 0.02  # share of traced operation time spans may leave uncovered

# Set-up in a fresh interpreter: import the package, generate and write the
# workload's specs.  Prints its own duration.
_SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import cwembed, workloads
workloads.write_suite(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""

E2E_UNITS = {"total_s": "s", "plan_bytes": "bytes", "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_UNITS = {
    "cli.load_problem_spec_s": "s", "cli.unattributed_s": "s",
    "measure.gap_constant_s": "s", "measure.residual_s": "s",
    "balayage.balayage_s": "s", "balayage.atoms_in": "count",
    "construct.tangents_s": "s", "construct.plan_s": "s", "construct.cut_s": "s",
    "construct.cuts": "count", "construct.noop_share": "share",
    "construct.steps_x_atoms": "count", "construct.den_digits_max": "digits",
    "construct.to_wire_s": "s", "construct.from_wire_s": "s",
    "minimality.contact_region_s": "s", "minimality.max_law_bound_s": "s",
    "minimality.ay_max_law_s": "s", "minimality.report_s": "s",
    "simulate.empirical_law_s": "s", "simulate.tail_probability_s": "s",
    "simulate.passes": "count", "simulate.path_steps": "count",
    "simulate.ns_per_path_step": "ns", "simulate.active_step_share": "share",
    "diagram.render_s": "s", "diagram.svg_bytes": "bytes",
    "trace.total_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    # time of each kind of operation on specs without a known defect and of
    # all operations on specs with one, summed per round, the uncalibrated
    # wall seconds of total_s, the simulated paths verify asked for per
    # second of verify, and the share of operations that failed, known
    # defects included; from the untraced rounds of the run
    "command.analyze_s": "s", "command.build_s": "s", "command.verify_s": "s",
    "command.diagram_s": "s", "command.max_law_s": "s",
    "command.known_defect_s": "s", "command.wall_total_s": "s",
    "command.verify_paths_per_s": "1/s", "command.fail_share": "share",
}


class SpeedProbe:
    """Two fixed reference computations, timed between operations and never
    inside them: exact Fraction arithmetic, the kind of work construction,
    analysis and plan parsing do, and column-wise numpy work on a block of
    Philox draws, the kind the Monte Carlo does.  The machine's speed drifts
    by tens of percent over seconds to minutes, for whole runs at a time, and
    the two kinds of work drift by different amounts; ``slowness`` tells how
    much slower than nominal the probe of one kind ran next to a stretch of
    time.  Neither probe calls the package, so a change to the package cannot
    move them."""

    def __init__(self):
        rng = random.Random(0)
        self._xs = [Fraction(rng.randrange(1, 1 << 20), (1 << 13) + k) for k in range(6000)]
        self.times: list[float] = []  # when each sample ended
        self.seconds: dict[str, list[float]] = {kind: [] for kind in PROBE_NOMINAL_S}

    def _python(self) -> None:
        acc, xs = Fraction(0), self._xs
        for a, b in zip(xs[::3], xs[1::3]):
            acc = (a * b + acc) / 2 if acc.denominator < 1 << 64 else a

    @staticmethod
    def _numpy() -> None:
        import numpy as np

        u = np.random.Generator(np.random.Philox(key=7)).random((PROBE_ROWS, 12))
        pos = 4.0 * u[:, 0] - 2.0
        hi = pos.copy()
        for k in range(1, 12):
            a, b = 0.1 * k - 1.5, 0.05 * k + 1.0
            inside = (pos > a) & (pos < b)
            hi = np.where(inside, np.maximum(hi, (b * (pos - a) + a * u[:, k])
                                             / (pos - a + u[:, k])), hi)
            pos = np.where(inside, np.where(u[:, k] < (b - pos) / (b - a), a, b), pos)

    def sample(self) -> None:
        for kind, work in (("python", self._python), ("numpy", self._numpy)):
            t0 = perf_counter()
            work()
            t1 = perf_counter()
            self.seconds[kind].append(t1 - t0)
        self.times.append(t1)

    def maybe_sample(self) -> None:
        if perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def slowness(self, kind: str, t0: float, t1: float) -> float:
        """The mean time of the ``kind`` probe over [t0, t1], from the last
        sample before t0 through the first one after t1, as a multiple of its
        nominal time."""
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = bisect.bisect_left(self.times, t1) + 1
        window = self.seconds[kind][lo:hi]
        return sum(window) / len(window) / PROBE_NOMINAL_S[kind]


@dataclass
class Outcome:
    start: float  # perf_counter() when the operation began
    seconds: float
    value: object  # the result of a library call
    error: Optional[str]  # why the operation failed before its output check
    raised: bool = False  # an exception escaped the program


class Runner:
    """Runs the operations of one workload and checks their outputs."""

    def __init__(self, cases, ops, work: Path):
        from workloads import exact_measures

        self.cases = {c.name: c for c in cases}
        self.ops = ops
        self.work = work
        self.exact = {c.name: exact_measures(c) for c in cases}
        for sub in ("plans", "outputs"):
            (work / sub).mkdir(parents=True, exist_ok=True)
        self.reference: dict[int, object] = {}  # first passing output of each op
        self.failures: list[tuple[int, int, str]] = []  # (round, op, reason)
        self.known_failures: list[tuple[int, int, str]] = []  # on known-defect specs

    def spec(self, name) -> str:
        return str(self.work / "specs" / f"{name}.json")

    def plan_path(self, name) -> Path:
        return self.work / "plans" / f"{name}.json"

    def output(self, i, op) -> Path:
        if op.kind == "build":
            return self.plan_path(op.spec)
        suffix = "svg" if op.kind == "diagram" else "json"
        return self.work / "outputs" / f"{i:03d}-{op.kind}-{op.spec}.{suffix}"

    def argv(self, i, op) -> list[str]:
        out = str(self.output(i, op))
        if op.kind == "analyze":
            return ["analyze", "--spec", self.spec(op.spec), "--format", "json", "--out", out]
        if op.kind == "build":
            return ["build", "--spec", self.spec(op.spec), "--out", out]
        plan = str(self.plan_path(op.spec))
        if op.kind == "verify":
            return ["verify", "--spec", self.spec(op.spec), "--plan", plan,
                    "--format", "json", "--out", out]
        return ["diagram", "--spec", self.spec(op.spec), "--plan", plan, "--out", out]

    def run_round(self, probe: SpeedProbe, rec=None) -> list[Outcome]:
        """Run every operation once, probing the machine's speed between
        operations.  With a recorder, each CLI operation gets a root span
        named after its command."""
        from cwembed import cli, minimality

        probe.sample()
        outcomes = []
        for i, op in enumerate(self.ops):
            argv = None if op.kind == "max_law" else self.argv(i, op)
            if rec is not None:
                rec.op = i
            root = rec.open(f"cli.{op.kind}") if rec is not None and argv else None
            rc, value, error = 0, None, None
            t0 = perf_counter()
            try:
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    if argv is None:
                        mu0, mu = self.exact[op.spec]
                        value = minimality.ay_max_law(mu0, mu, op.x)
                    else:
                        rc = cli.main(argv)
            except (Exception, SystemExit) as exc:  # any escape is a failed operation
                error = f"raised {exc!r}"
            seconds = perf_counter() - t0
            if root is not None:
                rec.close(root)
            raised = error is not None
            if rc != 0 and error is None:
                error = f"exit {rc}: {err.getvalue().strip()[:200]}"
            outcomes.append(Outcome(t0, seconds, value, error, raised))
            probe.maybe_sample()
        probe.sample()
        return outcomes

    def check_round(self, round_no, outcomes) -> None:
        """Check every output.  On a spec with a known defect, an exit code or
        a wrong output is that defect (``known_failures``); an exception that
        escapes the program is a failure anywhere."""
        for i, (op, got) in enumerate(zip(self.ops, outcomes)):
            try:
                reason = got.error or self._check(i, op, got)
            except Exception as exc:  # a malformed output fails its check
                reason = f"check raised {exc!r}"
            if not reason:
                continue
            if self.cases[op.spec].known_defect and not got.raised:
                self.known_failures.append((round_no, i, reason))
            else:
                self.failures.append((round_no, i, reason))

    def _check(self, i, op, got):
        """None when the output is right.  The first passing output of an
        operation is checked in full and kept; later rounds must repeat it."""
        if op.kind == "max_law":
            seen = got.value
        else:
            seen = hashlib.sha256(self.output(i, op).read_bytes()).hexdigest()
        if i in self.reference:
            return None if seen == self.reference[i] else "output differs from the first round"
        reason = self._full_check(i, op, got)
        if reason is None:
            self.reference[i] = seen
        return reason

    def _full_check(self, i, op, got):
        from cwembed import EmbeddingPlan, contact_region, gap_constant, max_law_bound

        case = self.cases[op.spec]
        mu0, mu = self.exact[op.spec]
        if op.kind == "max_law":
            bound = max_law_bound(mu0, mu, op.x)
            return None if got.value == bound else f"ay_max_law {got.value} != bound {bound}"
        text = self.output(i, op).read_text(encoding="utf-8")
        if op.kind == "analyze":
            payload = json.loads(text)
            if payload["C"] != float(gap_constant(mu0, mu)):
                return f"C = {payload['C']!r}, exact gap constant {gap_constant(mu0, mu)}"
            if payload["region"] != contact_region(mu0, mu).to_wire():
                return f"contact set {payload['region']} is wrong"
            return None
        if op.kind == "build":
            plan = EmbeddingPlan.from_wire(json.loads(text))
            if not plan.complete:
                return "plan reloads as incomplete"
            vallois = case.data["construction"]["type"] == "vallois"  # ends within tolerance
            if not vallois and not plan.final_measure.close_to(mu):
                return "reloaded plan does not end at the target"
            return self._construct_check(case, mu0, mu, len(plan.steps)) if case.dyadic else None
        if op.kind == "verify":
            return None if json.loads(text)["ok"] is True else "verify reports ok = false"
        return None if text.startswith("<svg") else "diagram is not an SVG"

    @staticmethod
    def _construct_check(case, mu0, mu, n_steps):
        """Construct the plan in-process from the exact spec."""
        from cwembed import (Tangent, ay_sweep, cw_run, gap_constant, jacka_plan,
                             reversed_ay_sweep, vallois_eps_plan)

        con = json.loads(json.dumps(case.data["construction"]), parse_float=Fraction)
        kind = con["type"]
        if kind == "vallois":
            plan = vallois_eps_plan(mu0, mu, con["eps"], int(con["max_steps"]))
            exact_ok = plan.complete
        else:
            if kind == "jacka":
                plan = jacka_plan(mu0, mu)
            elif kind == "custom":
                plan = cw_run(mu0, [Tangent.make(s, b) for s, b in con["tangents"]], mu, con["C"])
            else:
                sweep = ay_sweep if kind == "azema-yor" else reversed_ay_sweep
                plan = cw_run(mu0, sweep(mu0, mu), mu, gap_constant(mu0, mu))
            exact_ok = plan.residual == 0 and plan.final_measure == mu
        if not exact_ok:
            return f"in-process {kind} plan: residual {plan.residual}, not exact"
        if len(plan.steps) != n_steps:
            return f"built plan has {n_steps} steps, in-process plan {len(plan.steps)}"
        return None

    def output_bytes(self, kind) -> int:
        return sum(self.output(i, op).stat().st_size for i, op in enumerate(self.ops)
                   if op.kind == kind and self.output(i, op).exists())


def _den_digits(plan) -> int:
    dens = [plan.C.denominator]
    for st in plan.steps:
        dens += [st.tangent.slope.denominator, st.tangent.intercept.denominator]
        dens += [v.denominator for v in (st.interval.lower, st.interval.upper) if v is not None]
        dens += [v.denominator for atom in st.measure_after.atoms for v in atom]
    return len(str(max(dens)))


def _active_share(simulated) -> float:
    """Mean share of a plan's steps a path is inside, replayed by
    sample_path on the first paths of each verified plan."""
    from cwembed import sample_path

    inside = total = 0
    for plan, seed in {id(p): (p, s) for p, s in simulated}.values():
        if not plan.steps:
            continue
        for k in range(ACTIVE_SUBSAMPLE):
            inside += len(sample_path(plan, seed, k).exits)
        total += ACTIVE_SUBSAMPLE * len(plan.steps)
    return inside / total if total else 0.0


def _counters(rec, runner) -> dict:
    c = rec.counts
    return {
        "construct.cuts": c["cuts_tried"] - c["noops"],
        "construct.noop_share": c["noops"] / c["cuts_tried"] if c["cuts_tried"] else 0.0,
        "construct.steps_x_atoms": c["steps_x_atoms"],
        "construct.den_digits_max": max((_den_digits(p) for p in rec.plans), default=0),
        "balayage.atoms_in": c["balayage_atoms_in"],
        "simulate.passes": c["passes"] / c["verifies"] if c["verifies"] else 0.0,
        "simulate.path_steps": c["path_steps"],
        "simulate.active_step_share": _active_share(rec.simulated),
        "diagram.svg_bytes": runner.output_bytes("diagram"),
        "plan_bytes": runner.output_bytes("build"),
        "trace.spans": len(rec.spans),
    }


def _setup_in_fresh_process(workload, seed, directory) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT, str(SRC), str(BENCH), workload, str(seed),
         str(directory)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def calibrated(outcomes: list[Outcome], probe: SpeedProbe, mc_share: list[float]) -> list[float]:
    """Each operation's seconds at nominal machine speed: the share spent in
    ``simulate`` calls (``mc_share``, measured in the run's profiling round)
    divided by the numpy probe's slowness over the operation's round, the
    rest by the Fraction probe's.  A round's probes, not the one or two next
    to an operation, set its factors: a few samples each run noisier than
    the machine drifts within a round."""
    span = (outcomes[0].start, outcomes[-1].start + outcomes[-1].seconds)
    python, numpy = probe.slowness("python", *span), probe.slowness("numpy", *span)
    return [o.seconds * ((1.0 - m) / python + m / numpy) for o, m in zip(outcomes, mc_share)]


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "cwembed" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a cwembed checkout",
              file=sys.stderr)
        return 2
    work = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import cwembed
    import workloads

    cases, ops = workloads.write_suite(workload, seed, work / "specs")
    setups = [(t0, perf_counter() - t0)]  # (start, seconds) of each set-up
    if Path(cwembed.__file__).resolve().parent != SRC / "cwembed":
        print(f"error: imported cwembed from {cwembed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    for k in range(SETUP_REPEATS - 1):
        probe.sample()
        start = perf_counter()
        setups.append((start, _setup_in_fresh_process(workload, seed, work / "probe" / str(k))))
    probe.sample()
    raw_setup = _median([s for _, s in setups])
    setup_s = _median([s / probe.slowness("python", t, t + s) for t, s in setups])

    import tracing

    runner = Runner(cases, ops, work)
    # A profiling round, untimed: it pays lazy imports and first-call costs,
    # and gives each operation's Monte Carlo share for the calibration.
    profile = tracing.Recorder(keep_plans=False)
    with tracing.instrument(profile):
        runner.run_round(probe, profile)
    mc_share = profile.op_shares("simulate.", len(ops))
    del profile

    plain, traced = [], []  # outcomes of each round
    recorders = []
    measured = 0.0  # time inside rounds; checks between rounds do not count
    while True:
        gc.collect()
        rec = tracing.Recorder() if trace and len(plain) > len(traced) else None
        t_round = perf_counter()
        if rec is None:
            outcomes = runner.run_round(probe)
        else:
            with tracing.instrument(rec):
                outcomes = runner.run_round(probe, rec)
        round_s = perf_counter() - t_round
        measured += round_s
        runner.check_round(len(plain) + len(traced), outcomes)
        (traced if rec else plain).append(outcomes)
        if rec:
            recorders.append(rec)
        if seconds - measured < 0.5 * round_s and (not trace or traced):
            break

    # Operations on specs with a known defect stay in every round and are
    # checked, but their time is kept apart (command.known_defect_s), so that
    # fixing the defect, which makes them do their full work, does not read
    # as a regression of the other timings.
    known = [bool(runner.cases[op.spec].known_defect) for op in ops]
    attempted = len(ops) * (len(plain) + len(traced))
    failed = len(runner.failures)
    problems = [f"round {r} op {i} {ops[i].kind} {ops[i].spec}: {why}"
                for r, i, why in runner.failures]

    def seconds_of(outcomes, cal=True):
        return calibrated(outcomes, probe, mc_share) if cal else [o.seconds for o in outcomes]

    def per_round(rounds, kind=None, cal=True, on_known=False):
        return [sum(t for op, k, t in zip(ops, known, seconds_of(r, cal))
                    if k == on_known and kind in (None, op.kind)) for r in rounds]

    timings = {f"{k}_s": _median(per_round(plain, k)) for k in KINDS}
    timings["total_s"] = _median(per_round(plain))
    timings["known_defect_s"] = _median(per_round(plain, on_known=True))
    timings["setup_s"] = setup_s
    raw = {f"{k}_s": _median(per_round(plain, k, False)) for k in KINDS}
    raw["total_s"] = _median(per_round(plain, cal=False))
    raw["known_defect_s"] = _median(per_round(plain, cal=False, on_known=True))
    raw["setup_s"] = raw_setup
    verify_paths = sum(runner.cases[op.spec].data["simulation"]["n_paths"]
                       for op, k in zip(ops, known) if op.kind == "verify" and not k)
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "rounds": {"plain": len(plain), "traced": len(traced)},
              "ops_per_round": {k: sum(op.kind == k for op in ops) for k in KINDS},
              "failures": [[r, i, ops[i].kind, ops[i].spec, why]
                           for r, i, why in runner.failures],
              "known_defect_failures": [[r, i, ops[i].kind, ops[i].spec, why]
                                        for r, i, why in runner.known_failures],
              "timings": timings,
              "raw_timings": raw,
              "monte_carlo_share": mc_share,
              "probe": {kind: {"median_s": _median(xs), "samples": len(xs)}
                        for kind, xs in probe.seconds.items()},
              "op_seconds": [[op.kind, op.spec, _median([r[i].seconds for r in plain])]
                             for i, op in enumerate(ops)]}

    counters = None
    if trace:
        layer_rounds, counter_rounds = [], []
        for rec, outcomes in zip(recorders, traced):
            # nominal seconds per raw second of each operation of the round
            scale = [c / o.seconds if o.seconds else 1.0
                     for c, o in zip(seconds_of(outcomes), outcomes)]
            row = {m: 0.0 for m, unit in LAYER_UNITS.items()
                   if unit == "s" and not m.startswith(("trace.", "command."))}
            for name, op, t in rec.span_self_times():
                row["cli.unattributed_s" if name in tracing.CLI_ROOTS else f"{name}_s"] += \
                    t * scale[op]
            # the spans' self times must account for the measured time of the
            # operations, or some of it ran outside every span
            spans_s, ops_s = rec.root_total(), sum(o.seconds for o in outcomes)
            if abs(spans_s - ops_s) > SPAN_TOLERANCE * ops_s:
                problems.append(f"layer self times add up to {spans_s:.6f} s, "
                                f"the traced operations took {ops_s:.6f} s")
            row["trace.total_s"] = sum(seconds_of(outcomes))
            counter_rounds.append(_counters(rec, runner))
            steps = counter_rounds[-1]["simulate.path_steps"]
            sim_s = row["simulate.empirical_law_s"] + row["simulate.tail_probability_s"]
            row["simulate.ns_per_path_step"] = 1e9 * sim_s / steps if steps else 0.0
            layer_rounds.append(row)
        counters = counter_rounds[0]
        if any(c != counters for c in counter_rounds):
            problems.append("exact counters differ between traced rounds")
        layer = {m: _median([r[m] for r in layer_rounds]) for m in layer_rounds[0]}
        # rounds alternate plain, traced: compare each traced round with the
        # plain round just before it
        layer["trace.overhead_s"] = _median(
            [sum(seconds_of(t)) - sum(seconds_of(p)) for p, t in zip(plain, traced)])
        report["layer_timings"] = layer
        report["counters"] = counters
        spans_file = work / "spans.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"],
             "rounds": [rec.spans for rec in recorders]}))
        print(f"spans: {spans_file}")

    e2e = {
        "total_s": timings["total_s"],
        "plan_bytes": runner.output_bytes("build"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": timings["setup_s"],
    }
    command = {f"command.{k}_s": timings[f"{k}_s"] for k in KINDS}
    command["command.known_defect_s"] = timings["known_defect_s"]
    command["command.wall_total_s"] = raw["total_s"]
    command["command.verify_paths_per_s"] = (verify_paths / timings["verify_s"]
                                             if timings["verify_s"] else 0.0)
    command["command.fail_share"] = (failed + len(runner.known_failures)) / attempted
    raw.update({f"command.{k}_s": raw[f"{k}_s"] for k in KINDS + ("known_defect",)})
    report.update(end_to_end=e2e, command=command, problems=problems,
                  threads=len(os.listdir("/proc/self/task"))
                  if os.path.isdir("/proc/self/task") else None)
    (work / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    if trace:
        values = {**report["layer_timings"], **counters, **command}
        metrics, units = {m: values[m] for m in LAYER_UNITS}, LAYER_UNITS
    else:
        metrics, units = e2e, E2E_UNITS
    counts = ", ".join(f"{k} {n}" for k, n in report["ops_per_round"].items())
    print(f"workload {workload}, seed {seed}: {len(plain)} plain and {len(traced)} traced "
          f"rounds; operations per round: {counts}")
    shown = metrics if trace else {**metrics, **command}
    for name, value in shown.items():
        unit = units.get(name) or LAYER_UNITS[name]
        extra = f"  (raw {raw[name]:.6g} s)" if name in raw else ""
        print(f"  {name:30s} {value:.6g} {unit}{extra}")
    print(f"  {failed} of {attempted} operations failed; "
          f"{len(runner.known_failures)} more failed on known defects")
    seen = set()
    for r, i, why in runner.failures + runner.known_failures:
        if i not in seen:
            seen.add(i)
            defect = runner.cases[ops[i].spec].known_defect
            print(f"  failed: {ops[i].kind} {ops[i].spec}: {why}"
                  + (f" [known defect, {defect}]" if defect else ""))
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    rc = 0
    for w in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                               str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        rc = rc or done.returncode
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
