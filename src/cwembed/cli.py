"""Command-line front end.

Problem specifications are JSON files:

    {
      "mu0": [[-1, 0.5], [1, 0.5]],
      "mu":  [[0, 1.0]],
      "construction": {"type": "azema-yor"},
      "simulation": {"n_paths": 100000, "seed": 7,
                     "gammas": [2, 4, 8], "thresholds": [0.5]}
    }

Construction types: azema-yor, reversed-azema-yor, jacka,
vallois (fields eps, max_steps), custom (fields tangents = [[slope,
intercept], ...] and C).  The simulation block and its fields are optional.

Every JSON number is the decimal it spells: 0.3 is exactly 3/10.  It is
read where its field is, so a number beyond a double's range is refused
naming that field, and one in a key nothing reads is ignored.  Weights
that miss mass 1 by at most 1e-12, such as 0.6666666666666666 and
0.3333333333333333, are rescaled to mass exactly 1.  Counts and seeds must
be integral numbers (1e5 is one).

A plan file holds mu0, target, C and each step's slope and intercept as
exact "p/q" strings; verify and diagram replay the tangents to rebuild the
rest, and refuse a plan for measures other than the spec's (exit 2).  Its
residual is a float for reading only.

Exit codes: 0 ok; 2 parse error or input mismatch (the message names the
field); 3 inadmissible or truncated construction; 4 verification failure.

Only verify simulates, so analyze, build and diagram never import numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import minimality
from .construct import (
    EmbeddingPlan,
    Tangent,
    ay_sweep,
    cw_run,
    jacka_plan,
    reversed_ay_sweep,
    vallois_eps_plan,
)
from .diagram import render_plan_svg
from .errors import EmbedError, IncompletePlanError, ProblemSpecError, field_errors
from .measure import MASS_TOL, MAX_PATHS, AtomicMeasure, Pair, _too_long, frac, gap_constant, pair

_CONSTRUCTIONS = ("azema-yor", "reversed-azema-yor", "jacka", "vallois", "custom")


@dataclass
class ProblemSpec:
    mu0: AtomicMeasure
    mu: AtomicMeasure
    construction: dict
    n_paths: int
    seed: int
    gammas: list
    thresholds: list


def _require(cond, message, fld):
    if not cond:
        raise ProblemSpecError(message, field=fld)


def _numbers(value, fld, parse=lambda v: float(frac(v))) -> list:
    if not isinstance(value, list):
        raise ProblemSpecError(f"expected a list of numbers, got {value!r}", field=fld)
    with field_errors(fld):
        return [parse(v) for v in value]


def _integer(value, fld) -> int:
    """An integral JSON number: 7 and 1e5 are, 7.5, true and "7" are not."""
    with field_errors(fld):
        value = frac(value) if isinstance(value, _Number) else value
    integral = (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, Fraction) and value.denominator == 1)
    shown = float(value) if isinstance(value, Fraction) else value
    _require(integral, f"expected an integer, got {json.dumps(shown)}", fld)
    return int(value)


def _path_count(value, fld) -> int:
    n = _integer(value, fld)
    _require(1 <= n <= MAX_PATHS, f"must be in [1, {MAX_PATHS}], got {n}", fld)
    return n


def _seed(value, fld) -> int:
    seed = _integer(value, fld)
    _require(0 <= seed < 2**128, f"must be in [0, 2**128), got {seed}", fld)
    return seed


class _Number(str):
    """A JSON number, as the text it spells: ``frac`` reads it at its field,
    so a range error, even on an integer too long for ``int``, can name the
    field."""

    __iter__ = None  # a number, not a sequence of characters
    __repr__ = str.__str__


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_float=_Number,
                          parse_int=_Number)
    except json.JSONDecodeError as exc:
        raise ProblemSpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, bad UTF-8, too deep
        raise ProblemSpecError(f"cannot read {path}: {exc}") from None


def load_problem_spec(path) -> ProblemSpec:
    raw = _read_json(path)
    _require(isinstance(raw, dict), "top level must be an object", "spec")
    for key in ("mu0", "mu"):
        _require(key in raw, "missing required field", key)
    with field_errors("mu0/mu"):
        mu0 = AtomicMeasure.from_wire(raw["mu0"])
        mu = AtomicMeasure.from_wire(raw["mu"])
    for key, m in (("mu0", mu0), ("mu", mu)):
        _require(abs(m.total_mass - 1) <= MASS_TOL, f"{key} must be a probability measure", key)
    # decimals such as 0.6666666666666666 and 0.3333333333333333 sum to 1
    # only within MASS_TOL, and a pair needs mass exactly 1
    mu0, mu = (m if m.total_mass == 1 else
               AtomicMeasure(tuple((x, w / m.total_mass) for x, w in m.atoms)) for m in (mu0, mu))
    with field_errors("mu0/mu"):  # every command forms the pair, so later ones hit the memo
        p = pair(mu0, mu)
    _require(not any(map(_too_long, (p.C, *p.u0.slopes, *p.u0.values, *p.ut.slopes,
                                     *p.ut.values))),
             "the pair's potentials need a p/q of over 4300 digits", "mu0/mu")

    con = raw.get("construction", {"type": "azema-yor"})
    _require(isinstance(con, dict) and "type" in con, "construction needs a type", "construction")
    _require(con["type"] in _CONSTRUCTIONS, f"unknown type {con['type']!r}", "construction.type")
    if con["type"] == "vallois":
        with field_errors("construction.eps"):
            eps = frac(con["eps"])
        _require(eps > 0, "vallois needs eps > 0", "construction.eps")
        max_steps = _integer(con.get("max_steps", 200), "construction.max_steps")
        _require(max_steps >= 0, "max_steps must be >= 0", "construction.max_steps")
        con = dict(con, eps=eps, max_steps=max_steps)
    if con["type"] == "custom":
        _require("tangents" in con and isinstance(con["tangents"], list),
                 "custom needs a tangent list", "construction.tangents")
        with field_errors("construction.tangents"):
            tangents = [Tangent.make(s, b) for s, b in con["tangents"]]
        with field_errors("construction.C"):
            con = dict(con, tangents=tangents, C=frac(con["C"]))

    sim = raw.get("simulation", {})
    _require(isinstance(sim, dict), "simulation must be an object", "simulation")
    with field_errors("mu0/mu"):  # positions must fit a double
        span = max([abs(float(x)) for x in mu0.positions + mu.positions] + [1.0])
    # so must the default gammas, and with them every potential value
    _require(math.isfinite(8 * span), "positions must lie within 1/8 of a double's range",
             "mu0/mu")
    gammas = _numbers(sim.get("gammas", [2 * span, 4 * span, 8 * span]), "simulation.gammas")
    _require(all(g > 0 for g in gammas), "gammas must be positive", "simulation.gammas")
    thresholds = _numbers(sim.get("thresholds", list(mu.positions)), "simulation.thresholds",
                          frac)  # exact: each bound is taken at the threshold itself
    n_paths = _path_count(sim.get("n_paths", 100_000), "simulation.n_paths")
    seed = _seed(sim.get("seed", 0), "simulation.seed")
    return ProblemSpec(mu0, mu, con, n_paths, seed, gammas, thresholds)


def build_plan(spec: ProblemSpec) -> EmbeddingPlan:
    kind = spec.construction["type"]
    if kind in ("azema-yor", "reversed-azema-yor"):
        sweep = ay_sweep if kind == "azema-yor" else reversed_ay_sweep
        return cw_run(spec.mu0, sweep(spec.mu0, spec.mu), spec.mu, gap_constant(spec.mu0, spec.mu))
    if kind == "jacka":
        return jacka_plan(spec.mu0, spec.mu)
    if kind == "vallois":
        return vallois_eps_plan(spec.mu0, spec.mu, spec.construction["eps"],
                                spec.construction["max_steps"])
    return cw_run(spec.mu0, spec.construction["tangents"], spec.mu, spec.construction["C"])


def _texts(values) -> dict:
    """Each exact value's 6-digit text (+-inf for a float end), but its exact
    p/q where two neighbouring values' 6-digit texts agree."""
    vs = sorted(set(values))
    text = [format(float(v), "+" if isinstance(v, float) else ".6g") for v in vs]
    shared = {a for a, b in zip(text, text[1:]) if a == b}
    return {v: str(v) if t in shared else t for v, t in zip(vs, text)}


def _region_text(region: minimality.ContactRegion) -> str:
    """A contact region as text, such as "[-inf, 0] U {2}", by ``_texts``."""
    text = _texts([v for comp in region.components for v in comp])
    return " U ".join("{%s}" % text[lo] if lo == hi else "[%s, %s]" % (text[lo], text[hi])
                      for lo, hi in region.components) or "(empty)"


def _analyze_payload(spec: ProblemSpec, p: Pair, region: minimality.ContactRegion) -> dict:
    bounds = [
        [float(t), float(minimality.max_law_bound(spec.mu0, spec.mu, t))] for t in spec.thresholds
    ]
    return {
        **minimality.contact_wire(p.C, region),
        "mu0_potential": [[float(x), float(v)] for x, v in zip(p.u0.xs, p.u0.values)],
        "mu_potential": [[float(x), float(v)] for x, v in zip(p.ut.xs, p.ut.values)],
        "max_law_bound": bounds,
    }


def cmd_analyze(args) -> int:
    spec = load_problem_spec(args.spec)
    p, region = pair(spec.mu0, spec.mu), minimality.contact_region(spec.mu0, spec.mu)
    payload = _analyze_payload(spec, p, region)
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        for head, f in (("starting potential kinks: ", p.u0), ("target potential kinks:   ", p.ut)):
            xs, vs = _texts(f.xs), _texts(f.values)
            lines.append(head + ", ".join(f"({xs[x]}, {vs[v]})" for x, v in zip(f.xs, f.values)))
        lines.append(f"C = {payload['C']:.9g}")
        lines.append(f"contact set = {_region_text(region)}")
        ends = _texts([region.a_minus, region.a_plus])
        lines.append(f"a- = {ends[region.a_minus]}   a+ = {ends[region.a_plus]}")
        lines.append("max-law bound:")
        shown = _texts(spec.thresholds)
        for t, (_, b) in zip(spec.thresholds, payload["max_law_bound"]):
            lines.append(f"  P(max >= {shown[t]}) <= {b:.9g}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_build(args) -> int:
    plan = build_plan(load_problem_spec(args.spec))
    text = json.dumps(plan.to_wire(), indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    if not plan.complete:
        print(f"warning: plan truncated, residual = {float(plan.residual):.6g}", file=sys.stderr)
        return 3
    return 0


def _load_plan(path, spec: ProblemSpec) -> EmbeddingPlan:
    """Read a plan file and replay it; any fault, or measures other than the
    spec's, is a ProblemSpecError."""
    with field_errors("cannot load plan"):
        plan = EmbeddingPlan.from_wire(_read_json(path))
    if not (plan.mu0 == spec.mu0 and plan.target == spec.mu):
        raise ProblemSpecError("plan measures do not match the problem spec")
    return plan


def cmd_verify(args) -> int:
    from . import simulate  # the one command that simulates, so the one that loads numpy
    spec = load_problem_spec(args.spec)
    plan = _load_plan(args.plan, spec)
    if not plan.complete:
        raise IncompletePlanError(f"plan incomplete, residual = {float(plan.residual):.6g}")

    n = spec.n_paths if args.paths is None else _path_count(args.paths, "--paths")
    seed = spec.seed if args.seed is None else _seed(args.seed, "--seed")
    report = minimality.minimality_report(plan, n, spec.gammas, seed)
    law = simulate.empirical_law(plan, n, seed, spec.thresholds)
    tv = simulate.tv_distance(law, spec.mu)
    tv_limit = 4.0 * math.sqrt(len(spec.mu) / n)
    tails_ok = all(
        (t.below == 0.0 or t.below < 3.0 * t.below_se)
        and (t.above == 0.0 or t.above < 3.0 * t.above_se)
        for t in report.tail_estimates
    )
    ok = report.structural_ok and tv < tv_limit and tails_ok

    if args.format == "json":
        payload = {
            "report": report.to_wire(),
            "tv_distance": tv,
            "tv_limit": tv_limit,
            "atom_frequencies": sorted(law.atom_frequencies.items()),
            "max_exceedance": sorted(law.max_exceedance.items()),
            "tails_ok": tails_ok,
            "ok": ok,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        rows = ["atom,frequency"]
        rows += [f"{p:.12g},{f:.6g}" for p, f in sorted(law.atom_frequencies.items())]
        rows.append("")
        rows.append("gamma,side,estimate,stderr")
        for t in report.tail_estimates:
            rows.append(f"{t.gamma:.6g},below,{t.below:.6g},{t.below_se:.6g}")
            rows.append(f"{t.gamma:.6g},above,{t.above:.6g},{t.above_se:.6g}")
        text = "\n".join(rows) + "\n"
    else:
        lines = [
            f"C = {float(report.C):.9g}",
            f"contact set = {_region_text(report.region)}",
            f"structural check: {'ok' if report.structural_ok else 'FAILED'}",
            f"uniformly integrable: {'yes' if report.ui_embedding else 'no'}",
            f"tv distance = {tv:.6g} (limit {tv_limit:.6g})",
            "tail estimates (gamma-scaled):",
        ]
        for t in report.tail_estimates:
            lines.append(
                f"  gamma={t.gamma:<8.6g} below={t.below:.6g} (se {t.below_se:.6g})"
                f"  above={t.above:.6g} (se {t.above_se:.6g})"
            )
        lines.append("verdict: " + ("PASS" if ok else "FAIL"))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if ok else 4


def cmd_diagram(args) -> int:
    spec = load_problem_spec(args.spec)
    _emit(render_plan_svg(_load_plan(args.plan, spec)), args.out)
    return 0


def _emit(text: str, out) -> None:
    """Write a command's output to ``out``, or to stdout when it is unset."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ProblemSpecError(f"cannot write {out}: {exc}") from None


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cwembed", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, plan=False, out_required=False, formats=()):
        sp.add_argument("--spec", required=True, help="problem spec JSON file")
        if plan:
            sp.add_argument("--plan", required=True, help="plan JSON file")
        sp.add_argument("--out", required=out_required, help="output file")
        if formats:
            sp.add_argument("--format", choices=formats, default="text")

    sp = sub.add_parser("analyze", help="potentials, C, contact set, max-law bound")
    common(sp, formats=("text", "json"))
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("build", help="construct a plan and write it as JSON")
    common(sp, out_required=True)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("verify", help="minimality report and law comparison")
    common(sp, plan=True, formats=("text", "json", "csv"))
    sp.add_argument("--paths", type=int, default=None, help="override simulated path count")
    sp.add_argument("--seed", type=int, default=None, help="override simulation seed")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("diagram", help="SVG picture of the plan")
    common(sp, plan=True, out_required=True)
    sp.set_defaults(fn=cmd_diagram)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except EmbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ProblemSpecError) else 3


if __name__ == "__main__":
    raise SystemExit(main())
