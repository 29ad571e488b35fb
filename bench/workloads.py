"""Seeded problem-spec suites for the benchmark workloads.

Every workload is a list of spec files plus the operations run on them.  The
generator takes the workload seed and nothing else, and the same seed gives
byte-identical spec files.  Positions and weights are dyadic rationals with
few bits, so each JSON float parses to exactly the intended rational and every
dyadic spec's weights sum to exactly 1.  The decimal-weight specs are the
deliberate exception: they probe the float input boundary.

Atom counts and denominators are fixed per workload; the seed moves only
where the atoms sit and how the mass is split, so the cost of a workload
changes little from seed to seed.  Each workload runs its own mix plus a
little of every command, so every per-command time exists on every workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

WORKLOADS = ("construct-large", "verify-mc", "inputs-mixed")

#: the float-input defect (ROADMAP item 5): decimal weights such as 0.1 keep
#: a mass != 1, analyze reports a wrong C and contact set, build exits 3
DECIMAL_DEFECT = "ROADMAP item 5: decimal weights parse to a mass != 1"


@dataclass(frozen=True)
class Case:
    """One spec file of a suite."""

    name: str
    data: dict
    dyadic: bool
    known_defect: str = ""


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI command on a spec (verify and diagram read
    the plan that build wrote for it), or a library ``ay_max_law`` call at
    threshold ``x``."""

    kind: str  # analyze | build | verify | diagram | max_law
    spec: str
    x: Optional[Fraction] = None


def _dyadic_measure(rng: random.Random, n: int, span: int, den: int, wbits: int) -> list:
    """n atoms on the grid (1/den)Z within [-span, span], weights k/2**wbits
    summing to exactly 1."""
    xs = sorted(rng.sample(range(-span * den, span * den + 1), n))
    total = 1 << wbits
    cuts = sorted(rng.sample(range(1, total), n - 1))
    ws = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [[x / den, w / total] for x, w in zip(xs, ws)]


def _span(*measures) -> float:
    return max([abs(x) for m in measures for x, _ in m] + [1.0])


def _spec(mu0, mu, kind, sim, **con) -> dict:
    return {"mu0": mu0, "mu": mu, "construction": dict(con, type=kind), "simulation": sim}


def _mean_start_tangents(mu: list) -> tuple[list, list]:
    """A start law delta_m at the mean of mu (so C = 0) and the segment lines
    of u_mu, left to right: a valid custom tangent list, computed without
    the package."""
    atoms = [(Fraction(x), Fraction(w)) for x, w in mu]
    mean = sum(x * w for x, w in atoms)
    slope, tangents = Fraction(1), []
    for x, w in atoms:
        value = -sum(v * abs(x - y) for y, v in atoms)
        # the segment left of x, and after the drop the one right of x,
        # both pass through (x, u_mu(x))
        tangents.append([float(slope), float(value - slope * x)])
        slope -= 2 * w
    tangents.append([float(slope), float(value - slope * x)])
    return [[float(mean), 1.0]], tangents


WORKED_MU0 = [[-1.0, 0.5], [1.0, 0.5]]
WORKED_MU = [[0.0, 1.0]]


def _construct_large(rng):
    mu0 = _dyadic_measure(rng, 64, 8, 16, 12)
    mu = _dyadic_measure(rng, 128, 16, 16, 13)
    sim = {"n_paths": 4000, "seed": 11, "gammas": [2 * _span(mu0, mu)]}
    cases = [Case(f"large-{k}", _spec(mu0, mu, k, sim), True)
             for k in ("azema-yor", "reversed-azema-yor", "jacka")]
    ops = [Op("analyze", "large-azema-yor")]
    ops += [Op("build", c.name) for c in cases]
    ops += [Op("verify", c.name) for c in cases]
    ops.append(Op("diagram", "large-azema-yor"))
    targets = [Fraction(x) for x, _ in mu]
    ops += [Op("max_law", "large-azema-yor", x=targets[len(targets) * k // 5])
            for k in (1, 2, 3, 4)]
    return cases, ops


def _verify_mc(rng):
    pairs = [("worked", WORKED_MU0, WORKED_MU)]
    for n0, n1 in ((8, 16), (16, 32)):
        pairs.append((f"pair-{n0}-{n1}", _dyadic_measure(rng, n0, 4, 8, 8),
                      _dyadic_measure(rng, n1, 6, 8, 9)))
    cases, ops = [], []
    for name, mu0, mu in pairs:
        sim = {"n_paths": 200_000, "seed": 5}
        cases.append(Case(name, _spec(mu0, mu, "azema-yor", sim), True))
        ops += [Op("analyze", name), Op("build", name), Op("verify", name),
                Op("diagram", name), Op("max_law", name, x=Fraction(mu[len(mu) // 2][0]))]
    return cases, ops


def _inputs_mixed(rng):
    sim = {"n_paths": 2000, "seed": 3}
    cases = []
    for n0, n1 in ((3, 6), (6, 12), (8, 16)):
        mu0 = _dyadic_measure(rng, n0, 3, 8, 6)
        mu = _dyadic_measure(rng, n1, 5, 8, 7)
        for kind in ("azema-yor", "reversed-azema-yor", "jacka"):
            cases.append(Case(f"small-{n0}-{n1}-{kind}", _spec(mu0, mu, kind, sim), True))
    for label, eps, max_steps in (("quarter", 0.25, 200), ("sixteenth", 0.0625, 400)):
        cases.append(Case(f"vallois-{label}",
                          _spec(WORKED_MU, WORKED_MU0, "vallois", sim, eps=eps,
                                max_steps=max_steps), True))
    mu = _dyadic_measure(rng, 8, 4, 8, 7)
    start, tangents = _mean_start_tangents(mu)
    cases.append(Case("custom-segments", _spec(start, mu, "custom", sim, tangents=tangents, C=0.0),
                      True))
    cases.append(Case("decimal-tenths",
                      _spec([[4.5, 1.0]], [[float(i), 0.1] for i in range(10)], "azema-yor", sim),
                      False, DECIMAL_DEFECT))
    cases.append(Case("decimal-fifths",
                      _spec([[2.0, 1.0]], [[float(i), 0.2] for i in range(5)], "jacka", sim),
                      False, DECIMAL_DEFECT))
    ops = []
    for c in cases:
        ops += [Op(kind, c.name) for kind in ("analyze", "build", "verify", "diagram")]
        if c.dyadic and c.data["construction"]["type"] == "azema-yor":
            mu = c.data["mu"]
            ops.append(Op("max_law", c.name, x=Fraction(mu[len(mu) // 2][0])))
    return cases, ops


_SUITES = {"construct-large": _construct_large, "verify-mc": _verify_mc,
           "inputs-mixed": _inputs_mixed}


def suite(workload: str, seed: int) -> tuple[list[Case], list[Op]]:
    """The spec files and operations of one workload for one seed."""
    return _SUITES[workload](random.Random(f"{workload}:{seed}"))


def spec_text(case: Case) -> str:
    return json.dumps(case.data, sort_keys=True) + "\n"


def write_suite(workload: str, seed: int, directory) -> tuple[list[Case], list[Op]]:
    """Generate the suite and write one ``<name>.json`` per spec."""
    cases, ops = suite(workload, seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for c in cases:
        (directory / f"{c.name}.json").write_text(spec_text(c), encoding="utf-8")
    return cases, ops


def exact_measures(case: Case):
    """(mu0, mu) read back with every JSON number as an exact decimal
    Fraction: the rationals the spec means."""
    from cwembed import AtomicMeasure

    raw = json.loads(spec_text(case), parse_float=Fraction)
    return AtomicMeasure.from_pairs(raw["mu0"]), AtomicMeasure.from_pairs(raw["mu"])
