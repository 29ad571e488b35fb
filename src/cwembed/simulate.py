"""Exact-exit Monte Carlo realization of embedding plans.

No time discretization: each balayage step is realized by its two-point exit
law, and the running maximum / minimum within a step are drawn from the exact
conditional hitting laws.  Randomness is the PCG64DXSM stream seeded through
``SeedSequence(seed)`` (0 <= seed < 2**128); path ``i`` consumes row ``i`` of
that stream, a fixed-size block of draws that ``advance`` reaches directly,
so single-path sampling, batched estimation and any chunking produce
identical results.

One vectorised pass simulates the paths of ``(plan, n, seed)`` once and keeps,
per path, the start, the final position, the range visited and the range
visited before the last step in which the path moved; crossings of any level
strictly before stopping follow from the ranges.  A path moves in a step only
if it sits strictly inside the step's interval, so each step gathers those
paths, draws their exit and far extreme, and scatters the results back.  One
entry keeps the last plan, weakly, with its float view and last pass: its law
and tail estimates share the pass, its replayed paths build the view once,
and the old pass goes before a new one allocates, or when another plan comes.

Per-path draw layout (row of ``row_len = 1 + steps`` uniforms, each one
64-bit output of the stream): column 0 selects the start by inverse CDF, and
step k owns column 1+k, read only if the path moves in it (draws are
consumed positionally).  A finite step's uniform w gives the exit, low when
w < q = P(exit low); given the exit, (q - w)/q or (1 - w)/(1 - q) is a fresh
uniform for the far extreme (uniform recycling, Devroye 1986).  Uniforms are
multiples of 2**-53, so a low exit's recycled uniform has about q * 2**53
levels, far finer than 1/MAX_PATHS unless q < 1e-9.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .balayage import Interval
from .construct import EmbeddingPlan
from .errors import IncompletePlanError, InvalidParameterError
from .measure import VALUE_TOL, AtomicMeasure, _brief

#: most paths one pass simulates: its per-path arrays take 48 bytes a path,
#: so a pass at the ceiling holds about 0.5 GB, the old pass let go first
MAX_PATHS = 10**7

#: paths per block of draws: a row holds 1 + steps uniforms, so a 32-step
#: plan's block takes 8192 x 33 x 8 B, about 2.2 MB; 2**14 and 2**15 rows
#: ran no faster and took more memory
_CHUNK = 1 << 13


@dataclass(frozen=True)
class PathSample:
    """One simulated embedding realization."""

    start: float
    exits: tuple[tuple[Interval, float], ...]
    final: float
    max: float
    min: float


@dataclass(frozen=True)
class EmpiricalLaw:
    """Aggregated final-value and running-max statistics of n paths."""

    samples: int
    atom_frequencies: dict
    max_exceedance: dict


class _PlanData:
    """Float view of a plan for the simulator.  A plan whose distinct exact
    points (mu0's atoms and the finite step ends) share a double is refused:
    the view would merge them, and its paths would not follow the plan."""

    def __init__(self, plan: EmbeddingPlan):
        if not plan.complete:
            raise IncompletePlanError("simulation requires a complete plan")
        exact = {}  # each double met so far -> the exact point it came from

        def to_float(x, missing):
            if x is None:
                return missing
            f = float(x)
            y = exact.setdefault(f, x)
            if y is not x and y != x:
                raise InvalidParameterError(
                    f"plan points {_brief(y)} and {_brief(x)} are the same double {f!r}"
                    "; the simulator cannot tell them apart"
                )
            return f

        self.positions = np.array([to_float(x, None) for x in plan.mu0.positions], dtype=float)
        w = np.array([float(v) for v in plan.mu0.weights], dtype=float)
        cum = np.cumsum(w) / w.sum()
        cum[-1] = 1.0
        self.cum = cum
        self.steps = [
            (to_float(st.interval.lower, -math.inf), to_float(st.interval.upper, math.inf))
            for st in plan.steps
        ]
        self.row_len = 1 + len(self.steps)


def _stream(seed: int, row0: int, row_len: int) -> np.random.Generator:
    """The draws from row ``row0`` on: PCG64DXSM seeded through
    ``SeedSequence(seed)`` and advanced past the ``row0 * row_len`` outputs
    of the earlier rows, one 64-bit output per double.  The seed must lie in
    [0, 2**128), and the row must be one a batch has (below MAX_PATHS): far
    past it the stream's 2**128 period wraps onto earlier rows' draws."""
    if not 0 <= seed < 2**128:
        raise InvalidParameterError(f"seed must be in [0, 2**128), got {_brief(seed)}")
    if not 0 <= row0 < MAX_PATHS:
        raise InvalidParameterError(f"path index must be in [0, {MAX_PATHS}), got {_brief(row0)}")
    bg = np.random.PCG64DXSM(seed)
    if row0:
        bg.advance(row0 * row_len)
    return np.random.Generator(bg)


#: the last plan simulated, as (weak reference to it, its float view, its
#: last pass as (n, seed, paths) or None); replaced whole, never mutated, so
#: concurrent callers at worst simulate twice
_last = None


def _entry(plan: EmbeddingPlan) -> tuple:
    """The entry of ``plan``: the kept one while it is the last plan
    simulated, so replaying its paths one by one builds its view once, and
    else a new one with no pass, which lets the old entry go."""
    global _last
    last = _last
    if last is None or last[0]() is not plan:
        last = _last = (weakref.ref(plan), _PlanData(plan), None)
    return last


class _Paths(NamedTuple):
    """Per-path arrays of one Monte Carlo pass.

    ``gmin``/``gmax`` bound the whole range a path visited; ``pmin``/``pmax``
    bound the range it visited before the last step in which it moved: the
    start alone if it moved once, and the empty range (+inf, -inf) if it
    never moved.
    """

    start: np.ndarray
    final: np.ndarray
    gmax: np.ndarray
    gmin: np.ndarray
    pmax: np.ndarray
    pmin: np.ndarray

    def crossed(self, level: float) -> np.ndarray:
        """Per path, a visit to ``level`` strictly before the final stopping
        time.  Each step visits the interval between its sampled extremes,
        which holds the step's start and exit, so the visited set is one
        interval; a level equal to the final position counts only if it was
        visited before the last move, so a path that never moved crosses
        nothing."""
        return np.where(
            self.final == level,
            (self.pmin <= level) & (level <= self.pmax),
            (self.gmin <= level) & (level <= self.gmax),
        )


def _starts(pd: _PlanData, u: np.ndarray) -> np.ndarray:
    """Start of each row of draws, by inverse CDF of column 0."""
    return pd.positions[np.searchsorted(pd.cum, u[:, 0], side="right")]


def _exit_law(u: np.ndarray, rows, k: int, a: float, b: float, pos: np.ndarray):
    """Step k, the interval (a, b), for the paths at ``pos`` on ``rows`` of
    the draws ``u``, all with a < pos < b: (exit position, highest point,
    lowest point) reached in the step.  Only the extreme on the far side from
    the exit is random, and both come from the uniform w in column 1+k: the
    exit is low when w < q, and w's place on its side of q is the uniform v
    in (0, 1] of the far extreme.  Each row divides only by its own side's
    width, never 0.  Reads those rows only."""
    w = u[rows, 1 + k]
    if math.isfinite(a) and math.isfinite(b):
        q = (b - pos) / (b - a)
        to_lo = w < q
        x = np.where(to_lo, a, b)  # the exit
        y = np.where(to_lo, b, a)  # the far end
        v = np.where(to_lo, q - w, 1.0 - w) / np.where(to_lo, q, 1.0 - q)
        # the far extreme m, a share in [0, 1] of the way from pos to the far
        # end y (so it never rounds past pos): P(reach m | exit at x) = v
        near, span = pos - x, y - pos
        far = pos + span * (near * (1.0 - v) / (near + v * span))
        return x, np.where(to_lo, far, x), np.where(to_lo, x, far)
    if math.isinf(b):
        # collapse down to a from above: P(max >= m) = (pos-a)/(m-a)
        hi = a + (pos - a) / (1.0 - w)
        return np.full_like(pos, a), hi, np.full_like(pos, a)
    # collapse up to b from below: P(min <= m) = (b-pos)/(b-m)
    lo = b - (b - pos) / (1.0 - w)
    return np.full_like(pos, b), np.full_like(pos, b), lo


def _run_chunk(pd: _PlanData, u: np.ndarray) -> _Paths:
    """Vectorized pass of one block of paths.  Each step gathers the rows
    strictly inside its interval, runs the exit law on those alone and
    scatters the results back; the other rows keep their state untouched."""
    start = _starts(pd, u)
    pos = start.copy()
    gmax = start.copy()
    gmin = start.copy()
    pmax = np.full_like(start, -math.inf)  # empty until the path first moves
    pmin = np.full_like(start, math.inf)

    for k, (a, b) in enumerate(pd.steps):
        idx = np.flatnonzero((pos > a) & (pos < b))
        if not idx.size:
            continue
        top, bottom = gmax[idx], gmin[idx]
        pmax[idx] = top
        pmin[idx] = bottom
        new, hi, lo = _exit_law(u, idx, k, a, b, pos[idx])
        pos[idx] = new
        gmax[idx] = np.maximum(top, hi)
        gmin[idx] = np.minimum(bottom, lo)

    return _Paths(start, pos, gmax, gmin, pmax, pmin)


def _run_all(plan: EmbeddingPlan, n: int, seed: int) -> _Paths:
    pd = _entry(plan)[1]
    paths = _Paths(*(np.empty(n) for _ in _Paths._fields))
    draws = _stream(seed, 0, pd.row_len)
    done = 0
    while done < n:
        rows = min(_CHUNK, n - done)
        u = draws.random((rows, pd.row_len))
        for whole, part in zip(paths, _run_chunk(pd, u)):
            whole[done:done + rows] = part
        del u  # free this chunk's draws before the next chunk draws its own
        done += rows
    for arr in paths:
        arr.flags.writeable = False  # shared by every reader of the memo
    return paths


def _pass(plan: EmbeddingPlan, n: int, seed: int) -> _Paths:
    """The paths of (plan, n, seed), simulated once and shared by every
    estimate that asks for the same triple next."""
    global _last
    if not 1 <= n <= MAX_PATHS:
        raise InvalidParameterError(f"n must be in [1, {MAX_PATHS}], got {n}")
    ref, pd, kept = _entry(plan)
    if kept is not None and kept[:2] == (n, seed):
        return kept[2]
    del kept  # with the entry replaced, the old pass's arrays go before the new ones
    _last = (ref, pd, None)
    paths = _run_all(plan, n, seed)
    _last = (ref, pd, (n, seed, paths))
    return paths


def sample_path(plan: EmbeddingPlan, seed: int, index: int) -> PathSample:
    """Realize path ``index`` from its own row of the stream of ``seed``.

    Identical to row ``index`` of any batched estimate with the same seed:
    the row replays through the kernel's exit law, recording each step the
    path is inside.  An index outside [0, MAX_PATHS), a row no batch has, is
    refused.
    """
    pd = _entry(plan)[1]
    u = _stream(seed, index, pd.row_len).random((1, pd.row_len))
    start = _starts(pd, u)
    pos, hi, lo = start, start, start
    exits = []
    for k, (a, b) in enumerate(pd.steps):
        if a < pos[0] < b:
            pos, top, bottom = _exit_law(u, [0], k, a, b, pos)
            hi, lo = np.maximum(hi, top), np.minimum(lo, bottom)
            exits.append((plan.steps[k].interval, float(pos[0])))
    return PathSample(float(start[0]), tuple(exits), float(pos[0]), float(hi[0]), float(lo[0]))


def empirical_law(
    plan: EmbeddingPlan,
    n: int,
    seed: int,
    thresholds: Sequence[float] = (),
) -> EmpiricalLaw:
    """Aggregate n paths: final-value frequencies and, for each threshold t,
    the frequency of running max >= t.  Deterministic given (plan, seed, n)."""
    paths = _pass(plan, n, seed)
    values, counts = np.unique(paths.final, return_counts=True)
    freqs = {float(v): c / n for v, c in zip(values, counts)}
    exceed = {float(t): float(np.mean(paths.gmax >= float(t))) for t in thresholds}
    return EmpiricalLaw(n, freqs, exceed)


def tv_distance(law: EmpiricalLaw, m: AtomicMeasure) -> float:
    """Total-variation distance between the empirical atom frequencies and m.
    Each empirical position counts toward the nearest atom of m within
    VALUE_TOL (only a Vallois plan ends off the target atoms), or else on its
    own; two atoms of m never merge.  Terms add in ascending position order."""
    xs = [float(x) for x in m.positions]
    emp = [0.0] * len(xs)
    terms = []
    for p, f in sorted(law.atom_frequencies.items()):
        j = bisect.bisect_left(xs, p)  # xs[j - 1] < p <= xs[j]; take the nearer
        if j == len(xs) or j and p - xs[j - 1] < xs[j] - p:
            j -= 1
        if j >= 0 and abs(xs[j] - p) <= float(VALUE_TOL):
            emp[j] += f
        else:
            terms.append((p, f))
    terms += ((x, abs(e - float(w))) for x, e, w in zip(xs, emp, m.weights))
    total = 0.0
    for _, t in sorted(terms):
        total += t
    return total / 2.0


def tail_probability(
    plan: EmbeddingPlan,
    gamma: float,
    side: str,
    conditioning,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the probability that a path crosses level
    -gamma (side="below", starts restricted to >= a_minus) or +gamma
    (side="above", starts restricted to <= a_plus) strictly before its final
    stopping time.  ``conditioning`` provides a_minus/a_plus (a ContactRegion
    or anything with those attributes).  Returns (estimate, stderr).

    The crossing is read exactly from the pass's ranges: the visited set of
    each step is the interval between its sampled extremes, and a level
    touched only at the final stopping point does not count.  The paths are
    those of ``empirical_law`` with the same (plan, n, seed), simulated once
    for all levels and sides.
    """
    if gamma <= 0:
        raise InvalidParameterError(f"gamma must be positive, got {gamma}")
    if side not in ("below", "above"):
        raise InvalidParameterError(f"side must be 'below' or 'above', got {side!r}")
    level = -float(gamma) if side == "below" else float(gamma)
    paths = _pass(plan, n, seed)
    cond = (paths.start >= float(conditioning.a_minus) if side == "below"
            else paths.start <= float(conditioning.a_plus))
    hits = paths.crossed(level) & cond
    p = float(np.mean(hits))
    se = math.sqrt(p * (1.0 - p) / n)
    return p, se
