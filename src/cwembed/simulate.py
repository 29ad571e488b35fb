"""Exact-exit Monte Carlo realization of embedding plans.

No time discretization: each balayage step is realized by its two-point exit
law, and the running maximum / minimum within a step are drawn from the exact
conditional hitting laws.  Randomness is a counter-based Philox stream keyed
by the seed (0 <= seed < 2**128); path ``i`` consumes the fixed-size block of
draws at rows ``i`` of the stream, so single-path sampling, batched
estimation and any chunking produce identical results.

One vectorised pass simulates the paths of ``(plan, n, seed)`` once and keeps,
per path, the start, the final position, the range visited and the range
visited before the last step in which the path moved.  Every estimate reads
that pass: crossings of any level strictly before stopping follow from the
ranges, so no per-level work runs inside the kernel.  A path moves in a step
only if it sits strictly inside the step's interval, so each step gathers
those paths, draws their exit and far extreme, and scatters the results
back; the other paths cost it only the inside test.  The last pass is kept
in a one-entry memo, holding its plan weakly, so the law and the tail
estimates of one plan share it.

Per-path draw layout (row of ``row_len`` uniforms, padded to a multiple of 4
so rows align with Philox counter blocks): column 0 selects the start by
inverse CDF; step k uses columns 1+3k (exit), 2+3k (max), 3+3k (min).  Draws
are consumed positionally: a row keeps its columns for every step, whether
or not the path is inside that step, and a step reads only the columns of
the rows it moves.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .balayage import Interval
from .construct import EmbeddingPlan
from .errors import IncompletePlanError, InvalidParameterError
from .measure import AtomicMeasure

#: positions closer than this are treated as the same atom when matching laws
ATOM_TOL = 1e-9

#: most paths one pass simulates: its per-path arrays take 48 bytes a path,
#: so a pass at the ceiling holds about 0.5 GB
MAX_PATHS = 10**7

#: paths per block of draws: a 32-step plan's block takes 6.5 MB, and a
#: step's gathers and scatters stay in cache
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
    """Float view of a plan for the simulator."""

    def __init__(self, plan: EmbeddingPlan):
        if not plan.complete:
            raise IncompletePlanError("simulation requires a complete plan")
        self.positions = np.array([float(x) for x in plan.mu0.positions], dtype=float)
        w = np.array([float(v) for v in plan.mu0.weights], dtype=float)
        cum = np.cumsum(w) / w.sum()
        cum[-1] = 1.0
        self.cum = cum
        self.steps = [
            (
                -math.inf if st.interval.lower is None else float(st.interval.lower),
                math.inf if st.interval.upper is None else float(st.interval.upper),
            )
            for st in plan.steps
        ]
        n_draws = 1 + 3 * len(self.steps)
        self.row_len = ((n_draws + 3) // 4) * 4


def _stream(seed: int, row0: int, row_len: int) -> np.random.Generator:
    bg = np.random.Philox(key=seed)
    if row0:
        bg.advance(row0 * row_len // 4)  # advance counts 4-double counter blocks
    return np.random.Generator(bg)


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
    the exit is random; it is drawn from column 2+3k (max) on a low exit and
    3+3k (min) on a high one, the exit from column 1+3k.  Reads those rows
    only."""
    if math.isfinite(a) and math.isfinite(b):
        to_lo = u[rows, 1 + 3 * k] < (b - pos) / (b - a)
        x = np.where(to_lo, a, b)  # the exit
        y = np.where(to_lo, b, a)  # the far end
        v = 1.0 - np.where(to_lo, u[rows, 2 + 3 * k], u[rows, 3 + 3 * k])  # in (0, 1]
        # the far extreme m between pos and y: P(reach m | exit at x) = v
        far = (y * (pos - x) + x * v * (y - pos)) / ((pos - x) + v * (y - pos))
        return x, np.where(to_lo, far, x), np.where(to_lo, x, far)
    if math.isinf(b):
        # collapse down to a from above: P(max >= m) = (pos-a)/(m-a)
        hi = a + (pos - a) / (1.0 - u[rows, 2 + 3 * k])
        return np.full_like(pos, a), hi, np.full_like(pos, a)
    # collapse up to b from below: P(min <= m) = (b-pos)/(b-m)
    lo = b - (b - pos) / (1.0 - u[rows, 3 + 3 * k])
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
    pd = _PlanData(plan)
    paths = _Paths(*(np.empty(n) for _ in _Paths._fields))
    done = 0
    while done < n:
        rows = min(_CHUNK, n - done)
        u = _stream(seed, done, pd.row_len).random((rows, pd.row_len))
        for whole, part in zip(paths, _run_chunk(pd, u)):
            whole[done:done + rows] = part
        del u  # free this chunk's draws before the next chunk draws its own
        done += rows
    for arr in paths:
        arr.flags.writeable = False  # shared by every reader of the memo
    return paths


#: the last pass as (weak reference to its plan, n, seed, paths); replaced
#: whole, never mutated, so concurrent callers at worst simulate twice
_memo = None


def _pass(plan: EmbeddingPlan, n: int, seed: int) -> _Paths:
    """The paths of (plan, n, seed), simulated once and shared by every
    estimate that asks for the same triple next."""
    global _memo
    if not 1 <= n <= MAX_PATHS:
        raise InvalidParameterError(f"n must be in [1, {MAX_PATHS}], got {n}")
    memo = _memo
    if memo is not None and memo[0]() is plan and memo[1:3] == (n, seed):
        return memo[3]
    _memo = None  # free the old arrays before the new pass allocates
    paths = _run_all(plan, n, seed)
    _memo = (weakref.ref(plan), n, seed, paths)
    return paths


def sample_path(plan: EmbeddingPlan, seed: int, index: int) -> PathSample:
    """Realize one path from the independent substream (seed, index).

    Identical to row ``index`` of any batched estimate with the same seed:
    the row replays through the kernel's exit law, recording each step the
    path is inside.  A negative index, a row no batch has, is refused.
    """
    if index < 0:
        raise InvalidParameterError(f"path index must be >= 0, got {index}")
    pd = _PlanData(plan)
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
    """Total-variation distance between the empirical atom frequencies and m,
    matching atom positions within ATOM_TOL."""
    events = sorted(
        [(p, f, 0.0) for p, f in law.atom_frequencies.items()]
        + [(float(x), 0.0, float(w)) for x, w in m.atoms]
    )
    total = 0.0
    i = 0
    while i < len(events):
        p0, emp, ana = events[i]
        j = i + 1
        while j < len(events) and events[j][0] - p0 <= ATOM_TOL:
            emp += events[j][1]
            ana += events[j][2]
            j += 1
        total += abs(emp - ana)
        i = j
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
    if side == "below":
        bound = conditioning.a_minus
        cond = paths.start >= float(bound)
    else:
        bound = conditioning.a_plus
        cond = paths.start <= float(bound)
    hits = paths.crossed(level) & cond
    p = float(np.mean(hits))
    se = math.sqrt(p * (1.0 - p) / n)
    return p, se
