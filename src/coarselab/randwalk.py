"""Seeded random walks on the built-in groups, with desk-scale statistics.

Walks are generated from per-path derived seeds, so every statistic is
bit-reproducible for a fixed (config, seed): path i always uses the same
RNG stream, and all aggregations are either sums, maxima, or quantiles over
index-ordered results.

Paths are deliberately lightweight: a SamplePath stores its seed and
replays the walk on demand, keeping only dyadic-checkpoint summaries in
memory.  A replay draws all its steps in one batch, from the same stream
as one random() call per step, and places most of them by a table lookup
on their top bits.  Every built-in group space replays flat
(space.FlatCode): F_k is the free product of k copies of Z, grid(d) one
copy of Z^d, and a free product joins its factors' copies, so the steps
become rows of integer vectors, each packed into one int64, that
space.reduce_flat takes to normal form block by block in numpy, a few
walks at a time.  Other spaces (change_generators wrappers, the loopy ray)
raise DomainError.  One statistics pass over 400 paths of length 2^12
replays in 0.13-0.16 s on free_group(2), 0.14-0.17 s on free_group(3) and
0.14-0.21 s on free_product(grid(2), free_group(1)) (twelve passes each in
four processes, one thread, Python 3.11, numpy 2.4, shared 2-core host), so
a 10^4-path ensemble takes about 4 s.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import relhyp as _rh
from .errors import DomainError, Inconclusive
from .morse import TRACK_RATIO, Verdict, _band_trend_fail
from .seeds import derive_seed
from .space import FlatCode, FlatPack, PathSeg, _int_items, _shared, \
    distance_to_set, distances_along_path, reduce_flat

PROB_TOL = 1e-12


# ---------------------------------------------------------------------------
# step measures

@dataclass(frozen=True)
class StepMeasure:
    """Finitely supported step distribution on group elements."""

    support: tuple  # of (element, probability)

    def __post_init__(self):
        if not self.support:
            raise DomainError("empty step measure")
        tot = 0.0
        for _, p in self.support:
            if p <= 0:
                raise DomainError(f"nonpositive probability {p}")
            tot += p
        if abs(tot - 1.0) > PROB_TOL:
            raise DomainError(f"probabilities sum to {tot}, not 1")

    @classmethod
    def uniform(cls, elements):
        els = list(elements)
        return cls(tuple((e, 1.0 / len(els)) for e in els))

    @classmethod
    def point_mass(cls, element):
        return cls(((element, 1.0),))


def uniform_generator_measure(sp):
    return StepMeasure.uniform(sp.gens)


@functools.lru_cache(maxsize=8)
def _step_table(sp, mu):
    """What a replay draws from, built once per (space, measure) and shared
    by every path of an ensemble: (running sums of the probabilities, the
    space's FlatCode, flat table).

    A step may be any element, e.g. a squared generator or a product of
    generators of different atoms.  The flat table is (atom array, vector
    columns, row count per step, first row per step, largest absolute
    coordinate): the FlatCode rows of each step, in order.  The last step
    is listed twice: a draw past the last running sum (rounding) takes it.
    """
    code = FlatCode(sp)
    cum = tuple(itertools.accumulate(p for _, p in mu.support))
    steps = [(e,) if code.product and e in sp.gens else e
             for e, _ in mu.support]
    fac, cols, counts = code.columns(steps + steps[-1:])
    if not counts.all():
        raise DomainError("identity element in step support")
    firsts = np.cumsum(counts) - counts
    for a in (fac, *cols, counts, firsts):
        a.flags.writeable = False
    bound = max(int(np.abs(c).max()) for c in cols)
    return cum, code, (fac, cols, counts, firsts, bound)


# a draw's bucket is the top _BUCKET_BITS of its first 32-bit word
_BUCKET_BITS = 12


@functools.lru_cache(maxsize=8)
def _draw_table(cum):
    """(thresholds, lookup) for the running sums `cum`.

    A draw k 2^-53 (k a 53-bit integer) passes cum_j exactly when the
    threshold T_j = floor(cum_j 2^53) is below k.  The lookup gives, per
    bucket of the top _BUCKET_BITS bits of k, the number of thresholds
    below every k of the bucket, or -1 when a threshold lies inside it.
    """
    t = np.array([math.floor(c * 2.0 ** 53) for c in cum], dtype=np.int64)
    shift = 53 - _BUCKET_BITS
    lo = np.arange(1 << _BUCKET_BITS, dtype=np.int64) << shift
    below_lo = np.searchsorted(t, lo)
    below_hi = np.searchsorted(t, lo + ((1 << shift) - 1))
    lookup = np.where(below_lo == below_hi, below_lo, -1)
    for a in (t, lookup):
        a.flags.writeable = False
    return t, lookup


def _draws(seed, m, cum):
    """Step-table indices of the first m draws of random.Random(seed).random(),
    by bisect_left on the running sums `cum`, as one int array.

    One getrandbits(64 m) call yields the 2m 32-bit words that m random()
    calls would consume, least significant first; random() turns words
    (a, b) into k 2^-53 with k = (a >> 5) 2^26 + (b >> 6).  The top bits of
    k are those of a, so a table lookup on them places most draws; only
    the draws of a bucket holding a threshold build k and search the
    thresholds (_draw_table).  A draw past the last running sum gives
    len(cum), the repeated last step.
    """
    t, lookup = _draw_table(cum)
    bits = random.Random(seed).getrandbits(64 * m)
    w = np.frombuffer(bits.to_bytes(8 * m, "little"), "<u4")
    a = w[0::2]
    d = lookup.take(a >> (32 - _BUCKET_BITS))
    slow = np.flatnonzero(d < 0)
    if len(slow):
        k = (a[slow] >> 5).astype(np.int64) << 26 | w[2 * slow + 1] >> 6
        d[slow] = np.searchsorted(t, k)
    return d


def _pair_words(radius, n):
    """The 32-bit words drawn up front for one pair of _pair_draws: about
    what an average pair uses, two step counts and radius steps (a step
    takes 2^k / n words on average, k = n.bit_length()); about a third of
    the pairs draw more (1,000 pairs at radius 30 over 6 generators)."""
    return 2 + radius * (1 << n.bit_length()) // n


def _words(rngs, k):
    """The next k 32-bit words of each Random in rngs, one row each: one
    getrandbits(32 k) call yields, least significant first, the words that
    k getrandbits(j <= 32) calls would each take the top j bits of."""
    return np.frombuffer(b"".join(r.getrandbits(32 * k).to_bytes(4 * k, "little")
                                  for r in rngs), "<u4").reshape(len(rngs), k)


def _pair_draws(rngs, radius, n):
    """Two walks per Random in rngs, each drawn as randint(0, radius) steps
    and then one choice over range(n) per step; returns (walk, index), the
    step indices in order, walk 2 p and 2 p + 1 being those of rngs[p].

    CPython draws from [0, m) by taking the top m.bit_length() bits of one
    32-bit word, and a further word while that is m or more, so each word
    of a row is decoded both ways at once, and cumulative counts of the
    accepted ones find where each count and each walk ends.  A row that
    runs out of words draws more from its Random and is decoded again."""
    kc, kg = (radius + 1).bit_length(), n.bit_length()
    if kc > 32:
        raise DomainError(f"walks of up to {radius} steps: the step count "
                          "must fit in a 32-bit word")
    budget = _pair_words(radius, n)
    rows, w = np.arange(len(rngs)), _words(rngs, budget)
    walks, steps = [], []
    while len(rows):
        r, j = np.arange(len(rows)), np.arange(w.shape[1])
        count, gen = w >> (32 - kc), w >> (32 - kg)
        cok, gok = count <= radius, gen < n
        seen = np.cumsum(gok, axis=1, dtype=np.int32)   # steps drawn so far

        def walk(after):
            """(count word, last step word) of the walk drawn after word
            `after`, each len(j) where the words run out."""
            later = cok & (j > after[:, None])
            at = np.argmax(later, axis=1)
            m = count[r, at].astype(np.int64)
            end = (seen < (seen[r, at] + m)[:, None]).sum(axis=1)
            end = np.where(m > 0, end, at)
            have = later[r, at]
            return np.where(have, at, len(j)), np.where(have, end, len(j))

        c1, e1 = walk(np.full(len(rows), -1))
        c2, e2 = walk(e1)
        ok = e2 < len(j)
        sel = gok & (((c1[:, None] < j) & (j <= e1[:, None]))
                     | ((c2[:, None] < j) & (j <= e2[:, None])))
        sel &= ok[:, None]
        rr, jj = np.nonzero(sel)
        walks.append(2 * rows[rr] + (jj > c2[rr]))
        steps.append(gen[rr, jj])
        rows, w = rows[~ok], w[~ok]
        if len(rows):
            w = np.hstack([w, _words([rngs[p] for p in rows.tolist()], budget)])
    walk, index = np.concatenate(walks), np.concatenate(steps).astype(np.int64)
    if len(walks) > 1:
        order = np.argsort(walk, kind="stable")
        walk, index = walk[order], index[order]
    return walk, index


# ---------------------------------------------------------------------------
# sample paths

def _dyadic_checkpoints(n):
    ks = []
    k = 1
    while k <= n:
        ks.append(k)
        k *= 2
    if ks[-1] != n:
        ks.append(n)
    return ks


@dataclass
class PathStats:
    checkpoints: list          # sorted indices
    norms: dict                # k -> d(o, w_k)
    coned: dict                # k -> d_Ghat(o, w_k), relhyp spaces only
    max_peripheral: dict       # k -> sup_P d_P(o, w_k), relhyp spaces only


class SamplePath:
    """One walk, identified by its derived seed; replayed on demand."""

    def __init__(self, sp, mu, length, seed):
        if length < 1:
            raise DomainError(f"need length >= 1, got {length}")
        self.sp = sp
        self.mu = mu
        self.length = length
        self.seed = seed
        self._stats = None
        self._lift = None   # set by limit_ray_proxy, see _coned_lift

    def positions_at(self, indices):
        """w_k for each requested index, in one replay."""
        ks = sorted(set(indices))
        bad = [k for k in ks if not 0 <= k <= self.length]
        if bad:
            raise DomainError(f"indices outside [0, {self.length}]: {bad}")
        states = _flat_walks([(self, ks)], words=True)[0]
        return {k: w for k, (*_, w) in zip(ks, states)}

    def stats(self):
        """Dyadic-checkpoint norms (and peripheral data on relhyp spaces)."""
        if self._stats is None:
            _flat_stats([self])
        return self._stats


# walk steps replayed together by ensemble_stats: enough to spread numpy's
# per-call cost, few enough to keep the arrays alive at once small
_GROUP_STEPS = 1 << 14


def _flat_walks(jobs, words=False, head=False):
    """For each (path, non-decreasing indices) job, the list of (norm, coned
    norm, max peripheral norm, w_k or None) at each index k; every path
    shares one step table.  w_k is decoded only if `words`, and with `head`
    only its first flat row is: w_k is then the element of that row, the
    first syllable of w_k or, on F_k factors, its first run of one letter.

    This is the one replay of every walk.  The draws of all jobs are
    expanded into the FlatCode rows of their steps, one block per gap
    between consecutive indices of a job, each row's vector packed into one
    integer (FlatPack), and reduce_flat takes each block to normal form.  A
    job then runs as a stack of block slices: the head of a block merges
    into the top row of the stack while both lie in one atom (popping it
    when the packed sum is 0), and the rest of the block goes
    on as one slice; a merged syllable is appended to the rows and goes on
    as a slice of its own.  Each slice records the norm, coned norm and max
    peripheral norm of the stack under it, so with the rows' cumulative
    norms and coned costs, and each row's max peripheral norm to the end of
    its block, the statistics at an index cost a few lookups, not a scan
    of the stack.  Digits are decoded only for the reduced rows and at
    merges.
    """
    sp, mu = jobs[0][0].sp, jobs[0][0].mu
    cum, code, (tfac, tcols, counts, firsts, bound) = _step_table(sp, mu)
    draws, gaps = [], []
    for path, ks in jobs:
        draws.append(_draws(path.seed, ks[-1] if ks else 0, cum))
        gaps += [k - j for j, k in zip([0, *ks], ks)]
    d = np.concatenate(draws)
    block = np.repeat(np.arange(len(gaps)), gaps)
    if len(counts) == len(tfac):   # every step is one row
        r = d
    else:
        n = counts[d]
        r = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - firsts[d], n)
        block = np.repeat(block, n)
    pack = FlatPack(len(tcols), len(r), bound)
    block, fac, packed = reduce_flat(block, tfac[r],
                                     [w[r] for w in pack.pack(tcols)])
    norm = sum(np.abs(c) for c in pack.unpack(packed))
    is_per = code.peripheral[fac]
    bounds = np.searchsorted(block, np.arange(len(gaps) + 1)).tolist()
    F, P, per = _int_items(fac), pack.join(packed), code.peripheral.tolist()
    pn = np.where(is_per, norm, 0)
    # the max of pn from each row to the end of its block: a pushed slice
    # runs to the end of its block, or is one merged row
    off = (len(gaps) - block) * (int(pn.max(initial=0)) + 1)
    pn, sm = _int_items(pn), \
        _int_items(np.maximum.accumulate((pn + off)[::-1])[::-1] - off)
    # norms and coned costs before each row
    cn, cc = (_int_items(np.concatenate(([0], np.cumsum(x))))
              for x in (norm, np.where(is_per, 1, norm)))

    def push(stack, lo, hi, n0, c0, m0):
        stack.append([lo, hi, n0 - cn[lo], c0 - cc[lo], m0])
        return n0 + cn[hi] - cn[lo], c0 + cc[hi] - cc[lo], max(m0, sm[lo])

    out, b = [], 0
    for _, ks in jobs:
        # stack entries [lo, hi, norm base, coned base, max under the slice];
        # n0, c0, m0 are the statistics of the whole stack
        stack, states = [], []
        n0 = c0 = m0 = 0
        for _ in ks:
            lo, hi = bounds[b], bounds[b + 1]
            b += 1
            while lo < hi and stack and F[stack[-1][1] - 1] == F[lo]:
                top = stack[-1]
                t = top[1] = top[1] - 1
                n0, c0 = top[2] + cn[t], top[3] + cc[t]
                if t == top[0]:
                    stack.pop()
                    m0 = top[4]
                elif pn[t] == m0 > top[4]:
                    m0 = max(top[4], max(pn[top[0]:t]))
                v = P[t] + P[lo]
                lo += 1
                if v:
                    f = F[lo - 1]
                    vn = sum(map(abs, pack.digits(v, pack.width)))
                    F.append(f)
                    P.append(v)
                    pn.append(vn if per[f] else 0)
                    sm.append(pn[-1])
                    cn.append(cn[-1] + vn)
                    cc.append(cc[-1] + (1 if per[f] else vn))
                    n0, c0, m0 = push(stack, len(F) - 1, len(F), n0, c0, m0)
                    break
            if lo < hi:
                n0, c0, m0 = push(stack, lo, hi, n0, c0, m0)
            w = None
            if words:
                slices = [(t[0], t[0] + 1) for t in stack[:1]] if head \
                    else [t[:2] for t in stack]
                w = code.element(code.decode(itertools.chain.from_iterable(
                    zip(F[lo:hi], P[lo:hi]) for lo, hi in slices), pack))
            states.append((n0, c0, m0, w))
        out.append(states)
    return out


def _flat_stats(paths):
    """Set the stats of walks sharing one step table, in one replay; the
    coned and max peripheral norms only where some atom is peripheral."""
    jobs = [(p, _dyadic_checkpoints(p.length)) for p in paths]
    pers = _step_table(paths[0].sp, paths[0].mu)[1].peripheral.any()
    for (p, ks), states in zip(jobs, _flat_walks(jobs)):
        norms, coned, maxp, _ = (dict(zip(ks, col)) for col in zip(*states))
        p._stats = PathStats(ks, norms, coned if pers else {},
                             maxp if pers else {})


def sample_paths(sp, mu, n, count, seed):
    """`count` independent length-n walks; path i is seeded by a mix of
    (seed, i) so regeneration cannot reorder RNG streams."""
    if n < 1 or count < 1:
        raise DomainError("need n >= 1 and count >= 1")
    _step_table(sp, mu)  # validate the space and support up front
    return [SamplePath(sp, mu, n, derive_seed(seed, i)) for i in range(count)]


def _replay_groups(paths):
    """The paths in order, cut into groups that share a step table, each
    of about _GROUP_STEPS steps, to be replayed together."""
    group, steps = [], 0
    for p in paths:
        if group and ((p.sp, p.mu) != (group[0].sp, group[0].mu)
                      or steps + p.length > _GROUP_STEPS):
            yield group
            group, steps = [], 0
        group.append(p)
        steps += p.length
    if group:
        yield group


def ensemble_stats(paths):
    """PathStats for every path, index-ordered; each path keeps its own.

    Walks that share a step table are replayed together (_replay_groups)."""
    for group in _replay_groups([p for p in paths if p._stats is None]):
        _flat_stats(group)
    return [p.stats() for p in paths]


# ---------------------------------------------------------------------------
# drift and progress

@dataclass
class DriftReport:
    ell: float
    ci: tuple            # (lo, hi), 95% by batch means
    dyadic_means: list   # (n, mean of d(o,w_n)/n)
    subadditive: bool


def drift(paths):
    """Escape-rate estimate at the final index with a batch-means CI and a
    subadditivity sanity check across dyadic prefixes."""
    if len(paths) < 30:
        raise DomainError(f"need >= 30 paths for a drift estimate, got {len(paths)}")
    stats = ensemble_stats(paths)
    n = paths[0].length
    finals = [s.norms[n] / n for s in stats]
    ell = sum(finals) / len(finals)
    b = max(2, min(30, len(finals) // 2))
    size = len(finals) // b
    means = [sum(finals[i * size:(i + 1) * size]) / size for i in range(b)]
    mu = sum(means) / b
    var = sum((m - mu) ** 2 for m in means) / (b - 1)
    half = 1.96 * math.sqrt(var / b)
    ks = [k for k in stats[0].checkpoints]
    dyadic = [(k, sum(s.norms[k] for s in stats) / (len(stats) * k)) for k in ks]
    # expected subadditivity: E d(o,w_n)/n nonincreasing, up to sampling noise
    ok = all(b2 <= a2 * 1.05 + 0.05 for (_, a2), (_, b2) in zip(dyadic, dyadic[1:]))
    return DriftReport(ell=ell, ci=(ell - half, ell + half),
                       dyadic_means=dyadic, subadditive=ok)


def progress_tail(paths, ell, fraction):
    """Empirical P(d(o, w_n) < fraction * ell * n) per dyadic n, with a
    verdict that the log-probabilities decay linearly in n.

    The fitted slope of log p against n must be negative with its 95%
    interval excluding zero; zero counts are floored at half a path for
    the logarithm.  Diffusive walks (probability -> 1) fail.
    """
    if not 0 < fraction < 1:
        raise DomainError(f"need 0 < fraction < 1, got {fraction}")
    stats = ensemble_stats(paths)
    ks = stats[0].checkpoints
    rows = []
    for k in ks:
        bad = sum(1 for s in stats if s.norms[k] < fraction * ell * k)
        rows.append((k, bad / len(stats)))
    if all(p == 0.0 for _, p in rows):
        return rows, Verdict(True, test="progress_tail", margin=0.0,
                             parameters={"fraction": fraction, "ell": ell,
                                         "note": "no failures observed"})
    # fit from the first nonzero count up to (and including) the first zero
    # after it: leading zeros are vacuous small-n thresholds and the
    # trailing all-zero plateau would flatten the line
    start = next(i for i, (_, p) in enumerate(rows) if p > 0)
    fit_rows = []
    for k, p in rows[start:]:
        fit_rows.append((k, p))
        if p == 0.0:
            break
    floor = 0.5 / len(stats)
    xs = [k for k, _ in fit_rows]
    ys = [math.log(max(p, floor)) for _, p in fit_rows]
    nb = len(xs)
    if nb < 3:
        raise Inconclusive("too few dyadic checkpoints for a tail fit")
    xbar = sum(xs) / nb
    ybar = sum(ys) / nb
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    resid = [y - ybar - slope * (x - xbar) for x, y in zip(xs, ys)]
    se = math.sqrt(sum(r * r for r in resid) / max(nb - 2, 1) / sxx)
    passed = slope + 1.96 * se < 0
    return rows, Verdict(passed, test="progress_tail",
                         margin=-(slope + 1.96 * se),
                         parameters={"fraction": fraction, "ell": ell,
                                     "slope": slope, "se": se,
                                     "table": rows})


# ---------------------------------------------------------------------------
# peripheral statistics

def mann_kendall_increasing(seq):
    """One-sided Mann-Kendall p-value for an increasing trend."""
    n = len(seq)
    if n < 3:
        return 1.0
    S = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = seq[j] - seq[i]
            S += (d > 0) - (d < 0)
    var = n * (n - 1) * (2 * n + 5) / 18.0
    if S > 0:
        z = (S - 1) / math.sqrt(var)
    elif S < 0:
        z = (S + 1) / math.sqrt(var)
    else:
        z = 0.0
    # one-sided upper tail of the standard normal
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _quantile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    i = min(len(sorted_vals) - 1, max(0, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[i]


def peripheral_projection_growth(paths, lo=2 ** 7, hi=2 ** 13):
    """0.99-quantile of sup_P d_P(o, w_n) per dyadic n, judged against log n.

    The verdict passes iff the quantile / log n sequence shows no
    increasing trend (one-sided Mann-Kendall sign test at level 0.05).
    Walks trapped in one peripheral coset grow like the coset itself and
    fail.
    """
    sp = paths[0].sp
    _rh.require_relhyp(sp)
    stats = ensemble_stats(paths)
    ks = [k for k in stats[0].checkpoints if lo <= k <= hi and k >= 2]
    if not ks:
        raise DomainError(f"no dyadic checkpoints in [{lo}, {hi}]")
    rows = []
    ratios = []
    for k in ks:
        vals = sorted(s.max_peripheral[k] for s in stats)
        q = _quantile(vals, 0.99)
        rows.append((k, q))
        ratios.append(q / math.log(k))
    p = mann_kendall_increasing(ratios)
    return rows, Verdict(p > 0.05, test="peripheral_projection_growth",
                         margin=p - 0.05,
                         parameters={"quantile": 0.99, "ratios": ratios,
                                     "p_value": p, "table": rows})


# ---------------------------------------------------------------------------
# limit-ray proxies and tracking

@dataclass
class RayProxy:
    path_seg: PathSeg
    constants: tuple       # certified (q0, Q0) of the lift
    horizon: int
    stability: float       # coned deviation of the half-horizon proxy


def limit_ray_proxy(sp, path):
    """Finite-horizon stand-in for the limit ray of one walk, at the
    horizon N = path.length.

    On relhyp spaces this is the lift of the coned geodesic [o, w_N], the
    normal-form geodesic certified once at (1, 0), which the path keeps for
    its walk-ray excursions; on everything else, the geodesic to w_N.  The
    stability field measures how far the half-horizon proxy strays from the
    full one: the coned length of its tail past the longest common
    normal-form prefix (0 when one extends the other).
    """
    N = path.length
    pos = path.positions_at({N, N // 2})
    wN, wHalf = pos[N], pos[N // 2]
    if isinstance(sp, _rh.FreeProductSpace) and sp.peripheral:
        value, seg, consts = path._lift = _coned_lift(path, N, wN)
        if value < 10:
            raise Inconclusive(
                f"walk did not progress in the coned graph (d_Ghat = "
                f"{value} < 10)")
        j = _shared(wN, wHalf)
        tail = wHalf[j:]
        # the divergent head syllables may still share a factor prefix
        stability = _rh.coned_dist(sp, (), tail)
        if j < min(len(wN), len(wHalf)) and wN[j][0] == wHalf[j][0]:
            stability -= 1
    else:
        seg = sp.geodesic(sp.identity, wN)
        consts = (1, 0)
        stability = distance_to_set(sp, wHalf, seg)
    return RayProxy(path_seg=seg, constants=consts, horizon=N,
                    stability=max(0.0, float(stability)))


def tracking_profile(paths, proxies):
    """Distance from w_n to the proxy ray at dyadic n <= N/2, per path.

    Returns rows (n, median d/n, median d/log^2 n) and two verdicts: the
    d/n medians must fall below TRACK_RATIO by the last band, and the
    d/log^2 n medians must stay bounded across bands.
    """
    if len(paths) != len(proxies):
        raise DomainError("need one proxy per path")
    N = max((proxy.horizon for proxy in proxies), default=0)
    if N < 2:
        raise DomainError(f"no dyadic checkpoint n <= N/2 at horizon N = {N}")
    per_band = {}
    for path, proxy in zip(paths, proxies):
        for n, d in _tracking_distances(path, proxy):
            per_band.setdefault(n, []).append(d)
    rows = []
    for n in sorted(per_band):
        ds = sorted(per_band[n])
        med = ds[len(ds) // 2]
        rows.append((n, med / n, med / max(math.log(n) ** 2, 1.0)))
    ratio_n = [r[1] for r in rows]
    v1 = Verdict(ratio_n[-1] <= TRACK_RATIO and ratio_n[-1] <= ratio_n[0] + 1e-9,
                 test="tracking_sublinear", margin=TRACK_RATIO - ratio_n[-1],
                 parameters={"medians": ratio_n})
    ratio_log2 = [r[2] for r in rows]
    v2 = Verdict(not _band_trend_fail(ratio_log2), test="tracking_log2",
                 margin=max(ratio_log2), parameters={"medians": ratio_log2})
    return rows, v1, v2


def _tracking_distances(path, proxy):
    sp = path.sp
    N = proxy.horizon
    ks = [k for k in _dyadic_checkpoints(path.length) if k <= N // 2]
    pos = path.positions_at(ks)
    seg = proxy.path_seg
    seg_norms = seg.norms()
    out = []
    for k in ks:
        x = pos[k]
        # d(x, gamma) is realized before gamma's norm passes 2||x|| + 1
        cut = bisect.bisect_right(seg_norms, 2 * sp.norm(x) + 1)
        prefix = seg.prefix(max(cut, 2))
        out.append((k, min(distances_along_path(sp, x, prefix))))
    return out


# ---------------------------------------------------------------------------
# hitting statistics and walk-ray excursions

def _letter_name(g):
    """a, b, ... for positive free-group letters, A, B, ... for inverses."""
    (k,) = g
    return chr(ord("a") + k - 1) if k > 0 else chr(ord("A") - k - 1)


def direction_cell(sp, v):
    """Depth-1 shadow cell of an element: its first normal-form edge.

    Free-factor syllables are labelled by their first letter; peripheral
    syllables by their coset (all of which share the cell of the identity
    coset of that factor).  The identity falls in "other".
    """
    relhyp = isinstance(sp, _rh.FreeProductSpace)
    if relhyp:
        if not v:
            return "other"
        i, e = v[0]
        if i in sp.peripheral:
            return f"P{i}"
        f = sp.factors[i]
        g = f.geodesic_letters(f.identity, e)[0]
        return f"f{i}:{_letter_name(g)}"
    if not v or sp.is_group is False:
        return "other"
    seg = sp.geodesic(sp.identity, v)
    letters = seg.step_letters()
    if not letters:
        return "other"
    g = letters[0]
    if len(g) == 1:  # free-group letter
        return _letter_name(g)
    return f"g:{g}"


def hitting_histogram(paths):
    """Empirical distribution of proxy-ray initial cells; sums to 1.

    Each walk is replayed once, with the others of its _replay_groups
    group, and of its end only the first flat row is decoded: the cell
    reads nothing past the first letter of the first syllable."""
    hist = {}
    for group in _replay_groups(paths):
        jobs = [(p, [p.length]) for p in group]
        for p, ((*_, w),) in zip(group, _flat_walks(jobs, words=True, head=True)):
            c = direction_cell(p.sp, w)
            hist[c] = hist.get(c, 0) + 1
    total = sum(hist.values())
    return {c: hist[c] / total for c in sorted(hist)}


def excursion_of_walk_ray(sp, paths, kappa):
    """Fitted excursion constants E_gamma of walk limit-ray proxies.

    Computes the excursion profile of each path's proxy at horizons N and
    N/2, under the space's default constants; the verdict passes iff the
    0.95-quantile of E_gamma at the full horizon is at most 1.5 times the
    half-horizon quantile (so doubling the horizon does not inflate
    excursions).
    """
    constants = _rh.default_constants(sp)
    results = [_walk_ray_excursions(path, kappa, constants) for path in paths]
    full = sorted(r[0] for r in results)
    half = sorted(r[1] for r in results)
    qf = _quantile(full, 0.95)
    qh = _quantile(half, 0.95)
    passed = qf <= qh * 1.5 + 1e-9
    return full, Verdict(passed, test="walk_ray_excursion",
                         margin=qh * 1.5 - qf,
                         parameters={"quantile": 0.95, "q_full": qf,
                                     "q_half": qh, "kappa": kappa.tag})


def _coned_lift(path, N, w):
    """(d_Ghat(o, w), lift, (1, 0)) of the coned geodesic from o to
    w = w_N: its lift is the normal-form geodesic [o, w], certified once at
    (1, 0).  limit_ray_proxy keeps the full-horizon one on the path, and
    the walk-ray excursions read it from there."""
    if N == path.length and path._lift is not None:
        return path._lift
    report = _rh.coned_distance(path.sp, (), w)
    return (report.value, *_rh.lift_coned_geodesic(path.sp, report))


def _walk_ray_excursions(path, kappa, constants):
    out = []
    pos = path.positions_at({path.length, path.length // 2})
    for N in (path.length, path.length // 2):
        _, seg, _ = _coned_lift(path, N, pos[N])
        _, E, _ = _rh.excursion_profile(path.sp, seg, constants.D0, kappa)
        out.append(E)
    return tuple(out)


# ---------------------------------------------------------------------------
# CSV emission

def _write_csv(fh, header_cols, rows):
    from . import csv_header
    fh.write(csv_header() + "\n")
    fh.write(",".join(header_cols) + "\n")
    fh.write("".join(",".join(map(str, row)) + "\n" for row in rows))


def write_walk_stats_csv(path, paths):
    """walk_stats.csv: one row per (path, dyadic n)."""
    stats = ensemble_stats(paths)
    rows = []
    for i, s in enumerate(stats):
        for k in s.checkpoints:
            rows.append((i, k, s.norms[k], s.coned.get(k, "")))
    with open(path, "w") as fh:
        _write_csv(fh, ("path_id", "n", "dist", "coned_dist"), rows)


def write_excursion_csv(path, rows):
    """excursion.csv from the rows of relhyp.excursion_profile."""
    rows = [(f"P{c.factor}@{cn}", exc, cn, f"{ratio:.6f}")
            for c, exc, cn, ratio in rows]
    with open(path, "w") as fh:
        _write_csv(fh, ("coset_id", "excursion", "coned_norm", "ratio"), rows)


def write_tracking_csv(path, rows):
    with open(path, "w") as fh:
        _write_csv(fh, ("n", "ratio_n", "ratio_log2"),
                   [(n, f"{a:.6f}", f"{b:.6f}") for n, a, b in rows])
