"""Constrained-token samplers with unbiased normalizing-mass estimates.

Every sampler here draws from a prior Categorical restricted by a token
constraint, touching the constraint as few times as it can get away with.
The weighted variants additionally return an estimate ``zhat`` whose
expectation is exactly z, the prior mass of valid tokens; that is the
property that lets them stand in for exact renormalization inside
sequential Monte Carlo.

All samplers are Las Vegas algorithms: output distributions are exact
(for the unclipped variants), runtimes are random. Each sampler is one
``*_batch`` kernel vectorized across independent runs; a single draw is
a batch of one. When no token is valid (z = 0) the exact adaptive
samplers raise NoValidToken, while the clipped and budgeted ones return
dead rows (``zhat = 0``) within their call caps.

The without-replacement kernels keep each run's removed tokens as a
packed bit row (V / 8 bytes) and its removed mass in a compensated (Kahan)
accumulator, so long runs do not drift. A pool whose remaining mass is
below 1e-6 of the prior's total is summed from its surviving tokens
instead, so a small z never cancels to a zero estimate. Batches run in
chunks of at most 32 MiB of packed pool, one after another on the same
random stream.

A draw from a depleted pool is a draw from the prior that skips removed
tokens: rejection from the prior, hence exact. A row that hits a removed
token is redrawn in rounds; each round draws enough candidates for the
row's removed mass that the row stays unserved with probability at most
e^-2, so a heavily depleted pool costs a few vectorized rounds rather
than many single redraws. Only a pool whose batch would reach a sixth of
the vocabulary size is drawn by an exact O(V) inverse CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import TokenConstraint
from .dist import Categorical
from .errors import NoValidToken

__all__ = [
    "SamplerConfig",
    "BatchTokens",
    "BatchWeighted",
    "rs_batch",
    "ars_batch",
    "wrs_batch",
    "awrs_batch",
    "cawrs_batch",
    "cwrs_batch",
    "gawrs_batch",
    "rawrs_batch",
    "top_p_compose",
]


@dataclass
class SamplerConfig:
    """Knobs shared by the sampler family.

    extra_loops: additional with-replacement loops for the negative-
        binomial estimator (must be >= 1).
    theta0/theta1: rejected-mass thresholds for the clipped adaptive
        sampler, 0 < theta0 < theta1 < 1.
    budget: cap on failed constraint calls for the bounded variants.
    """

    extra_loops: int = 1
    theta0: float = 0.25
    theta1: float = 0.75
    budget: int = 8

    def __post_init__(self):
        if self.extra_loops < 1:
            raise ValueError("extra_loops must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not (0.0 < self.theta0 < self.theta1 < 1.0):
            raise ValueError("need 0 < theta0 < theta1 < 1")


@dataclass
class BatchTokens:
    """Unweighted batch draw: one exact posterior sample per run."""

    tokens: np.ndarray
    trials: np.ndarray


@dataclass
class BatchWeighted:
    """Weighted batch draw, one (token, zhat) pair per run.

    ``zhats`` are zero for the dead samples of the clipped or budgeted
    variants. The exact variants return a positive ``zhat`` whenever z > 0,
    unless the estimate itself underflows (z within a few factors of the
    smallest denormal).
    ``trials`` counts constraint evaluations per run.
    """

    tokens: np.ndarray
    zhats: np.ndarray
    trials: np.ndarray


# ---------------------------------------------------------------------------
# Draw machinery


def _draw_prior(cum: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(n) * cum[-1]
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.shape[0] - 1)


# Bit i of byte b in a packed pool row marks token 8 * b + i as removed.
_BIT = (1 << np.arange(8)).astype(np.uint8)
# A pool mass below this fraction of the total is summed from the pool's
# surviving tokens: subtracting the removed mass would cancel to noise.
_SMALL_POOL = 1e-6
# Cells per block of the exact draw's (rows x V) float temporaries and of
# a redraw round's candidates: near 2**21 cells (16 MiB each).
_BLOCK_CELLS = 1 << 21


class _Removed:
    """Per-run removed-token sets with compensated mass accumulation.

    Each run's set is a packed bit row of ceil(V / 8) bytes, so a pool of
    n runs costs n * V / 8 bytes.
    """

    def __init__(self, n_runs: int, probs: np.ndarray, cum: np.ndarray):
        self.probs = probs
        self.cum = cum
        self.total = float(cum[-1])
        self.bits = np.zeros((n_runs, (probs.shape[0] + 7) >> 3), dtype=np.uint8)
        self.mass = np.zeros(n_runs)
        self._comp = np.zeros(n_runs)

    def add(self, rows: np.ndarray, tokens: np.ndarray):
        if rows.size == 0:
            return
        # Rows are distinct within every call, so no two updates of this
        # fancy-indexed |= hit the same byte and none is lost.
        self.bits[rows, tokens >> 3] |= _BIT[tokens & 7]
        y = self.probs[tokens] - self._comp[rows]
        t = self.mass[rows] + y
        self._comp[rows] = (t - self.mass[rows]) - y
        self.mass[rows] = t

    def left(self, rows: np.ndarray) -> np.ndarray:
        """Prior mass still in each row's pool, never rounded to zero."""
        # The kernels call this every step, mostly with no rows.
        if rows.size == 0:
            return self.mass[rows]
        left = self.total - self.mass[rows]
        small = left < _SMALL_POOL * self.total
        if small.any():
            left[small] = self._pool(rows[small]).sum(axis=1)
        return left

    def draw(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One draw per row from the prior renormalized over its pool.

        Draws from the unrestricted prior and redraws rows that hit a
        removed token. That is rejection from the prior, so each row gets
        exactly the renormalized pool, and it costs no constraint
        evaluation. A prior draw hits a row's removed tokens with chance
        mass / total, so ``k = ceil(2 / log(total / mass))`` candidates (no
        more than ``ceil(2 / keep)``, with ``keep = (total - mass) / total``)
        all hit with probability at most e^-2. Each round draws its own k
        for every pending row, and each row takes its first candidate that
        is not removed. A lightly depleted row has k = 1, a plain redraw.
        A row whose k would reach a sixth of the vocabulary size takes the
        exact O(V) draw instead. Of the targets e^-1 to e^-4, e^-2 drew
        fastest on priors whose top token (mass 0.9) was removed, at V = 50,
        1e3 and 1e5: fewer candidates than e^-3 or e^-4, fewer rounds than
        e^-1.
        """
        out = _draw_prior(self.cum, rows.shape[0], rng)
        pending = self._removed(rows, out).nonzero()[0]
        vocab = self.probs.shape[0]
        while pending.size:
            # -log of the chance that one prior draw hits the row's removed tokens.
            depth = np.log(self.total / self.mass[rows[pending]])
            low = float(depth.min())
            if low >= 2.0 and low * vocab > 12.0:
                # Every row's k is 1 and none takes the exact draw: the
                # common round of a lightly depleted pool, kept cheap.
                cand = _draw_prior(self.cum, pending.shape[0], rng)
                fresh = ~self._removed(rows[pending], cand)
                out[pending[fresh]] = cand[fresh]
                pending = pending[~fresh]
                continue
            # The exact draw once k reaches V / 6: over 100 rows at V = 200,
            # 1e3 and 1e5, the draw this picks was at most 2.2x slower than the
            # other, and at most 1.3x at V = 1e3 and 1e5.
            exact = depth * vocab <= 12.0
            if exact.any():
                out[pending[exact]] = self._draw_exact(rows[pending[exact]], rng)
                pending, depth = pending[~exact], depth[~exact]
            k = np.ceil(2.0 / depth).astype(np.int64)
            hit = np.zeros(pending.shape[0], dtype=bool)
            # Blocks bound the candidate cells; drawn in order, they use the
            # stream as one draw would.
            ends = np.cumsum(k)
            lo = 0
            while lo < pending.shape[0]:
                hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - k[lo] + _BLOCK_CELLS, side="right")))
                at = pending[lo:hi]
                tokens, hit[lo:hi] = self._first_fresh(rows[at], k[lo:hi], rng)
                out[at[hit[lo:hi]]] = tokens
                lo = hi
            pending = pending[~hit]
        return out

    def _first_fresh(self, rows: np.ndarray, k: np.ndarray, rng: np.random.Generator):
        """Draw ``k[i]`` prior candidates for row i; return the first one not
        removed from each row that has one, and which rows have one."""
        n = int(k.sum())
        cand = _draw_prior(self.cum, n, rng)
        fresh = ~self._removed(np.repeat(rows, k), cand)
        first = np.minimum.reduceat(np.where(fresh, np.arange(n), n), np.cumsum(k) - k)
        hit = first < n
        return cand[first[hit]], hit

    def _removed(self, rows: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        return (self.bits[rows, tokens >> 3] & _BIT[tokens & 7]) != 0

    def _pool(self, rows: np.ndarray) -> np.ndarray:
        """(rows x V) prior masses with each row's removed tokens zeroed."""
        vocab = self.probs.shape[0]
        removed = np.unpackbits(self.bits[rows], axis=1, count=vocab, bitorder="little")
        return np.where(removed, 0.0, self.probs[None, :])

    def _draw_exact(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        vocab = self.probs.shape[0]
        u = rng.random(rows.shape[0])
        out = np.empty(rows.shape[0], dtype=np.int64)
        step = max(1, _BLOCK_CELLS // vocab)
        for lo in range(0, rows.shape[0], step):
            block = slice(lo, lo + step)
            c = np.cumsum(self._pool(rows[block]), axis=1)
            tot = c[:, -1]
            if np.any(tot <= 0.0):
                raise NoValidToken("every positive-mass token was rejected (z = 0?)")
            # A denormal pool can round u up to tot, where the clamp below
            # would return the last token even if it was removed.
            ub = np.minimum(u[block] * tot, np.nextafter(tot, 0.0))
            out[block] = np.sum(c <= ub[:, None], axis=1)
        return np.minimum(out, vocab - 1)


def _chunks(n: int, vocab: int) -> list[int]:
    # Bounds each chunk's packed removed-token pool at 2**25 bytes (32 MiB).
    per = max(1, min(n, (1 << 25) // ((vocab + 7) >> 3)))
    sizes = [per] * (n // per)
    if n % per:
        sizes.append(n % per)
    return sizes


def _cat_tokens(parts: list[BatchTokens]) -> BatchTokens:
    return BatchTokens(
        tokens=np.concatenate([p.tokens for p in parts]),
        trials=np.concatenate([p.trials for p in parts]),
    )


def _cat_weighted(parts: list[BatchWeighted]) -> BatchWeighted:
    return BatchWeighted(
        tokens=np.concatenate([p.tokens for p in parts]),
        zhats=np.concatenate([p.zhats for p in parts]),
        trials=np.concatenate([p.trials for p in parts]),
    )


# ---------------------------------------------------------------------------
# Simple rejection sampling (with replacement)


def rs_batch(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator) -> BatchTokens:
    """Draw from the prior until the constraint accepts, per run.

    Requires z > 0; there is deliberately no iteration cap (bounding cost
    is the job of the budgeted variants).
    """
    cum = prior.cumulative()
    tokens = np.full(n, -1, dtype=np.int64)
    trials = np.zeros(n, dtype=np.int64)
    alive = np.arange(n)
    while alive.size:
        cand = _draw_prior(cum, alive.size, rng)
        ok = c.evaluate_many(cand)
        trials[alive] += 1
        tokens[alive[ok]] = cand[ok]
        alive = alive[~ok]
    return BatchTokens(tokens=tokens, trials=trials)


# ---------------------------------------------------------------------------
# Adaptive rejection sampling (without replacement, unweighted)


def _ars_chunk(prior, c, n, rng) -> BatchTokens:
    rem = _Removed(n, prior.probs, prior.cumulative())
    tokens = np.full(n, -1, dtype=np.int64)
    trials = np.zeros(n, dtype=np.int64)
    alive = np.arange(n)
    while alive.size:
        cand = rem.draw(alive, rng)
        ok = c.evaluate_many(cand)
        trials[alive] += 1
        tokens[alive[ok]] = cand[ok]
        rem.add(alive[~ok], cand[~ok])
        alive = alive[~ok]
    return BatchTokens(tokens=tokens, trials=trials)


def ars_batch(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator) -> BatchTokens:
    """Adaptive rejection sampling: rejected tokens are never redrawn.

    Exact posterior samples in at most (#invalid tokens) + 1 constraint
    evaluations per run.
    """
    return _cat_tokens([_ars_chunk(prior, c, m, rng) for m in _chunks(n, prior.vocab_size)])


# ---------------------------------------------------------------------------
# Weighted rejection sampling (with replacement, L + 1 loops)


def wrs_batch(
    prior: Categorical,
    c: TokenConstraint,
    n: int,
    rng: np.random.Generator,
    extra_loops: int = 1,
) -> BatchWeighted:
    """Run L + 1 rejection loops and estimate z from the rejection count.

    The accepted token of the first loop is returned. With ``nrej`` total
    rejections across the loops, ``zhat = L / (nrej + L)``, the minimum-
    variance unbiased estimator of z for the induced negative-binomial
    trial count.
    """
    L = int(extra_loops)
    if L < 1:
        raise ValueError("extra_loops must be >= 1")
    cum = prior.cumulative()
    tokens = np.full(n, -1, dtype=np.int64)
    trials = np.zeros(n, dtype=np.int64)
    nrej = np.zeros(n, dtype=np.int64)
    loops_done = np.zeros(n, dtype=np.int64)
    alive = np.arange(n)
    while alive.size:
        cand = _draw_prior(cum, alive.size, rng)
        ok = c.evaluate_many(cand)
        trials[alive] += 1
        acc = alive[ok]
        acc_cand = cand[ok]
        newly = loops_done[acc] == 0
        tokens[acc[newly]] = acc_cand[newly]
        loops_done[acc] += 1
        nrej[alive[~ok]] += 1
        alive = alive[~(ok & (loops_done[alive] == L + 1))]
    return BatchWeighted(tokens=tokens, zhats=L / (nrej + L), trials=trials)


# ---------------------------------------------------------------------------
# Adaptive weighted rejection sampling


def _awrs_chunk(prior, c, n, rng) -> BatchWeighted:
    rem = _Removed(n, prior.probs, prior.cumulative())
    tokens = np.full(n, -1, dtype=np.int64)
    trials = np.zeros(n, dtype=np.int64)
    nrej = np.zeros(n, dtype=np.int64)
    left0 = np.zeros(n)
    in_second = np.zeros(n, dtype=bool)
    alive = np.arange(n)
    while alive.size:
        cand = rem.draw(alive, rng)
        ok = c.evaluate_many(cand)
        trials[alive] += 1
        second = in_second[alive]
        # First-loop acceptance: keep the token, snapshot the pool mass,
        # and continue into the confirmation loop (acceptances are replaced,
        # so the token stays in the pool).
        first_acc = alive[ok & ~second]
        tokens[first_acc] = cand[ok & ~second]
        left0[first_acc] = rem.left(first_acc)
        in_second[first_acc] = True
        # Rejections are unique: remove them for both loops.
        rej_rows = alive[~ok]
        rem.add(rej_rows, cand[~ok])
        nrej[rej_rows] += 1
        alive = alive[~(ok & second)]
    return BatchWeighted(tokens=tokens, zhats=left0 / (nrej + 1.0), trials=trials)


def awrs_batch(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator) -> BatchWeighted:
    """Adaptive weighted rejection sampling.

    Loop one samples without replacement of rejected tokens until a token
    is accepted; loop two continues from the same depleted pool (with the
    accepted token put back) until it finds another acceptance. With
    ``total`` the prior's summed mass (1 up to rounding), ``psi0`` the
    prior mass rejected in loop one and ``nrej`` the unique rejections
    across both loops, ``zhat = (total - psi0) / (nrej + 1)`` is an
    unbiased estimate of z, and the returned token is exactly posterior
    distributed. Per loop the trial count never exceeds one plus the
    number of invalid tokens.
    """
    return _cat_weighted([_awrs_chunk(prior, c, m, rng) for m in _chunks(n, prior.vocab_size)])


# ---------------------------------------------------------------------------
# Clipped adaptive weighted rejection sampling (mass-threshold early stop)

_PHASE_LOOP0 = 0
_PHASE_PROBE = 1
_PHASE_SECOND = 2
_PHASE_SECOND_POST = 3
_PHASE_DONE = 4


def _cawrs_chunk(prior, c, n, rng, theta0, theta1) -> BatchWeighted:
    rem = _Removed(n, prior.probs, prior.cumulative())
    tokens = np.full(n, -1, dtype=np.int64)
    trials = np.zeros(n, dtype=np.int64)
    nrej = np.zeros(n, dtype=np.int64)
    n1 = np.zeros(n, dtype=np.int64)
    left0 = np.zeros(n)
    zhats = np.zeros(n)
    phase = np.full(n, _PHASE_LOOP0, dtype=np.int8)
    npos = int(np.count_nonzero(prior.probs > 0))

    def finish(rows, boosted):
        base = left0[rows] / (nrej[rows] + 1.0)
        zhats[rows] = np.where(boosted, (n1[rows] + 1.0) * base, base)
        phase[rows] = _PHASE_DONE

    while True:
        alive = np.flatnonzero(phase != _PHASE_DONE)
        if alive.size == 0:
            break
        cand = rem.draw(alive, rng)
        ok = c.evaluate_many(cand)
        trials[alive] += 1
        ph = phase[alive]

        # First loop: reject uniquely until acceptance or theta0 overflow.
        l0 = ph == _PHASE_LOOP0
        acc0 = alive[l0 & ok]
        tokens[acc0] = cand[l0 & ok]
        left0[acc0] = rem.left(acc0)
        phase[acc0] = _PHASE_SECOND
        rej0 = alive[l0 & ~ok]
        rem.add(rej0, cand[l0 & ~ok])
        nrej[rej0] += 1
        over0 = rej0[rem.mass[rej0] > theta0]
        left0[over0] = rem.left(over0)
        phase[over0] = _PHASE_PROBE
        # Rejecting every positive-mass token leaves no pool to probe
        # (z = 0): the row ends dead on its last rejection.
        drained = nrej[rej0] == npos
        tokens[rej0[drained]] = cand[l0 & ~ok][drained]
        phase[rej0[drained]] = _PHASE_DONE

        # Overflow probe: one draw from the remaining pool decides between
        # a dead sample and a boosted-weight continuation.
        pr = ph == _PHASE_PROBE
        dead = alive[pr & ~ok]
        tokens[dead] = cand[pr & ~ok]
        zhats[dead] = 0.0
        phase[dead] = _PHASE_DONE
        live = alive[pr & ok]
        tokens[live] = cand[pr & ok]
        phase[live] = _PHASE_SECOND_POST
        # A rejection that crossed theta1 along with theta0 leaves the
        # second loop already stopped: it makes no draw.
        finish(live[rem.mass[live] > theta1], True)

        # Second loop (either flavor): continue until acceptance or the
        # total rejected mass crosses theta1.
        l1 = (ph == _PHASE_SECOND) | (ph == _PHASE_SECOND_POST)
        boosted = ph == _PHASE_SECOND_POST
        acc1 = l1 & ok
        finish(alive[acc1], boosted[acc1])
        rej1 = l1 & ~ok
        rows1 = alive[rej1]
        rem.add(rows1, cand[rej1])
        nrej[rows1] += 1
        n1[rows1] += 1
        over1 = rem.mass[rows1] > theta1
        finish(rows1[over1], boosted[rej1][over1])

    return BatchWeighted(tokens=tokens, zhats=zhats, trials=trials)


def cawrs_batch(
    prior: Categorical,
    c: TokenConstraint,
    n: int,
    rng: np.random.Generator,
    theta0: float,
    theta1: float,
) -> BatchWeighted:
    """Adaptive weighted rejection sampling with rejected-mass clipping.

    Identical to ``awrs_batch`` while the first loop's rejected mass stays
    at or below ``theta0`` and the total rejected mass at or below
    ``theta1``. Crossing ``theta0`` before any acceptance triggers a single
    probe draw: an invalid probe is returned as a dead sample with
    ``zhat = 0``; a valid probe is returned with the boosted estimate
    ``(n1 + 1) * (total - psi0) / (nrej + 1)`` after the second loop runs.
    The second loop also stops on the rejection that takes the removed
    mass past ``theta1``, and makes no draw at all when the probe starts
    it already past ``theta1``; a stopped row keeps the estimate it would
    get from an acceptance on the next draw. The pair (token, zhat) stays
    properly weighted for the local target, at the price of occasional
    dead samples.
    """
    if not (0.0 < theta0 < theta1 < 1.0):
        raise ValueError("need 0 < theta0 < theta1 < 1")
    parts = [_cawrs_chunk(prior, c, m, rng, theta0, theta1) for m in _chunks(n, prior.vocab_size)]
    return _cat_weighted(parts)


# ---------------------------------------------------------------------------
# Clipped weighted rejection sampling (call-budget early stop)


def _cwrs_estimate(s, r, L, R):
    # Stopped on the (L+1)-th acceptance: zhat = L / (r + L).
    # Stopped on the R-th rejection: zhat = s / (R + s - 1), which is 0
    # when nothing was accepted (the R=1, s=0 corner is 0/0 -> 0).
    # Both are the Rao-Blackwellization of 1[first draw valid] given the
    # stopped counts (s, r); see the tests for the exact enumeration.
    acc_stop = s == L + 1
    rej_denom = np.maximum(R + s - 1.0, 1.0)
    return np.where(acc_stop, L / (r + L), np.where(s > 0, s / rej_denom, 0.0))


def cwrs_batch(
    prior: Categorical,
    c: TokenConstraint,
    n: int,
    rng: np.random.Generator,
    extra_loops: int = 1,
    budget: int = 8,
) -> BatchWeighted:
    """Weighted rejection sampling stopped at a rejection budget.

    Draw with replacement until either L + 1 acceptances or R = budget
    rejections have been seen, so no run ever exceeds R failed plus L + 1
    passed constraint calls. Returns the first accepted token, or the
    first draw with ``zhat = 0`` when nothing was accepted. ``zhat`` stays
    unbiased for z under the stopped counts.
    """
    L, R = int(extra_loops), int(budget)
    if L < 1 or R < 1:
        raise ValueError("extra_loops and budget must be >= 1")
    cum = prior.cumulative()
    s = np.zeros(n, dtype=np.int64)
    r = np.zeros(n, dtype=np.int64)
    first_tok = np.full(n, -1, dtype=np.int64)
    x1 = np.full(n, -1, dtype=np.int64)
    trials = np.zeros(n, dtype=np.int64)
    alive = np.arange(n)
    first_wave = True
    while alive.size:
        cand = _draw_prior(cum, alive.size, rng)
        ok = c.evaluate_many(cand)
        trials[alive] += 1
        if first_wave:
            x1[alive] = cand
            first_wave = False
        acc = alive[ok]
        acc_cand = cand[ok]
        newly = first_tok[acc] < 0
        s[acc] += 1
        first_tok[acc[newly]] = acc_cand[newly]
        r[alive[~ok]] += 1
        alive = alive[~((ok & (s[alive] == L + 1)) | (~ok & (r[alive] == R)))]
    assert np.all(r <= R) and np.all(s <= L + 1)
    zhats = _cwrs_estimate(s, r, L, R)
    tokens = np.where(s > 0, first_tok, x1)
    return BatchWeighted(tokens=tokens, zhats=zhats, trials=trials)


# ---------------------------------------------------------------------------
# Geometric adaptive weighted rejection sampling


def _gawrs_chunk(prior, c, n, rng, L, R) -> BatchWeighted:
    rem = _Removed(n, prior.probs, prior.cumulative())
    s = np.zeros(n, dtype=np.int64)
    r = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=np.int64)
    first_tok = np.full(n, -1, dtype=np.int64)
    x1 = np.full(n, -1, dtype=np.int64)
    trials = np.zeros(n, dtype=np.int64)
    alive = np.arange(n)
    first_wave = True
    while alive.size:
        # Phantom redraws of already-removed mass are accounted for with a
        # geometric count instead of actual draws; if they exhaust the
        # budget the pending novel draw never happens (and is not
        # evaluated), exactly as in the with-replacement process.
        q = rem.mass[alive]
        # Once removed mass rounds to 1 the geometric count saturates at the
        # int64 maximum; clipping it at R (which already exhausts any budget)
        # keeps r + phantoms from wrapping negative.
        phantoms = np.minimum(rng.geometric(np.maximum(1.0 - q, 1e-300)) - 1, R)
        over = r[alive] + phantoms >= R
        r[alive[over]] = R
        alive = alive[~over]
        if alive.size == 0:
            break
        r[alive] += phantoms[~over]
        cand = rem.draw(alive, rng)
        ok = c.evaluate_many(cand)
        trials[alive] += 1
        if first_wave:
            x1[alive] = cand
            first_wave = False
        acc = alive[ok]
        acc_cand = cand[ok]
        newly = first_tok[acc] < 0
        s[acc] += 1
        first_tok[acc[newly]] = acc_cand[newly]
        rej = alive[~ok]
        rem.add(rej, cand[~ok])
        r[rej] += 1
        failed[rej] += 1
        alive = alive[~((ok & (s[alive] == L + 1)) | (~ok & (r[alive] >= R)))]
    assert np.all(failed <= R) and np.all(s <= L + 1)
    zhats = _cwrs_estimate(s, np.minimum(r, R), L, R)
    tokens = np.where(s > 0, first_tok, x1)
    return BatchWeighted(tokens=tokens, zhats=zhats, trials=trials)


def gawrs_batch(
    prior: Categorical,
    c: TokenConstraint,
    n: int,
    rng: np.random.Generator,
    extra_loops: int = 1,
    budget: int = 8,
) -> BatchWeighted:
    """Budgeted rejection sampling, adaptive via phantom-rejection counts.

    Runs the budgeted with-replacement process of ``cwrs_batch`` but never
    actually redraws a removed token: hits on removed mass are counted by
    a geometric draw and charged against the budget without constraint
    calls. Same estimator and the same R-failed / L+1-passed call cap,
    with far fewer calls when much mass is already removed.
    """
    L, R = int(extra_loops), int(budget)
    if L < 1 or R < 1:
        raise ValueError("extra_loops and budget must be >= 1")
    parts = [_gawrs_chunk(prior, c, m, rng, L, R) for m in _chunks(n, prior.vocab_size)]
    return _cat_weighted(parts)


# ---------------------------------------------------------------------------
# Recursive adaptive weighted rejection sampling


def _rawrs_chunk(prior, c, n, rng, R) -> BatchWeighted:
    probs = prior.probs
    rem = _Removed(n, probs, prior.cumulative())
    tokens = np.full(n, -1, dtype=np.int64)
    zhats = np.zeros(n)
    trials = np.zeros(n, dtype=np.int64)
    # eta = total * prod(1 - q_j) over the rejections so far.
    eta = np.full(n, rem.total)
    q_n = np.zeros(n)
    eta_n = np.ones(n)
    nsteps = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=np.int64)
    phase = np.full(n, 0, dtype=np.int8)  # 0 scan, 1 probe, 2 done
    npos = int(np.count_nonzero(probs > 0))

    while True:
        scanning = np.flatnonzero(phase == 0)
        if scanning.size == 0:
            break
        denom = rem.left(scanning)
        cand = rem.draw(scanning, rng)
        # Clamp guards against q > 1 from float drift in denom.
        q_i = np.minimum(probs[cand] / denom, 1.0)
        ok = c.evaluate_many(cand)
        trials[scanning] += 1
        nsteps[scanning] += 1
        last = nsteps[scanning] == R

        acc_last = scanning[ok & last]
        tokens[acc_last] = cand[ok & last]
        zhats[acc_last] = eta[acc_last]
        phase[acc_last] = 2

        rej = scanning[~ok]
        failed[rej] += 1
        # A row that has rejected every positive-mass token has nothing
        # left to draw (z = 0); it ends dead, as at the budget.
        dead = ~ok & (last | (failed[scanning] == npos))
        tokens[scanning[dead]] = cand[dead]
        zhats[scanning[dead]] = 0.0
        phase[scanning[dead]] = 2

        rem.add(rej, cand[~ok])
        more = ~ok & ~dead
        keep = 1.0 - q_i[more]
        # A rejection that takes nearly all of the pool cancels in 1 - q;
        # the ratio of pool masses after and before it does not.
        close = keep < _SMALL_POOL
        if np.any(close):
            keep[close] = rem.left(scanning[more][close]) / denom[more][close]
        eta[scanning[more]] *= keep

        # Acceptance before the budget: remember the recursion state and
        # move to the probe. The accepted token leaves the pool too, since
        # the probe conditions on everything drawn so far.
        acc = scanning[ok & ~last]
        tokens[acc] = cand[ok & ~last]
        q_n[acc] = q_i[ok & ~last]
        eta_n[acc] = eta[acc]
        rem.add(acc, cand[ok & ~last])
        phase[acc] = 1

    probing = np.flatnonzero(phase == 1)
    # A drained pool means the accepted token had conditional probability
    # one, where the probe branches coincide at eta_n. Removed tokens are
    # distinct and have positive mass, so the pool is drained once the
    # rejections plus the accepted token number npos.
    drained = failed[probing] + 1 == npos
    zhats[probing[drained]] = eta_n[probing[drained]]
    probing = probing[~drained]
    if probing.size:
        cand = rem.draw(probing, rng)
        ok = c.evaluate_many(cand)
        trials[probing] += 1
        zhats[probing] = np.where(ok, eta_n[probing], q_n[probing] * eta_n[probing])

    assert np.all(failed <= R)
    return BatchWeighted(tokens=tokens, zhats=zhats, trials=trials)


def rawrs_batch(
    prior: Categorical,
    c: TokenConstraint,
    n: int,
    rng: np.random.Generator,
    budget: int = 8,
) -> BatchWeighted:
    """Without-replacement scan with a recursive conditional-mass estimate.

    Scans a without-replacement sequence until the first acceptance or
    until R = budget tokens have been checked. With ``q_i`` the conditional
    probability of the i-th draw and ``eta_i`` the prior's total times the
    product of ``(1 - q_j)`` over the rejections so far: stopping at the
    budget gives ``zhat = eta`` on acceptance and 0 otherwise; stopping
    early on an acceptance spends one extra probe draw from the remaining
    pool and gives ``eta_n`` if the probe is valid, else ``q_n * eta_n``.
    At most R scan evaluations plus one probe per run.
    """
    R = int(budget)
    if R < 1:
        raise ValueError("budget must be >= 1")
    parts = [_rawrs_chunk(prior, c, m, rng, R) for m in _chunks(n, prior.vocab_size)]
    return _cat_weighted(parts)


# ---------------------------------------------------------------------------
# Nucleus truncation


def top_p_compose(prior: Categorical, p: float) -> Categorical:
    """Keep the smallest high-probability nucleus of mass >= p, renormalized.

    Tokens are ranked by probability with ties broken by token id; every
    token tied with the boundary probability is kept, so the result is
    deterministic and never splits a tie across the cut.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    probs = prior.probs
    order = np.lexsort((np.arange(probs.shape[0]), -probs))
    csum = np.cumsum(probs[order])
    cut = int(np.searchsorted(csum, p - 1e-12, side="left"))
    cut = min(cut, probs.shape[0] - 1)
    boundary = probs[order[cut]]
    keep = np.zeros(probs.shape[0], dtype=bool)
    keep[order[: cut + 1]] = True
    keep |= probs == boundary
    kept = np.where(keep, probs, 0.0)
    return Categorical(kept / kept.sum())
