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
a batch of one. When no token is valid (z = 0) the exact samplers raise
NoValidToken: the adaptive ones when a run's pool runs out, ``rs`` and
``wrs`` when a check of the prior's support at their V-th round (V the
vocabulary size) finds no valid token. The clipped and budgeted ones
return dead rows (``zhat = 0``) within their call caps.

The without-replacement kernels keep each run's removed tokens in one of
two pools, chosen by vocabulary size V. At V <= 8 a run's pool is one
byte, a bit per token, and every pool question is a lookup by that byte
in tables the prior builds once (``Categorical.byte_pools``): its draw,
its mass summed over its surviving tokens, and its removed mass summed
over its removed tokens, so no pool mass is found by subtraction.
Past 8 it is a packed bit row (V / 8 bytes), with the removed mass in a
compensated (Kahan) accumulator, so long runs do not drift; a pool whose
remaining mass is below 1e-6 of the prior's total is summed from its
surviving tokens instead, so a small z never cancels to a zero estimate.
Batches run in chunks of at most 32 MiB of pool, one after another on
the same random stream. A bit pool of at least 1 MiB takes the bit buffer
that the last such pool released, rezeroed, so a loop of large-vocabulary
calls keeps one pool buffer rather than freeing and allocating one per
call: a freed pool leaves a hole in the heap that the caller's kept
outputs fill, and the next pool then grows the heap by a whole pool, so
the peak memory of a caller that keeps its outputs rose in pool-sized
steps. The spare buffer, at most one chunk's pool, stays allocated
between calls. It also saves time: without it, 8 large-vocabulary
kernels at V = 1e5 drew 78.5k rather than 82.1k draws per second, and
peaked at 122.8 rather than 116.2 MB (2-core x86 host).

Until a call removes its first token, a draw is a plain prior draw that
checks no bits. At V <= 8 a depleted pool is drawn by an exact inverse
CDF, one uniform per row: the count of the pool's cumulative masses over
its total at or below the uniform, read from the prior's table of the
2^V possible pools. At V > 8 a draw from a depleted pool is a draw from
the prior that skips removed tokens: rejection from the prior, hence
exact. A row that hits a removed token is redrawn in rounds; each round
draws enough candidates for the row's removed mass that the row stays
unserved with probability at most e^-2, so a heavily depleted pool costs
a few vectorized rounds rather than many single redraws. Only a pool
whose batch would reach a sixth of the vocabulary size takes the exact
inverse CDF, there an O(V) pass over the row's own bits.

The eight samplers run three loops. ``rs``, ``wrs``, ``cwrs`` and
``gawrs`` run one with-replacement loop, ``_budgeted``, at (L, R) = (0,
inf), (L, inf), (L, R) and (L, R) over a pool: each run draws until L + 1
acceptances or R rejections, and gawrs's pool loses the rejected tokens,
whose redraws it counts by one geometric draw per round instead of
drawing them. ``ars``, ``awrs`` and ``cawrs`` run one without-replacement
loop, ``_adaptive``, at (L, theta0, theta1) = (0, inf, inf), (1, inf,
inf) and (1, theta0, theta1): each run draws from a pool that loses its
rejected tokens until L + 1 acceptances, and finite thresholds clip it.
``rawrs`` scans a pool until an acceptance or R checks and probes it
once (``_rawrs``); its estimate is the pool mass. Every loop runs in
rounds, one draw per running run per round, so each loop takes a run's
trial count as the round it ends in rather than counting per run every
round. A round of ``_adaptive`` does only the work that round needs: it
updates the pools only if a draw was rejected, records first acceptances
only while some running run is in its first loop (and reads the pool
mass of the runs whose first loop ends through the same gather), and
records trials and drops runs only if some run stops, which at L = 1
none does in round 1. A pool over a point mass whose token round 1 finds
valid needs no more rounds: each run ends after its L + 1 counted
evaluations with that token, ``zhat`` the prior's total and L + 1
trials, as the rounds would end it (``_valid_point``). An invalid point
mass runs the loop as any other pool does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .constraints import TokenConstraint
from .dist import Categorical, sample_many
from .errors import NoValidToken

__all__ = [
    "check_count",
    "check_knobs",
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


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int if it is a whole number >= ``least``, else ValueError naming ``name``.

    The one check of a count: a kernel's runs (``n``, >= 0), a rollout
    method's particles (>= 1) and a sampler's loops and budget (>= 1).
    Whole floats pass; bools, which Python counts as integers, do not.
    """
    whole = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not (whole and value >= least):
        raise ValueError(f"{name} must be a whole number >= {least}, not {value!r}")
    return int(value)


def check_knobs(**knobs) -> None:
    """Raise ValueError if a given sampler knob is out of range.

    The one range check of each knob, shared by the kernels and
    ``smc.weighted_proposal``: ``extra_loops`` (L, the extra
    with-replacement loops) and ``budget`` (R, the cap on failed
    constraint calls) must be whole numbers >= 1; the clipping thresholds,
    given as a pair, must satisfy ``0 < theta0 < theta1 < 1``. A knob's
    default lives on the signature of each kernel that takes it.
    """
    for key in ("extra_loops", "budget"):
        if key in knobs:
            check_count(key, knobs[key], 1)
    if "theta0" in knobs and not (0.0 < knobs["theta0"] < knobs["theta1"] < 1.0):
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


# Bit i of byte b in a packed pool row marks token 8 * b + i as removed.
_BIT = (1 << np.arange(8)).astype(np.uint8)
# A pool mass below this fraction of the total is summed from the pool's
# surviving tokens: subtracting the removed mass would cancel to noise.
_SMALL_POOL = 1e-6
# Cells per block of the exact draw's (rows x V) float temporaries and of
# a redraw round's candidates: near 2**21 cells (16 MiB each).
_BLOCK_CELLS = 1 << 21
# A pool of at least this many bytes takes its bits from the spare buffer
# that the last such pool released; a smaller pool leaves at most a 1 MiB
# hole in the heap, and is allocated per call. ``_spare`` holds at most one
# buffer; ``list.pop`` hands it to one pool at a time, across threads too.
_SPARE_MIN_BYTES = 1 << 20
_spare: list[np.ndarray] = []
# A batch runs in chunks of at most this many bytes of packed pool (32 MiB).
_CHUNK_BYTES = 1 << 25


def _take_spare(size: int) -> np.ndarray:
    """A flat uint8 buffer of at least ``size`` bytes: the spare if it is large enough."""
    try:
        buf = _spare.pop()
    except IndexError:
        return np.empty(size, dtype=np.uint8)
    return buf if buf.size >= size else np.empty(size, dtype=np.uint8)


class _BytePool:
    """Per-run removed-token sets over at most 8 tokens, one byte per run.

    Bit i of a run's byte marks token i as removed, so each question the
    kernels ask of a pool is a lookup by that byte in the prior's
    ``byte_pools`` tables, built once per distribution: its draw table,
    and its masses summed over the surviving and over the removed tokens.
    """

    def __init__(self, n_runs: int, prior: Categorical):
        self.prior = prior
        self.probs = prior.probs
        self.byte = np.zeros(n_runs, dtype=np.uint8)
        self._cum, self._left, self._gone, self._empty = prior.byte_pools()
        # False until a token is removed: a draw from untouched pools is a
        # plain prior draw.
        self.depleted = False

    def release(self):
        """A byte pool holds no buffer worth handing on."""

    def add(self, rows: np.ndarray, tokens: np.ndarray):
        if rows.size == 0:
            return
        self.depleted = True
        # Rows are distinct within every call, so no two updates of this
        # fancy-indexed |= hit the same byte and none is lost.
        self.byte[rows] |= _BIT[tokens]

    def left(self, rows: np.ndarray) -> np.ndarray:
        """Prior mass still in each row's pool, summed over its surviving tokens."""
        return self._left.take(self.byte[rows])

    def removed_mass(self, rows: np.ndarray) -> np.ndarray:
        """Prior mass removed from each row's pool, summed over its removed tokens."""
        return self._gone.take(self.byte[rows])

    def draw(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One draw per row from the prior renormalized over its pool.

        Until a token is removed, a plain prior draw. After that, one
        uniform u per row, and the token is the count of the row's pool's
        cumulative masses over its total that are at or below u. Those
        masses are nondecreasing, so the count stops on no zero-mass or
        removed token; the last is x / x, exactly 1, so with u < 1 the
        count never passes the last positive-mass token.
        """
        if not self.depleted:
            return sample_many(self.prior, rows.shape[0], rng)
        pool = self.byte[rows]
        if self._empty.take(pool).any():
            raise NoValidToken("every positive-mass token was rejected (z = 0?)")
        return (self._cum.take(pool, axis=1) <= rng.random(rows.shape[0])).sum(axis=0)


class _Removed:
    """Per-run removed-token sets over more than 8 tokens, with compensated mass accumulation.

    Each run's set is a packed bit row of ceil(V / 8) bytes, so a pool of
    n runs costs n * V / 8 bytes.
    """

    def __init__(self, n_runs: int, prior: Categorical):
        self.prior = prior
        self.probs = prior.probs
        self.total = prior.total
        cols = (prior.vocab_size + 7) >> 3
        size = n_runs * cols
        if size < _SPARE_MIN_BYTES:
            self._buf = None
            self.bits = np.zeros((n_runs, cols), dtype=np.uint8)
        else:
            self._buf = _take_spare(size)
            self.bits = self._buf[:size].reshape(n_runs, cols)
            self.bits.fill(0)
        self.mass = np.zeros(n_runs)
        self._comp = np.zeros(n_runs)
        # False until a token is removed: a draw from untouched pools is a
        # plain prior draw and checks no removed bits.
        self.depleted = False

    def release(self):
        """Hand a large pool's bit buffer to the next large pool; this pool is unusable after."""
        if self._buf is not None:
            _spare[:] = [self._buf]
        self._buf = self.bits = None

    def add(self, rows: np.ndarray, tokens: np.ndarray):
        if rows.size == 0:
            return
        self.depleted = True
        # Rows are distinct within every call, so no two updates of this
        # fancy-indexed |= hit the same byte and none is lost.
        self.bits[rows, tokens >> 3] |= _BIT[tokens & 7]
        mass = self.mass[rows]
        y = self.probs[tokens] - self._comp[rows]
        t = mass + y
        self._comp[rows] = (t - mass) - y
        self.mass[rows] = t

    def removed_mass(self, rows: np.ndarray) -> np.ndarray:
        """Prior mass removed from each row's pool."""
        return self.mass[rows]

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

        Until a token is removed, a plain prior draw. After that, draws
        from the unrestricted prior and redraws rows that hit a removed
        token. That is rejection from the prior, so each row
        gets exactly the renormalized pool, and it costs no constraint
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
        if not self.depleted:
            return sample_many(self.prior, rows.shape[0], rng)
        vocab = self.probs.shape[0]
        out = sample_many(self.prior, rows.shape[0], rng)
        pending = self._removed(rows, out).nonzero()[0]
        while pending.size:
            # -log of the chance that one prior draw hits the row's removed tokens.
            depth = np.log(self.total / self.mass[rows[pending]])
            low = float(depth.min())
            if low >= 2.0 and low * vocab > 12.0:
                # Every row's k is 1 and none takes the exact draw: the
                # common round of a lightly depleted pool, kept cheap.
                cand = sample_many(self.prior, pending.shape[0], rng)
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
                if pending.size == 0:
                    break
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
        cand = sample_many(self.prior, n, rng)
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
        """One inverse-CDF draw per row over its pool, in blocks of rows."""
        u = rng.random(rows.shape[0])
        step = max(1, _BLOCK_CELLS // self.probs.shape[0])
        out = np.empty(rows.shape[0], dtype=np.int64)
        for lo in range(0, rows.shape[0], step):
            block = slice(lo, lo + step)
            out[block] = self._first_above(rows[block], u[block])
        return out

    def _first_above(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Each row's first token whose cumulative pool mass exceeds ``u`` times the pool's total."""
        c = np.cumsum(self._pool(rows), axis=1)
        tot = c[:, -1]
        if (tot <= 0.0).any():
            raise NoValidToken("every positive-mass token was rejected (z = 0?)")
        # A denormal pool can round u up to tot; keeping ub below tot
        # leaves a crossing in every row, never past the last positive token.
        ub = np.minimum(u * tot, np.nextafter(tot, 0.0))
        # Cumulative masses are nondecreasing: the first one above ub is the token's.
        return (c > ub[:, None]).argmax(axis=1)


def _new_pool(n_runs: int, prior: Categorical):
    """The removed-token pool of n runs: a byte per run up to 8 tokens, a packed bit row past that."""
    return (_BytePool if prior.vocab_size <= 8 else _Removed)(n_runs, prior)


def _chunked(kernel, prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator, *args):
    """Run ``kernel(rem, c, m, rng, *args)`` over chunks of the n runs and join its arrays.

    Each chunk of m runs gets its own pool (``_new_pool``) of at most
    ``_CHUNK_BYTES`` and runs after the last on the same random stream; a
    call of no runs runs one empty chunk. A one-chunk call returns the
    kernel's arrays as they are, uncopied.
    """
    n = check_count("n", n, 0)
    per = max(1, min(n, _CHUNK_BYTES // ((prior.vocab_size + 7) >> 3)))
    parts = []
    for lo in range(0, max(n, 1), per):
        m = min(per, n - lo)
        rem = _new_pool(m, prior)
        parts.append(kernel(rem, c, m, rng, *args))
        rem.release()
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


# ---------------------------------------------------------------------------
# Rejection sampling with replacement: rs, wrs and cwrs


def _check_support(prior: Categorical, c: TokenConstraint, rounds: int):
    """Raise NoValidToken at the V-th round of a call if no supported token is valid.

    A with-replacement loop without a rejection budget has no other exit
    at z = 0. It fires once per call, draws no random numbers, and its
    evaluations count on the constraint's counter but on no run's
    ``trials``; a call that ends within V rounds skips it.
    """
    if rounds == prior.vocab_size and not c.evaluate_many(prior.support()).any():
        raise NoValidToken("no token with prior mass is valid (z = 0)")


def _budgeted(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator, L: int, R: float, rem=None):
    """Draw from the prior with replacement, per run, until L + 1 acceptances or R rejections.

    ``R`` may be ``math.inf``; then a call still running at its V-th round
    checks the prior's support (``_check_support``). With a pool ``rem``
    (gawrs, finite R) a rejected token leaves the run's pool, and each
    round first counts the run's redraws of removed tokens by one geometric
    draw: phantom rejections, charged to R without a constraint call. A run
    whose phantoms spend its budget ends before it draws. Returns per run
    the first accepted token (the first draw when none was accepted), the
    constraint evaluations, and the acceptance and rejection counts. Run
    without a pool, it checks ``n``; ``_chunked`` checks it for a pool.
    """
    if rem is None:
        n = check_count("n", n, 0)
    tokens = np.empty(n, dtype=np.int64)
    trials = np.empty(n, dtype=np.int64)
    s = np.empty(n, dtype=np.int64)
    alive = np.arange(n)
    # Acceptances of the running runs, aligned with ``alive``; a running
    # run has drawn once per round, so its trials are the round count.
    got = np.zeros(n, dtype=np.int64)
    if rem is not None:
        # Phantom rejections of each stopped run, and of the running runs
        # aligned with ``alive``.
        phantoms = np.zeros(n, dtype=np.int64)
        held = np.zeros(n, dtype=np.int64)
    capped = R < math.inf
    rounds = 0
    while alive.size:
        if rem is None:
            cand = sample_many(prior, alive.size, rng)
        else:
            # A prior draw hits a removed token with chance the removed mass
            # (never negative, so p <= 1), so a run's hits before its next
            # novel draw are geometric. The count
            # is clipped at the budget left: once the removed mass rounds to
            # 1 it saturates at the int64 maximum.
            room = R - (rounds - got + held)
            hits = rng.geometric(np.maximum(1.0 - rem.removed_mass(alive), 1e-300)) - 1
            over = hits >= room
            held += np.minimum(hits, room)
            if over.any():
                done = alive[over]
                s[done] = got[over]
                trials[done] = rounds
                phantoms[done] = held[over]
                keep = ~over
                alive, got, held = alive[keep], got[keep], held[keep]
                if not alive.size:
                    break
            cand = rem.draw(alive, rng)
        ok = c.evaluate_many(cand)
        if rounds == 0:
            tokens[:] = cand
        rounds += 1
        got += ok
        first = ok & (got == 1)
        tokens[alive[first]] = cand[first]
        stop = got > L
        if rem is not None:
            rem.add(alive[~ok], cand[~ok])
            stop |= rounds - got + held >= R
        elif capped:
            stop |= rounds - got >= R
        done = alive[stop]
        s[done] = got[stop]
        trials[done] = rounds
        keep = ~stop
        alive, got = alive[keep], got[keep]
        if rem is not None:
            phantoms[done] = held[stop]
            held = held[keep]
        elif alive.size and not capped:
            _check_support(prior, c, rounds)
    r = trials - s
    if rem is not None:
        r += phantoms
    return tokens, trials, s, r


def _weighted_budgeted(prior, c, n, rng, L: int, R: float, pooled: bool = False) -> BatchWeighted:
    """``_budgeted`` at (L, R), over chunked pools if ``pooled`` (gawrs), with each run's estimate.

    Stopped on the (L+1)-th acceptance, as every run is at R = inf (wrs):
    zhat = L / (r + L). Stopped on the R-th rejection:
    zhat = s / (R + s - 1), which is 0 when nothing was accepted (the R=1,
    s=0 corner is 0/0 -> 0). Both are the Rao-Blackwellization of
    1[first draw valid] given the stopped counts (s, r); see the tests for
    the exact enumeration.
    """
    if pooled:
        tokens, trials, s, r = _chunked(lambda rem, *run: _budgeted(prior, *run, L, R, rem), prior, c, n, rng)
    else:
        tokens, trials, s, r = _budgeted(prior, c, n, rng, L, R)
    assert np.all(r <= R) and np.all(s <= L + 1)
    zhats = np.where(s == L + 1, L / (r + L), np.where(s > 0, s / np.maximum(R + s - 1.0, 1.0), 0.0))
    return BatchWeighted(tokens=tokens, zhats=zhats, trials=trials)


def rs_batch(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator) -> BatchTokens:
    """Draw from the prior until the constraint accepts, per run.

    The budgeted loop at (L, R) = (0, inf): there is deliberately no
    iteration cap (bounding cost is the job of the budgeted variants); at
    z = 0 it raises NoValidToken after V rounds.
    """
    tokens, trials, _, _ = _budgeted(prior, c, n, rng, 0, math.inf)
    return BatchTokens(tokens=tokens, trials=trials)


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

    The budgeted loop at (L, inf): ``cwrs_batch`` with no budget. The
    accepted token of the first loop is returned. With ``nrej`` total
    rejections, ``zhat = L / (nrej + L)``, the minimum-variance unbiased
    estimator of z for the induced negative-binomial trial count. At z = 0
    it raises NoValidToken after V rounds.
    """
    check_knobs(extra_loops=extra_loops)
    return _weighted_budgeted(prior, c, n, rng, int(extra_loops), math.inf)


# ---------------------------------------------------------------------------
# Rejection sampling without replacement: ars, awrs and cawrs


def _valid_point(c, cand, total, L):
    """Every run of ``_adaptive`` over a point mass whose token, drawn as ``cand``, round 1 found valid.

    Each later round would draw the same token, with no uniform, and accept
    it, so every run ends at round L + 1 with nothing removed: the L more
    evaluations are made and counted as the rounds would make them, and
    zhat is the pool mass over one rejection-free count, ``total`` (0 at
    L = 0, which keeps no weight).
    """
    for _ in range(L):
        c.evaluate_many(cand)
    n = cand.shape[0]
    return cand, np.full(n, total if L else 0.0), np.full(n, L + 1, dtype=np.int64)


def _adaptive(rem, c, n, rng, L, theta0=math.inf, theta1=math.inf):
    """Draw from a pool that loses each rejected token, per run, until L + 1 acceptances.

    ``L`` is 0 (the first acceptance ends the run) or 1 (a second loop
    continues from the depleted pool, the accepted token left in it, to its
    own acceptance). A finite ``theta0`` clips the process: a first loop
    whose removed mass passes ``theta0`` makes one probe draw, which ends
    the run dead if invalid and else starts a boosted second loop; a second
    loop also ends once the removed mass passes ``theta1``; and a first
    loop that rejects every positive-mass token ends dead. Unclipped, a run
    whose pool runs out raises NoValidToken. Returns per run the first
    accepted token (the last draw of a dead run), ``zhat`` and the
    constraint evaluations.

    A round does only the work it needs: it updates the pools only if a
    draw was rejected, records first acceptances only while some running
    run is in its first loop, and records trials and drops runs only if
    some run stops. A pool over a point mass whose token round 1 finds
    valid ends there: ``_valid_point`` makes the L evaluations left and
    returns what the rounds would. An invalid point mass takes the loop.
    """
    tokens = np.empty(n, dtype=np.int64)
    trials = np.empty(n, dtype=np.int64)
    # The pool mass when the first loop ends.
    left0 = np.zeros(n)
    alive = np.arange(n)
    # Whether each running run is in its second loop, aligned with ``alive``,
    # and how many running runs are in their first. Unclipped, ``second`` is
    # read and kept only while some but not all running runs are in their
    # first loop; otherwise it is all False or all True.
    # A running run draws once per round, so its trials are the round it ends in.
    second = np.zeros(n, dtype=bool)
    in_first = n
    clipped = theta0 < math.inf
    if clipped:
        # Unclipped, a run ends on its (L + 1)-th acceptance, so its
        # rejections are its trials minus L + 1; clipped runs count theirs.
        nrej = np.zeros(n, dtype=np.int64)
        # The factor on zhat: one plus the second-loop rejections after a
        # valid probe, 0 for a dead run.
        boost = np.ones(n)
        # Whether the run's first loop passed theta0: it probes next, or
        # its second loop is boosted.
        crossed = np.zeros(n, dtype=bool)
        npos = int(np.count_nonzero(rem.probs > 0))
    rounds = 0
    while alive.size:
        cand = rem.draw(alive, rng)
        ok = c.evaluate_many(cand)
        rounds += 1
        size, firsts = alive.size, in_first
        nok = int(np.count_nonzero(ok))
        if rounds == 1 and nok == n and rem.prior._point >= 0:
            return _valid_point(c, cand, rem.prior.total, L)
        rej = ~ok
        if clipped and firsts:
            # A probe is not removed: an invalid one ends its run dead.
            probing = crossed & ~second
            dead = probing & rej
            rej &= ~probing
        if nok < size:
            rows = alive[rej]
            rem.add(rows, cand[rej])
            if clipped:
                nrej[rows] += 1
                boost[alive[rej & crossed]] += 1.0
        if clipped:
            mass = rem.removed_mass(alive)
        nfirst = 0
        if firsts:
            # The first acceptance, or a valid probe, keeps its token; acceptances
            # are not removed, so the token stays in the second loop's pool.
            first = ok if firsts == size else ok & ~second
            at = alive[first]
            tokens[at] = cand[first]
            nfirst = at.size
            if clipped:
                cross = rej & ~second & (mass > theta0)
                # Rejecting every positive-mass token leaves no pool to probe
                # (z = 0): the run ends dead on its last rejection.
                dead |= rej & ~second & (nrej[alive] == npos)
                tokens[alive[dead]] = cand[dead]
                boost[alive[dead]] = 0.0
                at = alive[(first & ~crossed) | cross]
                crossed = crossed | cross
                in_first -= int(np.count_nonzero(dead))
            in_first -= nfirst
            # A run whose first loop ends this round records its pool mass.
            if L and at.size:
                left0[at] = rem.left(at)
        if clipped:
            # A probe that starts the second loop past theta1 ends it at once.
            stop = (ok & second) | ((second | ok) & (mass > theta1))
            if firsts:
                stop |= dead
            nstop = int(np.count_nonzero(stop))
        else:
            # Unclipped, each acceptance but a first one ends its run.
            nstop = nok - nfirst if L else nok
        if nstop == size:
            trials[alive] = rounds
            break
        keep = None
        if nstop:
            if not clipped:
                stop = ok & second if L and firsts else ok
            trials[alive[stop]] = rounds
            keep = ~stop
            alive = alive[keep]
            if clipped:
                crossed = crossed[keep]
        if clipped or 0 < in_first < alive.size:
            second = ok if firsts == size else second | ok
            if keep is not None:
                second = second[keep]
    if clipped:
        return tokens, boost * (left0 / (nrej + 1.0)), trials
    # At L = 0 the run keeps no weight: left0 is never set and zhat is 0.
    return tokens, left0 / (trials - L), trials


def ars_batch(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator) -> BatchTokens:
    """Adaptive rejection sampling: rejected tokens are never redrawn.

    The without-replacement loop at L = 0. Exact posterior samples in at
    most (#invalid tokens) + 1 constraint evaluations per run.
    """
    tokens, _, trials = _chunked(_adaptive, prior, c, n, rng, 0)
    return BatchTokens(tokens=tokens, trials=trials)


def awrs_batch(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator) -> BatchWeighted:
    """Adaptive weighted rejection sampling.

    The without-replacement loop at L = 1. Loop one samples without
    replacement of rejected tokens until a token is accepted; loop two
    continues from the same depleted pool (with the accepted token put
    back) until it finds another acceptance. With ``total`` the prior's
    summed mass (1 up to rounding), ``psi0`` the prior mass rejected in
    loop one and ``nrej`` the unique rejections across both loops,
    ``zhat = (total - psi0) / (nrej + 1)`` is an unbiased estimate of z,
    and the returned token is exactly posterior distributed. Per loop the
    trial count never exceeds one plus the number of invalid tokens.
    """
    return BatchWeighted(*_chunked(_adaptive, prior, c, n, rng, 1))


def cawrs_batch(
    prior: Categorical,
    c: TokenConstraint,
    n: int,
    rng: np.random.Generator,
    theta0: float = 0.25,
    theta1: float = 0.75,
) -> BatchWeighted:
    """Adaptive weighted rejection sampling with rejected-mass clipping.

    The without-replacement loop at L = 1, clipped at (theta0, theta1).
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
    check_knobs(theta0=theta0, theta1=theta1)
    return BatchWeighted(*_chunked(_adaptive, prior, c, n, rng, 1, theta0, theta1))


# ---------------------------------------------------------------------------
# Clipped weighted rejection sampling (call-budget early stop)


def cwrs_batch(
    prior: Categorical,
    c: TokenConstraint,
    n: int,
    rng: np.random.Generator,
    extra_loops: int = 1,
    budget: int = 8,
) -> BatchWeighted:
    """Weighted rejection sampling stopped at a rejection budget.

    The budgeted loop at (L, R): draw with replacement until either L + 1
    acceptances or R = budget rejections have been seen, so no run ever exceeds R failed plus L + 1
    passed constraint calls. Returns the first accepted token, or the
    first draw with ``zhat = 0`` when nothing was accepted. ``zhat`` stays
    unbiased for z under the stopped counts.
    """
    check_knobs(extra_loops=extra_loops, budget=budget)
    return _weighted_budgeted(prior, c, n, rng, int(extra_loops), int(budget))


# ---------------------------------------------------------------------------
# Geometric adaptive weighted rejection sampling


def gawrs_batch(
    prior: Categorical,
    c: TokenConstraint,
    n: int,
    rng: np.random.Generator,
    extra_loops: int = 1,
    budget: int = 8,
) -> BatchWeighted:
    """Budgeted rejection sampling, adaptive via phantom-rejection counts.

    The budgeted loop at (L, R) over a pool: it runs the with-replacement
    process of ``cwrs_batch``, but a rejected token leaves the run's pool
    and is never redrawn; each round counts the redraws it would have hit
    by one geometric draw, charged to the budget without constraint calls.
    Same estimator and the same R-failed / L+1-passed call cap, with far
    fewer calls when much mass is already removed.
    """
    check_knobs(extra_loops=extra_loops, budget=budget)
    return _weighted_budgeted(prior, c, n, rng, int(extra_loops), int(budget), pooled=True)


# ---------------------------------------------------------------------------
# Recursive adaptive weighted rejection sampling


def _rawrs(rem, c, n, rng, R):
    """Scan each run's pool until an acceptance or R checks, then probe the accepted runs once.

    Every running run has rejected all its draws but the last, so at round
    k it has spent k checks and rejected k - 1 tokens. Every run still
    running at round ``min(R, npos)``, npos the count of positive-mass
    tokens, ends there: dead if it rejects, with no probe if it accepts.
    A run that accepts earlier takes the pool mass at acceptance as its
    estimate, removes the accepted token from its pool, and probes that
    pool after the scan.
    """
    last = min(R, int(np.count_nonzero(rem.probs > 0)))
    tokens = np.empty(n, dtype=np.int64)
    zhats = np.zeros(n)
    trials = np.empty(n, dtype=np.int64)
    probe = np.zeros(n, dtype=bool)
    alive = np.arange(n)
    rounds = 0
    while alive.size:
        cand = rem.draw(alive, rng)
        ok = c.evaluate_many(cand)
        rounds += 1
        acc = alive[ok]
        zhats[acc] = rem.left(acc)
        if rounds == last:
            tokens[alive] = cand
            trials[alive] = rounds
            break
        tokens[acc] = cand[ok]
        trials[acc] = rounds
        probe[acc] = True
        rem.add(alive, cand)
        alive = alive[~ok]
    rows = np.flatnonzero(probe)
    if rows.size:
        ok = c.evaluate_many(rem.draw(rows, rng))
        trials[rows] += 1
        rows = rows[~ok]
        zhats[rows] = rem.probs[tokens[rows]]
    return tokens, zhats, trials


def rawrs_batch(
    prior: Categorical,
    c: TokenConstraint,
    n: int,
    rng: np.random.Generator,
    budget: int = 8,
) -> BatchWeighted:
    """Without-replacement scan with a recursive conditional-mass estimate.

    Scans a without-replacement sequence until the first acceptance or
    until R = budget tokens have been checked. The recursive estimate,
    the prior's total times the product of ``1 - q`` over the rejections
    (``q`` a draw's probability given the pool it was drawn from),
    telescopes to the pool mass left after them. A run rejected at check
    R, or that has rejected every positive-mass token, is dead
    (``zhat = 0``). An acceptance at check R, or of the pool's last
    positive-mass token, gives the pool mass at acceptance. An earlier
    acceptance spends one probe draw from the pool left without the
    accepted token: a valid probe gives the pool mass at acceptance, an
    invalid one the accepted token's prior mass (its ``q`` times that pool
    mass). At most R scan evaluations plus one probe per run.
    """
    check_knobs(budget=budget)
    R = int(budget)
    tokens, zhats, trials = _chunked(_rawrs, prior, c, n, rng, R)
    assert np.all(trials <= R + 1)
    return BatchWeighted(tokens=tokens, zhats=zhats, trials=trials)


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
