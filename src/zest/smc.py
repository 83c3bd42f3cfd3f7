"""Sequential Monte Carlo over toy language models.

Two engines share one loop. The twist engine proposes tokens straight
from the model and multiplies weights by the 0/1 constraint indicator.
The properly-weighted-proposal engine draws (token, weight) pairs from a
weighted rejection sampler whose weight is an unbiased estimate of the
local valid mass; multiplying those estimates into the particle weight
keeps the ensemble unbiased for the global satisfaction probability g
while sampling tokens exactly from the locally constrained posterior.
Two baselines run on the same loop with tau = 0: locally constrained
decoding (``lcd_sample``) proposes exact local-posterior tokens with
weight 1, and ``sample_verify`` proposes raw model tokens with weight 1
and applies its whole-string check once the rollouts finish. Every
method runs each rollout until the model ends it: a ToyLM forces
end-of-string at ``max_len``, so a run takes at most ``max_len + 1``
steps and no rollout is cut short. Every method refuses an automaton
whose alphabet is not the model's, in the model's order (ValueError).

The population is three arrays: an int node id per particle, its
weight and an active flag. A node indexes a per-run table of prefix
strings, and particles with equal prefixes share one node: a node is
extended at one step only, once per distinct token, so no prefix is
ever built twice. At every step the live particles are grouped by node
with one stable sort, each group a slice of the sorted rows, and with
none when the last step made one node, as at the first step: their
next-token law and local constraint depend on the prefix alone, so each
group costs one model call, one constraint derivation and one batch
proposal call for all of its particles, and the particle work between
those calls is array operations. A group whose rollouts all ended makes
no child nodes, and the others number their children in token order, so
node order is token-path order: on an alphabet listed in code-point
order, that is sorted-prefix order. Resampling copies node ids. A run
draws from one counter-based stream, (seed, 0): at each step the groups
draw from it in node order, each its rows in ascending order, and then
the resampler draws, so results depend on the seed only, never on hash
or iteration order. Making a stream costs about 20 us (2-core x86
host), as much as a small group's draws, so a run makes one. Multinomial
resampling is ``Generator.choice``'s draw with its uniforms searched in
sorted order.
The ESS is taken on the weights over their maximum, so weights too small
to square still resample correctly.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .constraints import DfaPattern, TokenConstraint, _check_alphabet
from .dist import Categorical, sample, sample_many
from .errors import AllDead, DeadPrefix, NoValidToken
from .oracle import token_mask
from .rng import make_rng
from .samplers import (
    ars_batch,
    awrs_batch,
    cawrs_batch,
    check_count,
    check_knobs,
    cwrs_batch,
    gawrs_batch,
    rawrs_batch,
    wrs_batch,
)
from .toylm import ToyLM

__all__ = [
    "Particle",
    "Ensemble",
    "Proposal",
    "ess",
    "resample_multinomial",
    "resample_stratified",
    "weighted_proposal",
    "smc_twist",
    "smc_pwp",
    "importance_sample",
    "sample_verify",
    "lcd_sample",
]


@dataclass(slots=True)
class Particle:
    """One particle's string and weight (zero unless it completed a string).

    ``Ensemble.particles`` builds them for the benchmark's draw count.
    """

    prefix: str
    weight: float


@dataclass
class Ensemble:
    """A weighted population of strings and the estimates built from it.

    ``prefixes[i]`` is particle i's string and ``weights[i]`` its weight;
    a particle that did not complete a string has weight zero.
    """

    prefixes: list[str]
    weights: np.ndarray
    g_hat: float
    posterior_estimate: dict[str, float]
    eval_counts: list[int] = field(default_factory=list)
    steps: int = 0

    @property
    def particles(self) -> list[Particle]:
        """The population as Particle records, built on each read, for the benchmark's draw count."""
        return [Particle(s, w) for s, w in zip(self.prefixes, self.weights.tolist())]

    @property
    def eval_count(self) -> int:
        return sum(self.eval_counts)


def ess(weights) -> float:
    """Effective sample size W^2 / sum(w^2); in [1, N] when any w > 0.

    Computed on the weights over their maximum, so weights too small to
    square (below about 1e-154) still give it; raises AllDead only when
    every weight is zero.
    """
    w = np.asarray(weights, dtype=np.float64)
    top = float(w.max())
    if top <= 0.0:
        raise AllDead("all weights are zero")
    w = w / top
    total = float(w.sum())
    return total * total / float((w * w).sum())


def _normalized(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    if total <= 0.0:
        raise AllDead("cannot resample an all-dead population")
    return w / total


def resample_multinomial(weights, rng: np.random.Generator) -> np.ndarray:
    """N independent ancestor indices drawn proportional to weight.

    Returns what ``rng.choice(n, size=n, p=p)`` would, from the same ``n``
    uniforms: the cumulative weights are scaled by their last entry and
    searched to the right of each uniform. The uniforms are searched in
    sorted order, which is faster, and each index goes back to its
    uniform's place. The array methods skip the dispatch of their ``np.``
    functions: 3 us of 47 us at N = 1000 (2-core x86 host).
    """
    p = _normalized(weights)
    n = p.shape[0]
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    order = u.argsort()
    idx = np.empty(n, dtype=np.int64)
    idx[order] = cdf.searchsorted(u[order], side="right")
    return idx


def resample_stratified(weights, rng: np.random.Generator) -> np.ndarray:
    """Ancestor indices from one uniform per stratum of the cumulative weights.

    Copy counts are within one of their expectations N * w_i / W, unlike
    the multinomial scheme.
    """
    p = _normalized(weights)
    n = p.shape[0]
    u = (np.arange(n) + rng.random(n)) / n
    # The last stratum's uniform can round up to 1.0, at or past every
    # cumulative weight: it takes the last particle of positive weight, not
    # a dead one after it.
    return np.minimum(np.searchsorted(np.cumsum(p), u, side="right"), np.flatnonzero(p)[-1])


_RESAMPLERS = {
    "multinomial": resample_multinomial,
    "stratified": resample_stratified,
}

# A proposal maps (prior, constraint, n, rng) to n tokens and n weights;
# each (token, weight) row is properly weighted for the unnormalized local
# target prior * c. It may raise NoValidToken when z = 0.
Proposal = Callable[[Categorical, TokenConstraint, int, np.random.Generator], tuple[np.ndarray, np.ndarray]]


def _exact(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator):
    post, z = token_mask(prior, c)
    return sample_many(post, n, rng), np.full(n, z)


# Weighted batch kernels by proposal name; a kernel's knobs are its
# keyword parameters, with its own defaults. ``exact`` runs no kernel.
_KERNELS = {
    "awrs": awrs_batch,
    "wrs": wrs_batch,
    "cawrs": cawrs_batch,
    "cwrs": cwrs_batch,
    "gawrs": gawrs_batch,
    "rawrs": rawrs_batch,
    "exact": None,
}


def weighted_proposal(name: str, **params) -> Proposal:
    """Build a properly weighted batch proposal by sampler name.

    ``exact`` computes the local posterior by full token masking, once per
    call, and returns the true z as every row's weight; the rest run the
    named ``*_batch`` sampler and return its unbiased estimates. ``params``
    are knobs of that sampler, passed to its kernel; the kernel's defaults
    serve the rest. A knob the sampler does not take, or one out of range,
    raises ValueError here, before any draw.
    """
    try:
        kernel = _KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown proposal {name!r}; choices: {sorted(_KERNELS)}") from None
    if params:
        # Reading a signature costs about 20 us, 1% of a 1000-particle
        # smc_pwp run on example-a1 (2-core x86 host), so a call without
        # knobs skips it.
        knobs = {} if kernel is None else {
            key: p.default for key, p in inspect.signature(kernel).parameters.items() if p.default is not p.empty
        }
        unknown = sorted(set(params) - set(knobs))
        if unknown:
            raise ValueError(f"proposal {name!r} takes no {', '.join(unknown)}")
        check_knobs(**{**knobs, **params})
    if kernel is None:
        return _exact

    def propose(prior, c, n, rng):
        out = kernel(prior, c, n, rng, **params)
        return out.tokens, out.zhats

    return propose


def _twist(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator):
    tokens = sample_many(prior, n, rng)
    return tokens, c.evaluate_many(tokens).astype(np.float64)


def _prior(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator):
    return sample_many(prior, n, rng), np.ones(n)


def _finalize(
    strings: list[str], node: np.ndarray, weights: np.ndarray, eval_counts: list[int], steps: int
) -> Ensemble:
    """The ensemble of particles ``strings[node[i]]`` with ``weights[i]``.

    Every public method ends here, and this is the one place where a
    finished run with no positive weight raises AllDead: such a run counts
    as ``g_hat = 0``, which keeps the mean ``g_hat`` over runs unbiased.
    """
    # Pairwise, so within a few roundings of the exact sum; math.fsum cost
    # 4% of a 1000-particle op on example-a1.
    total = float(weights.sum())
    if total <= 0.0:
        raise AllDead(f"all {node.shape[0]} particles finished with weight zero")
    # bincount adds each node's terms in row order, as a running sum would.
    sums = np.bincount(node, weights / total, minlength=len(strings))
    post = {strings[k]: float(sums[k]) for k in (sums > 0).nonzero()[0].tolist()}
    return Ensemble(
        prefixes=np.array(strings, dtype=object)[node].tolist(),
        weights=weights,
        g_hat=total / node.shape[0],
        posterior_estimate=dict(sorted(post.items())),
        eval_counts=eval_counts,
        steps=steps,
    )


def _run_smc(
    lm: ToyLM,
    family,
    proposal: Proposal,
    n_particles: int,
    tau: float,
    seed: int,
    resample: str,
) -> tuple[list[str], np.ndarray, np.ndarray, list[int], int]:
    """Grow ``n_particles`` rollouts from the empty prefix, ``proposal`` extending each.

    Every rollout runs until it draws end-of-string or dies; the model
    bounds its length (a ToyLM forces end-of-string at ``max_len``).
    Returns the population for ``_finalize``: the prefix table ``strings``,
    each particle's ``node`` in it and ``weights``, the evaluations counted
    at each step, and the step count. Particles that all die at one step
    raise AllDead there; an invalid empty prefix runs no step, and its zero
    weights reach ``_finalize``, which raises. Each public caller checks its
    particle count (``check_count``) under its own argument name.
    """
    _check_alphabet(family, lm.alphabet)
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    resampler = _RESAMPLERS.get(resample)
    if resampler is None:
        raise ValueError(f"unknown resample {resample!r}; choices: {sorted(_RESAMPLERS)}")
    n = n_particles
    # Particle i holds the prefix strings[node[i]].
    strings = [""]
    node = np.zeros(n, dtype=np.int64)
    weights = np.full(n, 1.0 if family.is_valid_prefix("") else 0.0)
    active = np.ones(n, dtype=bool)
    rng = make_rng(seed, 0)
    eval_counts: list[int] = []
    steps = 0
    # The live particles sit on the nodes made at the last step; at the
    # first, on the root alone.
    made = 1

    while True:
        # Dead particles are not worth extending; resampling will replace them.
        active &= weights > 0.0
        live = active.nonzero()[0]
        if not live.size:
            break
        before = family.counter.count
        if made == 1:
            # The live rows, ascending, are the one node's group.
            heads, groups = [int(node[live[0]])], [live]
        else:
            # A stable sort by node groups the live rows, each group ascending.
            # Node ids below 2^16 sort as uint16, by numpy's radix sort: 11 us
            # for 1000 rows rather than 19 us as int64 (2-core x86 host).
            keys = node[live]
            order = (keys.astype(np.uint16) if len(strings) <= 1 << 16 else keys).argsort(kind="stable")
            by_node, keys = live[order], keys[order]
            cuts = ((keys[1:] != keys[:-1]).nonzero()[0] + 1).tolist()
            starts = [0, *cuts]
            heads = keys[starts].tolist()
            groups = [by_node[lo:hi] for lo, hi in zip(starts, [*cuts, by_node.shape[0]])]
        fresh = len(strings)
        # Groups draw in node order, which is token-path order.
        for k, rows in zip(heads, groups):
            prefix = strings[k]
            prior = lm.next_dist(prefix)
            c = family.constraint_at(prefix)
            try:
                tokens, w = proposal(prior, c, rows.shape[0], rng)
            except NoValidToken:
                weights[rows] = 0.0
                active[rows] = False
                continue
            weights[rows] *= w
            tokens = np.asarray(tokens)
            grow = tokens != lm.eos
            growing = np.count_nonzero(grow)
            if growing < rows.shape[0]:
                # Rows that drew end-of-string finish; the rest grow.
                if not growing:
                    active[rows] = False
                    continue
                active[rows[~grow]] = False
                tokens, rows = tokens[grow], rows[grow]
            # One child node per distinct token, numbered in token order through
            # a token table: on a1_pwp, np.unique here cost 5% of draws_per_s.
            # The table is O(V), as the group's next-token row already is.
            child = np.zeros(prior.vocab_size, dtype=np.int64)
            child[tokens] = 1
            distinct = child.nonzero()[0]
            child[distinct] = np.arange(len(strings), len(strings) + distinct.shape[0])
            node[rows] = child[tokens]
            strings.extend(prefix + lm.alphabet[t] for t in distinct.tolist())
        made = len(strings) - fresh
        steps += 1
        eval_counts.append(family.counter.count - before)

        total = float(weights.sum())
        if total <= 0.0:
            raise AllDead(f"all {n} particles died at step {steps}")
        # Strict inequality: ties at tau * N do not trigger a resample, and
        # at tau = 0 nothing does, so the ESS is not taken.
        if tau and ess(weights) < tau * n:
            idx = resampler(weights, rng)
            node = node[idx]
            active = active[idx]
            weights = np.full(n, total / n)

    return strings, node, weights, eval_counts, steps


def smc_twist(
    lm: ToyLM,
    family,
    n_particles: int,
    tau: float = 0.5,
    seed: int = 0,
    resample: str = "multinomial",
) -> Ensemble:
    """SMC with the raw model as proposal and the constraint as twist.

    Tokens are proposed from the unconstrained model; a particle's weight
    is multiplied by the 0/1 indicator that its extended prefix (or, on
    end-of-string, the complete string) still satisfies the constraint.
    """
    n_particles = check_count("n_particles", n_particles, 1)
    return _finalize(*_run_smc(lm, family, _twist, n_particles, tau, seed, resample))


def smc_pwp(
    lm: ToyLM,
    family,
    proposal: Proposal | str = "awrs",
    n_particles: int = 100,
    tau: float = 0.5,
    seed: int = 0,
    resample: str = "multinomial",
    **proposal_params,
) -> Ensemble:
    """SMC whose proposal returns properly weighted (token, weight) pairs.

    Each step multiplies the particle weight by the proposal's weight,
    which for the weighted rejection samplers is an unbiased estimate of
    the local valid mass. The resulting g_hat is unbiased for the global
    satisfaction probability, and the posterior estimate converges to the
    globally conditioned distribution. Proposals returning weight zero
    (clipped variants) yield dead particles that resampling removes; a
    proposal raising NoValidToken kills the particles of its prefix group.
    ``proposal`` is a sampler name for ``weighted_proposal``, which gets
    ``proposal_params``, or a batch ``Proposal`` callable, which takes none.
    """
    n_particles = check_count("n_particles", n_particles, 1)
    if isinstance(proposal, str):
        proposal = weighted_proposal(proposal, **proposal_params)
    elif proposal_params:
        raise ValueError(f"a callable proposal takes no {', '.join(sorted(proposal_params))}")
    return _finalize(*_run_smc(lm, family, proposal, n_particles, tau, seed, resample))


def importance_sample(lm: ToyLM, family, n: int, seed: int = 0) -> Ensemble:
    """Independent locally-constrained rollouts with cumulative-mass weights.

    Every step samples the exact local posterior via token masking and
    multiplies the local valid mass z into the rollout's weight, so the
    mean weight estimates g and the reweighted ensemble estimates the
    global posterior. A rollout that reaches a prefix with no valid mass
    ends there with weight zero; AllDead is raised only if every rollout
    does. The rollouts draw from one stream in turn, so the first N of a
    run of more are a run of N. A run asks ``family.constraint_at`` once
    per distinct prefix and keeps the constraint, so each prefix is walked
    once; every step still evaluates all V tokens.
    """
    n = check_count("n", n, 1)
    _check_alphabet(family, lm.alphabet)
    eval_before = family.counter.count
    index: dict[str, int] = {}
    node, weights = [], []
    constraints: dict[str, TokenConstraint] = {}
    rng = make_rng(seed, 0)
    for _ in range(n):
        prefix, w = "", 1.0
        while True:
            c = constraints.get(prefix)
            if c is None:
                c = constraints[prefix] = family.constraint_at(prefix)
            try:
                post, z = token_mask(lm.next_dist(prefix), c)
            except NoValidToken:
                w = 0.0
                break
            w *= z
            token = sample(post, rng)
            if token == lm.eos:
                break
            prefix += lm.alphabet[token]
        node.append(index.setdefault(prefix, len(index)))
        weights.append(w)
    eval_counts = [family.counter.count - eval_before]
    return _finalize(list(index), np.array(node), np.array(weights), eval_counts, steps=1)


def sample_verify(lm: ToyLM, verifier, n: int, seed: int = 0) -> Ensemble:
    """Unconstrained rollouts kept or discarded by a whole-string check.

    ``verifier`` is a callable str -> bool or a language (any DfaPattern),
    applied once per distinct finished string, in node order. A language's
    check counts one evaluation on its counter, reported in the last step's
    entry of ``eval_counts``; a callable's counts nothing. Raises AllDead if
    every rollout fails.
    """
    n = check_count("n", n, 1)
    _check_alphabet(verifier, lm.alphabet)
    anything = DfaPattern(["q"], lm.alphabet, {"q": {ch: "q" for ch in lm.alphabet}}, ["q"])
    strings, node, weights, eval_counts, steps = _run_smc(lm, anything, _prior, n, 0.0, seed, "multinomial")
    # Every rollout finished with weight 1; the checks are the last step's work.
    done = np.unique(node).tolist()
    kept = np.zeros(len(strings), dtype=bool)
    if callable(verifier):
        kept[done] = [verifier(strings[k]) for k in done]
    else:
        kept[done] = [verifier.accepts(strings[k]) for k in done]
        verifier.counter.add(len(done))
        eval_counts[-1] += len(done)
    weights[~kept[node]] = 0.0
    return _finalize(strings, node, weights, eval_counts, steps)


def lcd_sample(lm: ToyLM, family, n: int, seed: int = 0, sampler: str = "ars") -> Ensemble:
    """Unweighted rollouts from the locally constrained distribution.

    ``sampler`` picks how each step draws from the local posterior:
    ``ars`` (adaptive rejection sampling, few constraint calls) or
    ``mask`` (full token masking). Both sample the identical distribution.
    Every rollout has weight 1, so the posterior estimate is the rollout
    frequencies. Raises DeadPrefix if a step has no valid token.
    """
    n = check_count("n", n, 1)
    if sampler not in ("ars", "mask"):
        raise ValueError("sampler must be 'ars' or 'mask'")
    if not family.is_valid_prefix(""):
        raise DeadPrefix("the empty prefix has no valid continuation")

    def propose(prior, c, m, rng):
        try:
            if sampler == "ars":
                tokens = ars_batch(prior, c, m, rng).tokens
            else:
                tokens = sample_many(token_mask(prior, c)[0], m, rng)
        except NoValidToken as e:
            raise DeadPrefix("a sampled prefix has no valid continuation") from e
        return tokens, np.ones(m)

    return _finalize(*_run_smc(lm, family, propose, n, 0.0, seed, "multinomial"))
