"""Sequential Monte Carlo over toy language models.

Two engines share one loop. The twist engine proposes tokens straight
from the model and multiplies weights by the 0/1 constraint indicator.
The properly-weighted-proposal engine draws (token, weight) pairs from a
weighted rejection sampler whose weight is an unbiased estimate of the
local valid mass; multiplying those estimates into the particle weight
keeps the ensemble unbiased for the global satisfaction probability g
while sampling tokens exactly from the locally constrained posterior.

The population is three arrays: an int node id per particle, its
weight and an active flag. A node indexes a per-run table of prefix
strings, and particles with equal prefixes share one node: a node is
extended at one step only, once per distinct token, so no prefix is
ever built twice. At every step the live particles are grouped by node
with one stable sort: their next-token law and local constraint depend
on the prefix alone, so each group costs one model call, one constraint
derivation and one batch proposal call for all of its particles, and
the particle work between those calls is array operations. Resampling
copies node ids. The group of rank r in sorted-prefix order at step t
draws from the counter-based stream (seed, 0, t, r), its rows in
ascending order, so results depend on the seed only, never on hash,
iteration or node order. Resampling draws from the separate stream
(seed, 1).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .constraints import TokenConstraint
from .dist import Categorical, sample, sample_many
from .errors import AllDead, DeadPrefix, NoValidToken
from .oracle import token_mask
from .rng import make_rng
from .samplers import (
    SamplerConfig,
    ars_batch,
    awrs_batch,
    cawrs_batch,
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
    "lcd_generate",
    "DEFAULT_MAX_STEPS",
]

DEFAULT_MAX_STEPS = 64


@dataclass(slots=True)
class Particle:
    """One particle's string and weight (zero unless it completed a string)."""

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
        """The population as Particle records, built on each read."""
        return [Particle(s, w) for s, w in zip(self.prefixes, self.weights.tolist())]

    @property
    def eval_count(self) -> int:
        return sum(self.eval_counts)


def ess(weights) -> float:
    """Effective sample size W^2 / sum(w^2); in [1, N] when any w > 0."""
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    sq = float(np.sum(w * w))
    if sq <= 0.0:
        raise AllDead("all weights are zero")
    return total * total / sq


def _normalized(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    if total <= 0.0:
        raise AllDead("cannot resample an all-dead population")
    return w / total


def resample_multinomial(weights, rng: np.random.Generator) -> np.ndarray:
    """N independent ancestor indices drawn proportional to weight."""
    p = _normalized(weights)
    n = p.shape[0]
    return rng.choice(n, size=n, p=p)


def resample_stratified(weights, rng: np.random.Generator) -> np.ndarray:
    """Ancestor indices from one uniform per stratum of the cumulative weights.

    Copy counts are within one of their expectations N * w_i / W, unlike
    the multinomial scheme.
    """
    p = _normalized(weights)
    n = p.shape[0]
    u = (np.arange(n) + rng.random(n)) / n
    return np.minimum(np.searchsorted(np.cumsum(p), u, side="right"), n - 1)


_RESAMPLERS = {
    "multinomial": resample_multinomial,
    "stratified": resample_stratified,
}

# A proposal maps (prior, constraint, n, rng) to n tokens and n weights;
# each (token, weight) row is properly weighted for the unnormalized local
# target prior * c. It may raise NoValidToken when z = 0.
Proposal = Callable[[Categorical, TokenConstraint, int, np.random.Generator], tuple[np.ndarray, np.ndarray]]


def _exact(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator):
    local = token_mask(prior, c)
    return sample_many(local.post, n, rng), np.full(n, local.z)


# Weighted batch kernels by proposal name, with the SamplerConfig fields
# each one takes.
_KERNELS = {
    "awrs": (awrs_batch, ()),
    "wrs": (wrs_batch, ("extra_loops",)),
    "cawrs": (cawrs_batch, ("theta0", "theta1")),
    "cwrs": (cwrs_batch, ("extra_loops", "budget")),
    "gawrs": (gawrs_batch, ("extra_loops", "budget")),
    "rawrs": (rawrs_batch, ("budget",)),
}


def weighted_proposal(name: str, **params) -> Proposal:
    """Build a properly weighted batch proposal by sampler name.

    ``exact`` computes the local posterior by full token masking, once per
    call, and returns the true z as every row's weight; the rest run the
    named ``*_batch`` sampler and return its unbiased estimates. ``params``
    are SamplerConfig fields; each sampler reads the ones it takes.
    """
    if name == "exact":
        return _exact
    try:
        kernel, keys = _KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown proposal {name!r}; choices: {sorted([*_KERNELS, 'exact'])}") from None
    config = SamplerConfig(**params)
    kwargs = {key: getattr(config, key) for key in keys}

    def propose(prior, c, n, rng):
        out = kernel(prior, c, n, rng, **kwargs)
        return out.tokens, out.zhats

    return propose


def _twist(prior: Categorical, c: TokenConstraint, n: int, rng: np.random.Generator):
    tokens = sample_many(prior, n, rng)
    return tokens, c.evaluate_many(tokens).astype(np.float64)


def _finalize(
    strings: list[str], node: np.ndarray, weights: np.ndarray, eval_counts: list[int], steps: int
) -> Ensemble:
    """The ensemble of particles ``strings[node[i]]`` with ``weights[i]``."""
    total = math.fsum(weights.tolist())
    post: dict[str, float] = {}
    if total > 0:
        # bincount adds each node's terms in row order, as a running sum would.
        sums = np.bincount(node, weights / total, minlength=len(strings))
        post = {strings[k]: float(sums[k]) for k in np.flatnonzero(sums > 0).tolist()}
    return Ensemble(
        prefixes=[strings[k] for k in node.tolist()],
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
    max_steps: int,
    resample: str,
) -> Ensemble:
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    resampler = _RESAMPLERS[resample]
    n = n_particles
    # Particle i holds the prefix strings[node[i]].
    strings = [""]
    node = np.zeros(n, dtype=np.int64)
    weights = np.full(n, 1.0 if family.is_valid_prefix("") else 0.0)
    active = np.ones(n, dtype=bool)
    resample_rng = make_rng(seed, 1)
    eval_counts: list[int] = []
    steps = 0

    while steps < max_steps:
        # Dead particles are not worth extending; resampling will replace them.
        active &= weights > 0.0
        if not active.any():
            break
        before = family.counter.count
        live = np.flatnonzero(active)
        # A stable sort by node groups the live rows, each group ascending.
        by_node = live[np.argsort(node[live], kind="stable")]
        keys = node[by_node]
        groups = np.split(by_node, np.flatnonzero(keys[1:] != keys[:-1]) + 1)
        groups.sort(key=lambda rows: strings[node[rows[0]]])
        for rank, rows in enumerate(groups):
            prefix = strings[node[rows[0]]]
            prior = lm.next_dist(prefix)
            c = family.constraint_at(prefix)
            try:
                tokens, w = proposal(prior, c, rows.shape[0], make_rng(seed, 0, steps, rank))
            except NoValidToken:
                weights[rows] = 0.0
                active[rows] = False
                continue
            weights[rows] *= w
            tokens = np.asarray(tokens)
            ended = tokens == lm.eos
            active[rows[ended]] = False
            # One child node per distinct token, numbered in token order through
            # a token table: on a1_pwp, np.unique here cost 5% of draws_per_s.
            # The table is O(V), as the group's next-token row already is.
            grown = tokens[~ended]
            child = np.zeros(prior.vocab_size, dtype=np.int64)
            child[grown] = 1
            distinct = np.flatnonzero(child)
            child[distinct] = np.arange(len(strings), len(strings) + distinct.shape[0])
            node[rows[~ended]] = child[grown]
            strings.extend(prefix + lm.alphabet[t] for t in distinct.tolist())
        steps += 1
        eval_counts.append(family.counter.count - before)

        total = float(weights.sum())
        if total <= 0.0:
            raise AllDead(f"all {n} particles died at step {steps}")
        # Strict inequality: ties at tau * N do not trigger a resample.
        if ess(weights) < tau * n:
            idx = resampler(weights, resample_rng)
            node = node[idx]
            active = active[idx]
            weights = np.full(n, total / n)

    # Particles still active ran into the step cutoff without end-of-string.
    weights[active] = 0.0
    if float(weights.sum()) <= 0.0:
        raise AllDead("no particle completed a string within the step limit")
    return _finalize(strings, node, weights, eval_counts, steps)


def smc_twist(
    lm: ToyLM,
    family,
    n_particles: int,
    tau: float = 0.5,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    resample: str = "multinomial",
) -> Ensemble:
    """SMC with the raw model as proposal and the constraint as twist.

    Tokens are proposed from the unconstrained model; a particle's weight
    is multiplied by the 0/1 indicator that its extended prefix (or, on
    end-of-string, the complete string) still satisfies the constraint.
    """
    return _run_smc(lm, family, _twist, n_particles, tau, seed, max_steps, resample)


def smc_pwp(
    lm: ToyLM,
    family,
    proposal: Proposal | str = "awrs",
    n_particles: int = 100,
    tau: float = 0.5,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
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
    ``proposal`` is a sampler name for ``weighted_proposal`` or a batch
    ``Proposal`` callable.
    """
    if isinstance(proposal, str):
        proposal = weighted_proposal(proposal, **proposal_params)
    return _run_smc(lm, family, proposal, n_particles, tau, seed, max_steps, resample)


def importance_sample(lm: ToyLM, family, n: int, seed: int = 0) -> Ensemble:
    """Independent locally-constrained rollouts with cumulative-mass weights.

    Every step samples the exact local posterior via token masking and
    multiplies the local valid mass z into the rollout's weight, so the
    mean weight estimates g and the reweighted ensemble estimates the
    global posterior.
    """
    if n < 1:
        raise ValueError("need at least one rollout")
    eval_before = family.counter.count
    index: dict[str, int] = {}
    node, weights = [], []
    for i in range(n):
        rng = make_rng(seed, 0, i)
        prefix, w = "", 1.0
        while True:
            local = token_mask(lm.next_dist(prefix), family.constraint_at(prefix))
            w *= local.z
            token = sample(local.post, rng)
            if token == lm.eos:
                break
            prefix += lm.alphabet[token]
        node.append(index.setdefault(prefix, len(index)))
        weights.append(w)
    eval_counts = [family.counter.count - eval_before]
    return _finalize(list(index), np.array(node), np.array(weights), eval_counts, steps=1)


def sample_verify(lm: ToyLM, verifier, n: int, seed: int = 0) -> Ensemble:
    """Unconstrained rollouts kept or discarded by a whole-string check.

    ``verifier`` is a callable str -> bool (a TrieLanguage works via its
    membership test). Raises AllDead if every rollout fails.
    """
    if n < 1:
        raise ValueError("need at least one rollout")
    check = verifier if callable(verifier) else lambda s: s in verifier
    index: dict[str, int] = {}
    node, weights = [], []
    for i in range(n):
        rng = make_rng(seed, 0, i)
        prefix = ""
        while True:
            token = sample(lm.next_dist(prefix), rng)
            if token == lm.eos:
                break
            prefix += lm.alphabet[token]
        node.append(index.setdefault(prefix, len(index)))
        weights.append(1.0 if check(prefix) else 0.0)
    if not any(weights):
        raise AllDead(f"none of {n} rollouts satisfied the constraint")
    return _finalize(list(index), np.array(node), np.array(weights), [], steps=1)


def lcd_generate(
    lm: ToyLM,
    family,
    rng: np.random.Generator,
    sampler: str = "ars",
) -> str:
    """One unweighted rollout from the locally constrained distribution.

    ``sampler`` picks how each step draws from the local posterior:
    ``ars`` (adaptive rejection sampling, few constraint calls) or
    ``mask`` (full token masking). Both sample the identical distribution.
    Raises DeadPrefix if a step has no valid token.
    """
    if sampler not in ("ars", "mask"):
        raise ValueError("sampler must be 'ars' or 'mask'")
    prefix = ""
    while True:
        prior = lm.next_dist(prefix)
        c = family.constraint_at(prefix)
        try:
            if sampler == "ars":
                token = int(ars_batch(prior, c, 1, rng).tokens[0])
            else:
                token = sample(token_mask(prior, c).post, rng)
        except NoValidToken as e:
            raise DeadPrefix(f"no valid continuation of {prefix!r}") from e
        if token == lm.eos:
            return prefix
        prefix += lm.alphabet[token]
