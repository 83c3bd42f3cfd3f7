"""Constrained categorical sampling with unbiased normalizing-mass estimates.

The library provides, at desk scale and with exact reference oracles:

- dense categorical distributions (:mod:`zest.dist`);
- local token constraints with evaluation counting (:mod:`zest.constraints`);
- the family of exact and budgeted weighted rejection samplers
  (:mod:`zest.samplers`);
- exact enumeration oracles over any automaton (:mod:`zest.oracle`) and
  tiny autoregressive models with finite support (:mod:`zest.toylm`);
- sequential Monte Carlo with properly weighted proposals (:mod:`zest.smc`);
- analytic expected-cost laws (:mod:`zest.analytics`) and the batch
  experiment harness (:mod:`zest.simharness`).
"""

from . import analytics, constraints, dist, errors, oracle, rng, samplers, smc, toylm
from .constraints import DfaPattern, TokenConstraint, TrieLanguage
from .dist import Categorical, normalize, sample
from .oracle import LocalPosterior, global_posterior, lcd_distribution, token_mask
from .rng import make_rng
from .samplers import (
    ars_batch,
    awrs_batch,
    cawrs_batch,
    cwrs_batch,
    gawrs_batch,
    rawrs_batch,
    rs_batch,
    top_p_compose,
    wrs_batch,
)
from .smc import Ensemble, Particle, ess, importance_sample, lcd_sample, sample_verify, smc_pwp, smc_twist
from .toylm import ToyLM, example_a1, random_lm

__version__ = "0.1.0"
