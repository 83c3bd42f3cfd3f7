"""Exact trace enumeration for the weighted samplers.

These are independent reference implementations: each one walks the full
tree of possible draws of a sampler's defining process on a tiny
instance, recording every trace's probability, returned token, weight and
constraint-call count. They never call the library kernels, so agreement
between the two is evidence, not tautology.

All enumerators return a list of (probability, token, zhat, calls)
tuples whose probabilities sum to one. Pool masses are summed from the
surviving tokens, so priors that sum to 1 only within tolerance, and
pools far smaller than the rounding error of 1, are handled exactly.

``support`` enumerates a model's whole support with
``zest.oracle.global_posterior``, and ``likeliest`` ranks it.
``FixedUniforms`` stands in for a generator whose uniforms a test picks,
and ``Walk`` runs a program once per sequence of random choices it can make.
``tv`` is the total variation distance between two estimated or exact
distributions given as dicts. ``within_z`` checks an estimate against its
exact value at a stated false-alarm rate.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm

from zest.constraints import DfaPattern
from zest.oracle import global_posterior

Trace = tuple[float, int, float, int]


def support(lm) -> dict[str, float]:
    """Every string the model can produce and its probability, in string order.

    The oracle conditions on the one-state automaton that accepts everything.
    """
    everything = DfaPattern(["q"], lm.alphabet, {"q": {ch: "q" for ch in lm.alphabet}}, ["q"])
    return global_posterior(lm, everything).dist


def likeliest(lm, k: int) -> list[str]:
    """The model's ``k`` most probable strings; equal ones in string order."""
    probs = support(lm)
    return sorted(probs, key=lambda s: -probs[s])[:k]


def _pool_mass(probs, removed: frozenset) -> float:
    return sum(p for i, p in enumerate(probs) if i not in removed and p > 0)


def _restricted(probs, removed: frozenset) -> list[tuple[int, float]]:
    total = _pool_mass(probs, removed)
    return [(i, p / total) for i, p in enumerate(probs) if i not in removed and p > 0]


def enumerate_awrs(probs, valid) -> list[Trace]:
    """Two without-replacement loops; zhat = left0 / (nrej + 1).

    left0 is the pool mass at the first acceptance (total - psi0).
    """
    out: list[Trace] = []

    def loop2(path_p, removed, left0, nrej, token, calls):
        for tok, q in _restricted(probs, removed):
            p = path_p * q
            if valid[tok]:
                out.append((p, token, left0 / (nrej + 1), calls + 1))
            else:
                loop2(p, removed | {tok}, left0, nrej + 1, token, calls + 1)

    def loop1(path_p, removed, nrej, calls):
        for tok, q in _restricted(probs, removed):
            p = path_p * q
            if valid[tok]:
                loop2(p, removed, _pool_mass(probs, removed), nrej, tok, calls + 1)
            else:
                loop1(p, removed | {tok}, nrej + 1, calls + 1)

    loop1(1.0, frozenset(), 0, 0)
    return out


def enumerate_cawrs(probs, valid, theta0, theta1) -> list[Trace]:
    """Mass-clipped variant with the overflow probe."""
    out: list[Trace] = []

    def second(path_p, removed, left0, n0, n1, token, boosted, calls):
        mass = sum(probs[i] for i in removed)
        for tok, q in _restricted(probs, removed):
            p = path_p * q
            n = n0 + n1
            if valid[tok]:
                z = left0 / (n + 1)
                out.append((p, token, (n1 + 1) * z if boosted else z, calls + 1))
            else:
                new_mass = mass + probs[tok]
                if new_mass > theta1:
                    z = left0 / (n + 2)
                    out.append((p, token, (n1 + 2) * z if boosted else z, calls + 1))
                else:
                    second(p, removed | {tok}, left0, n0, n1 + 1, token, boosted, calls + 1)

    def probe(path_p, removed, left0, n0, calls):
        for tok, q in _restricted(probs, removed):
            p = path_p * q
            if valid[tok]:
                # Already past theta1: the second loop is stopped before it draws.
                if sum(probs[i] for i in removed) > theta1:
                    out.append((p, tok, left0 / (n0 + 1), calls + 1))
                else:
                    second(p, removed, left0, n0, 0, tok, True, calls + 1)
            else:
                out.append((p, tok, 0.0, calls + 1))

    def first(path_p, removed, psi0, n0, calls):
        for tok, q in _restricted(probs, removed):
            p = path_p * q
            if valid[tok]:
                second(p, removed, _pool_mass(probs, removed), n0, 0, tok, False, calls + 1)
            else:
                new_psi = psi0 + probs[tok]
                new_removed = removed | {tok}
                if new_psi > theta0:
                    probe(p, new_removed, _pool_mass(probs, new_removed), n0 + 1, calls + 1)
                else:
                    first(p, new_removed, new_psi, n0 + 1, calls + 1)

    first(1.0, frozenset(), 0.0, 0, 0)
    return out


def _budget_estimate(s, r, L, R):
    if s == L + 1:
        return L / (r + L)
    if s == 0:
        return 0.0
    return s / (R + s - 1.0)


def enumerate_cwrs(probs, valid, L, R) -> list[Trace]:
    """With-replacement draws stopped at L+1 passes or R failures."""
    out: list[Trace] = []

    def step(path_p, s, r, first_tok, x1, calls):
        for tok, q in enumerate(probs):
            if q <= 0:
                continue
            p = path_p * q
            tok_x1 = tok if x1 is None else x1
            if valid[tok]:
                ft = tok if first_tok is None else first_tok
                if s + 1 == L + 1:
                    out.append((p, ft, _budget_estimate(s + 1, r, L, R), calls + 1))
                else:
                    step(p, s + 1, r, ft, tok_x1, calls + 1)
            else:
                if r + 1 == R:
                    token = first_tok if first_tok is not None else tok_x1
                    out.append((p, token, _budget_estimate(s, r + 1, L, R), calls + 1))
                else:
                    step(p, s, r + 1, first_tok, tok_x1, calls + 1)

    step(1.0, 0, 0, None, None, 0)
    return out


def enumerate_gawrs(probs, valid, L, R) -> list[Trace]:
    """Budgeted adaptive variant with geometric phantom-rejection counts.

    Phantom counts have finite support here because any count that would
    reach the budget is lumped into a single overflow event of probability
    q ** (R - r).
    """
    out: list[Trace] = []

    def step(path_p, removed, s, r, first_tok, x1, calls):
        q_rem = sum(probs[i] for i in removed)
        # Overflow inside the phantom run: stop without evaluating.
        if removed and q_rem > 0:
            p_over = path_p * q_rem ** (R - r)
            if p_over > 0:
                token = first_tok if first_tok is not None else x1
                out.append((p_over, token, _budget_estimate(s, R, L, R), calls))
        for g in range(R - r):
            pg = path_p * (q_rem**g) * (1.0 - q_rem) if q_rem > 0 else (path_p if g == 0 else 0.0)
            if pg <= 0:
                continue
            for tok, q in _restricted(probs, removed):
                p = pg * q
                tok_x1 = tok if x1 is None else x1
                if valid[tok]:
                    ft = tok if first_tok is None else first_tok
                    if s + 1 == L + 1:
                        out.append((p, ft, _budget_estimate(s + 1, r + g, L, R), calls + 1))
                    else:
                        step(p, removed, s + 1, r + g, ft, tok_x1, calls + 1)
                else:
                    if r + g + 1 >= R:
                        token = ft = first_tok if first_tok is not None else tok_x1
                        out.append((p, token, _budget_estimate(s, R, L, R), calls + 1))
                    else:
                        step(p, removed | {tok}, s, r + g + 1, first_tok, tok_x1, calls + 1)

    step(1.0, frozenset(), 0, 0, None, None, 0)
    return out


def enumerate_rawrs(probs, valid, R) -> list[Trace]:
    """Without-replacement scan with the recursive conditional estimate."""
    out: list[Trace] = []

    def probe(path_p, removed, q_n, eta_n, token, calls):
        pool = _restricted(probs, removed)
        if not pool:
            out.append((path_p, token, eta_n, calls))
            return
        for tok, q in pool:
            p = path_p * q
            out.append((p, token, eta_n if valid[tok] else q_n * eta_n, calls + 1))

    def scan(path_p, removed, eta, nsteps, calls):
        denom = _pool_mass(probs, removed)
        for tok, q in _restricted(probs, removed):
            p = path_p * q
            q_i = probs[tok] / denom
            if valid[tok]:
                if nsteps + 1 == R:
                    out.append((p, tok, eta, calls + 1))
                else:
                    probe(p, removed | {tok}, q_i, eta, tok, calls + 1)
            else:
                if nsteps + 1 == R:
                    out.append((p, tok, 0.0, calls + 1))
                else:
                    # 1 - q_i, as a ratio of pool masses.
                    rest = _pool_mass(probs, removed | {tok})
                    scan(p, removed | {tok}, eta * rest / denom, nsteps + 1, calls + 1)

    # eta starts at the prior's total: zhat estimates unnormalized z.
    scan(1.0, frozenset(), _pool_mass(probs, frozenset()), 0, 0)
    return out


def check_total(traces) -> float:
    return float(sum(p for p, *_ in traces))


def expected_weight(traces, token=None) -> float:
    """E[zhat * f(x)] with f an indicator (or constant one)."""
    return float(sum(p * z for p, tok, z, _ in traces if token is None or tok == token))


def expected_calls(traces) -> float:
    return float(sum(p * c for p, _, _, c in traces))


def output_marginals(traces, vocab) -> np.ndarray:
    out = np.zeros(vocab)
    for p, tok, _, _ in traces:
        out[tok] += p
    return out


def tv(a: dict, b: dict) -> float:
    """Total variation distance between two distributions given as {outcome: mass} dicts."""
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


# The two-sided false-alarm rate of ``within_z``: a correct estimator
# fails the check in about one run in a million.
FALSE_ALARM = 1e-6


def within_z(estimate: float, exact: float, se: float) -> bool:
    """Whether ``estimate`` lies within the two-sided normal ``FALSE_ALARM`` quantile of ``exact``.

    ``se`` is the estimate's standard error under a correct estimator, so
    a correct one fails with probability about ``FALSE_ALARM`` (the band
    is 4.9 se); an estimator off by about 5 se or more fails with
    probability about one half or more.
    """
    return abs(estimate - exact) <= norm.isf(FALSE_ALARM / 2.0) * se


class FixedUniforms:
    """A stand-in generator whose ``random(n)`` returns the given uniforms.

    It lets a test put a uniform exactly on a cumulative-mass boundary,
    which a real stream hits with probability about 2^-53.
    """

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n: int) -> np.ndarray:
        assert n == self.u.shape[0], "the test gave a different number of uniforms"
        return self.u.copy()


class Walk:
    """Every run of a program whose random points call ``pick``, depth-first.

    ``pick(probs)`` returns the option the current run takes and multiplies
    its probability into ``prob``. ``runs(program)`` calls ``program()``
    once per distinct sequence of choices and yields ``(prob, result)``;
    the probabilities sum to one. Given the same earlier choices, the
    program must reach the same choice points.
    """

    def __init__(self):
        self._path: list[list[int]] = []  # (option taken, option count) per choice point
        self._depth = 0
        self.prob = 1.0

    def pick(self, probs) -> int:
        if self._depth == len(self._path):
            self._path.append([0, len(probs)])
        taken, count = self._path[self._depth]
        assert count == len(probs), "a replayed choice point offers other options"
        self._depth += 1
        self.prob *= probs[taken]
        return taken

    def runs(self, program):
        while True:
            self._depth, self.prob = 0, 1.0
            result = program()
            assert self._depth == len(self._path), "a replayed run made fewer choices"
            yield self.prob, result
            while self._path and self._path[-1][0] + 1 == self._path[-1][1]:
                self._path.pop()
            if not self._path:
                return
            self._path[-1][0] += 1
