"""Benchmark for zest: timed workloads over the public API, checked against exact oracles.

Usage, from any directory:

    python3 bench/run.py --workload a1_pwp --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 1

The library is imported from the ``src/`` directory beside ``bench/``. One
workload runs in one single-threaded process: it builds its inputs from
``--seed`` (several times, to time set-up), computes the exact references,
then runs its op cycle for ``--seconds`` and checks every op's output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with layer spans on, and reports the per-layer
metrics. ``--workload all`` runs each workload in its own process in turn.
Reported times are scaled by a speed probe timed between op cycles, so
that the shared host's drift in speed cancels; see ``probe``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("a1_pwp", "trie_is", "kernels_v1e5")
SETUP_REPS = 5
CHILD_TIMEOUT_S = 170
# The speed probe's time on the reference machine in its fast state. Every
# reported time is scaled by this over the probe time measured beside it.
PROBE_REF_S = 0.015

END_TO_END = {
    "draws_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "constraint_calls_per_draw": "calls/draw",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span names (also the metric prefixes), and whether the span count is
# reported as ``<name>.count``. The count of ``constraints.eval`` is
# reported as ``constraints.eval.batches``.
SPANS = {
    "smc": False,
    "smc.ess": False,
    "smc.resample": True,
    "rng.make_rng": True,
    "samplers.proposal": True,
    "samplers.batch": True,
    "toylm.next_dist": True,
    "constraints.constraint_at": True,
    "constraints.eval": False,
    "oracle.token_mask": True,
    "dist.sample": True,
}
SAMPLER_NAMES = ("rs", "ars", "wrs", "awrs", "cawrs", "cwrs", "gawrs", "rawrs")
Z_LABELS = ("1e-2", "1e-1", "9e-1")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for span, counted in SPANS.items():
        if counted:
            units[f"{span}.count"] = "count"
        units[f"{span}.self_s"] = "s"
    units["constraints.eval.batches"] = "count"
    units["constraints.eval.tokens"] = "count"
    units["smc.steps"] = "count"
    units["smc.groups_per_step"] = "ratio"
    units["smc.tv_to_exact_p50"] = "frac"
    units["smc.log_ghat_err_p50"] = "nat"
    for name in SAMPLER_NAMES:
        for z in Z_LABELS:
            units[f"samplers.{name}.z{z}.us_per_draw"] = "us"
            units[f"samplers.{name}.z{z}.calls_per_draw"] = "calls/draw"
            if name in ("rs", "wrs", "awrs"):
                units[f"samplers.{name}.z{z}.calls_vs_analytic"] = "ratio"
        if name not in ("rs", "ars"):
            units[f"samplers.{name}.dead_frac"] = "frac"
        units[f"samplers.{name}.trials_max"] = "count"
    units["trace.overhead_frac"] = "frac"
    units["trace.self_sum_frac"] = "frac"
    return units


def import_zest():
    """Import zest from ``src/``, and exit if it is missing or found elsewhere."""
    if not (SRC / "zest" / "__init__.py").is_file():
        sys.exit(f"bench: no zest sources at {SRC / 'zest'}")
    sys.path.insert(0, str(SRC))
    import zest

    if Path(zest.__file__).resolve().parent != (SRC / "zest").resolve():
        sys.exit(f"bench: imported zest from {zest.__file__}, not from {SRC}")


def fresh_import_s() -> float:
    """Time ``import zest`` in a fresh interpreter, which waits for it to exit.

    An import can be timed only once per process, and one import is too
    short to time steadily, so set-up takes the median of several.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import zest; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


_PROBE_DATA = None


def probe() -> float:
    """Time a fixed piece of Python and numpy work that does not use zest.

    The shared host's speed drifts by up to half over tens of seconds, and
    the probe slows with it. It runs between op cycles, outside their timed
    regions. Its three parts take about equal time: numpy calls on a
    3-element array, as the engines make per particle; building and sorting
    a dict of small lists; and cumulative and masked sums over 1e5 floats.
    """
    global _PROBE_DATA
    import numpy as np

    if _PROBE_DATA is None:
        rng = np.random.default_rng(0)
        _PROBE_DATA = rng.random(3), rng.random(100_000)
    small, large = _PROBE_DATA
    t0 = time.perf_counter()
    for _ in range(1300):
        x = small / small.sum()
        np.cumsum(x)
        x.argmax()
    table = {}
    for i in range(8000):
        table[i * 7919 % 10007] = [i, str(i)]
    sorted(table.items())
    for _ in range(5):
        np.cumsum(large)[large > 0.5].sum()
    return time.perf_counter() - t0


def measure(wl, seconds: float, first: int, tracer=None):
    """Run whole op cycles until ``seconds`` have passed; return (results, probes).

    A probe runs before the first cycle and after each one, so cycle i lies
    between ``probes[i]`` and ``probes[i + 1]``.
    """
    from workloads import MEASURE

    results = []
    probes = [probe()]
    j = first
    t0 = time.perf_counter()
    while True:
        for key in wl.cycle:
            results.append(wl.run(key, MEASURE, j, tracer))
            j += 1
        probes.append(probe())
        if time.perf_counter() - t0 >= seconds:
            return results, probes


def cycle_walls(results, cycle_len: int) -> list[float]:
    """Wall time of each whole op cycle: one engine call, or the 24 kernel calls.

    The kernel cells' latencies span about 0.4 to 250 ms, and the median of
    that mixture falls in a gap between cells, so it jumps between runs;
    the sum over a cycle does not.
    """
    return [sum(r.latency for r in results[i:i + cycle_len]) for i in range(0, len(results), cycle_len)]


def scaled(walls: list[float], probes: list[float]) -> list[float]:
    """Cycle times in reference-machine seconds.

    Cycle i is multiplied by ``PROBE_REF_S`` over the mean of the probes on
    either side of it, ``probes[i]`` and ``probes[i + 1]``.
    """
    return [w * PROBE_REF_S / (0.5 * (probes[i] + probes[i + 1])) for i, w in enumerate(walls)]


def latency_stats(latencies: list[float]) -> dict:
    lat = sorted(latencies)
    n = len(lat)
    # The highest percentile with at least 10 cycles beyond it.
    tail = max(n - 11, 0)
    return {
        "cycles": n,
        "p50_ms": 1e3 * median(lat),
        "tail_ms": 1e3 * lat[tail],
        "tail_percentile": 100.0 * (tail + 1) / n,
        "cycles_beyond_tail": n - 1 - tail,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import_zest()
    import numpy as np

    from tracing import Tracer
    from workloads import WORKLOADS, ALPHA_RUN

    cls = WORKLOADS[name]
    setup_probes = [probe()]
    import_times = []
    for _ in range(SETUP_REPS):
        import_times.append(fresh_import_s())
        setup_probes.append(probe())
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = cls(seed)
        wl.warm()
        setup_times.append(time.perf_counter() - t0)
        setup_probes.append(probe())
    wl.reference()

    if trace:
        untraced, probes = measure(wl, seconds / 2, 0)
        tracer = Tracer()
        traced, traced_probes = measure(wl, seconds / 2, len(untraced), tracer)
    else:
        untraced, probes = measure(wl, seconds, 0)
        traced, traced_probes = [], []
    results = untraced + traced
    n_checks = max(wl.n_checks(results), 1)
    reasons, diag = wl.check(results, ALPHA_RUN / n_checks)
    failed = sum(r is not None for r in reasons)

    walls = cycle_walls(untraced, len(wl.cycle))
    latencies = scaled(walls, probes)
    stats = latency_stats(latencies)
    draws = sum(r.draws for r in untraced)
    # Each import and set-up repetition lies between two probes, as a cycle does.
    reps_scaled = scaled(import_times + setup_times, setup_probes)
    e2e = {
        "draws_per_s": draws / sum(latencies),
        "op_p50_ms": stats["p50_ms"],
        "op_tail_ms": stats["tail_ms"],
        "constraint_calls_per_draw": sum(r.calls for r in untraced) / draws,
        "setup_s": median(reps_scaled[:SETUP_REPS]) + median(reps_scaled[SETUP_REPS:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "op_sizes": wl.sizes(),
        "ops_untraced": len(untraced),
        "cycles_untraced": stats["cycles"],
        "ops_traced": len(traced),
        "op_tail_percentile": stats["tail_percentile"],
        "cycles_beyond_tail": stats["cycles_beyond_tail"],
        "failed_frac": failed / len(results),
        "failures": sorted({r for r in reasons if r is not None})[:5],
        "import_reps_s": import_times,
        "setup_reps_s": setup_times,
        "probe_ref_s": PROBE_REF_S,
        "probe_p50_s": median(probes),
        "setup_probe_p50_s": median(setup_probes),
        "wall_draws_per_s": draws / sum(walls),
        "wall_op_p50_ms": 1e3 * median(walls),
        "wall_setup_s": median(import_times) + median(setup_times),
        "statistical_checks": n_checks,
    }
    if trace:
        traced_walls = cycle_walls(traced, len(wl.cycle))
        traced_latencies = scaled(traced_walls, traced_probes)
        traced_scale = sum(traced_latencies) / sum(traced_walls)
        metrics = per_layer(wl, tracer, untraced, diag, latencies, traced_latencies, traced_scale)
        units = per_layer_units()
    else:
        metrics, units = e2e, END_TO_END
    for key, value in metrics.items():
        print(f"{name:13s} {key:40s} {value:14.6g} {units[key]}")
    print(f"{name:13s} {'failed_frac':40s} {meta['failed_frac']:14.6g} frac")
    print(json.dumps({"meta": meta}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def per_layer(wl, tracer, untraced, diag, latencies, traced_latencies, traced_scale: float) -> dict[str, float]:
    """Per-layer metrics. Span self times are wall times, scaled by
    ``traced_scale`` (the traced half's ratio of scaled to wall time) only
    where they are compared with the untraced op time."""
    from workloads import KernelWorkload

    ops = max(tracer.ops, 1)
    m = dict.fromkeys(per_layer_units(), 0.0)
    for span, counted in SPANS.items():
        m[f"{span}.self_s"] = tracer.self_s.get(span, 0.0) / ops
        if counted:
            m[f"{span}.count"] = tracer.counts.get(span, 0) / ops
    m["constraints.eval.batches"] = tracer.counts.get("constraints.eval", 0) / ops
    m["constraints.eval.tokens"] = tracer.counts.get("constraints.eval.tokens", 0) / ops
    lm_calls = tracer.counts.get("toylm.next_dist", 0)
    if lm_calls:
        m["smc.groups_per_step"] = tracer.counts.get("smc.groups", 0) / lm_calls
    if isinstance(wl, KernelWorkload):
        m.update(wl.cell_metrics(untraced))
    else:
        m["smc.steps"] = diag["steps_mean"]
        m["smc.tv_to_exact_p50"] = diag["tv_p50"]
        m["smc.log_ghat_err_p50"] = diag["log_err_p50"]
    m["trace.overhead_frac"] = median(traced_latencies) / median(latencies) - 1.0
    mean_untraced = sum(latencies) / len(untraced)
    m["trace.self_sum_frac"] = sum(tracer.self_s.values()) / ops * traced_scale / mean_untraced - 1.0
    return m


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own process; metrics are keyed ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        args = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
