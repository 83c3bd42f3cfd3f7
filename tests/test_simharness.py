"""Experiment harness: schema, reproducibility, and small-scale sanity."""

import numpy as np
import pytest

from zest.analytics import awrs_expected_calls
from zest.rng import make_rng
from zest.simharness import (
    CSV_FIELDS,
    bias_experiment,
    corner_grids,
    placed_mass_instance,
    random_instance,
    runtime_heatmap,
    variance_vs_l,
)


class TestInstances:
    def test_random_instance_has_positive_valid_mass(self):
        for s in range(30):
            prior, valid = random_instance(20, make_rng(70, s))
            assert prior.probs[valid].sum() > 0
            assert abs(prior.probs.sum() - 1.0) <= 1e-9

    def test_placed_mass_is_exact(self):
        prior, valid = placed_mass_instance(10, z=0.3, k=4)
        assert prior.probs[valid].sum() == pytest.approx(0.3, abs=1e-12)
        assert valid.sum() == 4
        assert len(set(np.round(prior.probs[valid], 15))) == 1

    def test_placed_mass_rejects_infeasible(self):
        with pytest.raises(ValueError):
            placed_mass_instance(10, z=0.5, k=10)
        with pytest.raises(ValueError):
            placed_mass_instance(10, z=1.0, k=3)


class TestBiasExperiment:
    def test_smoke_and_schema(self):
        res = bias_experiment(vocab=10, n_instances=3, n_grid=[10, 100], seed=1)
        assert res.rows
        for row in res.rows:
            assert set(row) <= set(CSV_FIELDS)
        mets = {r["metric"] for r in res.rows}
        assert mets == {"abs_err", "mae"}

    def test_error_shrinks_with_samples(self):
        # The 1/sqrt(N) rate predicts the error across instances to fall
        # tenfold from N=100 to N=10000; a threefold fall leaves room for noise.
        res = bias_experiment(vocab=50, n_instances=30, n_grid=[100, 10000], seed=3)
        for name in ("wrs", "awrs"):
            mae = {r["N"]: r["value"] for r in res.rows if r["metric"] == "mae" and r["sampler"] == name}
            assert mae[10000] < mae[100] / 3, (name, mae)

    def test_reproducible_and_worker_invariant(self, tmp_path):
        a = bias_experiment(vocab=10, n_instances=4, n_grid=[10], seed=4)
        b = bias_experiment(vocab=10, n_instances=4, n_grid=[10], seed=4)
        c = bias_experiment(vocab=10, n_instances=4, n_grid=[10], seed=4, workers=2)
        pa, pb, pc = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        a.to_csv(pa), b.to_csv(pb), c.to_csv(pc)
        assert pa.read_bytes() == pb.read_bytes() == pc.read_bytes()

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_instances": 0}, {"n_grid": []}, {"n_grid": [10, 0]}, {"workers": 0}, {"workers": -2},
            {"n_grid": [10.7]}, {"vocab": 10.5}, {"n_instances": True},
        ],
        ids=repr,
    )
    def test_bad_argument_is_refused(self, bad):
        # Refused before any job runs; they used to return NaN or empty rows.
        # vocab 0, which used to loop forever, is checked through the CLI
        # under a timeout (tests/test_cli.py), so a regression cannot hang here.
        # A fractional grid entry used to be truncated, a fractional vocab to
        # fail inside the first job, and True to run as one instance.
        args = {**dict(vocab=10, n_instances=2, n_grid=[10], seed=1), **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            bias_experiment(**args)


class TestVarianceSweep:
    def test_variance_non_increasing_and_cost_grows(self):
        res = variance_vs_l(vocab=20, n_instances=3, l_grid=[1, 2, 4], runs=20000, seed=5)
        for i in range(3):
            var_by_l = {
                r["L"]: r["value"]
                for r in res.rows
                if r["metric"] == "var_zhat" and r["sampler"] == "wrs" and r["instance_id"] == i
            }
            vals = [var_by_l[l] for l in (1, 2, 4)]
            assert vals[0] >= vals[1] >= vals[2]
            calls_by_l = {
                r["L"]: r["value"]
                for r in res.rows
                if r["metric"] == "mean_calls" and r["sampler"] == "wrs" and r["instance_id"] == i
            }
            assert calls_by_l[1] < calls_by_l[2] < calls_by_l[4]

    def test_calls_track_analytic_law(self):
        res = variance_vs_l(vocab=20, n_instances=2, l_grid=[1, 2], runs=30000, seed=6)
        for i in range(2):
            for L in (1, 2):
                emp = next(
                    r["value"] for r in res.rows
                    if r["metric"] == "mean_calls" and r["sampler"] == "wrs"
                    and r["instance_id"] == i and r["L"] == L
                )
                law = next(
                    r["value"] for r in res.rows
                    if r["metric"] == "expected_calls" and r["sampler"] == "wrs-analytic"
                    and r["instance_id"] == i and r["L"] == L
                )
                assert emp == pytest.approx(law, rel=0.05)

    def test_awrs_reference_point_present(self):
        res = variance_vs_l(vocab=10, n_instances=1, l_grid=[1], runs=2000, seed=7)
        assert any(r["sampler"] == "awrs" and r["metric"] == "var_zhat" for r in res.rows)

    def test_shares_draws_with_bias_experiment_at_equal_config(self):
        # Same seed, same instance index, same run count: the L=1 rows of
        # both sweeps come from identical sampler draws.
        from zest.constraints import mask_constraint
        from zest.samplers import wrs_batch
        from zest.simharness import sampler_stream

        seed, runs = 8, 3000
        bias = bias_experiment(vocab=12, n_instances=2, n_grid=[runs], seed=seed)
        var = variance_vs_l(vocab=12, n_instances=2, l_grid=[1], runs=runs, seed=seed)
        for idx in range(2):
            prior, valid = random_instance(12, make_rng(seed, 2, idx))
            z = float(prior.probs[valid].sum())
            out = wrs_batch(prior, mask_constraint(valid), runs, sampler_stream(seed, idx, 0, 1))
            bias_err = next(
                r["value"] for r in bias.rows
                if r["metric"] == "abs_err" and r["sampler"] == "wrs" and r["instance_id"] == idx and r["N"] == runs
            )
            assert bias_err == abs(float(out.zhats.mean()) - z)
            var_val = next(
                r["value"] for r in var.rows
                if r["metric"] == "var_zhat" and r["sampler"] == "wrs" and r["instance_id"] == idx
            )
            assert var_val == float(np.var(out.zhats))

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_instances": 0}, {"l_grid": []}, {"l_grid": [0, 1]}, {"runs": 0}, {"workers": 0},
            {"l_grid": [1.5]}, {"runs": 2.5}, {"vocab": 10.5}, {"n_instances": True},
        ],
        ids=repr,
    )
    def test_bad_argument_is_refused(self, bad):
        args = {**dict(vocab=10, n_instances=2, l_grid=[1], runs=100, seed=1), **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            variance_vs_l(**args)


class TestHeatmap:
    def test_dense_tiling_matches_analytic_law(self):
        res = runtime_heatmap(vocab=6, runs_per_cell=4000, seed=8, dense=True)
        cells = {}
        for r in res.rows:
            cells.setdefault((r["Z"], r["K"]), {})[(r["sampler"], r["metric"])] = r["value"]
        assert len(cells) == 19 * 5
        bad = 0
        for (z, k), vals in cells.items():
            emp = vals[("awrs", "mean_calls")]
            law = vals[("awrs-analytic", "expected_calls")]
            sigma = vals[("awrs", "sd_calls")] / np.sqrt(4000)
            if abs(emp - law) > 4 * max(sigma, 1e-12):
                bad += 1
        assert bad <= len(cells) * 0.01

    def test_hard_cap_never_violated(self):
        res = runtime_heatmap(vocab=6, runs_per_cell=2000, seed=9, dense=True)
        for r in res.rows:
            if r["sampler"] == "awrs" and r["metric"] == "max_calls":
                assert r["value"] <= 6 - r["K"] + 2

    def test_infeasible_cell_is_refused(self):
        # k = vocab forces z = 1, so the cell (0.5, 5) has no instance.
        with pytest.raises(ValueError, match="infeasible cell"):
            runtime_heatmap(vocab=5, z_grid=[0.5], k_grid=[2, 5], runs_per_cell=10, seed=10)

    @pytest.mark.parametrize(
        "bad",
        [
            {"vocab": 0}, {"vocab": 1}, {"runs_per_cell": 0}, {"workers": 0}, {"z_grid": []}, {"k_grid": []},
            {"k_grid": [2.5]}, {"runs_per_cell": 2.5}, {"vocab": 5.5}, {"workers": True},
        ],
        ids=repr,
    )
    def test_bad_argument_is_refused(self, bad):
        # vocab 1 and runs_per_cell 0 used to raise deep inside the sweep, and
        # vocab 0 wrote no rows; an empty grid used to run the default grid.
        # k 2.5 used to run as k = 2, and runs_per_cell 2.5 to fail naming n.
        args = {**dict(vocab=5, runs_per_cell=10, seed=1), **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            runtime_heatmap(**args)

    def test_corner_grids_shape(self):
        z_grid, k_grid = corner_grids(1000)
        assert min(z_grid) <= 1e-3 and max(z_grid) >= 0.999
        assert min(k_grid) == 1 and max(k_grid) == 999
        assert all(0 < z < 1 for z in z_grid)

    def test_metadata_written(self, tmp_path):
        res = runtime_heatmap(vocab=5, z_grid=[0.4], k_grid=[2], runs_per_cell=50, seed=11)
        res.metadata_json(tmp_path / "m.json")
        import json

        meta = json.loads((tmp_path / "m.json").read_text())
        assert meta["z_grid"] == [0.4] and meta["k_grid"] == [2]

    def test_wrs_cell_tracks_inverse_z(self):
        res = runtime_heatmap(vocab=6, z_grid=[0.25], k_grid=[2], runs_per_cell=20000, seed=12)
        emp = next(r["value"] for r in res.rows if r["sampler"] == "wrs" and r["metric"] == "mean_calls")
        assert emp == pytest.approx(2 / 0.25, rel=0.05)
