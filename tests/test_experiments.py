import json

import pytest

from bipack.experiments import (
    ExperimentSpec,
    GridPoint,
    run_experiment,
    run_trial,
    summarize,
    summary_csv,
)


class TestSpecValidation:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(grid=(GridPoint(8, 1.0, 2, 0.4),), trials=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(grid=(), trials=1)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            GridPoint(8, 1.0, 2, 0.4, generator="nope")


class TestTrials:
    def test_complete_host_succeeds(self):
        point = GridPoint(8, 1.0, 2, 0.4)
        record = run_trial(point, seed=5, mode="relaxed", retries=3)
        assert record.success and record.phase == "success"
        assert record.seed == 5

    def test_condition1_always_fails(self):
        point = GridPoint(8, 1.0, 1, 0.4, generator="condition1")
        for seed in range(5):
            record = run_trial(point, seed=seed, mode="relaxed", retries=2)
            assert not record.success

    def test_reproducible_by_seed(self):
        point = GridPoint(12, 0.8, 3, 0.4)
        a = run_trial(point, seed=9, mode="relaxed", retries=2)
        b = run_trial(point, seed=9, mode="relaxed", retries=2)
        assert a.payload_dict() == b.payload_dict()


class TestRunExperiment:
    def test_summary_counts(self):
        spec = ExperimentSpec(
            grid=(GridPoint(8, 1.0, 2, 0.4),), trials=4, seed_base=100
        )
        records, rows = run_experiment(spec)
        assert len(records) == 4
        assert rows[0]["trials"] == 4
        assert rows[0]["successes"] == 4
        assert [r.seed for r in records] == [100, 101, 102, 103]

    def test_summary_matches_a_scan_per_point(self):
        # repeated and unvisited points, two generators on the same (n, p, delta_h)
        grid = (
            GridPoint(8, 0.9, 2, 0.4),
            GridPoint(8, 0.9, 2, 0.4, generator="condition1"),
            GridPoint(8, 0.5, 2, 0.4),
            GridPoint(8, 0.9, 2, 0.4),
        )
        spec = ExperimentSpec(grid=grid, trials=3, seed_base=1)
        records, rows = run_experiment(spec)
        extra = GridPoint(8, 0.9, 3, 0.4)
        spec_with_extra = ExperimentSpec(grid=grid + (extra,), trials=3, seed_base=1)
        expected = []
        for point in spec_with_extra.grid:
            mine = [
                r for r in records
                if (r.n, r.p, r.delta_h, r.eps, r.generator)
                == (point.n, point.p, point.delta_h, point.eps, point.generator)
            ]
            expected.append((len(mine), sum(r.success for r in mine)))
        got = summarize(spec_with_extra, records)
        assert [(row["trials"], row["successes"]) for row in got] == expected
        assert got[:4] == rows
        assert expected[0] == (6, expected[0][1]) and expected[4] == (0, 0)

    def test_output_files_reproducible(self, tmp_path):
        def run(tag):
            out = tmp_path / tag / "exp"
            spec = ExperimentSpec(
                grid=(GridPoint(8, 0.9, 2, 0.4),), trials=3, seed_base=7,
                out=str(out),
            )
            run_experiment(spec)
            return (
                (out.parent / "exp.csv").read_text(),
                (out.parent / "exp.records.json").read_text(),
            )

        assert run("a") == run("b")

    def test_meta_file_holds_timing(self, tmp_path):
        out = tmp_path / "exp"
        spec = ExperimentSpec(
            grid=(GridPoint(8, 1.0, 2, 0.4),), trials=2, seed_base=0, out=str(out)
        )
        run_experiment(spec)
        meta = json.loads((tmp_path / "exp.meta.json").read_text())
        assert len(meta["wallMillis"]) == 2
        records = json.loads((tmp_path / "exp.records.json").read_text())
        assert all("millis" not in r for r in records)

    def test_csv_columns(self):
        rows = [
            {
                "n": 8, "p": 1.0, "deltaH": 2, "eps": 0.4,
                "mode": "relaxed", "trials": 1, "successes": 1,
            }
        ]
        text = summary_csv(rows)
        assert text.splitlines()[0] == "n,p,deltaH,eps,mode,trials,successes"
