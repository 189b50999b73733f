import json
from importlib import resources

import pytest

from srkit.scoring import (
    DEFAULT_PSNR_GATE,
    TeamMetrics,
    format_score,
    format_table,
    load_team_table,
    rank_table,
    round_half_even,
    score_final,
    score_metric,
)
from table_expectations import BASELINE_NAME, EXPECTED, RANKING, UNRANKED, check_cell


def published_table():
    path = resources.files("srkit") / "data" / "challenge_table.json"
    with resources.as_file(path) as p:
        return load_team_table(p)


@pytest.fixture(scope="module")
def table():
    teams, baseline = published_table()
    return rank_table(teams, baseline)


class TestScoreMetric:
    def test_monotone_in_team_value(self):
        assert score_metric(5.0, 7.65) < score_metric(6.0, 7.65)

    def test_monotone_in_baseline(self):
        assert score_metric(5.0, 8.0) < score_metric(5.0, 7.0)

    def test_ratio_invariance(self):
        assert score_metric(5.0, 7.65) == pytest.approx(score_metric(50.0, 76.5))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            score_metric(0.0, 1.0)
        with pytest.raises(ValueError):
            score_metric(1.0, -2.0)

    def test_rejects_a_ratio_whose_score_overflows(self):
        with pytest.raises(ValueError, match="1000.0 against 1.0"):
            score_metric(1000.0, 1.0)


class TestScoreFinal:
    def test_weights(self):
        assert score_final(1.0, 2.0, 3.0) == pytest.approx(0.8 + 0.2 + 0.3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            score_final(float("inf"), 1.0, 1.0)


class TestTableReproduction:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_printed_cell(self, table, name):
        row = table.row(name)
        printed = EXPECTED[name]
        computed = (
            row.runtime_score,
            row.params_score,
            row.flops_score,
            row.overall_score,
        )
        for got, want in zip(computed, printed[:4]):
            assert check_cell(got, want), f"{name}: computed {got!r}, printed {want!r}"

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_rank_annotation(self, table, name):
        row = table.row(name)
        want = EXPECTED[name][4:]
        got = (row.runtime_rank, row.params_rank, row.flops_rank, row.overall_rank)
        assert got == want, f"{name}: ranks {got} != {want}"

    def test_overall_ranking_order(self, table):
        assert table.ranking() == RANKING

    def test_unranked_teams_still_scored(self, table):
        for name in UNRANKED:
            row = table.row(name)
            assert not row.ranked
            assert row.overall_score > 0
            assert row.overall_rank is None

    def test_baseline_flagged_not_ranked(self, table):
        row = table.row(BASELINE_NAME)
        assert row.is_baseline and not row.ranked
        assert str(round_half_even(row.overall_score)) == "7.39"

    def test_params_tie_shares_rank_and_skips_next(self, table):
        assert table.row("PKDSR").params_rank == 7
        assert table.row("Sunflower").params_rank == 7
        assert table.row("DISP").params_rank == 9


class TestRankTable:
    def test_single_team_equal_to_baseline(self):
        base = TeamMetrics("base", 7.65, 0.151, 9.83)
        team = TeamMetrics("team", 7.65, 0.151, 9.83, 27.0, 27.1)
        t = rank_table([team], base)
        row = t.row("team")
        assert row.overall_rank == 1
        assert str(round_half_even(row.overall_score)) == "7.39"

    def test_gate_excludes_clear_miss(self):
        base = TeamMetrics("base", 7.65, 0.151, 9.83)
        bad = TeamMetrics("bad", 5.0, 0.1, 9.0, psnr_valid=26.80, psnr_test=26.91)
        ok = TeamMetrics("ok", 6.0, 0.1, 9.0, psnr_valid=26.95, psnr_test=27.00)
        t = rank_table([bad, ok], base)
        assert not t.row("bad").ranked
        assert t.row("ok").overall_rank == 1

    def test_gate_tolerates_one_display_quantum(self):
        base = TeamMetrics("base", 7.65, 0.151, 9.83)
        edge = TeamMetrics("edge", 6.0, 0.1, 9.0, psnr_valid=26.91, psnr_test=26.98)
        t = rank_table([edge], base)
        assert t.row("edge").ranked

    def test_gate_disabled(self):
        base = TeamMetrics("base", 7.65, 0.151, 9.83)
        bad = TeamMetrics("bad", 5.0, 0.1, 9.0, psnr_valid=20.0, psnr_test=20.0)
        t = rank_table([bad], base, psnr_gate=None)
        assert t.row("bad").ranked

    def test_missing_psnr_passes_gate(self):
        base = TeamMetrics("base", 7.65, 0.151, 9.83)
        anon = TeamMetrics("anon", 5.0, 0.1, 9.0)
        assert rank_table([anon], base, psnr_gate=DEFAULT_PSNR_GATE).row("anon").ranked

    def test_ranking_invariant_under_common_metric_rescale(self):
        teams, baseline = published_table()
        ref = rank_table(teams, baseline).ranking()
        scaled_teams = [
            TeamMetrics(
                t.name,
                t.runtime_ms * 3.0,
                t.params_m,
                t.flops_g,
                t.psnr_valid,
                t.psnr_test,
            )
            for t in teams
        ]
        scaled_base = TeamMetrics(
            baseline.name,
            baseline.runtime_ms * 3.0,
            baseline.params_m,
            baseline.flops_g,
            baseline.psnr_valid,
            baseline.psnr_test,
        )
        assert rank_table(scaled_teams, scaled_base).ranking() == ref

    def test_metrics_must_be_positive(self):
        with pytest.raises(ValueError):
            TeamMetrics("x", 0.0, 0.1, 0.1)


class TestIO:
    def test_format_score_switches_notation(self):
        assert format_score(893.84123) == "893.84"
        assert format_score(6764.0).startswith("6.76e")

    def test_format_table_contains_all_teams(self):
        teams, baseline = published_table()
        text = format_table(rank_table(teams, baseline))
        for name in EXPECTED:
            assert name in text

    def test_csv_roundtrip(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        csv_path.write_text(
            "name,runtime_ms,params_m,flops_g,psnr_valid,psnr_test,baseline\n"
            "alpha,5.0,0.1,9.0,27.0,27.1,\n"
            "base,7.65,0.151,9.83,26.94,27.01,true\n"
        )
        teams, baseline = load_team_table(csv_path)
        assert [t.name for t in teams] == ["alpha"]
        assert baseline.name == "base"
        assert baseline.runtime_ms == 7.65

    def test_json_requires_baseline(self, tmp_path):
        doc = [{"name": "a", "runtime_ms": 1, "params_m": 1, "flops_g": 1}]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="baseline"):
            load_team_table(path)

    def test_json_rejects_two_baselines(self, tmp_path):
        doc = [
            {"name": "a", "runtime_ms": 1, "params_m": 1, "flops_g": 1, "baseline": True},
            {"name": "b", "runtime_ms": 1, "params_m": 1, "flops_g": 1, "baseline": True},
        ]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="baseline"):
            load_team_table(path)
