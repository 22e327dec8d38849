"""Tests for the experiment harness (configs, workloads, tables, figures).

The experiments are exercised on a miniature configuration so that every code
path (including rendering) runs in seconds; the *shape* assertions mirror the
qualitative findings of the paper that must survive any reasonable dataset:
the relaxation ordering of the relations and the monotone effect of task size.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import (
    DatasetConfig,
    ExperimentConfig,
    build_all_dataset_contexts,
    build_dataset_context,
    default_config,
    fast_config,
    run_all,
    run_figure2ab,
    run_figure2cd,
    run_table1,
    run_table2,
    run_table3,
)

GOLDEN_TABLE2 = Path(__file__).parent / "golden" / "table2_small.txt"


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    """An even smaller configuration than fast_config, for unit tests."""
    return ExperimentConfig(
        datasets=(
            DatasetConfig(
                name="slashdot",
                seed=13,
                scale=0.25,
                num_sampled_skill_pairs=100,
                compute_exact_sbp=True,
                sbp_max_expansions=5_000,
            ),
            DatasetConfig(
                name="epinions",
                seed=17,
                scale=0.008,
                num_sampled_sources=40,
                num_sampled_skill_pairs=100,
            ),
        ),
        team_dataset="epinions",
        table2_relations=("SPA", "SPO", "SBPH", "SBP", "NNE"),
        team_relations=("SPA", "SPO", "NNE"),
        team_algorithms=("LCMD", "RANDOM"),
        num_tasks=6,
        task_size=3,
        task_sizes=(2, 4),
        max_seeds=6,
    )


@pytest.fixture(scope="module")
def contexts(tiny_config):
    return build_all_dataset_contexts(tiny_config)


class TestConfig:
    def test_default_config_contains_paper_datasets(self):
        config = default_config()
        assert config.dataset_names == ("slashdot", "epinions", "wikipedia")
        assert config.num_tasks == 50
        assert config.task_size == 5
        assert config.team_dataset == "epinions"

    def test_fast_config_is_smaller(self):
        fast = fast_config()
        assert fast.num_tasks < default_config().num_tasks

    def test_dataset_lookup(self):
        config = default_config()
        assert config.dataset("epinions").name == "epinions"
        with pytest.raises(KeyError):
            config.dataset("missing")


class TestWorkloads:
    def test_context_builds_relations_lazily_and_caches(self, contexts):
        context = contexts["epinions"]
        first = context.relation_context("SPO")
        second = context.relation_context("spo")
        assert first is second
        assert first.relation.name == "SPO"

    def test_generate_tasks_deterministic(self, contexts):
        context = contexts["slashdot"]
        first = context.generate_tasks(size=3, count=4, seed=9)
        second = context.generate_tasks(size=3, count=4, seed=9)
        assert first == second
        assert all(len(task) == 3 for task in first)

    def test_build_single_context(self, tiny_config):
        context = build_dataset_context(tiny_config, "epinions")
        assert context.name == "epinions"


class TestTable1:
    def test_rows_match_datasets(self, tiny_config, contexts):
        result = run_table1(tiny_config, contexts)
        assert [row.name for row in result.rows] == list(tiny_config.dataset_names)
        for row in result.rows:
            assert row.num_users > 0
            assert row.num_edges > 0
            assert 0.0 < row.negative_fraction < 1.0
        text = result.as_text()
        assert "Table 1" in text and "slashdot" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def table2(self, tiny_config, contexts):
        return run_table2(tiny_config, contexts)

    def test_every_dataset_reported(self, tiny_config, table2):
        assert [entry.dataset for entry in table2.datasets] == list(tiny_config.dataset_names)

    def test_relaxation_increases_compatible_users(self, table2):
        for entry in table2.datasets:
            cells = entry.cells
            assert cells["SPA"].compatible_users_pct <= cells["SPO"].compatible_users_pct + 1e-9
            assert cells["SPO"].compatible_users_pct <= cells["NNE"].compatible_users_pct + 1e-9

    def test_sbp_only_computed_where_configured(self, table2):
        by_name = {entry.dataset: entry for entry in table2.datasets}
        assert by_name["slashdot"].cells["SBP"] is not None
        assert by_name["epinions"].cells["SBP"] is None

    def test_sbp_sbph_agreement_reported_for_slashdot(self, table2):
        by_name = {entry.dataset: entry for entry in table2.datasets}
        agreement = by_name["slashdot"].sbp_sbph_agreement
        assert agreement is not None
        assert 0.5 <= agreement <= 1.0

    def test_rendering_contains_all_relations(self, tiny_config, table2):
        text = table2.as_text()
        for relation in tiny_config.table2_relations:
            assert relation in text

    def test_truncated_sbp_sources_are_counted(self, table2, contexts):
        # 5k expansions truncate every exact SBP search on the tiny slashdot.
        num_nodes = contexts["slashdot"].dataset.graph.number_of_nodes()
        by_name = {entry.dataset: entry for entry in table2.datasets}
        assert by_name["slashdot"].cells["SBP"].truncated_sources == num_nodes
        for entry in table2.datasets:
            for relation, cell in entry.cells.items():
                if relation != "SBP" and cell is not None:
                    assert cell.truncated_sources == 0
        note = table2.truncation_note()
        assert note.startswith("note: ") and "\n" not in note
        assert f"slashdot SBP ({num_nodes} sources)" in note
        assert "note" not in table2.as_text()

    def test_no_truncation_no_note(self):
        config = ExperimentConfig(
            datasets=(DatasetConfig(name="toy", seed=0, compute_exact_sbp=True),),
            table2_relations=("SBP", "SBPH"),
        )
        result = run_table2(config)
        assert result.datasets[0].cells["SBP"].truncated_sources == 0
        assert result.truncation_note() == ""


class TestGoldenTable2:
    """Table 2 of a small seeded config, pinned byte for byte.

    ``tests/golden/table2_small.txt`` holds ``as_text()`` plus
    ``truncation_note()`` of :meth:`golden_config` on the dict backend
    (exact SBP truncates on all 56 slashdot sources at 2k
    expansions).  Regenerate it only for an intended change of the
    reported numbers, from the repo root::

        PYTHONPATH=src:tests python -c "from test_experiments import \\
            TestGoldenTable2 as T; print(T.render('dict'), end='')" \\
            > tests/golden/table2_small.txt
    """

    @staticmethod
    def golden_config(sp_backend: str) -> ExperimentConfig:
        return ExperimentConfig(
            datasets=(
                DatasetConfig(
                    name="slashdot",
                    seed=1,
                    scale=0.25,
                    num_sampled_skill_pairs=100,
                    compute_exact_sbp=True,
                    sbp_max_expansions=2_000,
                    sp_backend=sp_backend,
                ),
                DatasetConfig(
                    name="wikipedia",
                    seed=1,
                    scale=0.03,
                    num_sampled_skill_pairs=100,
                    sp_backend=sp_backend,
                ),
            ),
        )

    @classmethod
    def render(cls, sp_backend: str) -> str:
        result = run_table2(cls.golden_config(sp_backend))
        return result.as_text() + "\n" + result.truncation_note() + "\n"

    @pytest.mark.parametrize("sp_backend", ("dict", "auto"))
    def test_matches_golden_file(self, sp_backend):
        assert self.render(sp_backend) == GOLDEN_TABLE2.read_text()


class TestRunAll:
    def test_truncation_note_printed_after_report(self, capsys):
        # One expansion truncates every exact SBP search on the toy graph.
        config = ExperimentConfig(
            datasets=(
                DatasetConfig(
                    name="toy", seed=0, compute_exact_sbp=True, sbp_max_expansions=1
                ),
            ),
            team_dataset="toy",
            team_algorithms=("LCMD",),
            num_tasks=2,
            task_size=2,
            task_sizes=(2,),
            max_seeds=2,
        )
        report = run_all(config)
        note = report.table2.truncation_note()
        assert "toy SBP (" in note
        assert "note" not in report.as_text()
        output = capsys.readouterr().out
        assert output.endswith(report.as_text() + "\n" + note + "\n")

    def test_no_note_without_truncation(self, capsys):
        config = ExperimentConfig(
            datasets=(DatasetConfig(name="toy", seed=0, compute_exact_sbp=True),),
            team_dataset="toy",
            team_algorithms=("LCMD",),
            num_tasks=2,
            task_size=2,
            task_sizes=(2,),
            max_seeds=2,
        )
        report = run_all(config)
        assert report.table2.truncation_note() == ""
        assert capsys.readouterr().out.endswith(report.as_text() + "\n")


class TestTable3:
    def test_percentages_structure_and_range(self, tiny_config, contexts):
        result = run_table3(tiny_config, contexts["epinions"])
        assert result.num_tasks == tiny_config.num_tasks
        for projection in ("ignore_sign", "delete_negative"):
            assert set(result.percentages[projection]) == set(tiny_config.team_relations)
            for value in result.percentages[projection].values():
                assert 0.0 <= value <= 100.0
        # Relaxing the relation can only increase the compatible fraction.
        for projection in ("ignore_sign", "delete_negative"):
            row = result.percentages[projection]
            assert row["SPA"] <= row["SPO"] + 1e-9
            assert row["SPO"] <= row["NNE"] + 1e-9
        assert "Table 3" in result.as_text()


class TestFigure2:
    @pytest.fixture(scope="class")
    def figure_ab(self, tiny_config, contexts):
        return run_figure2ab(tiny_config, contexts["epinions"])

    def test_series_structure(self, tiny_config, figure_ab):
        assert set(figure_ab.series) == set(tiny_config.team_relations)
        for relation, algorithms in figure_ab.series.items():
            assert set(algorithms) == set(tiny_config.team_algorithms)
            for series in algorithms.values():
                assert series.tasks == tiny_config.num_tasks
                assert 0 <= series.solved <= series.tasks
                assert 0.0 <= series.solved_pct <= 100.0

    def test_solved_rate_respects_relaxation(self, figure_ab):
        lcmd = {relation: series["LCMD"].solved for relation, series in figure_ab.series.items()}
        assert lcmd["SPA"] <= lcmd["SPO"]
        assert lcmd["SPO"] <= lcmd["NNE"]

    def test_max_upper_bound_bounds_lcmd(self, figure_ab):
        for relation in figure_ab.relations:
            solved_pct = figure_ab.series[relation]["LCMD"].solved_pct
            assert solved_pct <= figure_ab.max_upper_bound[relation] + 1e-9

    def test_rendering(self, figure_ab):
        text = figure_ab.as_text()
        assert "Figure 2(a)" in text and "Figure 2(b)" in text

    def test_figure2cd_structure_and_monotonicity(self, tiny_config, contexts):
        result = run_figure2cd(tiny_config, contexts["epinions"])
        assert set(result.series) == set(tiny_config.team_relations)
        for relation in result.relations:
            by_size = result.series[relation]
            assert set(by_size) == set(tiny_config.task_sizes)
            for series in by_size.values():
                assert 0 <= series.solved <= series.tasks
        # Bigger tasks are (weakly) harder under the strictest relation; allow
        # one task of slack because the workloads at different sizes differ.
        sizes = sorted(tiny_config.task_sizes)
        spa = result.series["SPA"]
        assert spa[sizes[-1]].solved <= spa[sizes[0]].solved + 1
        assert "Figure 2(c)" in result.as_text()
