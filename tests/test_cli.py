"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.compatibility import make_relation
from repro.experiments import Table2Cell, Table2DatasetResult, Table2Result


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["datasets"]).command == "datasets"
        assert parser.parse_args(["compatibility", "toy"]).command == "compatibility"
        assert parser.parse_args(["team", "toy", "python"]).command == "team"
        assert parser.parse_args(["reproduce", "--fast"]).fast is True
        assert parser.parse_args(["table2", "--fast"]).command == "table2"
        assert parser.parse_args(["figure2", "--panels", "ab"]).panels == "ab"

    def test_execution_flags_default_to_serial(self):
        parser = build_parser()
        for argv in (
            ["table2"],
            ["figure2"],
            ["reproduce"],
            ["streaming", "toy"],
        ):
            arguments = parser.parse_args(argv)
            assert arguments.workers == 0
            assert arguments.chunk_size is None

    def test_execution_flags_parse(self):
        parser = build_parser()
        arguments = parser.parse_args(
            ["table2", "--fast", "--workers", "4", "--chunk-size", "16"]
        )
        assert arguments.workers == 4
        assert arguments.chunk_size == 16
        arguments = parser.parse_args(["streaming", "toy", "--workers", "2"])
        assert arguments.workers == 2

    def test_execution_flags_reject_bad_values_at_parse_time(self, capsys):
        """Bad --workers/--chunk-size must exit 2 with an explanatory message
        instead of surfacing an opaque ValueError at first kernel dispatch."""
        parser = build_parser()
        cases = [
            (["table2", "--workers", "-5"], "workers must be -1"),
            (["table2", "--workers", "many"], "integer worker count"),
            (["streaming", "toy", "--chunk-size", "0"], "chunk-size must be a positive"),
            (["reproduce", "--chunk-size", "-4"], "chunk-size must be a positive"),
            (["figure2", "--chunk-size", "wide"], "integer chunk size"),
        ]
        for argv, fragment in cases:
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
            assert excinfo.value.code == 2
            assert fragment in capsys.readouterr().err

    def test_serial_worker_spellings_stay_legal(self):
        parser = build_parser()
        assert parser.parse_args(["table2", "--workers", "0"]).workers == 0
        assert parser.parse_args(["table2", "--workers", "1"]).workers == 1
        assert parser.parse_args(["table2", "--workers", "-1"]).workers == -1


class TestDatasetsCommand:
    def test_lists_datasets(self, capsys):
        exit_code = main(["datasets", "--scale", "0.02"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "toy" in captured.out
        assert "slashdot" in captured.out

    def test_never_generates_on_demand_datasets(self, capsys, monkeypatch):
        import repro.datasets.registry as registry

        def explode(**kwargs):
            raise AssertionError("the listing must not generate 'million'")

        monkeypatch.setitem(registry._FACTORIES, "million", explode)
        exit_code = main(["datasets", "--scale", "0.02"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "not generated: 'million'" in captured.out


class TestCompatibilityCommand:
    def test_reports_relations(self, capsys):
        exit_code = main(["compatibility", "toy", "--relations", "SPA,SPO,NNE"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("SPA", "SPO", "NNE"):
            assert name in captured.out

    def test_sbp_truncation_note(self, monkeypatch, capsys):
        # One expansion truncates every exact SBP search on the toy graph.
        def capped(name, graph, **kwargs):
            if name == "SBP":
                kwargs["max_expansions"] = 1
            return make_relation(name, graph, **kwargs)

        monkeypatch.setattr(repro.cli, "make_relation", capped)
        assert main(["compatibility", "toy", "--relations", "SPA,SBP"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("note:")] == [lines[-1]]
        assert lines[-1].endswith("under-approximate: SBP (12 sources)")

    def test_no_note_without_truncation(self, capsys):
        assert main(["compatibility", "toy", "--relations", "SBP"]) == 0
        assert "note:" not in capsys.readouterr().out


class TestTable2Command:
    def _result(self, truncated_sources):
        cell = Table2Cell("SBP", 40.0, 50.0, 2.5, 10, truncated_sources=truncated_sources)
        return Table2Result(
            relations=("SBP",),
            datasets=[Table2DatasetResult("slashdot", cells={"SBP": cell})],
        )

    @pytest.mark.parametrize("truncated_sources", (0, 113))
    def test_note_line_only_when_truncated(self, monkeypatch, capsys, truncated_sources):
        result = self._result(truncated_sources)
        monkeypatch.setattr(repro.cli, "run_table2", lambda config: result)
        assert main(["table2", "--fast"]) == 0
        lines = capsys.readouterr().out.splitlines()
        table_lines = result.as_text().splitlines()
        assert lines[: len(table_lines)] == table_lines
        if truncated_sources:
            assert lines[len(table_lines) :] == [result.truncation_note()]
            assert "slashdot SBP (113 sources)" in lines[-1]
        else:
            assert lines == table_lines


class TestTeamCommand:
    def test_successful_team(self, capsys):
        exit_code = main(["team", "toy", "python,databases", "--relation", "SPO"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Team (" in captured.out

    def test_unsolvable_task_returns_one(self, capsys):
        exit_code = main(
            ["team", "toy", "python,databases,design,writing", "--relation", "DPE"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "No compatible team" in captured.out

    def test_unknown_skill_returns_two(self, capsys):
        exit_code = main(["team", "toy", "quantum"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error" in captured.err.lower()

    def test_empty_skill_list_returns_two(self):
        assert main(["team", "toy", " , "]) == 2


class TestSnapshotCommand:
    def test_save_load_info_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "toy.store")
        assert main(["snapshot", "save", "toy", path]) == 0
        saved = capsys.readouterr().out
        assert "Saved toy" in saved and path in saved

        assert main(["snapshot", "load", path]) == 0
        loaded = capsys.readouterr().out
        assert "memory-mapped" in loaded
        assert main(["snapshot", "load", path, "--no-mmap"]) == 0
        assert "read into memory" in capsys.readouterr().out

        assert main(["snapshot", "info", path]) == 0
        info = capsys.readouterr().out
        assert "plane:indptr" in info and "version" in info
        assert "labels" in info and "(none)" in info

    def test_save_with_labels_and_json_info(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "toy.store")
        assert main(["snapshot", "save", "toy", path, "--labels", "auto"]) == 0
        saved = capsys.readouterr().out
        assert "Labels: mode=exact" in saved

        assert main(["snapshot", "info", "--json", path]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["version"] == 2
        assert info["labels"]["mode"] == "exact"
        assert info["labels"]["num_hubs"] > 0
        # Every plane (base and label) reports dtype/count/offset.
        for name in ("indptr", "label_indptr", "label_hubs", "hub_order"):
            plane = info["planes"][name]
            assert set(plane) >= {"dtype", "count", "offset"}
        assert info["file_nbytes"] == info["expected_nbytes"]

        # The table rendering names the label section too.
        assert main(["snapshot", "info", path]) == 0
        table = capsys.readouterr().out
        assert "mode=exact" in table and "plane:label_hubs" in table

    def test_snapshot_path_validators_exit_2(self, tmp_path, capsys):
        for argv, fragment in [
            (["snapshot", "info", str(tmp_path / "missing.store")], "does not exist"),
            (["snapshot", "load", str(tmp_path / "missing.store")], "does not exist"),
            (
                ["snapshot", "save", "toy", str(tmp_path / "nodir" / "x.store")],
                "output directory does not exist",
            ),
        ]:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert fragment in capsys.readouterr().err

    def test_snapshot_store_flag_requires_existing_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--snapshot-store", str(tmp_path / "missing")])
        assert excinfo.value.code == 2
        assert "directory does not exist" in capsys.readouterr().err
        # A valid directory parses and lands on the namespace.
        parser = build_parser()
        arguments = parser.parse_args(
            ["streaming", "toy", "--snapshot-store", str(tmp_path)]
        )
        assert arguments.snapshot_store == str(tmp_path)

    def test_snapshot_store_flag_routes_into_config(self, tmp_path):
        from repro.cli import _experiment_config

        parser = build_parser()
        arguments = parser.parse_args(
            ["table2", "--fast", "--snapshot-store", str(tmp_path)]
        )
        config = _experiment_config(arguments)
        for dataset in config.datasets:
            assert dataset.snapshot_store == str(tmp_path)
            assert dataset.execution_policy().snapshot_store == str(tmp_path)
