"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# tiny triangle plus tail\n0 1\n1 2\n0 2\n2 3\n")
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_command_parses(self):
        args = build_parser().parse_args(
            ["query", "--dataset", "patents", "--prune", "Q(x) :- E(x,y)."])
        assert args.dataset == "patents"
        assert args.prune


class TestCommands:
    TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                 "w=<<COUNT(*)>>.")

    def test_query_from_file(self, edge_file, capsys):
        code = main(["query", "--edges", edge_file, "--prune",
                     self.TRIANGLES])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("1.0")

    def test_query_tabular_with_limit(self, edge_file, capsys):
        code = main(["query", "--edges", edge_file, "--limit", "2",
                     "Q(x,y) :- Edge(x,y)."])
        assert code == 0
        out = capsys.readouterr().out
        assert "more)" in out

    def test_explain(self, edge_file, capsys):
        code = main(["explain", "--edges", edge_file, self.TRIANGLES])
        assert code == 0
        assert "GHD" in capsys.readouterr().out

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "googleplus" in out and "twitter" in out

    def test_missing_source_errors(self):
        with pytest.raises(SystemExit):
            main(["query", self.TRIANGLES])

    def test_ablation_flags_flow_through(self, edge_file, capsys):
        code = main(["query", "--edges", edge_file, "--prune",
                     "--no-ghd", "--no-simd",
                     "--layout-level", "uint_only", self.TRIANGLES])
        assert code == 0
        assert capsys.readouterr().out.strip().startswith("1.0")


class TestUserErrors:
    """A user's mistake is one ``repro: error:`` line and exit code 2,
    never a traceback."""

    def failed(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error: ")
        return lines[0]

    def test_unknown_relation(self, edge_file, capsys):
        line = self.failed(
            ["query", "--edges", edge_file,
             "T(;w:long) :- Edgy(x,y); w=<<COUNT(*)>>."], capsys)
        assert "unknown relation 'Edgy'" in line

    def test_syntax_error(self, edge_file, capsys):
        line = self.failed(
            ["query", "--edges", edge_file,
             "T(;w:long) :- Edge(x,y; w=<<COUNT(*)>>."], capsys)
        assert "expected ')'" in line

    @pytest.mark.parametrize("program", ["sssp", "pagerank"])
    def test_explain_of_a_program_whose_last_rule_reads_a_head(
            self, program, edge_file, capsys):
        from repro.graphs.analytics import pagerank_program, sssp_program
        text = sssp_program(0) if program == "sssp" \
            else pagerank_program(iterations=2)
        line = self.failed(["explain", "--edges", edge_file, text], capsys)
        assert "unknown relation" in line
        assert "intermediate heads are not computed by `explain`" in line
        assert "query --explain-analyze" in line

    def test_explain_of_a_plain_unknown_relation_has_no_hint(
            self, edge_file, capsys):
        line = self.failed(["explain", "--edges", edge_file,
                            "Q(x) :- Missing(x,y)."], capsys)
        assert "intermediate heads" not in line

    def test_the_suggested_command_answers(self, edge_file, capsys):
        from repro.graphs.analytics import sssp_program
        assert main(["query", "--edges", edge_file, "--explain-analyze",
                     "--execution-mode", "compiled", sssp_program(0)]) == 0
        assert "eval=(w,x)" in capsys.readouterr().out


class TestObservabilityFlags:
    TRIANGLES = TestCommands.TRIANGLES

    def test_trace_writes_valid_chrome_json(self, edge_file, tmp_path,
                                            capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        trace = tmp_path / "trace.json"
        code = main(["query", "--edges", edge_file, "--prune",
                     "--trace", str(trace), self.TRIANGLES])
        assert code == 0
        assert "trace written to" in capsys.readouterr().err
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"]

    def test_metrics_printed_to_stderr(self, edge_file, capsys):
        code = main(["query", "--edges", edge_file, "--prune",
                     "--metrics", self.TRIANGLES])
        assert code == 0
        err = capsys.readouterr().err
        assert "metrics:" in err
        assert "queries" in err

    def test_explain_analyze_replaces_result_output(self, edge_file,
                                                    capsys):
        code = main(["query", "--edges", edge_file, "--prune",
                     "--explain-analyze", self.TRIANGLES])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN ANALYZE")
        assert "cost-model error:" in out


class TestImportBudget:
    """``tools/check_layering.py``'s run-time rule: what a cold
    ``repro query`` process imports before it does any work."""

    @staticmethod
    def load_checker():
        import importlib.util
        import os
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "check_layering",
            os.path.join(root, "tools", "check_layering.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module, os.path.join(root, "src")

    def test_cli_import_stays_inside_the_budget(self):
        checker, src = self.load_checker()
        assert checker.import_budget_violations(src) == []

    def test_a_violating_import_fails_the_check(self, tmp_path, capsys):
        checker, _ = self.load_checker()
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(
            "def later():\n    import asyncio\n"
            "import multiprocessing\n")
        violations = checker.import_budget_violations(str(tmp_path))
        assert len(violations) >= 1
        assert all("multiprocessing" in v for v in violations)
        assert checker.main([str(tmp_path)]) == 1
        assert "import budget" in capsys.readouterr().out
