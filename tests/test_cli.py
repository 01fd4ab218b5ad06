"""Unit tests for repro.cli — the experiment runner."""

import pytest

from repro.cli import EXPERIMENT_NAMES, build_parser, main, run_experiment


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.trials == 1000
        assert args.seed == 2014
        assert args.widths == [16, 32, 64, 128, 256]

    def test_custom_options(self):
        args = build_parser().parse_args(
            ["table2", "--trials", "50", "--seed", "1", "--widths", "8", "16"]
        )
        assert args.trials == 50 and args.seed == 1 and args.widths == [8, 16]

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_all_is_a_choice(self):
        assert "all" in EXPERIMENT_NAMES

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--workers", "x"],
            ["table2", "--workers", "-1"],
            ["table2", "--workers", "2.5"],
            ["table2", "--chaos", "nope"],
            ["table4", "--workers", "x"],
            ["table4", "--chaos", "nope"],
            ["sweep-all", "--workers", "x"],
            ["sweep-all", "--workers", "-1"],
        ],
    )
    def test_bad_fabric_or_chaos_spec_exits_2(self, argv, capsys):
        """A bad worker count (the supervisor's only setting) or chaos
        plan is an argparse error, not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--trials", "4", "--widths", "8", "--no-cache"])
        assert exc.value.code == 2
        assert f"argument {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["table2", "sweep-all"])
    def test_fabric_flag_is_gone(self, command, capsys):
        """The old supervisor-spec flag was deleted with its spec type;
        the worker count is the supervisor's whole configuration."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--fabric", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fabric" in capsys.readouterr().err


class TestRunExperiment:
    def test_table1(self):
        args = build_parser().parse_args(["table1"])
        assert "Table I" in run_experiment("table1", args)

    def test_figures(self):
        args = build_parser().parse_args(["fig3"])
        out = run_experiment("fig3", args)
        assert "7 time units" in out

    def test_table2_respects_widths(self):
        args = build_parser().parse_args(
            ["table2", "--trials", "20", "--widths", "8"]
        )
        out = run_experiment("table2", args)
        assert "w=8" in out and "w=16" not in out

    def test_unknown_raises(self):
        args = build_parser().parse_args(["table1"])
        with pytest.raises(ValueError):
            run_experiment("table9", args)


class TestExtensionExperiments:
    def test_exact(self):
        args = build_parser().parse_args(["exact", "--widths", "16", "32"])
        out = run_experiment("exact", args)
        assert "3.0782" in out and "3.5329" in out

    def test_offline(self):
        args = build_parser().parse_args(["offline"])
        out = run_experiment("offline", args)
        assert "scheduled" in out and "naive/RAP" in out
        assert "NO" not in out  # every run verified

    def test_matmul(self):
        args = build_parser().parse_args(["matmul"])
        out = run_experiment("matmul", args)
        assert "ABt" in out and "PAD" in out
        assert "NO" not in out

    def test_growth(self):
        args = build_parser().parse_args(
            ["growth", "--trials", "200", "--widths", "16", "32"]
        )
        out = run_experiment("growth", args)
        assert "bound=" in out and "RAP=" in out

    def test_occupancy(self):
        args = build_parser().parse_args(["occupancy"])
        out = run_experiment("occupancy", args)
        assert "tiles in SM" in out
        assert "PAD" in out and "XOR" in out

    def test_apps(self):
        args = build_parser().parse_args(["apps"])
        out = run_experiment("apps", args)
        assert "FFT" in out and "scan" in out and "stencil" in out


class TestMain:
    def test_single_experiment(self, capsys):
        assert main(["fig2", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out

    def test_table_run(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_exit_code_zero(self):
        assert main(["fig6"]) == 0


class TestMarkdownFormat:
    def test_table1_md(self):
        args = build_parser().parse_args(["table1", "--format", "md"])
        out = run_experiment("table1", args)
        assert out.startswith("### Table I")
        assert "|---|" in out

    def test_default_is_ascii(self):
        args = build_parser().parse_args(["table1"])
        out = run_experiment("table1", args)
        assert "-+-" in out

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--format", "html"])


class TestReportCommand:
    def test_full_report(self):
        args = build_parser().parse_args(
            ["report", "--trials", "100", "--widths", "16"]
        )
        out = run_experiment("report", args)
        assert out.startswith("# RAP reproduction report")
        for heading in ("Table I", "Table II", "Table III", "Table IV",
                        "Figures", "Experiment index"):
            assert heading in out
        assert "fig6" in out
