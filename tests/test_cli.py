"""The command-line interface (python -m repro)."""

import pytest

from repro.__main__ import build_parser, main
from repro.bench.run_all import FIGURES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_defaults(self):
        args = build_parser().parse_args(["join"])
        assert args.machine == "ibm"
        assert args.workload == "a"
        assert args.placement == "gpu"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ibm-ac922" in out
        assert "intel-xeon-v100" in out
        assert "nvlink2" in out and "pcie3" in out

    def test_figure_by_number(self, capsys):
        assert main(["figure", "18"]) == 0
        out = capsys.readouterr().out
        assert "Figure 18" in out

    def test_figure_21b_prints_the_phase_table(self, capsys):
        assert main(["figure", "21b"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Figure 21b: ")
        assert "build (sim) | build (paper)" in out
        assert "Figure 21a" not in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "99"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err
        listed = err.strip().split("valid: ", 1)[1].split(", ")
        assert listed == list(dict.fromkeys(f.key for f in FIGURES))

    def test_join_command(self, capsys):
        code = main([
            "join", "--workload", "a", "--placement", "gpu",
            "--scale", str(2.0**-14),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "G Tuples/s" in out

    def test_join_on_intel(self, capsys):
        code = main([
            "join", "--machine", "intel", "--method", "zero_copy",
            "--scale", str(2.0**-14),
        ])
        assert code == 0
        assert "intel-xeon-v100" in capsys.readouterr().out
