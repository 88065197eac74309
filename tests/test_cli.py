"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main, make_workload


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "sor"])
        assert args.workload == "sor"
        assert args.nodes == 8
        assert args.rate == "4"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])


class TestMakeWorkload:
    @pytest.mark.parametrize("name", ["sor", "barnes-hut", "water-spatial", "fft", "group-sharing"])
    def test_all_names_construct(self, name):
        wl = make_workload(name, n_threads=4, seed=1)
        assert wl.n_threads == 4

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            make_workload("bogus", 4, 0)


class TestCommands:
    def test_experiments_lists_every_bench(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "bench_fig9_accuracy.py" in out
        assert "bench_table5_ss_overhead.py" in out
        assert "REPRO_PAPER_SCALE" in out

    def test_run_group_sharing(self, capsys):
        code = main(
            ["run", "group-sharing", "--nodes", "2", "--threads", "4", "--rate", "full"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GroupSharing" in out
        assert "thread correlation map" in out

    def test_run_without_correlation(self, capsys):
        code = main(
            ["run", "group-sharing", "--nodes", "2", "--threads", "4", "--no-correlation"]
        )
        assert code == 0
        assert "correlation map" not in capsys.readouterr().out

    def test_run_with_sticky(self, capsys):
        code = main(
            ["run", "group-sharing", "--nodes", "2", "--threads", "4", "--sticky"]
        )
        assert code == 0


class TestBadInput:
    """Bad numeric options exit 2 with a usage message, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "sor", "--nodes", "0"],
            ["run", "sor", "--threads", "0"],
            ["run", "sor", "--nodes", "two"],
            ["run", "sor", "--rate", "0"],
            ["run", "sor", "--rate", "-4"],
            ["run", "sor", "--rate", "abc"],
            ["demo", "--nodes", "0"],
            ["demo", "--threads", "-1"],
        ],
    )
    def test_rejected_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rate", ["full", "0.5", "4"])
    def test_valid_rates_keep_their_spelling(self, rate):
        assert build_parser().parse_args(["run", "sor", "--rate", rate]).rate == rate
