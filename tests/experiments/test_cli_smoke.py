"""CLI smoke tests: every ``repro.experiments.*`` entry point parses
``--help`` and completes a tiny in-process run.

The runs all share one workload (scale 0.0002, default seeds) through the
session-scoped artifact cache, so only the first test pays the build; the
tests are ordered cheapest-first within the file to make that explicit.
"""

import pytest

from repro import experiments
from repro.experiments import (
    ablations,
    figure2,
    figure3,
    headline,
    inlining,
    oltp,
    prediction,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments import __main__ as full_run
from repro.experiments.harness import suite_parser

SCALE_ARGS = ["--scale", "0.0002"]

ALL_CLIS = [
    full_run,
    ablations,
    figure2,
    figure3,
    headline,
    inlining,
    oltp,
    prediction,
    table1,
    table2,
    table3,
    table4,
]


@pytest.mark.parametrize("module", ALL_CLIS, ids=lambda m: m.__name__.split(".")[-1])
def test_help_exits_zero(module, capsys):
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--help"])
    assert exit_info.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize(
    "module",
    [ablations, figure2, inlining, prediction, table1, table2],
    ids=lambda m: m.__name__.split(".")[-1],
)
def test_clis_without_a_suite_reject_suite_flags(module, capsys):
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_shard_counts_below_one_are_rejected_at_parse_time(value, capsys):
    parser = suite_parser("shard count check")
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(["--shards", value])
    assert exit_info.value.code == 2
    assert "--shards: must be at least 1" in capsys.readouterr().err


def test_figure3_cli(capsys):
    figure3.main([])
    assert "main trace" in capsys.readouterr().out
    figure3.main(["--exec-threshold", "300"])
    assert "discarded" in capsys.readouterr().out


def test_table1_cli(capsys):
    table1.main(SCALE_ARGS)
    assert "Table 1" in capsys.readouterr().out


def test_table2_cli(capsys):
    table2.main(SCALE_ARGS)
    assert "Table 2" in capsys.readouterr().out


def test_figure2_cli(capsys):
    figure2.main(SCALE_ARGS)
    assert "Figure 2" in capsys.readouterr().out


def test_prediction_cli(capsys):
    prediction.main(SCALE_ARGS)
    assert "accuracy" in capsys.readouterr().out


def test_inlining_cli(capsys):
    inlining.main(SCALE_ARGS + ["--max-clones", "4"])
    assert "nlining" in capsys.readouterr().out


def test_table3_cli_quick(capsys):
    table3.main(SCALE_ARGS + ["--quick"])
    assert "Table 3" in capsys.readouterr().out


def test_table4_cli_quick(capsys):
    table4.main(SCALE_ARGS + ["--quick"])
    assert "Table 4" in capsys.readouterr().out


def _count_passes(monkeypatch, module) -> list[int]:
    """Spy on ``module.run_fused``: one entry per pass, its stream count."""
    passes = []
    real = module.run_fused

    def spy(trace, program, pairs, **kwargs):
        passes.append(len(pairs))
        return real(trace, program, pairs, **kwargs)

    monkeypatch.setattr(module, "run_fused", spy)
    return passes


def test_ablations_cli(capsys, monkeypatch):
    """One pass per sweep: 7 CFA sizes, 9 thresholds, 2 seed modes."""
    passes = _count_passes(monkeypatch, ablations)
    ablations.main(SCALE_ARGS)
    assert "Ablation" in capsys.readouterr().out
    assert passes == [7, 9, 2]


def test_oltp_cli(capsys, monkeypatch):
    """The three layouts share one pass over the OLTP trace."""
    passes = _count_passes(monkeypatch, oltp)
    oltp.main(["--dss-scale", "0.0002", "--warehouses", "1", "--transactions", "25"])
    assert "OLTP" in capsys.readouterr().out
    assert passes == [3]


def test_headline_cli(capsys):
    headline.main(SCALE_ARGS)
    assert "headline" in capsys.readouterr().out


def test_full_run_cli(capsys):
    full_run.main(SCALE_ARGS + ["--skip-extensions"])
    out = capsys.readouterr().out
    for marker in ("Table 1", "Table 2", "Table 3", "Table 4", "Figure 2", "Figure 3"):
        assert marker in out, f"full run output missing {marker}"


def test_package_main_is_the_full_run():
    assert experiments.__name__ == "repro.experiments"
    assert callable(full_run.main)
