"""The ``repro-eval`` console entry point, driven through ``main(argv)``.

One tiny end-to-end chain (explore → report → merge → stats) shows the
verbs compose through their on-disk artefacts, and a table of invocations
pins that inputs which do not apply fail loudly with argparse's usage exit
status 2 instead of being ignored.
"""

import pytest

from repro.cli import main
from repro.telemetry import reset_telemetry


@pytest.fixture
def clean_hub():
    """``--telemetry`` configures the process-wide hub; undo it after."""
    reset_telemetry(clear_env=True)
    yield
    reset_telemetry(clear_env=True)


def test_explore_report_merge_and_stats_compose(tmp_path, capsys, clean_hub):
    out, trace = tmp_path / "out", tmp_path / "trace"
    assert main(["explore", "--benchmarks", "crc32", "--x-limits", "1.1",
                 "--flash-ram-ratios", "--workers", "1",
                 "--output", str(out), "--telemetry", str(trace)]) == 0
    assert "wrote 1 cells" in capsys.readouterr().out

    figures = tmp_path / "figures"
    assert main(["report", "--store", str(out), "--output", str(figures)]) == 0
    assert (figures / "report.json").exists()

    merged = tmp_path / "merged"
    assert main(["merge", "--stores", str(out), "--output", str(merged)]) == 0
    assert (merged / "sweep.json").read_bytes() == \
        (out / "sweep.json").read_bytes()

    capsys.readouterr()
    assert main(["stats", str(trace)]) == 0
    assert "simulate" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["coordinate"], "invalid choice"),
    (["explore", "--fixed-batches"], "unrecognized arguments"),
    (["work", "--workers", "2", "--port", "1"], "more 'work' processes"),
    (["work"], "work requires --port"),
    (["explore", "--batch-size", "2"], "require --distributed"),
    (["cancel", "--port", "1"], "cancel requires the sweep name"),
    (["figure5", "--benchmarks", "nosuch"], "invalid choice: 'nosuch'"),
    (["explore", "--levels", "O9"], "invalid choice: 'O9'"),
    (["explore", "--timing-models", "turbo"], "unknown timing model 'turbo'"),
], ids=["coordinate", "fixed-batches", "work-workers", "work-no-port",
        "batch-size-in-process", "cancel-no-name", "unknown-benchmark",
        "unknown-level", "unknown-timing-model"])
def test_inapplicable_inputs_exit_with_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
