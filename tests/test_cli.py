"""The ``repro-eval`` console entry point, driven through ``main(argv)``.

One tiny end-to-end chain (explore → report → merge → stats) shows the
verbs compose through their on-disk artefacts, and a table of invocations
pins that inputs which do not apply fail loudly with argparse's usage exit
status 2 instead of being ignored. Each verb's ``--help`` pins the flags it
accepts, and every command the CI workflow runs must parse.
"""

import os
import re
import shlex

import pytest

from repro.cli import _build_parser, _sweep_from_args, main
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
    (["work", "--workers", "2", "--port", "1"],
     "unrecognized arguments: --workers"),
    (["work"], "required: --port"),
    (["explore", "--batch-size", "2"], "require --distributed"),
    (["cancel", "--port", "1"], "required: name"),
    (["figure5", "--benchmarks", "nosuch"], "invalid choice: 'nosuch'"),
    (["explore", "--levels", "O9"], "invalid choice: 'O9'"),
    (["explore", "--timing-models", "turbo"], "unknown timing model 'turbo'"),
    (["figure1", "--shard", "1/2", "--solvers", "greedy"],
     "unrecognized arguments: --shard 1/2 --solvers greedy"),
    (["figure6", "--benchmarks", "crc32", "fdct"],
     "unrecognized arguments: fdct"),
    (["figure9", "--levels", "O2", "Os"], "unrecognized arguments: Os"),
    (["status", "--workers", "4", "--port", "1"],
     "unrecognized arguments: --workers"),
    (["submit", "--shard", "0/2", "--port", "1"],
     "unrecognized arguments: --shard 0/2"),
    (["stats"], "required: TRACE_DIR"),
    (["explore", "--x-limits", "0.5"], "'x_limits' values must be >= 1.0"),
], ids=["coordinate", "fixed-batches", "work-workers", "work-no-port",
        "batch-size-in-process", "cancel-no-name", "unknown-benchmark",
        "unknown-level", "unknown-timing-model", "figure1-sweep-flags",
        "figure6-two-benchmarks", "figure9-two-levels", "status-workers",
        "submit-shard", "stats-no-trace-dir", "x-limit-below-one"])
def test_inapplicable_inputs_exit_with_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_explore_x_limit_is_the_x_limit_axis():
    """``explore`` has no ``--x-limit`` of its own, so argparse reads it as
    an abbreviation of ``--x-limits``: the sweep covers the one X_limit
    given, not the default axis."""
    parser = _build_parser()
    args = parser.parse_args(["explore", "--x-limit", "1.2"])
    assert _sweep_from_args(args, parser).x_limits == (1.2,)


AXES = {"--benchmarks", "--levels", "--frequency-modes", "--x-limits",
        "--r-spares", "--flash-ram-ratios", "--solvers", "--timing-models"}
CLIENT = {"--host", "--port"}

#: The flags each verb accepts: exactly those its branch of ``main`` reads.
VERB_FLAGS = {
    "figure1": {"--output", "--telemetry"},
    "figure2": {"--x-limit", "--output", "--telemetry"},
    "figure5": {"--benchmarks", "--levels", "--frequency-modes", "--x-limit",
                "--workers", "--cache-dir", "--output", "--telemetry"},
    "figure6": {"--benchmarks", "--levels", "--output", "--telemetry"},
    "figure9": {"--benchmarks", "--levels", "--x-limit", "--cache-dir",
                "--output", "--telemetry"},
    "case-study": {"--x-limit", "--cache-dir", "--output", "--telemetry"},
    "explore": AXES | {"--name", "--resume", "--checkpoint-every", "--shard",
                       "--recheck", "--workers", "--distributed",
                       "--batch-size", "--lease-timeout", "--cache-dir",
                       "--output", "--progress", "--telemetry"},
    "submit": AXES | CLIENT | {"--name", "--resume", "--checkpoint-every",
                               "--priority", "--batch-size", "--wait",
                               "--output"},
    "serve": CLIENT | {"--output", "--lease-timeout", "--checkpoint-every",
                       "--drain", "--progress", "--telemetry"},
    "work": CLIENT | {"--throttle", "--cache-dir", "--telemetry"},
    "status": CLIENT,
    "cancel": CLIENT,
    "metrics": CLIENT,
    "merge": {"--stores", "--output", "--name", "--require-disjoint"},
    "report": {"--store", "--name", "--output"},
    "analyze": {"--benchmarks", "--levels", "--x-limit", "--lint", "--audit",
                "--cache-dir", "--output", "--telemetry"},
    "stats": set(),
}


@pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
def test_each_verb_helps_with_its_own_flags(verb, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith(f"usage: repro-eval {verb} ")
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == VERB_FLAGS[verb]


CI_WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".github", "workflows", "ci.yml")


def ci_cli_commands():
    """Every ``python -m repro.cli`` command of the CI workflow, as argv.

    Folded (``>-``) scalars and backslash continuations are joined,
    ``${{ env.SWEEP_AXES }}`` (from the workflow's ``env``) and
    ``${{ matrix.shard }}`` are substituted, and each command is cut at its
    first shell operator.
    """
    with open(CI_WORKFLOW) as handle:
        lines, folding = [], None
        for line in handle.read().splitlines():
            indent = len(line) - len(line.lstrip())
            if folding is not None and line.strip() and indent > folding:
                lines[-1] += " " + line.strip()
                continue
            folding = indent if line.endswith(">-") else None
            lines.append(line[:-2] if folding is not None else line)
    text = re.sub(r"\\\s*\n\s*", " ", "\n".join(lines))
    axes = re.search(r"SWEEP_AXES: (.*)", text).group(1).strip()
    text = text.replace("${{ env.SWEEP_AXES }}", axes)
    text = text.replace("${{ matrix.shard }}", "0")
    commands = []
    for line in text.splitlines():
        _, found, command = line.partition("python -m repro.cli ")
        if found:
            commands.append(shlex.split(re.split(r"\s(?:\d?>|\||&)",
                                                 command)[0]))
    return commands


def test_every_ci_invocation_parses():
    """CI drives the CLI from shell steps no local run executes, so a
    change that breaks one of them must fail here."""
    commands = ci_cli_commands()
    assert len(commands) == 30
    parser = _build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
            if args.verb in ("explore", "submit"):
                _sweep_from_args(args, parser)
        except SystemExit:
            pytest.fail(f"the CLI rejects a CI invocation: {argv}")
