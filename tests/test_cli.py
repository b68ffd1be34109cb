"""Exit codes and subcommand behavior of the command line interface."""

import json
import math
import re
from pathlib import Path
from xml.etree import ElementTree

import pytest
import yaml

from conftest import surrogate_config_payload, write_yaml_config
from exsel import cli
from exsel.evolve import RunTrace, TraceRecord
from exsel.pipeline.runner import CHAINS
from exsel.plotting import PlottingError, read_trace, render_plots


def write_config(tmp_path, pool_path, name="config.yaml", **overrides):
    payload = surrogate_config_payload(pool_path, tmp_path / "run", **overrides)
    return write_yaml_config(tmp_path / name, payload)


def test_run_all_succeeds_then_resumes(tmp_path, small_pool_path, capsys):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["run-all", "--config", str(config)]) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert "[run ] pool" in first
    assert "best fitness k=40:" in first
    assert cli.main(["run-all", "--config", str(config)]) == cli.EXIT_OK
    second = capsys.readouterr().out
    assert "[skip] select" in second
    assert "[run ]" not in second


def test_generate_stops_after_pool_stage(tmp_path, small_pool_path):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["generate", "--config", str(config)]) == cli.EXIT_OK
    root = tmp_path / "run"
    assert (root / "pool" / "candidates.jsonl").exists()
    assert not (root / "reduce").exists()


def test_staged_commands_compose(tmp_path, small_pool_path, capsys):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["reduce", "--config", str(config)]) == cli.EXIT_OK
    assert cli.main(["select", "--config", str(config)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(config)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "[skip] select" in out
    root = tmp_path / "run"
    assert (root / "select" / "best_genome_k120.json").exists()
    assert (root / "report" / "metrics_k120.json").exists()


def test_baseline_command_writes_summary(tmp_path, small_pool_path, capsys):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["baseline", "--config", str(config)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "random baseline k=40" in out
    payload = json.loads((tmp_path / "run" / "baseline" / "baselines.json").read_text())
    assert payload["n_draws"] == 3


def polylines(svg_path) -> list[list[tuple[float, float]]]:
    """The points of each polyline in an SVG file, which must parse."""
    root = ElementTree.parse(svg_path).getroot()
    lines = root.iter("{http://www.w3.org/2000/svg}polyline")
    return [[tuple(map(float, point.split(","))) for point in line.get("points").split()] for line in lines]


def test_plot_renders_svg_per_pool_size(tmp_path, small_pool_path, capsys):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["select", "--config", str(config)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["plot", "--config", str(config)]) == cli.EXIT_OK
    plots = tmp_path / "run" / "plots"
    assert capsys.readouterr().out.split() == [str(plots / "trace_k120.svg"), str(plots / "trace_k40.svg")]
    assert sorted(path.name for path in plots.iterdir()) == ["trace_k120.svg", "trace_k40.svg"]
    for k in (40, 120):
        rows = len(read_trace(tmp_path / "run" / "select" / f"trace_k{k}.tsv")["generation"])
        # best and mean fitness above, p_inter below, one point per generation
        assert [len(points) for points in polylines(plots / f"trace_k{k}.svg")] == [rows] * 3


def test_plot_of_a_run_with_no_generation_after_the_first_has_one_point_per_line(tmp_path, small_pool_path):
    config = write_config(tmp_path, small_pool_path, ga={"max_generations": 0})
    assert cli.main(["select", "--config", str(config)]) == cli.EXIT_OK
    assert cli.main(["plot", "--config", str(config)]) == cli.EXIT_OK
    for k in (40, 120):
        assert len(read_trace(tmp_path / "run" / "select" / f"trace_k{k}.tsv")["generation"]) == 1
        assert [len(points) for points in polylines(tmp_path / "run" / "plots" / f"trace_k{k}.svg")] == [1] * 3


def test_plot_of_a_flat_fitness_trace_has_finite_coordinates(tmp_path):
    (tmp_path / "select").mkdir()
    records = [TraceRecord(g, 0.5, 0.5, 1.0 - g / 4, 0.05 + 0.65 * (1.0 - g / 4), 24) for g in range(4)]
    RunTrace(tuple(records)).write_tsv(tmp_path / "select" / "trace_k40.tsv")
    (svg,) = render_plots(tmp_path)
    lines = polylines(svg)
    assert [len(points) for points in lines] == [4] * 3
    assert all(math.isfinite(value) for points in lines for point in points for value in point)


def test_plot_of_a_trace_without_rows_is_stage_failure_naming_the_file(tmp_path, small_pool_path, capsys):
    config = write_config(tmp_path, small_pool_path)
    trace = tmp_path / "run" / "select" / "trace_k40.tsv"
    trace.parent.mkdir(parents=True)
    RunTrace(()).write_tsv(trace)  # its header alone
    with pytest.raises(PlottingError, match=re.escape(str(trace))):
        render_plots(tmp_path / "run")
    assert cli.main(["plot", "--config", str(config)]) == cli.EXIT_STAGE
    assert str(trace) in capsys.readouterr().err


def test_plot_without_traces_is_stage_failure(tmp_path, small_pool_path):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["plot", "--config", str(config)]) == cli.EXIT_STAGE


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["run-all", "--config", str(tmp_path / "nope.yaml")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    # reading it raised IsADirectoryError or UnicodeDecodeError, exit 3, although no stage ran
    config = tmp_path / "config.yaml"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(b"seed: \xff\n")
    assert cli.main(["run-all", "--config", str(config)]) == cli.EXIT_CONFIG
    assert f"error: {config}: cannot read config" in capsys.readouterr().err


def test_unset_env_var_is_config_error(tmp_path, small_pool_path, monkeypatch, capsys):
    monkeypatch.delenv("EXSEL_MISSING", raising=False)
    config = write_config(tmp_path, small_pool_path, output_dir="${EXSEL_MISSING}/run")
    assert cli.main(["run-all", "--config", str(config)]) == cli.EXIT_CONFIG
    assert "EXSEL_MISSING" in capsys.readouterr().err


def test_missing_template_file_is_config_error(tmp_path, small_pool_path, capsys):
    config = write_config(tmp_path, small_pool_path, evaluation={"instruction_template_path": "missing.txt"})
    assert cli.main(["run-all", "--config", str(config)]) == cli.EXIT_CONFIG
    assert "evaluation" in capsys.readouterr().err


def test_stage_failure_exit_code(tmp_path, small_pool_path):
    config = write_config(tmp_path, small_pool_path, projection={"target_dimension": 64})
    assert cli.main(["run-all", "--config", str(config)]) == cli.EXIT_STAGE


def test_empty_corpus_document_fails_the_pool_stage(llm_config_path, capsys):
    payload = yaml.safe_load(llm_config_path.read_text(encoding="utf-8"))
    document = Path(payload["corpus"]["documents"][0])
    document.write_text("", encoding="utf-8")
    # a closed local port, so a stage that got as far as the model would fail as a client error
    payload["client"].update(endpoint_url="http://127.0.0.1:9/v1", max_retries=0, backoff_base_s=0.0, timeout_s=2.0)
    write_yaml_config(llm_config_path, payload)
    assert cli.main(["run-all", "--config", str(llm_config_path)]) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert "stage pool failed" in err
    assert f"{document} is empty" in err


def test_client_failure_exit_code(tmp_path, small_pool_path):
    # llm mode against a closed port; zero retries so the failure is immediate
    config = write_config(
        tmp_path,
        small_pool_path,
        fitness_mode="llm",
        client={
            "chat_model": "m-chat",
            "embedding_model": "m-embed",
            "endpoint_url": "http://127.0.0.1:9/v1",
            "max_retries": 0,
            "backoff_base_s": 0.0,
            "timeout_s": 2.0,
        },
    )
    assert cli.main(["run-all", "--config", str(config)]) == cli.EXIT_CLIENT


def test_generation_whose_every_batch_failed_on_the_client_is_client_failure(llm_config_path, capsys):
    payload = yaml.safe_load(llm_config_path.read_text(encoding="utf-8"))
    payload["client"].update(endpoint_url="http://127.0.0.1:9/v1", max_retries=0, backoff_base_s=0.0, timeout_s=2.0)
    write_yaml_config(llm_config_path, payload)
    assert cli.main(["run-all", "--config", str(llm_config_path)]) == cli.EXIT_CLIENT
    assert "all 6 generation batches failed: {'client-error': 6}" in capsys.readouterr().err


def test_output_dir_and_seed_overrides(tmp_path, small_pool_path):
    config = write_config(tmp_path, small_pool_path)
    other = tmp_path / "other"
    assert cli.main(["run-all", "--config", str(config), "--output-dir", str(other), "--seed", "9"]) == cli.EXIT_OK
    assert (other / "select" / "trace_k40.tsv").exists()
    assert not (tmp_path / "run").exists()


def test_fitness_mode_override_revalidates(tmp_path, small_pool_path, capsys):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["run-all", "--config", str(config), "--fitness-mode", "llm"]) == cli.EXIT_CONFIG
    assert "chat_model" in capsys.readouterr().err


def test_baseline_force_reruns_stages_through_pools(tmp_path, small_pool_path, capsys):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["baseline", "--config", str(config)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["baseline", "--config", str(config), "--force"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for stage in ("pool", "project", "cluster", "pools"):
        assert f"[run ] {stage}" in out
    assert "[skip]" not in out


def test_force_flag_reruns_completed_stages(tmp_path, small_pool_path, capsys):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["run-all", "--config", str(config)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["run-all", "--config", str(config), "--force"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "[run ] select" in out
    assert "[skip]" not in out


def test_readme_cli_table_lists_every_subcommand_and_each_runs_a_stage():
    # a subcommand added to the parser, the table or the dispatch alone fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n(.*?)(?=^## )", readme, re.DOTALL | re.MULTILINE).group(1)
    listed = re.findall(r"^\| `([a-z-]+)` +\|", section, re.MULTILINE)
    (subparsers,) = [action for action in cli.build_parser()._actions if action.dest == "command"]
    assert sorted(listed) == sorted(subparsers.choices)
    assert sorted(cli._COMMAND_STAGE) == sorted(set(listed) - {"plot"})
    assert set(cli._COMMAND_STAGE.values()) <= set(CHAINS)
