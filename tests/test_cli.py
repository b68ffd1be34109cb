"""Exit codes and subcommand behavior of the command line interface."""

import json
from pathlib import Path

import pytest
import yaml

from conftest import surrogate_config_payload, write_yaml_config
from exsel import cli


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


def test_plot_renders_png_per_pool_size(tmp_path, small_pool_path):
    pytest.importorskip("matplotlib")
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["select", "--config", str(config)]) == cli.EXIT_OK
    assert cli.main(["plot", "--config", str(config)]) == cli.EXIT_OK
    for name in ["fitness_k40.png", "fitness_k120.png", "p_inter_k40.png", "p_inter_k120.png"]:
        path = tmp_path / "run" / "plots" / name
        assert path.exists()
        assert path.read_bytes().startswith(b"\x89PNG")


def test_plot_without_traces_is_stage_failure(tmp_path, small_pool_path):
    config = write_config(tmp_path, small_pool_path)
    assert cli.main(["plot", "--config", str(config)]) == cli.EXIT_STAGE


def test_missing_config_is_config_error(tmp_path):
    assert cli.main(["run-all", "--config", str(tmp_path / "nope.yaml")]) == cli.EXIT_CONFIG


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
