"""Tests for the linear projection and precomputed import paths."""

import numpy as np
import pytest

from conftest import make_topic_examples, surrogate_config_payload, write_yaml_config
from exsel.corpus import save_examples
from exsel.llm.mock import MockTransport
from exsel.pipeline import PipelineError, load_config, run_pipeline
from exsel.reduce.projection import (
    METHOD_LINEAR,
    METHOD_PRECOMPUTED,
    ProjectionConfig,
    ProjectionError,
    load_precomputed,
    project,
)


def pairwise(matrix):
    diff = matrix[:, None, :] - matrix[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def import_projection(tmp_path, vectors: str, n_candidates: int):
    """Run surrogate mode through the project stage, importing `vectors` as 2-d projections.

    The pool holds `n_candidates` examples and no validation split; no embedding call may be made.
    """
    pool = tmp_path / "pool.jsonl"
    save_examples(make_topic_examples(1, n_candidates, seed=3), pool)
    path = tmp_path / "proj.txt"
    path.write_text(vectors, encoding="utf-8")
    payload = surrogate_config_payload(
        pool,
        tmp_path / "run",
        corpus={"n_validation": 0},
        projection={"method": METHOD_PRECOMPUTED, "target_dimension": 2, "precomputed_path": str(path)},
    )
    cfg = load_config(write_yaml_config(tmp_path / "config.yaml", payload))
    transport = MockTransport()
    try:
        return run_pipeline(cfg, through="project", transport=transport)
    finally:
        assert transport.embed_calls == 0


class TestLinear:
    def test_full_dimension_preserves_pairwise_distances(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(30, 5))
        out = project(data, ProjectionConfig(method=METHOD_LINEAR, target_dimension=5))
        assert np.allclose(pairwise(out), pairwise(data), atol=1e-9)

    def test_rank_one_data_has_zero_second_component(self):
        rng = np.random.default_rng(3)
        direction = rng.normal(size=5)
        data = np.outer([1.0, 2.0, 4.5], direction)
        out = project(data, ProjectionConfig(method=METHOD_LINEAR, target_dimension=2))
        assert np.allclose(out[:, 1], 0.0, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(40, 12))
        cfg = ProjectionConfig(method=METHOD_LINEAR, target_dimension=4)
        assert np.array_equal(project(data, cfg), project(data, cfg))

    def test_first_component_maximizes_variance(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(200, 6)) * np.array([10.0, 1, 1, 1, 1, 1])
        out = project(data, ProjectionConfig(method=METHOD_LINEAR, target_dimension=3))
        variances = out.var(axis=0)
        assert variances[0] >= variances[1] >= variances[2]
        assert variances[0] == pytest.approx(data.var(axis=0).max(), rel=0.1)

    def test_target_exceeding_input_dimension_rejected(self):
        data = np.zeros((4, 3))
        with pytest.raises(ProjectionError):
            project(data, ProjectionConfig(method=METHOD_LINEAR, target_dimension=4))

    def test_more_dimensions_than_rows_pads_with_zeros(self):
        data = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        out = project(data, ProjectionConfig(method=METHOD_LINEAR, target_dimension=4))
        assert out.shape == (2, 4)
        assert np.allclose(pairwise(out), pairwise(data), atol=1e-9)


class TestPrecomputed:
    def test_round_trip(self, tmp_path):
        state = import_projection(tmp_path, "1.0 2.0\n3.0 4.0\n", n_candidates=2)
        assert np.array_equal(state.projected, [[1.0, 2.0], [3.0, 4.0]])

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(PipelineError, match="stage project failed: .*10 rows for 9") as info:
            import_projection(tmp_path, "1.0 2.0\n" * 10, n_candidates=9)
        assert isinstance(info.value.__cause__, ProjectionError)

    def test_dimension_mismatch(self, tmp_path):
        with pytest.raises(PipelineError, match="stage project failed: .*dimension 3, expected 2") as info:
            import_projection(tmp_path, "1.0 2.0 3.0\n4.0 5.0 6.0\n", n_candidates=2)
        assert isinstance(info.value.__cause__, ProjectionError)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "proj.txt"
        path.write_text("1.0 2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(ProjectionError, match="expected 2"):
            load_precomputed(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "proj.txt"
        path.write_text("1.0 x\n", encoding="utf-8")
        with pytest.raises(ProjectionError, match="non-numeric"):
            load_precomputed(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_rejected_with_line(self, tmp_path, bad):
        path = tmp_path / "proj.txt"
        path.write_text(f"1.0 2.0\n\n3.0 {bad}\n", encoding="utf-8")
        with pytest.raises(ProjectionError, match=r"proj\.txt:3: non-finite"):
            load_precomputed(path)

    def test_config_requires_path(self):
        with pytest.raises(ProjectionError):
            ProjectionConfig(method=METHOD_PRECOMPUTED, target_dimension=2)
