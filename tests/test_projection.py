"""Tests for the linear projection and precomputed import paths."""

import numpy as np
import pytest

from exsel.llm.transport import EmbeddingVector
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

    def test_accepts_embedding_vectors(self):
        vectors = [EmbeddingVector((1.0, 0.0, 0.0)), EmbeddingVector((0.0, 1.0, 0.0))]
        out = project(vectors, ProjectionConfig(method=METHOD_LINEAR, target_dimension=2))
        assert out.shape == (2, 2)

    def test_more_dimensions_than_rows_pads_with_zeros(self):
        data = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        out = project(data, ProjectionConfig(method=METHOD_LINEAR, target_dimension=4))
        assert out.shape == (2, 4)
        assert np.allclose(pairwise(out), pairwise(data), atol=1e-9)


class TestPrecomputed:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "proj.txt"
        path.write_text("1.0 2.0\n3.0 4.0\n", encoding="utf-8")
        cfg = ProjectionConfig(method=METHOD_PRECOMPUTED, target_dimension=2, precomputed_path=str(path))
        out = project(np.zeros((2, 8)), cfg)
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "proj.txt"
        path.write_text("\n".join("1.0 2.0" for _ in range(10)) + "\n", encoding="utf-8")
        cfg = ProjectionConfig(method=METHOD_PRECOMPUTED, target_dimension=2, precomputed_path=str(path))
        with pytest.raises(ProjectionError, match="10 rows for 9"):
            project(np.zeros((9, 8)), cfg)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "proj.txt"
        path.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n", encoding="utf-8")
        cfg = ProjectionConfig(method=METHOD_PRECOMPUTED, target_dimension=2, precomputed_path=str(path))
        with pytest.raises(ProjectionError, match="dimension"):
            project(np.zeros((2, 8)), cfg)

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
