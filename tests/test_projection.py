"""Tests for the linear projection and precomputed import paths."""

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_topic_examples, surrogate_config_payload, write_yaml_config
from exsel.corpus import save_examples
from exsel.pipeline import ConfigError, PipelineError, load_config, run_pipeline
from exsel.reduce import projection
from exsel.reduce.projection import ProjectionConfig, ProjectionError, load_precomputed, project
from mock_transport import MockTransport


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
        projection={"target_dimension": 2, "precomputed_path": str(path)},
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
        out = project(data, ProjectionConfig(target_dimension=5))
        assert np.allclose(pairwise(out), pairwise(data), atol=1e-9)

    def test_rank_one_data_has_zero_second_component(self):
        rng = np.random.default_rng(3)
        direction = rng.normal(size=5)
        data = np.outer([1.0, 2.0, 4.5], direction)
        out = project(data, ProjectionConfig(target_dimension=2))
        assert np.allclose(out[:, 1], 0.0, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(40, 12))
        cfg = ProjectionConfig(target_dimension=4)
        assert np.array_equal(project(data, cfg), project(data, cfg))

    def test_first_component_maximizes_variance(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(200, 6)) * np.array([10.0, 1, 1, 1, 1, 1])
        out = project(data, ProjectionConfig(target_dimension=3))
        variances = out.var(axis=0)
        assert variances[0] >= variances[1] >= variances[2]
        assert variances[0] == pytest.approx(data.var(axis=0).max(), rel=0.1)

    def test_target_exceeding_input_dimension_rejected(self):
        data = np.zeros((4, 3))
        with pytest.raises(ProjectionError):
            project(data, ProjectionConfig(target_dimension=4))

    def test_more_dimensions_than_rows_pads_with_zeros(self):
        data = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        out = project(data, ProjectionConfig(target_dimension=4))
        assert out.shape == (2, 4)
        assert np.allclose(pairwise(out), pairwise(data), atol=1e-9)
        assert out[:, 2:].tobytes() == np.zeros((2, 2)).tobytes()  # two rows give at most two directions


def _inputs():
    """Seeded tall, rank-deficient and wider-than-tall matrices, each with a target dimension."""
    rng = np.random.default_rng(21)
    return {
        "tall": (rng.normal(size=(3000, 32)), 20),
        "rank-deficient": (rng.normal(size=(400, 3)) @ rng.normal(size=(3, 16)), 8),
        "n-below-d": (rng.normal(size=(6, 20)), 12),
        "wide-rank-deficient": (rng.normal(size=(30, 3)) @ rng.normal(size=(3, 100)), 20),
    }


def svd_reference(data, target):
    """The projection as an SVD of the centered matrix computes it: the oracle `project` must stay close to."""
    centered = data - data.mean(axis=0, keepdims=True)
    vt = np.linalg.svd(centered, full_matrices=False)[2][:target]
    for row in vt:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return np.hstack([centered @ vt.T, np.zeros((len(data), target - len(vt)))])


@pytest.mark.parametrize("kind", ["tall", "rank-deficient", "n-below-d", "wide-rank-deficient"])
def test_matches_the_svd_reference(kind):
    data, target = _inputs()[kind]
    out = project(data, ProjectionConfig(target_dimension=target))
    assert out.shape == (len(data), target)
    assert np.abs(out - svd_reference(data, target)).max() <= 1e-10


@pytest.mark.parametrize("shape, side", [((30, 100), 30), ((100, 30), 30), ((40, 40), 40)])
def test_eigh_solves_the_smaller_side(monkeypatch, shape, side):
    # a d x d problem for a short, wide input took 0.6 s at 64 x 1,536 and 5.5 s at 920 x 3,072
    sides = []
    eigh = np.linalg.eigh

    def recording_eigh(matrix, *args, **kwargs):
        sides.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    project(np.random.default_rng(4).normal(size=shape), ProjectionConfig(target_dimension=20))
    assert sides == [(side, side)]


@pytest.fixture
def blas_threads():
    """OpenBLAS's (get, set) thread controls; the count is reset after the test."""
    controls = projection._blas_thread_controls()
    if controls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread controls")
    get, set_ = controls
    original = get()
    yield get, set_
    set_(original)


class TestOneBlasThread:
    def test_controls_are_found_when_numpy_uses_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
        if "openblas" not in str(blas.get("name", "")).lower():
            pytest.skip("numpy is not built against OpenBLAS")
        assert projection._blas_thread_controls() is not None

    @pytest.mark.parametrize("kind", ["tall", "rank-deficient", "n-below-d", "wide-rank-deficient"])
    def test_same_bytes_with_and_without_the_thread_limit(self, monkeypatch, kind):
        data, target = _inputs()[kind]
        cfg = ProjectionConfig(target_dimension=target)
        limited = project(data, cfg)
        monkeypatch.setattr(projection, "_blas_thread_controls", lambda: None)
        assert np.array_equal(project(data, cfg), limited)

    def test_eigh_runs_in_one_thread_and_the_count_is_restored(self, monkeypatch, blas_threads):
        get, set_ = blas_threads
        set_(2)
        before = get()
        seen = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            seen.append(get())
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        project(_inputs()["tall"][0], ProjectionConfig(target_dimension=4))
        assert seen == [1]
        assert get() == before

    def test_qr_of_a_wide_input_runs_in_one_thread(self, monkeypatch, blas_threads):
        get, set_ = blas_threads
        set_(2)
        seen = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            seen.append(get())
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        project(_inputs()["wide-rank-deficient"][0], ProjectionConfig(target_dimension=4))
        assert seen == [1]
        assert get() == 2

    def test_count_is_restored_when_eigh_raises(self, monkeypatch, blas_threads):
        get, set_ = blas_threads
        set_(2)
        before = get()

        def failing_eigh(*args, **kwargs):
            assert get() == 1
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(np.linalg.LinAlgError):
            project(_inputs()["rank-deficient"][0], ProjectionConfig(target_dimension=4))
        assert get() == before

    def test_inputs_on_both_sides_of_the_old_work_bound_run_in_one_thread(self, monkeypatch, blas_threads):
        """4,095 x 64 x 64 was below 2**24 and ran in one thread; 4,096 x 64 x 64 kept OpenBLAS's count."""
        get, set_ = blas_threads
        set_(2)
        seen = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            seen.append(get())
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for rows in (4095, 4096):
            data = np.random.default_rng(9).normal(size=(rows, 64))
            project(data, ProjectionConfig(target_dimension=4))
        assert seen == [1, 1]
        assert get() == 2

    def test_same_bytes_at_one_and_two_threads(self, blas_threads):
        # above the old 2**24 work bound, where an SVD in OpenBLAS's own thread count gave other bytes at 2 threads;
        # at this shape a final product outside the one-thread section does too
        get, set_ = blas_threads
        data = np.random.default_rng(0).normal(size=(210, 400))
        cfg = ProjectionConfig(target_dimension=20)
        outputs = []
        for threads in (1, 2):
            set_(threads)
            outputs.append(project(data, cfg).tobytes())
        assert outputs[0] == outputs[1]

    def test_concurrent_calls_take_turns_and_restore_the_count(self, monkeypatch, blas_threads):
        get, set_ = blas_threads
        set_(2)
        active, overlaps = [], []
        eigh = np.linalg.eigh

        def slow_eigh(*args, **kwargs):
            active.append(1)
            overlaps.append(len(active))
            time.sleep(0.01)
            try:
                return eigh(*args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(np.linalg, "eigh", slow_eigh)
        data, target = _inputs()["rank-deficient"]
        cfg = ProjectionConfig(target_dimension=target)
        start = threading.Barrier(2)

        def worker():
            start.wait()
            for _ in range(5):
                project(data, cfg)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert overlaps == [1] * 10
        assert get() == 2

    def test_only_numpys_own_openblas_is_used(self):
        """scipy bundles its own OpenBLAS; loading it must not put it in the lookup."""
        linalg = pytest.importorskip("scipy.linalg")
        linalg.svd(np.eye(3))
        numpy_dir = Path(np.__file__).resolve().parent
        own = (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs")
        paths = projection._openblas_paths()
        assert all(Path(path).parent in own for path in paths)
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("no /proc/self/maps to list the loaded libraries")
        loaded = {line.split()[-1] for line in maps.read_text(encoding="utf-8").splitlines() if "openblas" in line}
        others = {path for path in loaded if Path(path).parent not in own}
        if not others:
            pytest.skip("scipy loaded no OpenBLAS of its own")
        assert others.isdisjoint(paths)

    def test_project_works_when_no_thread_controls_are_found(self, monkeypatch, tmp_path):
        not_a_library = tmp_path / "libopenblas.so"
        not_a_library.write_text("not a shared object\n", encoding="utf-8")
        for paths in ([], [str(not_a_library)]):
            monkeypatch.setattr(projection, "_openblas_paths", lambda paths=paths: paths)
            assert projection._blas_thread_controls.__wrapped__() is None
        monkeypatch.setattr(projection, "_blas_thread_controls", lambda: None)
        data = np.random.default_rng(4).normal(size=(50, 6))
        out = project(data, ProjectionConfig(target_dimension=6))
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
        # the width is read at config load, before any stage runs or pays
        with pytest.raises(ConfigError, match=r"^projection\.precomputed_path is 3 wide, not target_dimension 2$"):
            import_projection(tmp_path, "\n1.0 2.0 3.0\n4.0 5.0 6.0\n", n_candidates=2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "proj.txt"
        path.write_text("1.0 2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(ProjectionError, match="expected 2"):
            load_precomputed(path)

    def test_ragged_row_names_its_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "proj.txt"
        path.write_text("1 2\n\n3\n", encoding="utf-8")
        with pytest.raises(ProjectionError, match=r"proj\.txt:3: expected 2 values, found 1"):
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
