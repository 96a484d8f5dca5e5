import json
import math

import numpy as np
import pytest

from shellwalk.errors import ModelFormatError
from shellwalk.generators import (
    GaborSpec,
    cube3d_pm_j,
    grid2d,
    load_model,
    load_weights_csv,
    rbm_from_weights,
    rbm_gabor,
    save_model,
)


class TestGrid2d:
    def test_paper_scale_counts(self):
        model = grid2d(60, 1.0, 0.0)
        assert model.num_vars == 3600
        assert model.num_edges == 7080

    def test_two_by_two_edges(self):
        model = grid2d(2, 1.0, 0.0)
        assert {(i, j) for i, j, _ in model.edges} == {(0, 1), (2, 3), (0, 2), (1, 3)}

    def test_degenerate_single_site(self):
        model = grid2d(1, 1.0, 0.0)
        assert model.num_vars == 1
        assert model.num_edges == 0

    @pytest.mark.parametrize("side", range(1, 13))
    def test_open_boundary_edge_identity(self, side):
        model = grid2d(side, 0.5, 0.1)
        assert model.num_edges == 2 * side * (side - 1)
        assert all(c == 0.5 for _, _, c in model.edges)
        assert all(h == 0.1 for h in model.fields)

    def test_periodic_edge_count(self):
        model = grid2d(4, 1.0, 0.0, periodic=True)
        assert model.num_edges == 2 * 16

    def test_bad_side(self):
        with pytest.raises(ValueError):
            grid2d(0)


class TestCube3d:
    def test_paper_scale_counts(self):
        model = cube3d_pm_j(9, seed=7)
        assert model.num_vars == 729
        assert model.num_edges == 3 * 81 * 8 == 1944

    @pytest.mark.parametrize("side", range(1, 7))
    def test_edge_identity(self, side):
        model = cube3d_pm_j(side, seed=0)
        assert model.num_edges == 3 * side * side * (side - 1)

    def test_couplings_are_plus_minus_one(self):
        model = cube3d_pm_j(4, seed=3)
        assert set(c for _, _, c in model.edges) <= {-1.0, 1.0}

    def test_deterministic(self):
        assert cube3d_pm_j(4, seed=5).edges == cube3d_pm_j(4, seed=5).edges

    def test_sign_balance(self):
        model = cube3d_pm_j(20, seed=1)
        fraction = sum(1 for _, _, c in model.edges if c > 0) / model.num_edges
        assert 0.48 <= fraction <= 0.52


class TestRbm:
    def test_paper_scale_counts(self):
        model = rbm_gabor(784, 500, seed=1)
        assert model.num_edges == 784 * 500 == 392_000
        assert model.num_vars == 1284

    def test_bipartite_structure(self):
        model = rbm_gabor(4, 2, seed=0)
        assert model.num_edges == 8
        for i, j, _ in model.edges:
            assert i < 4 <= j

    def test_regular_degrees(self):
        model = rbm_gabor(16, 5, seed=2)
        for v in range(16):
            assert len(model.adjacency[v]) == 5
        for h in range(16, 21):
            assert len(model.adjacency[h]) == 16

    def test_deterministic(self):
        a = rbm_gabor(16, 3, seed=9)
        b = rbm_gabor(16, 3, seed=9)
        assert a.edges == b.edges

    def test_unit_filter_norms(self):
        model = rbm_gabor(25, 4, seed=4)
        for h in range(4):
            weights = [c for _, c in model.adjacency[25 + h]]
            assert math.fsum(w * w for w in weights) == pytest.approx(1.0)

    def test_rejects_non_square_visible(self):
        with pytest.raises(ValueError):
            rbm_gabor(10, 3, seed=0)

    def test_gabor_values_finite(self):
        spec = GaborSpec(center_u=3.0, center_v=4.0, theta=0.7, freq=0.1,
                         phase=1.0, sigma=3.0, aspect=0.8)
        values = spec.values(8)
        assert values.shape == (64,)
        assert np.all(np.isfinite(values))

    def test_from_weights_matrix(self):
        weights = np.array([[0.5, -0.25, 0.0], [1.0, 2.0, -3.0]])
        model = rbm_from_weights(weights)
        assert model.num_vars == 5
        assert model.num_edges == 6
        assert dict(model.adjacency[0])[3] == 0.5


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        model = grid2d(3, 1.0, 0.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.num_vars == model.num_vars
        assert loaded.edges == model.edges
        assert loaded.fields == model.fields
        assert loaded.meta == model.meta

    def test_full_precision_round_trip(self, tmp_path):
        coupling = 0.12345678901234567
        model = grid2d(2, coupling, -1e-17)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.edges[0][2] == coupling
        assert loaded.fields[0] == -1e-17

    def _write(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_rejects_duplicate_edge(self, tmp_path):
        doc = {"num_vars": 3, "edges": [[0, 1, 1.0], [0, 1, 2.0]],
               "fields": [0.0, 0.0, 0.0]}
        with pytest.raises(ModelFormatError, match="duplicates"):
            load_model(self._write(tmp_path, doc))

    def test_rejects_self_loop(self, tmp_path):
        doc = {"num_vars": 3, "edges": [[1, 1, 1.0]], "fields": [0.0] * 3}
        with pytest.raises(ModelFormatError, match="self-loop"):
            load_model(self._write(tmp_path, doc))

    def test_rejects_unordered_edge(self, tmp_path):
        doc = {"num_vars": 3, "edges": [[2, 0, 1.0]], "fields": [0.0] * 3}
        with pytest.raises(ModelFormatError, match="i < j"):
            load_model(self._write(tmp_path, doc))

    def test_rejects_out_of_range(self, tmp_path):
        doc = {"num_vars": 3, "edges": [[0, 3, 1.0]], "fields": [0.0] * 3}
        with pytest.raises(ModelFormatError, match="out of range"):
            load_model(self._write(tmp_path, doc))

    def test_rejects_missing_key(self, tmp_path):
        doc = {"num_vars": 3, "edges": []}
        with pytest.raises(ModelFormatError, match="fields"):
            load_model(self._write(tmp_path, doc))

    def test_rejects_bad_fields(self, tmp_path):
        doc = {"num_vars": 2, "edges": [], "fields": [0.0, "x"]}
        with pytest.raises(ModelFormatError, match="fields\\[1\\]"):
            load_model(self._write(tmp_path, doc))

    @pytest.mark.parametrize("doc", [
        # value checks, made by the model constructor
        {"num_vars": 2, "edges": [[0, 1, math.inf]], "fields": [0.0, 0.0]},
        {"num_vars": 2, "edges": [], "fields": [0.0, math.nan]},
        # type checks, made on the document
        {"num_vars": 2, "edges": [[0, 1, "1.0"]], "fields": [0.0, 0.0]},
        {"num_vars": 2, "edges": [[0.0, 1, 1.0]], "fields": [0.0, 0.0]},
    ], ids=["infinite-coupling", "nan-field", "string-coupling", "float-endpoint"])
    def test_rejects_bad_values_and_types(self, tmp_path, doc):
        with pytest.raises(ModelFormatError):
            load_model(self._write(tmp_path, doc))

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(path)


class TestWeightsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0.5,-0.25,0\n1,2,-3\n", encoding="utf-8")
        weights = load_weights_csv(path)
        assert weights.shape == (2, 3)
        assert weights[0, 1] == -0.25

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("1,2,3\n1,2\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="columns"):
            load_weights_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("1,があ\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_weights_csv(path)
