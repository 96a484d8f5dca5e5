import hashlib
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


# sha256 of the saved model file of grid2d(side, 0.41, 0.07) and
# cube3d_pm_j(side, seed=11), keyed by (generator, side, periodic)
LATTICE_MODEL_DIGESTS = {
    ("grid2d", 1, False): "4d1619ee67ed5ccc76fbdad22f4b0175aa95c4dde2d33c4d6abe8a7ac5b6ee23",
    ("grid2d", 2, False): "b8627f905ef8f57ec198aab0115b203b1ac3f73b288cb3c6be4cb97330253858",
    ("grid2d", 3, False): "8ad63e9c0c6b552dddc812e5c58fac56347bd8a7bf90ed8704dc6ea7947e865f",
    ("grid2d", 4, False): "1cb66451bbee111cdcae845f315a3c5a6d249db44f4ddfbe9fef6e2e9d910e5e",
    ("grid2d", 5, False): "b45bf1a32b3fde6ff68c21dd7ee0724683a981dd7fbdb1a1a6a4af50222e8e7d",
    ("grid2d", 6, False): "d0d09add96a60b82edd59d87dcc9cba4780d7afc6b231802da6013ad17187c8c",
    ("grid2d", 1, True): "0b2342a569d84c612a0d6bfc85110f02038bbcac8891a0a2f9eeddf1e49aa707",
    ("grid2d", 2, True): "48502075ee6e87fcef77d4b5ffbcddb48cac7eccbfb2a07b7e532df09a52aade",
    ("grid2d", 3, True): "ee8066a33163da7e25a4b5ab4319c89b2fb5c989662e4aec8d7a4beac47821c8",
    ("grid2d", 4, True): "a9e22bd0b0162dcfb964aa53aae4d5633c0fe2acd727df2ba014a6e04a33e739",
    ("grid2d", 5, True): "a7c3c3ce02710e7fc9e9826c93d02241d293630e40e66894c4672a68ac5fb9bd",
    ("grid2d", 6, True): "04efd7a30d5454c453e6bfe8235ff0e5d436fddbe34d31ffd30105e2c54f3720",
    ("cube3d_pm_j", 1, False): "40d2aa3f2240b7732364aa4b513f54f3d564148e15b8f34d59705ee13532ca77",
    ("cube3d_pm_j", 2, False): "9a5332718707965661ecd147f51138f8ef57b91c8cf3e55a5145c338873bfe27",
    ("cube3d_pm_j", 3, False): "aa01d0adef107b406a1558e80cd78032bd1a4464f1e26c09d93c666694cc4cd8",
    ("cube3d_pm_j", 4, False): "ad9eec3b410d257d73a2f64deb7a1af38cde755db53d7750fa26c0358f3c27ae",
    ("cube3d_pm_j", 5, False): "27b05780e3814092b853f9af4c78d5b634095644864ff20f46a5accf6a2c48a9",
    ("cube3d_pm_j", 6, False): "1e4744a4a6b2dce21a27bba73c06031a722c6d89acf14738f47a065b09a90df0",
    ("cube3d_pm_j", 1, True): "aac42d4581767402c088734c4892732a246267d6d099c0cad20d4f7a9a033ad0",
    ("cube3d_pm_j", 2, True): "43e17186963893159ca5f0cd5323a2b47b04f0f9f7d8670b2d450c45cb1ecdf0",
    ("cube3d_pm_j", 3, True): "fecac4afe4a788004b81c585b5eb4706eada290830769cf487c65b4dbec41099",
    ("cube3d_pm_j", 4, True): "de1ecacf40ee6a5e81d56bd55710cd17717be1fba68223e42412439882e4f5dc",
    ("cube3d_pm_j", 5, True): "23e8f46120d86358f511caeea3a7ece87c5ffd84db50461bb73233d0a88c80af",
    ("cube3d_pm_j", 6, True): "c121055c2bfa5af412848a5394350979e2e016de2748a495e22fe4acc60b3612",
}


@pytest.mark.parametrize("generator, side, periodic", sorted(LATTICE_MODEL_DIGESTS))
def test_lattice_model_files_are_pinned(tmp_path, generator, side, periodic):
    # the cube's signs are drawn in lattice-edge order, so these also pin
    # that order
    if generator == "grid2d":
        model = grid2d(side, 0.41, 0.07, periodic=periodic)
    else:
        model = cube3d_pm_j(side, seed=11, periodic=periodic)
    path = tmp_path / "model.json"
    save_model(model, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == LATTICE_MODEL_DIGESTS[generator, side, periodic]


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
        # JSON true/false parse to bool, which Python counts as an int
        {"num_vars": True, "edges": [], "fields": [True]},
        {"num_vars": 2, "edges": [[False, True, 1.0]], "fields": [0.0, 0.0]},
        {"num_vars": 2, "edges": [[0, 1, True]], "fields": [0.0, 0.0]},
        {"num_vars": 2, "edges": [], "fields": [0.0, False]},
    ], ids=["infinite-coupling", "nan-field", "string-coupling", "float-endpoint",
            "bool-num-vars", "bool-endpoints", "bool-coupling", "bool-field"])
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "w.csv"
        path.write_text(f"1,2\n3,{value}\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="row 1"):
            load_weights_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("1,があ\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_weights_csv(path)
