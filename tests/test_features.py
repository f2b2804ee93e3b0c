"""Positional codes and synthetic appearance volumes."""

import numpy as np
import pytest

from relattn.config import ConfigError
from relattn.data import EntityDetection, SceneSample
from relattn.features import (
    build_positional_embeddings,
    class_signatures,
    grid_shape,
    scene_volume,
    sinusoidal_grid,
    synthesize_features,
)
from relattn.tensor import Tensor, level_weights, matmul, point_sample


class TestSinusoidalGrid:
    def test_pairs_lie_on_unit_circle(self):
        """Each (sin, cos) channel pair has unit norm at every node."""
        g = sinusoidal_grid(6, 7, 16)
        pair_norms = g[:, :, 0::2] ** 2 + g[:, :, 1::2] ** 2
        np.testing.assert_allclose(pair_norms, np.ones_like(pair_norms),
                                   atol=1e-12)

    def test_positions_are_distinct(self):
        g = sinusoidal_grid(8, 8, 32)
        flat = g.reshape(-1, 32)
        assert len(np.unique(flat.round(9), axis=0)) == 64

    def test_x_and_y_halves_are_independent(self):
        """Moving along x leaves the y half untouched and vice versa."""
        g = sinusoidal_grid(5, 5, 16)
        np.testing.assert_array_equal(g[0, 0, 8:], g[0, 3, 8:])
        np.testing.assert_array_equal(g[0, 0, :8], g[3, 0, :8])

    def test_cache_returns_readonly(self):
        g = sinusoidal_grid(4, 4, 8)
        assert g is sinusoidal_grid(4, 4, 8)
        with pytest.raises(ValueError):
            g[0, 0, 0] = 5.0

    def test_rejects_indivisible_width(self):
        with pytest.raises(ConfigError):
            sinusoidal_grid(4, 4, 6)


class TestPositionalEmbeddings:
    def test_scale_embedding_shifts_each_level(self):
        """At every lattice node, the folded sample plus the level weights
        times the scale table is the feature plus the sinusoid plus that
        level's scale embedding."""
        rng = np.random.default_rng(50)
        volume = rng.standard_normal((5, 4, 4, 8))
        scale = rng.standard_normal((5, 8))
        pe = build_positional_embeddings(volume, Tensor(scale))
        base = sinusoidal_grid(4, 4, 8)
        np.testing.assert_array_equal(pe.grid[0], base)
        np.testing.assert_array_equal(pe.folded, volume + base)
        for s in range(5):
            nodes = np.array([[x / 3, y / 3, s / 4] for y in range(4) for x in range(4)])
            got = (point_sample(pe.folded, Tensor(nodes))
                   + matmul(level_weights(Tensor(nodes), 5), pe.scale)).data.reshape(4, 4, 8)
            np.testing.assert_allclose(got, volume[s] + base + scale[s], atol=1e-12)

    def test_rejects_wrong_scale_shape(self):
        volume = np.zeros((5, 4, 4, 8))
        with pytest.raises(ConfigError):
            build_positional_embeddings(volume, Tensor(np.zeros((4, 8))))
        with pytest.raises(ConfigError):
            build_positional_embeddings(np.zeros((4, 4, 4, 8)), Tensor(np.zeros((5, 8))))


class TestVolumes:
    def scene(self):
        ents = [EntityDetection((0.2, 0.2, 0.45, 0.45), 1, 0),
                EntityDetection((0.55, 0.55, 0.9, 0.9), 2, 2)]
        return SceneSample((256, 256), ents, [(0, 0, 1)], split="train",
                           index=0)

    def test_grid_shape_is_one_eighth(self):
        assert grid_shape((256, 192)) == (32, 24)
        with pytest.raises(ConfigError):
            grid_shape((8, 8))

    def test_blob_peak_is_signature(self):
        """Without noise the node nearest the center holds the class
        signature with weight exactly one."""
        sigs = class_signatures(0, 3, 8)
        scene = self.scene()
        V = synthesize_features(scene, sigs, 0.0,
                                np.random.default_rng(0))
        ent = scene.entities[0]
        cx = round((ent.box[0] + ent.box[2]) / 2 * 31)
        cy = round((ent.box[1] + ent.box[3]) / 2 * 31)
        np.testing.assert_allclose(V[1, cy, cx], sigs[0], atol=1e-9)

    def test_entities_render_on_their_scale_level(self):
        sigs = class_signatures(0, 3, 8)
        V = synthesize_features(self.scene(), sigs, 0.0,
                                np.random.default_rng(0))
        assert np.abs(V[0]).max() == 0.0
        assert np.abs(V[1]).max() > 0.0
        assert np.abs(V[2]).max() > 0.0

    def test_signatures_depend_on_seed_only(self):
        a = class_signatures(5, 4, 16)
        b = class_signatures(5, 4, 16)
        c = class_signatures(6, 4, 16)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scene_volume_is_reproducible(self):
        sigs = class_signatures(3, 3, 8)
        a = scene_volume(3, self.scene(), sigs, 0.05)
        b = scene_volume(3, self.scene(), sigs, 0.05)
        np.testing.assert_array_equal(a, b)

    def test_noise_level_controls_spread(self):
        sigs = class_signatures(3, 3, 8)
        quiet = scene_volume(3, self.scene(), sigs, 0.0)
        loud = scene_volume(3, self.scene(), sigs, 0.5)
        background = np.abs(loud[4]).mean()
        assert background > 0.3  # scale level 4 holds no entity, only noise
        assert np.abs(quiet[4]).max() == 0.0
