"""Entity decoder: sampling, attention stages, and whole-stack behavior."""

import numpy as np
import pytest

from relattn.config import RunConfig
from relattn.data import EntityDetection, SceneSample
from relattn.decoder import (
    DecoderStack,
    GcaLayer,
    RcaLayer,
    initial_points,
    queries,
    snap_scale,
)
from relattn.features import build_positional_embeddings
from relattn.gradcheck import check_gradients, check_parameter_gradients
from relattn.model import RelationModel
from relattn.params import ParameterRegistry
from relattn.sampler import TrainDraw, distinct_lattice_points, grid_steps
from relattn.tensor import Tensor, add, level_weights, mul, no_grad, point_sample, tsum

from helpers import parameter
from oracles import full_lattice_infer_oracle


def detections():
    return [
        EntityDetection((0.10, 0.20, 0.30, 0.50), 1, 0),
        EntityDetection((0.40, 0.10, 0.90, 0.60), 3, 2),
        EntityDetection((0.55, 0.60, 0.75, 0.95), 2, 1),
    ]


def volume(rng, d=8, H=6, W=6):
    return rng.standard_normal((5, H, W, d))


def train_draw(seed, m):
    """A training draw for the decoder, which reads its generator and
    sample count; tau, the relation head's temperature, plays no part."""
    return TrainDraw(np.random.default_rng(seed), m=m, tau=1.0)


def make_stack(d=8, K=2, layers=2, seed=70, **settings):
    """A decoder over C = 3 classes whose class embeddings are redrawn
    wider than at init, from a generator of their own, so stacks of any
    depth built from one seed share them."""
    reg = ParameterRegistry()
    cfg = RunConfig(C=3, K=K, d=d, L_d=layers, h_G=2, d_G=4, h_R=2, d_R=4,
                    lr_multiplier_sampler=0.1, **settings)
    stack = DecoderStack(reg, cfg, np.random.default_rng(seed))
    embeds = np.random.default_rng(seed + 1)
    for table in (stack.sub_embeds, stack.obj_embeds):
        table.data[...] = embeds.normal(0, 0.5, table.shape)
    return reg, stack


class TestInitialPoints:
    def test_centers_and_scale_mapping(self):
        pts = initial_points(detections())
        np.testing.assert_allclose(pts[0], [0.20, 0.35, 0.25])
        np.testing.assert_allclose(pts[1], [0.65, 0.35, 0.75])
        np.testing.assert_allclose(pts[2], [0.65, 0.775, 0.50])

    def test_snap_scale_rounds_to_levels(self):
        pts = Tensor(np.array([[0.3, 0.7, 0.13], [0.2, 0.1, 0.95]]))
        snapped = snap_scale(pts).data
        np.testing.assert_allclose(snapped[:, :2], pts.data[:, :2])
        np.testing.assert_allclose(snapped[:, 2], [0.25, 1.0])

    def test_snap_scale_blocks_scale_gradient(self):
        pts = Tensor(np.array([[0.3, 0.7, 0.13]]), requires_grad=True)
        tsum(snap_scale(pts)).backward()
        np.testing.assert_allclose(pts.grad, [[1.0, 1.0, 0.0]])


class TestInitState:
    def test_box_embedding_projects_both_corner_codes(self):
        """Each entity's box embedding is box_proj of [code(top-left) +
        corner 0, code(bottom-right) + corner 1] plus the role embedding,
        where code(c) samples the sinusoid grid and the scale table at c,
        one corner at a time here."""
        rng = np.random.default_rng(69)
        reg, stack = make_stack()
        vol = rng.standard_normal((5, 6, 6, 8))
        pe = build_positional_embeddings(vol, Tensor(rng.standard_normal((5, 8))))
        _, boxes, _ = stack.init_state(detections(), vol, pe)
        w = parameter(reg, "decoder.box_proj.weight").data
        b = parameter(reg, "decoder.box_proj.bias").data
        corner = parameter(reg, "decoder.corner_embeds").data
        role = parameter(reg, "decoder.role_embeds").data
        for i, det in enumerate(detections()):
            x0, y0, x1, y1 = det.box
            codes = []
            for k, (x, y) in enumerate(((x0, y0), (x1, y1))):
                c = Tensor(np.array([x, y, det.scale_level / 4.0]))
                code = point_sample(pe.grid, c).data + level_weights(c, 5).data @ pe.scale.data
                codes.append(code + corner[k])
            box = np.concatenate(codes) @ w + b
            np.testing.assert_allclose(boxes[0].data[i, 0], box + role[0], atol=1e-12)
            np.testing.assert_allclose(boxes[1].data[i, 0], box + role[1], atol=1e-12)


def random_blend(rng, n, K, m, S=5):
    """Level weights of random sample points, as decode passes them."""
    return level_weights(Tensor(rng.uniform(0.0, 1.0, (n, K, m, 3))), S)


class TestGca:
    def test_weights_sum_to_one_over_samples(self):
        rng = np.random.default_rng(71)
        reg = ParameterRegistry()
        layer = GcaLayer(reg, "g", d=8, heads=2, head_dim=4, rng=rng)
        n, K, m = 3, 2, 5
        state = Tensor(rng.standard_normal((n, K, 8)))
        box = Tensor(rng.standard_normal((n, 1, 8)))
        feats = Tensor(rng.standard_normal((n, K, m, 8)))
        table = Tensor(rng.standard_normal((5, 8)))
        out, w = layer(state, add(state, box), feats, random_blend(rng, n, K, m), table,
                       return_weights=True)
        assert out.shape == (n, K, 8)
        assert w.shape == (n, K, 2, m)
        np.testing.assert_allclose(w.data.sum(axis=-1),
                                   np.ones((n, K, 2)), atol=1e-12)

    def test_deterministic_and_state_sensitive(self):
        rng = np.random.default_rng(72)
        reg = ParameterRegistry()
        layer = GcaLayer(reg, "g", d=8, heads=2, head_dim=4, rng=rng)
        base = rng.standard_normal((2, 2, 8))
        feats = Tensor(rng.standard_normal((2, 2, 4, 8)))
        blend, table = random_blend(rng, 2, 2, 4), Tensor(np.zeros((5, 8)))
        a = layer(Tensor(base), Tensor(base), feats, blend, table).data
        b = layer(Tensor(base), Tensor(base), feats, blend, table).data
        np.testing.assert_array_equal(a, b)
        c = layer(Tensor(base + 0.5), Tensor(base + 0.5), feats, blend, table).data
        assert not np.allclose(a, c)

    def make_random(self, seed, n=3, K=2, m=5, d=8, S=5):
        """A layer with every parameter drawn at random, v.bias and the
        norm shift included, and random inputs: state, box embedding,
        features, sample points off the scale levels and a scale table."""
        rng = np.random.default_rng(seed)
        reg = ParameterRegistry()
        layer = GcaLayer(reg, "g", d=d, heads=2, head_dim=4, rng=rng)
        for p in reg.parameters():
            p.data[...] = rng.normal(0.0, 0.3, p.data.shape)
        pts = rng.uniform(0.0, 1.0, (n, K, m, 3))
        pts[..., 2] = (rng.integers(0, S - 1, (n, K, m)) + rng.uniform(0.1, 0.9, (n, K, m))) \
            / (S - 1)
        inputs = (Tensor(rng.standard_normal((n, K, d))), Tensor(rng.standard_normal((n, 1, d))),
                  Tensor(rng.standard_normal((n, K, m, d))), Tensor(pts),
                  Tensor(rng.standard_normal((S, d))))
        return reg, layer, inputs

    def test_matches_unfolded_numpy_reference(self):
        """Forming x = feats + blend . table in full, projecting a key and a
        value for every sample, splitting heads, attending and projecting
        out gives the layer's output and weights. In the counted form,
        sample j stands for c_j copies through log c_j and two -inf
        padding samples follow: the reference attends over each state's
        samples repeated c_j times, and a sample's weight is the sum over
        its copies."""
        reg, layer, (state, box, feats, coords, table) = self.make_random(74)
        blend = level_weights(coords, table.shape[0])
        p = {name: parameter(reg, f"g.{name}").data for name in
             ("q.weight", "q.bias", "k.weight", "v.weight", "v.bias",
              "out.weight", "out.bias", "ln.gain", "ln.shift")}
        n, K, m, d = feats.shape
        h, dh = 2, 4
        x = feats.data + blend.data @ table.data
        q = ((state.data + box.data) @ p["q.weight"] + p["q.bias"]).reshape(n, K, h, dh)

        def reference(counts):
            """Output and per-sample weights with sample j of state (i, k)
            repeated counts[i, k, j] times."""
            ctx, weights = np.empty((n, K, h * dh)), np.zeros((n, K, h, m))
            for i in range(n):
                for k in range(K):
                    copies = np.repeat(np.arange(m), counts[i, k])
                    keys = (x[i, k, copies] @ p["k.weight"]).reshape(-1, h, dh)
                    values = (x[i, k, copies] @ p["v.weight"] + p["v.bias"]).reshape(-1, h, dh)
                    scores = np.einsum("hc,mhc->hm", q[i, k], keys) / np.sqrt(dh)
                    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
                    w /= w.sum(axis=-1, keepdims=True)
                    ctx[i, k] = np.einsum("hm,mhc->hc", w, values).reshape(-1)
                    np.add.at(weights[i, k], (slice(None), copies), w)
            y = state.data + ctx @ p["out.weight"] + p["out.bias"]
            y = (y - y.mean(axis=-1, keepdims=True)) / np.sqrt(y.var(axis=-1, keepdims=True)
                                                              + 1e-5)
            return y * p["ln.gain"] + p["ln.shift"], weights

        out, weights = layer(state, add(state, box), feats, blend, table, return_weights=True)
        want, want_weights = reference(np.ones((n, K, m), dtype=int))
        np.testing.assert_allclose(weights.data, want_weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

        counts = np.random.default_rng(77).integers(1, 5, (n, K, m))
        pad = np.random.default_rng(78).standard_normal((n, K, 2, d))
        padded_feats = Tensor(np.concatenate([feats.data, pad], axis=2))
        padded_blend = Tensor(np.concatenate([blend.data, blend.data[:, :, :2]], axis=2))
        log_counts = np.concatenate([np.log(counts), np.full((n, K, 2), -np.inf)], axis=2)
        out, weights = layer(state, add(state, box), padded_feats, padded_blend, table,
                             log_counts, return_weights=True)
        want, want_weights = reference(counts)
        np.testing.assert_allclose(weights.data[..., :m], want_weights, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(weights.data[..., m:], 0.0)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        """Every parameter, k.weight and v.bias among them, the feats and
        state inputs, the scale table and the sample coordinates behind
        the level weights against central differences."""
        reg, layer, (state, box, feats, coords, table) = self.make_random(75, n=2, m=3)
        wts = Tensor(np.random.default_rng(76).standard_normal(state.shape))

        def loss(s=state, f=feats, c=coords, t=table):
            return tsum(mul(layer(s, add(s, box), f, level_weights(c, t.shape[0]), t), wts))

        for p in reg.parameters():
            assert check_parameter_gradients(loss, p.tensor) < 1e-6, p.name
        assert check_gradients(lambda f: loss(f=f), feats) < 1e-6
        assert check_gradients(lambda s: loss(s=s), state) < 1e-6
        assert check_gradients(lambda t: loss(t=t), table) < 1e-6
        assert check_gradients(lambda c: loss(c=c), coords) < 1e-6


class TestRca:
    def make(self, n=3, K=2, d=8, seed=73):
        rng = np.random.default_rng(seed)
        reg = ParameterRegistry()
        layer = RcaLayer(reg, "r", d=d, heads=2, head_dim=4, rng=rng)
        states = (Tensor(rng.standard_normal((n, K, d))),
                  Tensor(rng.standard_normal((n, K, d))))
        boxes = (Tensor(rng.standard_normal((n, 1, d))),
                 Tensor(rng.standard_normal((n, 1, d))))
        return layer, states, boxes

    def test_attention_normalizations(self):
        """Key-softmax rows and query-softmax columns each sum to one."""
        layer, states, boxes = self.make()
        _, (over_keys, over_queries) = layer(states, queries(states, boxes),
                                             return_weights=True)
        N = 3 * 2
        np.testing.assert_allclose(over_keys.data.sum(axis=-1),
                                   np.ones((2, N)), atol=1e-12)
        np.testing.assert_allclose(over_queries.data.sum(axis=1),
                                   np.ones((2, N)), atol=1e-12)

    def test_both_sides_update(self):
        layer, states, boxes = self.make()
        out = layer(states, queries(states, boxes))
        assert out[0].shape == states[0].shape
        assert out[1].shape == states[1].shape
        assert not np.allclose(out[0].data, states[0].data)
        assert not np.allclose(out[1].data, states[1].data)

    def test_matches_numpy_reference(self):
        """Each role reads the other role's values and updates through its
        own output, feed-forward and norm parameters, looked up by name and
        compared with a plain numpy evaluation."""
        n, K, d, h, dh = 3, 2, 8, 2, 4
        rng = np.random.default_rng(74)
        reg = ParameterRegistry()
        layer = RcaLayer(reg, "r", d=d, heads=h, head_dim=dh, rng=rng)
        for p in reg.parameters():
            p.data[:] = 0.5 * rng.standard_normal(p.data.shape)
        sub, obj = rng.standard_normal((2, n, K, d))
        sub_box, obj_box = rng.standard_normal((2, n, 1, d))
        states = (Tensor(sub), Tensor(obj))
        out = layer(states, queries(states, (Tensor(sub_box), Tensor(obj_box))))

        def w(name):
            return parameter(reg, f"r.{name}").data

        def lin(x, name):
            return x @ w(f"{name}.weight") + w(f"{name}.bias")

        def norm(x, name):
            c = x - x.mean(-1, keepdims=True)
            scaled = c / np.sqrt((c * c).mean(-1, keepdims=True) + 1e-5)
            return scaled * w(f"ln.{name}.gain") + w(f"ln.{name}.shift")

        def split(x):  # N x h*dh -> h x N x dh
            return x.reshape(-1, h, dh).transpose(1, 0, 2)

        def softmax(x, axis):
            e = np.exp(x - x.max(axis, keepdims=True))
            return e / e.sum(axis, keepdims=True)

        q_in = (sub + sub_box).reshape(-1, d)
        k_in = (obj + obj_box).reshape(-1, d)
        logits = split(lin(q_in, "q")) @ split(lin(k_in, "k")).transpose(0, 2, 1) / np.sqrt(dh)
        reads = {"sub": (softmax(logits, -1), lin(k_in, "v_obj")),
                 "obj": (softmax(logits, 1).transpose(0, 2, 1), lin(q_in, "v_sub"))}
        for role, x, got in (("sub", sub, out[0]), ("obj", obj, out[1])):
            weights, values = reads[role]
            ctx = (weights @ split(values)).transpose(1, 0, 2).reshape(-1, h * dh)
            x = norm(x.reshape(-1, d) + lin(ctx, f"out_{role}"), f"attn_{role}")
            hidden = np.maximum(lin(x, f"ffn_{role}.hidden"), 0.0)
            x = norm(x + lin(hidden, f"ffn_{role}.out"), f"ffn_{role}")
            np.testing.assert_allclose(got.data, x.reshape(n, K, d), rtol=1e-10, atol=1e-12)

    def test_information_crosses_roles(self):
        """Perturbing the object states changes the subject update."""
        layer, states, boxes = self.make()
        a = layer(states, queries(states, boxes))[0].data
        bumped = (states[0], Tensor(states[1].data + 0.5))
        b = layer(bumped, queries(bumped, boxes))[0].data
        assert not np.allclose(a, b)


class TestDecode:
    def test_infer_is_deterministic(self):
        rng = np.random.default_rng(74)
        _, stack = make_stack(infer_range_mult=1)
        vol = volume(rng)
        a = stack.decode(detections(), vol, None)
        b = stack.decode(detections(), vol, None)
        np.testing.assert_array_equal(a.queries[0].data, b.queries[0].data)
        np.testing.assert_array_equal(a.queries[1].data, b.queries[1].data)

    def test_permuting_entities_permutes_outputs(self):
        """The decoder treats entities as a set."""
        rng = np.random.default_rng(76)
        _, stack = make_stack(infer_range_mult=1)
        vol = volume(rng)
        dets = detections()
        perm = [2, 0, 1]
        a = stack.decode(dets, vol, None)
        b = stack.decode([dets[i] for i in perm], vol, None)
        np.testing.assert_allclose(b.queries[0].data, a.queries[0].data[perm],
                                   atol=1e-10)
        np.testing.assert_allclose(b.queries[1].data, a.queries[1].data[perm],
                                   atol=1e-10)

    def test_collected_points_stay_in_unit_cube(self):
        rng = np.random.default_rng(77)
        _, stack = make_stack(layers=2)
        res = stack.decode(detections(), volume(rng), train_draw(0, m=4))
        assert [len(layers) for layers in res.points] == [2, 2]
        for pts in res.points[0] + res.points[1]:
            assert pts.shape == (3, 2, 4, 3)
            assert pts.min() >= 0.0 and pts.max() <= 1.0

    def test_mean_trajectory_accumulates_unclamped(self):
        """The recorded mean path is the running sum of offset means on top
        of the initial points, without any clamping. Each layer's means
        come from that layer's sampler at the query the layer reads; a
        one-layer stack from the same seed shares layer 0, so its output
        queries are the ones layer 1 reads."""
        rng = np.random.default_rng(78)
        _, stack = make_stack(layers=2)
        _, first = make_stack(layers=1)
        vol = volume(rng)
        res = stack.decode(detections(), vol, train_draw(1, m=3))
        mid = first.decode(detections(), vol, train_draw(1, m=3)).queries
        pe = build_positional_embeddings(vol, stack.scale_embeds)
        states, boxes, p0 = stack.init_state(detections(), vol, pe)
        init = queries(states, boxes)
        for r, means in enumerate(res.means):
            reads = [q[r] for q in (init, mid)]
            want = p0.reshape(3, 1, 3)
            for layer, query in enumerate(reads):
                want = want + stack.samplers[layer][r](query).mu.data
                np.testing.assert_allclose(means[layer].data, want,
                                           atol=1e-12)

    def test_nearest_scale_option_changes_sampling(self):
        rng = np.random.default_rng(79)
        _, stack = make_stack(infer_range_mult=1)
        _, nearest = make_stack(infer_range_mult=1, scale_interpolation="nearest")
        vol = volume(rng)
        tri = stack.decode(detections(), vol, None)
        near = nearest.decode(detections(), vol, None)
        assert not np.allclose(tri.queries[0].data, near.queries[0].data)


class TestDistinctLatticeInfer:
    """Infer mode samples each distinct lattice point once and weighs it
    by its number of copies; the scores equal the full-lattice oracle's,
    and the distinct points are those of np.unique."""

    ENTITIES = [
        EntityDetection((0.00, 0.00, 0.10, 0.08), 0, 1),   # next to a corner
        EntityDetection((0.30, 0.20, 0.70, 0.60), 2, 0),
        EntityDetection((0.85, 0.80, 1.00, 1.00), 4, 2),   # next to the far corner
    ]

    def model(self, **overrides):
        cfg = RunConfig(**dict(dict(C=3, P=2, K=2, d=8, L_d=1, h_G=2, d_G=4, h_R=2, d_R=4,
                                    h_A=2, d_A=4, seed=3), **overrides))
        model = RelationModel(cfg, np.random.default_rng(91))
        # Wider offsets than at init, so the lattice reaches past borders.
        for layer in model.decoder.samplers:
            for sampler in layer:
                sampler.b2.data[:, :, 3:] = np.log(0.12)
        return model

    def pin_offsets(self, model, mu: float, sigma: float) -> None:
        """Every sampler predicts offset mean mu and spread sigma on each
        axis, whatever its query."""
        for layer in model.decoder.samplers:
            for sampler in layer:
                sampler.w2.data[...] = 0.0
                sampler.b2.data[:, :, :3] = mu
                sampler.b2.data[:, :, 3:] = np.log(sigma)

    def check(self, model, entities) -> list:
        """Scores and queries against the oracle, and each layer's distinct
        points against np.unique; returns each layer's and role's distinct
        count per (entity, group)."""
        cfg = model.config
        scene = SceneSample(image_size=(256, 256), entities=entities, triplets=[])
        volume = np.random.default_rng(92).standard_normal((5, 6, 6, cfg.d))
        with no_grad():
            out = model.forward(scene, volume)
        want_queries, want_scores = full_lattice_infer_oracle(model, scene, volume)
        np.testing.assert_allclose(out.prediction.scores, want_scores, rtol=0, atol=1e-12)
        for got, want in zip(out.decode.queries, want_queries):
            np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
        side = len(grid_steps(cfg.infer_range_mult, cfg.infer_step_mult))
        distinct = []
        for points in out.decode.points[0] + out.decode.points[1]:
            assert points.shape == (len(entities), cfg.K, side ** 3, 3)
            if cfg.scale_interpolation == "nearest":
                points = snap_scale(Tensor(points)).data
            lattice = distinct_lattice_points(points)
            counts = np.isfinite(lattice.log_counts).sum(axis=-1)
            for i, k in np.ndindex(counts.shape):
                rows = lattice.index[i, k, :counts[i, k]]
                unique, copies = np.unique(points[i, k], axis=0, return_counts=True)
                assert counts[i, k] == len(unique)
                order = np.lexsort(lattice.points[rows].T[::-1])
                np.testing.assert_array_equal(lattice.points[rows][order], unique)
                np.testing.assert_allclose(np.exp(lattice.log_counts[i, k, :counts[i, k]])[order],
                                           copies, rtol=1e-12)
            distinct.append(counts)
        return distinct

    @pytest.mark.parametrize("overrides", [
        {}, {"infer_range_mult": 0}, {"infer_step_mult": 2},
        {"scale_interpolation": "nearest"}, {"L_d": 2},
        {"L_d": 2, "infer_step_mult": 2, "scale_interpolation": "nearest"}])
    def test_matches_full_lattice_oracle(self, overrides):
        model = self.model(**overrides)
        distinct = self.check(model, self.ENTITIES)
        full = len(grid_steps(model.config.infer_range_mult, model.config.infer_step_mult)) ** 3
        if full > 1:
            # The corner entities' lattices fold, so the counts matter.
            assert any(counts.min() < full for counts in distinct)

    def test_corner_entity_folds_to_one_point(self):
        """Offsets pushing every lattice point past the far corner leave
        one distinct point there, standing for all 343."""
        model = self.model()
        self.pin_offsets(model, mu=0.5, sigma=0.1)
        entities = [EntityDetection((0.98, 0.98, 1.00, 1.00), 4, 0), self.ENTITIES[1]]
        for counts in self.check(model, entities):
            assert np.all(counts[0] == 1)

    def test_interior_entity_with_tiny_spread_keeps_every_point(self):
        model = self.model()
        self.pin_offsets(model, mu=0.0, sigma=1e-3)
        entities = [EntityDetection((0.40, 0.40, 0.60, 0.60), 2, 1), self.ENTITIES[0]]
        for counts in self.check(model, entities):
            assert np.all(counts[0] == 343)
