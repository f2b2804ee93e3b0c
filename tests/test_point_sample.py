"""Feature-volume sampling against an explicit eight-corner oracle, the
level weights of the scale axis, and the fold of the positional code into
the feature volume."""

import numpy as np
import pytest

from relattn import tensor
from relattn.tensor import DomainError, Tensor, add, level_weights, matmul, mul, point_sample, \
    tsum
from relattn.gradcheck import check_gradients

from helpers import backward_from
from oracles import trilinear_oracle


def stacked_point_sample(volume, coords, g):
    """Trilinear sampling by stacking all eight corners: forward values
    and coordinate gradient for the output gradient g, for points in
    [0, 1]^3. Corners are summed over the 8 x n x d stack's first axis."""
    S, H, W, d = volume.shape
    pts = coords.reshape(-1, 3)
    n = pts.shape[0]
    sizes = np.array([W, H, S], dtype=np.float64)
    cont = pts * (sizes - 1.0)
    lo = np.minimum(np.floor(cont).astype(np.intp),
                    (sizes - 2).clip(min=0).astype(np.intp))
    frac = cont - lo
    hi = np.minimum(lo + 1, np.array([W, H, S]) - 1)
    lin, weights = [], []
    for bits in range(8):  # s*4 + y*2 + x
        idx = [hi[:, a] if bits >> a & 1 else lo[:, a] for a in (0, 1, 2)]
        w = [frac[:, a] if bits >> a & 1 else 1.0 - frac[:, a] for a in (0, 1, 2)]
        lin.append((idx[2] * H + idx[1]) * W + idx[0])
        weights.append(w[2] * w[1] * w[0])
    lin, weights = np.stack(lin), np.stack(weights)
    gathered = volume.reshape(-1, d)[lin]  # 8 x n x d
    out = (weights[:, :, None] * gathered).sum(axis=0)

    gf = g.reshape(n, d)
    c = [np.einsum("nd,nd->n", gf, gathered[k]) for k in range(8)]
    (wx0, wy0, ws0), (wx1, wy1, ws1) = (1.0 - frac).T, frac.T
    d_dx = (ws0 * (wy0 * (c[1] - c[0]) + wy1 * (c[3] - c[2]))
            + ws1 * (wy0 * (c[5] - c[4]) + wy1 * (c[7] - c[6])))
    d_dy = (ws0 * (wx0 * (c[2] - c[0]) + wx1 * (c[3] - c[1]))
            + ws1 * (wx0 * (c[6] - c[4]) + wx1 * (c[7] - c[5])))
    d_ds = (wy0 * (wx0 * (c[4] - c[0]) + wx1 * (c[5] - c[1]))
            + wy1 * (wx0 * (c[6] - c[2]) + wx1 * (c[7] - c[3])))
    cgrad = np.stack([d_dx * (W - 1), d_dy * (H - 1), d_ds * (S - 1)], axis=-1)
    return out.reshape(coords.shape[:-1] + (d,)), cgrad.reshape(coords.shape)


def lattice_and_cube_points(rng, S, H, W, n):
    """n points in [0, 1]^3 mixing fractional points, lattice nodes,
    level-exact scales (box corners) and points on the cube's faces,
    where a coordinate is exactly 0 or 1."""
    pts = rng.uniform(0.0, 1.0, (n, 3))
    sizes = np.array([W, H, S]) - 1
    node = rng.integers(0, sizes + 1, (n, 3)) / np.maximum(sizes, 1)
    kind = rng.integers(0, 4, n)
    pts[kind == 1] = node[kind == 1]
    pts[kind == 2, 2] = node[kind == 2, 2]
    face = (rng.random((n, 3)) < 0.5) & (kind == 3)[:, None]
    pts[face] = rng.integers(0, 2, int(face.sum()))
    return pts


class TestForward:
    def test_matches_corner_oracle(self):
        """Random fractional points agree with the loop-based blend."""
        rng = np.random.default_rng(20)
        volume = rng.standard_normal((4, 6, 5, 3))
        coords = rng.uniform(0, 1, (40, 3))
        got = point_sample(volume, Tensor(coords)).data
        want = np.stack([trilinear_oracle(volume, c) for c in coords])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_exact_at_grid_nodes(self):
        """A point sitting on a grid node returns that node's feature."""
        rng = np.random.default_rng(21)
        volume = rng.standard_normal((3, 4, 5, 2))
        S, H, W, _ = volume.shape
        for s in range(S):
            for y in range(H):
                for x in range(W):
                    coord = np.array([[x / (W - 1), y / (H - 1),
                                       s / (S - 1)]])
                    got = point_sample(volume, Tensor(coord)).data[0]
                    np.testing.assert_array_equal(got, volume[s, y, x])

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, -np.inf, np.inf, np.nan],
                             ids=["below_0", "above_1", "-inf", "inf", "nan"])
    def test_outside_unit_cube_raises(self, bad):
        """Both samplers refuse a coordinate outside [0, 1], whichever
        axis it sits on and whatever the grid size; the same point at
        exactly 0 or 1 samples."""
        for shape in ((2, 3, 3, 4), (1, 3, 1, 4)):
            volume = np.zeros(shape)
            for axis in range(3):
                pts = np.full((5, 2, 3), 0.5)
                pts[3, 1, axis] = bad
                with pytest.raises(DomainError, match=r"\[0, 1\]"):
                    point_sample(volume, Tensor(pts))
                with pytest.raises(DomainError, match=r"\[0, 1\]"):
                    level_weights(Tensor(pts), shape[0])
                for edge in (0.0, 1.0):
                    pts[3, 1, axis] = edge
                    assert point_sample(volume, Tensor(pts)).shape == (5, 2, 4)
                    assert level_weights(Tensor(pts), shape[0]).shape == (5, 2, shape[0])

    def test_rejects_tensor_volume(self):
        """The volume is data: a Tensor, with or without a gradient, raises
        rather than having its gradient dropped; so does a nested list."""
        volume = np.zeros((2, 2, 2, 1))
        coords = Tensor(np.full((1, 3), 0.5))
        for bad in (Tensor(volume), Tensor(volume, requires_grad=True), volume.tolist()):
            with pytest.raises(TypeError, match="numpy array"):
                point_sample(bad, coords)

    def test_batched_coordinate_shapes(self):
        """Leading coordinate axes carry through to the output."""
        rng = np.random.default_rng(23)
        volume = rng.standard_normal((3, 4, 4, 5))
        coords = rng.uniform(0, 1, (2, 3, 7, 3))
        out = point_sample(volume, Tensor(coords))
        assert out.shape == (2, 3, 7, 5)

    def test_rejects_bad_coordinate_width(self):
        volume = np.zeros((2, 2, 2, 1))
        with pytest.raises(Exception):
            point_sample(volume, Tensor(np.zeros((4, 2))))


class TestGradients:
    def test_coordinate_gradient(self):
        rng = np.random.default_rng(25)
        volume = rng.standard_normal((3, 5, 5, 2))
        coords = Tensor(rng.uniform(0.1, 0.9, (5, 3)), requires_grad=True)
        w = rng.standard_normal((5, 2))
        err = check_gradients(
            lambda c: tsum(mul(point_sample(volume, c), Tensor(w))), coords)
        assert err < 1e-6

    def test_coordinates_are_the_only_parent(self):
        """The node records the coordinates alone; with constant
        coordinates there is nothing to differentiate and no node."""
        rng = np.random.default_rng(26)
        volume = rng.standard_normal((2, 3, 3, 2))
        coords = Tensor(rng.uniform(0.0, 1.0, (4, 3)), requires_grad=True)
        out = point_sample(volume, coords)
        assert out.requires_grad and out._parents == (coords,)
        assert not point_sample(volume, Tensor(coords.data)).requires_grad


class TestCornerBlend:
    def test_bit_identical_to_stacked_formula(self):
        """The corner-by-corner blend and the coordinate gradient equal
        the stacked 8 x n x d formula bit for bit. d >= 2 throughout: numpy
        sums a stack with n * d == 1 pairwise, not corner by corner."""
        rng = np.random.default_rng(27)
        for case in range(60):
            S, H, W = (int(v) for v in rng.integers(1, 6, 3))
            d = int(rng.integers(2, 6))
            n = 0 if case % 10 == 0 else int(rng.integers(1, 30))
            volume = rng.standard_normal((S, H, W, d))
            pts = lattice_and_cube_points(rng, S, H, W, n).reshape(n, 1, 3)
            g = rng.standard_normal((n, 1, d))
            pts_t = Tensor(pts, requires_grad=True)
            out = point_sample(volume, pts_t)
            backward_from(out, g)
            want, want_cgrad = stacked_point_sample(volume, pts, g)
            assert np.array_equal(out.data, want)
            assert np.array_equal(pts_t.grad, want_cgrad)


def block_rows(d):
    """Points per block of `point_sample` at width d."""
    return max(2, tensor._BLOCK // d)


class TestBlocks:
    """`point_sample` walks the points in blocks of B rows; every block
    edge gives the same bits as the stacked formula."""

    @pytest.mark.parametrize("d", [3, 256, tensor._BLOCK + 5])
    def test_bit_identical_at_block_edges(self, d):
        """Forward and coordinate gradient at point counts around one and
        three blocks. 3 and 256 are a width that does not
        divide _BLOCK and the paper width; a width above _BLOCK makes
        every block two rows."""
        B = block_rows(d)
        rng = np.random.default_rng(33)
        S, H, W = 3, 4, 5
        volume = rng.standard_normal((S, H, W, d))
        for n in sorted({0, 1, B - 1, B, B + 1, 3 * B + 7}):
            pts = lattice_and_cube_points(rng, S, H, W, n)
            g = rng.standard_normal((n, d))
            pts_t = Tensor(pts, requires_grad=True)
            out = point_sample(volume, pts_t)
            backward_from(out, g)
            want, want_cgrad = stacked_point_sample(volume, pts, g)
            assert np.array_equal(out.data, want), n
            assert np.array_equal(pts_t.grad, want_cgrad), n

    @pytest.mark.parametrize("d", [2, 3, 256, 8193, tensor._BLOCK + 5])
    def test_row_dot_products_same_in_blocks(self, d):
        """The coordinate backward takes einsum("nd,nd->n") one block of
        rows at a time; on this numpy each row's sum does not depend on
        the rows beside it, in blocks of two rows or more. Rows longer
        than einsum's 8,192-element buffer are why a lone last row joins
        the block before it."""
        B = block_rows(d)
        rng = np.random.default_rng(34)
        n = 3 * B + 7 if d < tensor._BLOCK else 7
        a, b = rng.standard_normal((2, n, d))
        whole = np.einsum("nd,nd->n", a, b)
        for rows in sorted({2, 3, B}):
            cuts = [*range(0, n - 1, rows), n]
            parts = [np.einsum("nd,nd->n", a[i:j], b[i:j]) for i, j in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts), whole), rows

    def test_paper_width_matches_corner_oracle(self):
        """At d = 256 over more than three blocks the blend agrees with the
        eight-corner oracle to criterion 1's tolerance."""
        rng = np.random.default_rng(35)
        d = 256
        n = 3 * block_rows(d) + 7
        volume = rng.standard_normal((5, 6, 7, d))
        coords = lattice_and_cube_points(rng, 5, 6, 7, n)
        got = point_sample(volume, Tensor(coords)).data
        want = np.stack([trilinear_oracle(volume, c) for c in coords])
        assert np.abs(got - want).max() < 1e-12


def scale_lerp(coords, table):
    """The scale table blended by each point's level weights."""
    return matmul(level_weights(coords, table.shape[0]), table)


def off_kink_scales(rng, S, n):
    """n scale coordinates in [0, 1], at least 0.05 cells from every
    level, so central differences see one linear piece and stay in the
    unit cube."""
    cells = max(S - 1, 1)
    return (rng.integers(0, cells, n) + rng.uniform(0.05, 0.95, n)) / cells


class TestLevelWeights:
    def test_table_gradient(self):
        """The table gradient of the blend times the table, the form the
        box corners use."""
        rng = np.random.default_rng(28)
        table = Tensor(rng.standard_normal((5, 3)))
        coords = Tensor(rng.uniform(0.0, 1.0, (9, 3)))
        w = rng.standard_normal((9, 3))
        err = check_gradients(lambda t: tsum(mul(scale_lerp(coords, t), Tensor(w))), table)
        assert err < 1e-6

    def test_scale_coordinate_gradient(self):
        """Finite differences agree on s, for the weights and for the
        weights times a table; x and y get exactly zero."""
        rng = np.random.default_rng(29)
        table = Tensor(rng.standard_normal((5, 4)))
        pts = rng.uniform(0.0, 1.0, (7, 3))
        pts[:, 2] = (rng.integers(0, 4, 7) + rng.uniform(0.1, 0.9, 7)) / 4  # off the levels
        w = rng.standard_normal((7, 4))
        wb = rng.standard_normal((7, 5))
        err = check_gradients(
            lambda c: tsum(mul(scale_lerp(c, table), Tensor(w))), Tensor(pts))
        assert err < 1e-6
        err = check_gradients(lambda c: tsum(mul(level_weights(c, 5), Tensor(wb))), Tensor(pts))
        assert err < 1e-6
        coords = Tensor(pts, requires_grad=True)
        tsum(mul(scale_lerp(coords, table), Tensor(w))).backward()
        assert np.all(coords.grad[:, :2] == 0.0)
        assert np.all(coords.grad[:, 2] != 0.0)

    @pytest.mark.parametrize("S", [1, 2, 5])
    def test_scale_gradient_at_border_and_one_level(self, S):
        """Finite differences agree on s inside [0, 1]; at s = 0 and s = 1
        the gradient is the one-sided slope toward the neighboring level;
        with one level the weights are constant."""
        rng = np.random.default_rng(36)
        n = 12
        pts = rng.uniform(0.0, 1.0, (n, 3))
        pts[:, 2] = off_kink_scales(rng, S, n)
        wb = rng.standard_normal((n, S))
        assert check_gradients(lambda c: tsum(mul(level_weights(c, S), Tensor(wb))),
                               Tensor(pts)) < 1e-6
        pts[:2, 2] = (0.0, 1.0)
        coords = Tensor(pts, requires_grad=True)
        tsum(mul(level_weights(coords, S), Tensor(wb))).backward()
        if S == 1:
            np.testing.assert_array_equal(level_weights(coords, 1).data, np.ones((n, 1)))
            assert np.all(coords.grad == 0.0)
        else:
            assert coords.grad[0, 2] == (S - 1) * (wb[0, 1] - wb[0, 0])
            assert coords.grad[1, 2] == (S - 1) * (wb[1, -1] - wb[1, -2])
            assert np.all(coords.grad[:, 2] != 0.0)

    def test_rows_sum_to_one(self):
        """Each row is a convex blend of at most two neighboring levels,
        and a point on a level, the ends of [0, 1] included, is one-hot."""
        rng = np.random.default_rng(37)
        for S in (1, 2, 5):
            pts = rng.uniform(0.0, 1.0, (4, 6, 3))
            pts[0, :, 2] = np.arange(6) / 5 * (S > 1)
            blend = level_weights(Tensor(pts), S).data
            assert blend.shape == (4, 6, S)
            np.testing.assert_allclose(blend.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
            assert np.all(blend >= 0.0) and np.all((blend > 0.0).sum(axis=-1) <= 2)
            if S > 1:
                hot = np.isin(pts[..., 2] * (S - 1), np.arange(S))
                assert hot[0, 0] and hot[0, -1]
                assert np.all(blend[hot].max(axis=-1) == 1.0)
                nz = [np.flatnonzero(row) for row in blend.reshape(-1, S)]
                assert all(len(i) < 2 or i[1] == i[0] + 1 for i in nz)

    def test_rejects_no_levels(self):
        with pytest.raises(ValueError, match="levels"):
            level_weights(Tensor(np.zeros((2, 3))), 0)

    def test_matches_point_sample_of_broadcast_table(self):
        """s = 1 and s = 0 take the end levels with their one-sided
        gradient. Values and gradients of the weights times a table match
        point_sample of the table broadcast over a grid."""
        rng = np.random.default_rng(30)
        table = rng.standard_normal((5, 3))
        pts = np.array([[0.3, 0.6, 1.0], [0.3, 0.6, 0.0], [0.8, 0.1, 0.6],
                        [0.2, 0.9, 0.375]])
        g = rng.standard_normal((4, 3))
        coords = Tensor(pts, requires_grad=True)
        out = scale_lerp(coords, Tensor(table))
        backward_from(out, g)
        np.testing.assert_array_equal(out.data[0], table[4])
        np.testing.assert_array_equal(out.data[1], table[0])
        np.testing.assert_allclose(coords.grad[0, 2], 4 * g[0] @ (table[4] - table[3]),
                                   rtol=1e-12)
        np.testing.assert_allclose(coords.grad[1, 2], 4 * g[1] @ (table[1] - table[0]),
                                   rtol=1e-12)

        flat = np.broadcast_to(table[:, None, None, :], (5, 3, 4, 3))
        ref_coords = Tensor(pts, requires_grad=True)
        ref = point_sample(flat, ref_coords)
        backward_from(ref, g)
        np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(coords.grad, ref_coords.grad, rtol=0, atol=1e-12)


class TestFold:
    def test_folded_sample_matches_separate_samples(self):
        """point_sample(V + grid) + level_weights . scale equals sampling V
        and the positional volume grid + scale separately, in values and in
        the coordinate gradient; the scale table's gradient is each point's
        level weights, read off the corner oracle, times the output
        gradient."""
        rng = np.random.default_rng(31)
        for _ in range(25):
            S, H, W = (int(v) for v in rng.integers(2, 6, 3))
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 20))
            V = rng.standard_normal((S, H, W, d))
            grid = rng.standard_normal((H, W, d))
            table = rng.standard_normal((S, d))
            pts = lattice_and_cube_points(rng, S, H, W, n)
            g = rng.standard_normal((n, d))

            scale_a, coords_a = Tensor(table, requires_grad=True), Tensor(pts, requires_grad=True)
            folded = add(point_sample(V + grid, coords_a), scale_lerp(coords_a, scale_a))
            backward_from(folded, g)

            pe_volume = grid + table[:, None, None, :]
            coords_b = Tensor(pts, requires_grad=True)
            separate = add(point_sample(V, coords_b), point_sample(pe_volume, coords_b))
            backward_from(separate, g)

            oracle = np.stack([trilinear_oracle(V, c) + trilinear_oracle(pe_volume, c)
                               for c in pts])
            one_hot_levels = np.broadcast_to(np.eye(S)[:, None, None, :], (S, H, W, S))
            level_w = np.stack([trilinear_oracle(one_hot_levels, c) for c in pts])
            np.testing.assert_allclose(folded.data, oracle, rtol=0, atol=1e-12)
            np.testing.assert_allclose(folded.data, separate.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(coords_a.grad, coords_b.grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(scale_a.grad, level_w.T @ g, rtol=0, atol=1e-12)
