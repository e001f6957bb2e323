import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpsim import kernels
from dpsim.approximators import (DEFAULT_INPUT_RANGES, AdaptiveWeights,
                                 GridCapacityError, RbfNetwork, build_grid_centers,
                                 gaussian_basis, rbf_output, write_weight_csv)

INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def dense_basis(net, z):
    """Oracle: exp(-|z - c_j|^2 / 2h^2) / (sqrt(2 pi) h) over every center c_j."""
    d2 = ((net.centers - z) ** 2).sum(axis=1)
    return np.exp(-d2 / (2.0 * net.width ** 2)) / (np.sqrt(2.0 * np.pi) * net.width)


class TestGrid:
    def test_two_dim_corners(self):
        centers = build_grid_centers([(0.0, 1.0), (0.0, 1.0)], 2)
        assert {tuple(row) for row in centers} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_full_nine_dim_count(self):
        centers = build_grid_centers(DEFAULT_INPUT_RANGES, 3)
        assert centers.shape == (19683, 9)

    def test_endpoint_spacing(self):
        # arithmetic oracle: midpoint of [-2, 10] is 4
        centers = build_grid_centers([(-2.0, 10.0)], 3)
        np.testing.assert_array_equal(centers.ravel(), [-2.0, 4.0, 10.0])

    def test_capacity_ceiling(self):
        with pytest.raises(GridCapacityError):
            build_grid_centers(DEFAULT_INPUT_RANGES, 5)  # 5^9 > 1e6

    def test_lexicographic_and_stable(self):
        centers = build_grid_centers([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)], 3)
        as_tuples = [tuple(r) for r in centers]
        assert as_tuples == sorted(as_tuples)
        again = build_grid_centers([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)], 3)
        np.testing.assert_array_equal(centers, again)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_grid_centers([(1.0, 1.0)], 3)
        with pytest.raises(ValueError):
            build_grid_centers([(0.0, 1.0)], 1)
        # linspace over [-1e308, 1e308] would give NaN nodes
        with pytest.raises(ValueError, match=r"ranges\[1\]"):
            build_grid_centers([(0.0, 1.0), (-1e308, 1e308)], 2)


class TestBasis:
    def test_value_at_center(self):
        net = RbfNetwork(np.zeros((2, 1)), 1.0)
        g = gaussian_basis(net, np.zeros(2))
        assert g[0] == pytest.approx(INV_SQRT_2PI, abs=1e-9)
        assert g[0] == pytest.approx(0.3989423, abs=1e-6)

    def test_unit_distance_value(self):
        net = RbfNetwork(np.zeros((1, 1)), 1.0)
        g = gaussian_basis(net, np.array([1.0]))
        assert g[0] == pytest.approx(INV_SQRT_2PI * np.exp(-0.5), abs=1e-9)
        assert g[0] == pytest.approx(0.2419707, abs=1e-6)

    def test_monotone_tail(self):
        net = RbfNetwork(np.zeros((1, 1)), 1.0)
        values = [gaussian_basis(net, np.array([d]))[0] for d in (0.0, 1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.0

    def test_dimension_check(self):
        net = RbfNetwork.grid(ranges=[(0.0, 1.0)] * 3, points_per_dim=2, width=1.0)
        with pytest.raises(ValueError):
            gaussian_basis(net, np.zeros(2))

    @given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))
    def test_positive_and_bounded(self, z):
        net = RbfNetwork(np.array([[0.0, 1.0, 2.0], [0.0, -1.0, 2.0]]), 0.5)
        g = gaussian_basis(net, np.array(z))
        assert (g > 0).all()
        assert (g <= 1.0 / (np.sqrt(2 * np.pi) * net.width) + 1e-15).all()

    def test_out_buffer(self):
        net = RbfNetwork.grid(ranges=[(-1, 1)] * 2, points_per_dim=3)
        out = np.empty(net.node_count)
        assert gaussian_basis(net, np.zeros(2), out=out) is out
        np.testing.assert_array_equal(out, gaussian_basis(net, np.zeros(2)))
        with pytest.raises(ValueError):
            gaussian_basis(net, np.zeros(2), out=np.empty(2 * net.node_count)[::2])

    def test_width_validation(self):
        with pytest.raises(ValueError):
            RbfNetwork(np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError):
            RbfNetwork(np.zeros((1, 1)), np.array([1.0, 1.0]))


class TestRbfOutput:
    def test_zero_weights(self):
        net = RbfNetwork.grid(ranges=[(-1, 1)] * 3, points_per_dim=2)
        np.testing.assert_array_equal(
            rbf_output(net, AdaptiveWeights.zeros(net.node_count), np.zeros(3)), np.zeros(3))

    def test_single_node_closed_form(self):
        z = np.array([0.3, -0.2, 0.1])
        net = RbfNetwork(z[:, None], 1.0)
        weights = AdaptiveWeights(np.array([[2.0], [-1.0], [0.5]]))
        np.testing.assert_allclose(rbf_output(net, weights, z),
                                   INV_SQRT_2PI * np.array([2.0, -1.0, 0.5]), rtol=1e-12)

    def test_linear_in_weights(self):
        net = RbfNetwork.grid(ranges=[(-1, 1)] * 2, points_per_dim=3)
        rng = np.random.default_rng(5)
        weights = AdaptiveWeights(rng.normal(size=(3, net.node_count)))
        z = np.array([0.2, 0.4])
        doubled = AdaptiveWeights(2.0 * weights.theta)
        np.testing.assert_allclose(rbf_output(net, doubled, z),
                                   2.0 * rbf_output(net, weights, z), rtol=1e-12)

    def test_dimension_mismatch(self):
        net = RbfNetwork.grid(ranges=[(-1, 1)] * 2, points_per_dim=2)
        with pytest.raises(ValueError):
            rbf_output(net, AdaptiveWeights.zeros(net.node_count + 1), np.zeros(2))

    def test_lipschitz_on_box(self):
        # slope bound: |grad g_j| <= coef * exp(-1/2) / h per node
        net = RbfNetwork(np.array([[0.0, -1.0, 2.0], [0.5, 1.0, -2.0]]), 0.8)
        rng = np.random.default_rng(11)
        weights = AdaptiveWeights(rng.normal(size=(3, net.node_count)))
        lip = np.abs(weights.theta).sum(axis=1) * (net._coef * np.exp(-0.5) / net.width)
        for _ in range(200):
            za, zb = rng.uniform(-3, 3, size=(2, 2))
            diff = np.abs(rbf_output(net, weights, za) - rbf_output(net, weights, zb))
            assert (diff <= lip * np.linalg.norm(za - zb) * (1 + 1e-9) + 1e-12).all()


class TestUniversalApproximation:
    def test_least_squares_fit_of_smooth_surface(self):
        # oracle: direct least squares on a 5x5 grid approximating sin(x)cos(y)
        net = RbfNetwork.grid(ranges=[(-1, 1), (-1, 1)], points_per_dim=5, width=0.7)
        train = np.stack(np.meshgrid(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21),
                                     indexing="ij"), -1).reshape(-1, 2)
        basis = np.stack([gaussian_basis(net, z) for z in train])
        target = np.sin(train[:, 0]) * np.cos(train[:, 1])
        coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
        test = np.stack(np.meshgrid(np.linspace(-1, 1, 41), np.linspace(-1, 1, 41),
                                    indexing="ij"), -1).reshape(-1, 2)
        fitted = np.stack([gaussian_basis(net, z) for z in test]) @ coeffs
        max_err = np.abs(fitted - np.sin(test[:, 0]) * np.cos(test[:, 1])).max()
        assert max_err < 0.05


class TestWeights:
    def test_random_init_range_and_determinism(self):
        a = AdaptiveWeights.random_init(100, seed=7)
        b = AdaptiveWeights.random_init(100, seed=7)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert ((a.theta >= 0) & (a.theta < 1)).all()

    def test_norms(self):
        w = AdaptiveWeights(np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w.norms(), [5.0, 0.0, 1.0])

    def test_csv_export(self, tmp_path):
        w = AdaptiveWeights(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        path = tmp_path / "weights.csv"
        write_weight_csv(path, w)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "node_index,theta1,theta2,theta3"
        assert lines[1] == "0,1,3,5"
        assert len(lines) == 3


def assert_close_to_terms(got, want, term_size, rtol=1e-12):
    """|got - want| <= rtol * (summed magnitude of the terms), elementwise."""
    bound = rtol * term_size + np.finfo(float).tiny
    assert (np.abs(got - want) <= bound).all(), np.max(np.abs(got - want) / bound)


def one_point_grid():
    nodes = np.zeros((9, 1))
    nodes[0, 0] = 0.75
    return RbfNetwork(nodes, 1.0)


class TestSeparableBasis:
    """The tensor-product kernels against the dense formula over net.centers."""

    NETWORKS = {
        "default-3^9": lambda: RbfNetwork.grid(),
        "2d-5pt-w0.7": lambda: RbfNetwork.grid(ranges=[(-1, 1), (-1, 1)], points_per_dim=5,
                                               width=0.7),
        "one-point": one_point_grid,
    }

    @staticmethod
    def inputs(net, rng):
        """Points inside the grid's box, around it, and far outside it (underflow)."""
        lo, hi = net.nodes.min(axis=1), net.nodes.max(axis=1)
        span = np.maximum(hi - lo, 1.0)
        inside = [rng.uniform(lo, hi) for _ in range(5)]
        around = [lo + span * rng.uniform(-3.0, 4.0, size=lo.shape) for _ in range(5)]
        outside = [lo + span * rng.uniform(-40.0, 40.0, size=lo.shape) for _ in range(5)]
        return inside + around + outside

    def test_centers_are_the_grid_rows(self):
        net = RbfNetwork.grid(ranges=[(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)], points_per_dim=3)
        np.testing.assert_array_equal(
            net.centers, build_grid_centers([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)], 3))
        assert net.node_count == 27 and net.input_dim == 3

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_basis_matches_dense_formula(self, name):
        net = self.NETWORKS[name]()
        rng = np.random.default_rng(3)
        for z in self.inputs(net, rng):
            # values below the smallest normal double carry no relative precision
            np.testing.assert_allclose(gaussian_basis(net, z), dense_basis(net, z),
                                       rtol=1e-12, atol=np.finfo(float).tiny)

    @staticmethod
    def factors(net, z):
        f = np.empty(net._index.shape[1])
        return kernels.factors_into(net.nodes, net._inv_two_h2, net._coef, net._index, z, f)

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_adaptive_core_matches_dense_formula(self, name):
        net = self.NETWORKS[name]()
        rng = np.random.default_rng(4)
        theta = rng.normal(size=(3, net.node_count))
        for z in self.inputs(net, rng):
            g_ref = dense_basis(net, z)
            f = np.empty(net._index.shape[1])
            nn = kernels.adaptive_core(net.nodes, net._inv_two_h2, net._coef, net._index, z,
                                       theta, f)
            g = kernels.basis_from_factors(net.nodes, f, np.empty(net.node_count))
            np.testing.assert_allclose(g, g_ref, rtol=1e-12, atol=np.finfo(float).tiny)
            # sums of mixed-sign terms: relative to the size of the terms
            assert_close_to_terms(nn, theta @ g_ref, np.abs(theta) @ g_ref)

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_gram_from_factors_matches_dense_dot_products(self, name):
        net = self.NETWORKS[name]()
        rng = np.random.default_rng(5)
        points = self.inputs(net, rng)
        factors = np.stack([self.factors(net, z) for z in points])
        dense = np.stack([dense_basis(net, z) for z in points])
        for s, z in enumerate(points):
            gram = kernels.gram_row(net.nodes, factors, factors[s])
            # dot products of positive terms; underflowed ones carry no digits
            np.testing.assert_allclose(gram, dense @ dense[s], rtol=1e-12,
                                       atol=np.finfo(float).tiny)

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_fold_matches_dense_combination(self, name):
        net = self.NETWORKS[name]()
        rng = np.random.default_rng(6)
        points = self.inputs(net, rng)[3:7]
        factors = np.stack([self.factors(net, z) for z in points])
        dense = np.stack([dense_basis(net, z) for z in points])
        theta = rng.normal(size=(3, net.node_count))
        x = rng.normal(size=(3, 5))
        want = x[:, :1] * theta + x[:, 1:] @ dense
        got = kernels.fold(net.nodes, theta.copy(), x, factors, np.empty_like(theta))
        assert_close_to_terms(got, want, np.abs(x[:, :1] * theta) + np.abs(x[:, 1:]) @ dense)
