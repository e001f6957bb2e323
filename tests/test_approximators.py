import csv
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpsim import kernels
from dpsim.approximators import (DEFAULT_INPUT_RANGES, AdaptiveWeights,
                                 GridCapacityError, RbfNetwork, gaussian_basis,
                                 grid_nodes, write_weight_csv)

from oracles import basis_factors, factored_output

INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def dense_basis(net, z):
    """Oracle: exp(-|z - c_j|^2 / 2h^2) / (sqrt(2 pi) h) over every center c_j."""
    d2 = ((net.centers - z) ** 2).sum(axis=1)
    return np.exp(-d2 / (2.0 * net.width ** 2)) / (np.sqrt(2.0 * np.pi) * net.width)


class TestGrid:
    """The grid as the runs build it: ``RbfNetwork.grid`` over ``grid_nodes``."""

    def test_two_dim_corners(self):
        centers = RbfNetwork.grid([(0.0, 1.0), (0.0, 1.0)], 2).centers
        assert {tuple(row) for row in centers} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_full_nine_dim_count(self):
        net = RbfNetwork.grid(DEFAULT_INPUT_RANGES, 3)
        assert net.node_count == 19683
        assert net.centers.shape == (19683, 9)

    def test_endpoint_spacing(self):
        # arithmetic oracle: midpoint of [-2, 10] is 4
        np.testing.assert_array_equal(grid_nodes([(-2.0, 10.0)], 3), [[-2.0, 4.0, 10.0]])
        np.testing.assert_array_equal(RbfNetwork.grid([(-2.0, 10.0)], 3).centers.ravel(),
                                      [-2.0, 4.0, 10.0])

    def test_capacity_ceiling(self):
        with pytest.raises(GridCapacityError):
            RbfNetwork.grid(DEFAULT_INPUT_RANGES, 5)  # 5^9 > 1e6
        with pytest.raises(GridCapacityError):
            grid_nodes([(0.0, 1.0)] * 3, 3, ceiling=26)

    def test_lexicographic_and_stable(self):
        ranges = [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]
        centers = RbfNetwork.grid(ranges, 3).centers
        as_tuples = [tuple(r) for r in centers]
        assert as_tuples == sorted(as_tuples)
        np.testing.assert_array_equal(centers, RbfNetwork.grid(ranges, 3).centers)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            RbfNetwork.grid([(1.0, 1.0)], 3)
        with pytest.raises(ValueError):
            RbfNetwork.grid([(0.0, 1.0)], 1)
        with pytest.raises(ValueError):
            grid_nodes([0.0, 1.0], 2)
        # linspace over [-1e308, 1e308] would give NaN nodes
        with pytest.raises(ValueError, match=r"ranges\[1\]"):
            RbfNetwork.grid([(0.0, 1.0), (-1e308, 1e308)], 2)


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

    def test_width_validation(self):
        with pytest.raises(ValueError):
            RbfNetwork(np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError):
            RbfNetwork(np.zeros((1, 1)), np.array([1.0, 1.0]))


def network_output(net, theta, z):
    """The per-axis outputs theta_i . g(z) as the engine computes them."""
    work = net.workspace(np.ascontiguousarray(theta))
    work.z[:] = np.asarray(z, dtype=float)
    return kernels.adaptive_core(work, np.empty(work.size))


class TestRbfOutput:
    """The network output, ``kernels.adaptive_core``."""

    def test_zero_weights(self):
        net = RbfNetwork.grid(ranges=[(-1, 1)] * 3, points_per_dim=2)
        np.testing.assert_array_equal(
            network_output(net, np.zeros((3, net.node_count)), np.zeros(3)), np.zeros(3))

    def test_single_node_closed_form(self):
        z = np.array([0.3, -0.2, 0.1])
        net = RbfNetwork(z[:, None], 1.0)
        np.testing.assert_allclose(network_output(net, [[2.0], [-1.0], [0.5]], z),
                                   INV_SQRT_2PI * np.array([2.0, -1.0, 0.5]), rtol=1e-12)

    def test_linear_in_weights(self):
        net = RbfNetwork.grid(ranges=[(-1, 1)] * 2, points_per_dim=3)
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(3, net.node_count))
        z = np.array([0.2, 0.4])
        np.testing.assert_allclose(network_output(net, 2.0 * theta, z),
                                   2.0 * network_output(net, theta, z), rtol=1e-12)

    def test_lipschitz_on_box(self):
        # slope bound: |grad g_j| <= coef * exp(-1/2) / h per node
        net = RbfNetwork(np.array([[0.0, -1.0, 2.0], [0.5, 1.0, -2.0]]), 0.8)
        rng = np.random.default_rng(11)
        theta = rng.normal(size=(3, net.node_count))
        coef = 1.0 / (np.sqrt(2.0 * np.pi) * net.width)
        lip = np.abs(theta).sum(axis=1) * (coef * np.exp(-0.5) / net.width)
        for _ in range(200):
            za, zb = rng.uniform(-3, 3, size=(2, 2))
            diff = np.abs(network_output(net, theta, za) - network_output(net, theta, zb))
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

    def test_csv_bytes_are_those_of_csv_writer(self, tmp_path):
        # oracle: the csv module writing each weight with format(v, ".9g")
        special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.5e-310, -1e300,
                   1.0 / 3.0, 123456789012.0, 1e-5, 0.1]
        # more rows than one write formats, so the blocks' seams are checked too
        w = AdaptiveWeights.zeros(600)
        w.theta = np.resize(np.array(special), (3, 600))   # past the finite check
        path = tmp_path / "weights.csv"
        write_weight_csv(path, w)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["node_index", "theta1", "theta2", "theta3"])
        for j in range(600):
            writer.writerow([j] + [f"{w.theta[i, j]:.9g}" for i in range(3)])
        assert path.read_bytes() == want.getvalue().encode()
        lines = path.read_bytes().split(b"\r\n")
        assert lines[1:4] == [b"0,inf,-1e+300,-inf", b"1,-inf,0.333333333,nan",
                              b"2,nan,1.23456789e+11,-0"]
        assert lines[5].startswith(b"4,4.94065646e-324,")


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
        # oracle: itertools.product over the per-axis nodes, first axis slowest
        net = RbfNetwork.grid(ranges=[(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)], points_per_dim=3)
        np.testing.assert_array_equal(net.centers, list(itertools.product(*net.nodes)))
        assert net.node_count == 27 and net.input_dim == 3

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_basis_matches_dense_formula(self, name):
        net = self.NETWORKS[name]()
        rng = np.random.default_rng(3)
        for z in self.inputs(net, rng):
            # values below the smallest normal double carry no relative precision
            np.testing.assert_allclose(gaussian_basis(net, z), dense_basis(net, z),
                                       rtol=1e-12, atol=np.finfo(float).tiny)
            # the workspace runs the oracle's operations into its buffers
            assert np.array_equal(self.factors(net, z), basis_factors(net, z))

    @staticmethod
    def factors(net, z):
        work = net.workspace()
        work.z[:] = z
        return work.factors(np.empty(work.size))

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_adaptive_core_matches_dense_formula(self, name):
        net = self.NETWORKS[name]()
        rng = np.random.default_rng(4)
        theta = rng.normal(size=(3, net.node_count))
        for z in self.inputs(net, rng):
            g_ref = dense_basis(net, z)
            work = net.workspace(theta)
            f = np.empty(work.size)
            work.z[:] = z
            nn = kernels.adaptive_core(work, f)
            assert np.array_equal(f, basis_factors(net, z))
            assert np.array_equal(nn, factored_output(net, theta, f))
            g = work.basis(f)
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
            gram = kernels.gram_row(net.workspace(), factors, factors[s])
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
        got = kernels.fold(net.workspace(theta.copy()), x, factors, np.empty_like(theta))
        assert_close_to_terms(got, want, np.abs(x[:, :1] * theta) + np.abs(x[:, 1:]) @ dense)
