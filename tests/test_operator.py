"""Tests for the quadrature grids, Nystrom matrix, and spectral machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import rbkernel.operator as op_module
from rbkernel import (
    ConvergenceError,
    NystromOperator,
    QuadratureGrid,
    apply_operator,
    build_grid,
    certificate_sigma,
    eval_irregular,
    eval_regular,
    kink_exact_matrix,
    min_singular_value,
    nystrom_matrix,
    self_adjoint_certificate,
    solve_gamma,
    sweep,
    validate_sets,
)

# (K u_2)(0.5) at r = 1 equals u_2(0.5) + p(1) u_0(0.5); 40-digit oracle value
J_R1_S_HALF = -0.062715474113685405

# -g(0.5, 0.5) * 1.0 / 0.25 = 6 sin(0.5) (-cos 0.5) * 4 = -12 sin(1)
A00_SINGLE_NODE = -10.097651817694758

# min |1 - lambda| of the kink-exact certificate at r = 3; the same to 12
# digits on 8x16, 16x16 and 32x16 uniform grids
KINK_EXACT_SIGMA_R3 = 0.749202529949


def u2(t):
    return eval_regular(2, t).value


class TestBuildGrid:
    def test_single_panel_two_nodes(self):
        grid = build_grid(1.0, panels_count=1, nodes_per_panel=2)
        offset = 0.5 / math.sqrt(3.0)
        assert grid.nodes == pytest.approx([0.5 - offset, 0.5 + offset], rel=1e-15)
        assert grid.weights == pytest.approx([0.5, 0.5], rel=1e-15)

    def test_weights_sum_to_radius(self):
        grid = build_grid(1.0, panels_count=4, nodes_per_panel=8)
        assert abs(float(np.sum(grid.weights)) - 1.0) <= 1e-14

    def test_grading_clusters_toward_origin(self):
        grid = build_grid(1.0, panels_count=4, nodes_per_panel=4, grading=2.0)
        widths = np.diff(grid.panel_bounds)
        assert np.all(np.diff(widths) > 0)  # panels widen away from 0

    def test_errors(self):
        with pytest.raises(ValueError):
            build_grid(0.0)
        with pytest.raises(ValueError):
            build_grid(-2.0)
        with pytest.raises(ValueError):
            build_grid(1.0, panels_count=0)
        with pytest.raises(ValueError):
            build_grid(1.0, nodes_per_panel=1)
        with pytest.raises(ValueError):
            build_grid(1.0, grading=0.5)

    def test_manual_grid_validation(self):
        with pytest.raises(ValueError, match="sum"):
            QuadratureGrid(
                r=1.0,
                panel_bounds=(0.0, 1.0),
                nodes=np.array([0.5]),
                weights=np.array([0.9]),
            )
        with pytest.raises(ValueError, match="positive"):
            QuadratureGrid(
                r=1.0,
                panel_bounds=(0.0, 1.0),
                nodes=np.array([0.3, 0.7]),
                weights=np.array([1.5, -0.5]),
            )


class TestNystromMatrix:
    def test_single_node_entry(self, reference_spec):
        grid = QuadratureGrid(
            r=1.0,
            panel_bounds=(0.0, 1.0),
            nodes=np.array([0.5]),
            weights=np.array([1.0]),
        )
        op = nystrom_matrix(reference_spec, grid)
        assert op.matrix[0, 0] == pytest.approx(A00_SINGLE_NODE, rel=1e-13)
        # same number from the defining formula
        direct = 6.0 * math.sin(0.5) * (-math.cos(0.5)) * 1.0 / 0.25
        assert op.matrix[0, 0] == pytest.approx(direct, rel=1e-15)

    def test_entries_finite(self, reference_spec):
        grid = build_grid(2.5, panels_count=6, nodes_per_panel=10)
        op = nystrom_matrix(reference_spec, grid)
        assert np.all(np.isfinite(op.matrix))

    def test_weighted_symmetry(self, reference_spec):
        grid = build_grid(1.7, panels_count=4, nodes_per_panel=6)
        a = nystrom_matrix(reference_spec, grid).matrix
        t = grid.nodes
        w = grid.weights
        lhs = a * (t**2 / w)[None, :]
        assert np.allclose(lhs, lhs.T, rtol=1e-12, atol=1e-14)


class TestKinkExactMatrix:
    @pytest.mark.parametrize("panels, nodes, grading", [
        (1, 16, 1.0), (8, 16, 1.0), (5, 7, 2.0), (6, 12, 3.0),
    ])
    def test_cumulative_integration_exact_for_monomials(self, panels, nodes, grading):
        grid = build_grid(2.0, panels_count=panels, nodes_per_panel=nodes,
                          grading=grading)
        lower = op_module._cumulative_integration(grid)
        for k in range(nodes):
            exact = grid.nodes ** (k + 1) / (k + 1)
            error = np.max(np.abs(lower @ grid.nodes**k - exact)) / np.max(exact)
            assert error <= 1e-13, k

    def test_unequal_panels_rejected(self, reference_spec):
        grid = QuadratureGrid(
            r=1.0,
            panel_bounds=(0.0, 0.5, 1.0),
            nodes=np.array([0.2, 0.5, 0.8]),
            weights=np.array([0.3, 0.4, 0.3]),
        )
        with pytest.raises(ValueError, match="same number of nodes"):
            kink_exact_matrix(reference_spec, grid)

    @pytest.mark.parametrize("panels, nodes", [(4, 12), (8, 16), (16, 16)])
    @pytest.mark.parametrize("r", [1.0, "R", 3.0])
    def test_symmetric_in_the_weighted_norm(self, reference_spec, root_r, panels, nodes, r):
        grid = build_grid(root_r if r == "R" else r, panels, nodes, grading=1.0)
        op = kink_exact_matrix(reference_spec, grid)
        certificate = self_adjoint_certificate(op)
        assert certificate.asymmetry <= 1e-10
        assert np.linalg.norm(certificate.null_vector) == pytest.approx(1.0, rel=1e-14)
        assert certificate.sigma_min <= certificate.next_sigma
        # sigma_min and next_sigma come from eigvalsh, the null vector from eigh
        assert certificate.sigma_min == certificate_sigma(op)
        scaling = op.grid.l2_scaling
        form = scaling[:, None] * op.matrix / scaling[None, :]
        eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (form + form.T))
        distance = np.abs(1.0 - eigenvalues)
        nearest = np.argmin(distance)
        assert abs(certificate.sigma_min - distance[nearest]) <= 1e-14
        assert abs(certificate.next_sigma - np.sort(distance)[1]) <= 1e-14
        assert np.array_equal(certificate.null_vector, eigenvectors[:, nearest])

    def test_independent_routes_agree_off_root(self, reference_spec):
        kink = self_adjoint_certificate(
            kink_exact_matrix(reference_spec, build_grid(3.0, 8, 16, grading=1.0))
        ).sigma_min
        assert kink == pytest.approx(KINK_EXACT_SIGMA_R3, abs=1e-10)
        # the collocation matrix in the same D-scaled form: another
        # discretization, which cannot split at the kink
        nystrom = self_adjoint_certificate(
            nystrom_matrix(reference_spec, build_grid(3.0, 32, 16, grading=1.0))
        ).sigma_min
        assert abs(kink - nystrom) <= 1e-3

    def test_collapse_at_root(self, reference_spec, root_r):
        grid = build_grid(root_r, 8, 16, grading=1.0)
        certificate = self_adjoint_certificate(kink_exact_matrix(reference_spec, grid))
        assert certificate.sigma_min <= 1e-12
        assert certificate.next_sigma >= 0.5
        # the eigenvector is u_2 at the nodes, D-scaled, up to sign
        samples = u2(grid.nodes) * grid.l2_scaling
        samples /= np.linalg.norm(samples)
        assert abs(float(certificate.null_vector @ samples)) == pytest.approx(1.0, abs=1e-14)


class TestNodeUnderflow:
    """Below about 1e-151, t*t is subnormal or 0 at the first nodes.  K is
    defined there, and every discretization divides by t once on each side
    of the product at those nodes, so K forms down to the smallest radii."""

    @staticmethod
    def gap_to_small_radius(build, spec, r):
        """max |A(r) - A(1e-100)| / max |A(1e-100)| on 8 x 16; below r ~ 1e-8
        neither matrix depends on r beyond rounding.  numpy must not warn."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = build(spec, build_grid(r, 8, 16, grading=1.0)).matrix
        small = build(spec, build_grid(1e-100, 8, 16, grading=1.0)).matrix
        return np.max(np.abs(matrix - small)) / np.max(np.abs(small))

    @pytest.mark.parametrize("build", [kink_exact_matrix, nystrom_matrix])
    @pytest.mark.parametrize("r", [1e-300, 5.5e-300, 1e-170])
    def test_named_value_error(self, reference_spec, build, r):
        # where t*t is 0 at the first nodes, the reference kernel forms...
        assert self.gap_to_small_radius(build, reference_spec, r) <= 1e-12
        # ...and a kernel whose v_4 overflows at the nodes names that value
        spec = solve_gamma(validate_sets([0, 4, 8], [2, 6, 10]))
        first = float(build_grid(r, 8, 16, grading=1.0).nodes[0])
        with pytest.raises(OverflowError, match=rf"^v_4\({first!r}\) overflows double precision$"):
            build(spec, build_grid(r, 8, 16, grading=1.0))

    @pytest.mark.parametrize("r", [2.5e-159, 1e-155])
    def test_nystrom_subnormal_band_matches_small_radius(self, reference_spec, r):
        # dividing by a subnormal t*t kept few digits: entries were off by up
        # to 44 % of the largest at 2.5e-159, and sigma_min by 2.1e-7
        assert self.gap_to_small_radius(nystrom_matrix, reference_spec, r) <= 1e-12
        sigma = sweep(reference_spec, r, 2 * r, 2, 8, 16, 1.0).rows[0][1]
        small = sweep(reference_spec, 1e-100, 2e-100, 2, 8, 16, 1.0).rows[0][1]
        assert sigma == pytest.approx(small, abs=1e-12)

    def test_overflowing_quotient_splits_too(self):
        # S = {1} at 1e-140: t*t is normal at every node, but v_1/t^2 overflows
        # at the first ones, so those columns divide by t twice
        spec = solve_gamma(validate_sets([1], [3]))
        grid = build_grid(1e-140, 8, 16, grading=1.0)
        assert np.all(grid.nodes**2 >= np.finfo(float).tiny)
        first = float(grid.nodes[0])
        assert abs(eval_irregular(1, first).value) / first > np.finfo(float).max * first
        assert self.gap_to_small_radius(kink_exact_matrix, spec, 1e-140) <= 1e-12

    @pytest.mark.parametrize("r", [2.5e-159, 1e-155, 1e-152, 1.1e-151])
    def test_kink_exact_subnormal_band_assembles_without_warnings(self, reference_spec, r):
        # t*t is subnormal, not 0, at the first nodes, and 1/t^2 overflows
        # there: those columns divide by t twice
        grid = build_grid(r, 8, 16, grading=1.0)
        assert np.all(grid.nodes**2 > 0.0)
        assert grid.nodes[0] ** 2 < 1.0 / np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = kink_exact_matrix(reference_spec, grid)
        assert np.all(np.isfinite(op.matrix))
        # below r ~ 1e-4 the certificate sits at its small-radius limit
        certificate = self_adjoint_certificate(op)
        small = self_adjoint_certificate(
            kink_exact_matrix(reference_spec, build_grid(1e-140, 8, 16, grading=1.0))
        )
        assert certificate.sigma_min == pytest.approx(small.sigma_min, abs=1e-12)
        assert certificate.asymmetry <= 1e-10

    def test_kink_exact_bits_kept_where_formed_before(self, reference_spec):
        # every column whose t*t is normal is the plain product, bit for bit;
        # the others divide by t once on each side of it
        grid = build_grid(2e-151, 8, 16, grading=1.0)
        t = grid.nodes
        normal = t * t >= np.finfo(float).tiny
        assert normal.any() and not normal.all()
        lower = op_module._cumulative_integration(grid)
        upper = grid.weights[None, :] - lower
        ((g, u, v),) = op_module._family_tables(reference_spec, t)
        plain = 0.0 - g * (v[:, None] * lower * (u / t**2)[None, :]
                           + u[:, None] * upper * (v / t**2)[None, :])
        split = 0.0 - g * (v[:, None] / t * lower * (u / t)
                           + u[:, None] / t * upper * (v / t))
        matrix = kink_exact_matrix(reference_spec, grid).matrix
        assert np.array_equal(matrix[:, normal], plain[:, normal])
        assert np.array_equal(matrix[:, ~normal], split[:, ~normal])

    @pytest.mark.parametrize("r", [2e-151, 1.2e-151])
    def test_subnormal_squares_still_assemble(self, reference_spec, r):
        grid = build_grid(r, 8, 16, grading=1.0)
        assert np.any(grid.nodes**2 < np.finfo(float).tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (kink_exact_matrix, nystrom_matrix):
                assert np.all(np.isfinite(build(reference_spec, grid).matrix))

    def test_sweep_records_the_message_per_radius(self, reference_spec):
        radii = (1e-300, 5.5e-300, 1e-299)
        # the reference kernel forms every radius, at its small-radius value
        report = sweep(reference_spec, 1e-300, 1e-299, 3)
        assert report.failures == []
        small = sweep(reference_spec, 1e-100, 2e-100, 2).rows[0][1]
        assert [r for r, *_ in report.rows] == list(radii)
        assert [sigma for _, sigma, _ in report.rows] == pytest.approx([small] * 3, abs=1e-12)
        # v_4 overflows at each radius's first node, and each says so
        spec = solve_gamma(validate_sets([0, 4, 8], [2, 6, 10]))
        report = sweep(spec, 1e-300, 1e-299, 3)
        assert report.rows == []
        assert [message for _, message in report.failures] == [
            f"v_4({float(build_grid(r).nodes[0])!r}) overflows double precision" for r in radii
        ]


class TestApplyOperator:
    def test_identity_value_at_reference_point(self, reference_spec):
        j = apply_operator(reference_spec, 1.0, u2, 0.5)
        assert j == pytest.approx(J_R1_S_HALF, abs=1e-10)

    def test_zero_function_maps_to_zero(self, reference_spec):
        for s in (0.2, 0.7, 1.0):
            assert apply_operator(reference_spec, 1.0, lambda t: 0.0, s) == 0.0

    def test_fixed_point_at_root(self, reference_spec, root_r):
        for s in np.linspace(0.2, root_r, 7):
            s = float(s)
            assert apply_operator(reference_spec, root_r, u2, s) == pytest.approx(
                u2(s), abs=1e-9
            )

    def test_identity_consistency_across_radii(self, reference_spec, root_r):
        # the integration-by-parts identity holds for every radius
        from rbkernel import p_explicit

        for r in (0.5, 1.0, 2.0, root_r, 3.0):
            p_r = p_explicit(r)
            worst = max(
                abs(
                    apply_operator(reference_spec, r, u2, float(s))
                    - u2(float(s))
                    - p_r * math.sin(float(s))
                )
                for s in np.linspace(r / 20, r, 20)
            )
            assert worst <= 1e-8, r

    def test_agrees_with_nystrom_and_refines(self, reference_spec):
        gaps = []
        for panels in (8, 16):
            grid = build_grid(1.0, panels_count=panels, nodes_per_panel=12)
            a = nystrom_matrix(reference_spec, grid).matrix
            samples = np.array([u2(t) for t in grid.nodes])
            lhs = a @ samples
            gap = max(
                abs(lhs[i] - apply_operator(reference_spec, 1.0, u2, float(s)))
                for i, s in list(enumerate(grid.nodes))[:: len(grid.nodes) // 12]
            )
            gaps.append(gap)
        assert gaps[0] <= 1e-4  # kink-limited error of the shared-grid matrix
        assert gaps[1] <= 0.5 * gaps[0]

    def test_domain_errors(self, reference_spec):
        with pytest.raises(ValueError):
            apply_operator(reference_spec, 1.0, u2, 0.0)
        with pytest.raises(ValueError):
            apply_operator(reference_spec, 1.0, u2, 1.5)
        with pytest.raises(ValueError):
            apply_operator(reference_spec, -1.0, u2, 0.5)
        # a negative or nan tol can never be met: reject it before any quadrature
        for tol in (-1.0, math.nan):
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                apply_operator(reference_spec, 1.0, u2, 0.5, tol=tol)
        # tol = 0 converges once consecutive values agree bit for bit
        assert apply_operator(reference_spec, 1.0, u2, 0.5, tol=0.0) == pytest.approx(
            apply_operator(reference_spec, 1.0, u2, 0.5), abs=1e-14)

    def test_nonconvergence_reported(self, reference_spec):
        # a pathological integrand (noise) can never stabilize to 1e-10
        rng = np.random.default_rng(5)
        with pytest.raises(ConvergenceError):
            apply_operator(
                reference_spec, 1.0, lambda t: float(rng.standard_normal()), 0.5
            )
        with pytest.raises(ConvergenceError):
            apply_operator(
                reference_spec, 1.0, lambda t: rng.standard_normal(t.shape),
                np.array([0.25, 0.5, 1.0]),
            )

    @pytest.mark.parametrize("r", [1.0, 1e-155, 1e-300])
    def test_nonvanishing_h_fails_to_converge_quietly(self, reference_spec, r):
        # h(0) != 0 makes h t^-2 non-integrable; at small radii the Gauss sums
        # overflow, and inf - inf in the freeze test must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="did not stabilize"):
                apply_operator(reference_spec, r, lambda t: 0.7, r / 7)

    @pytest.mark.parametrize("r", [1e-155, 1e-158, 1e-160])
    def test_subnormal_squares_converge(self, reference_spec, r):
        # t*t is subnormal or 0 at the nodes: K t is r times its value at
        # r = 1e-100, where it converged all along
        points = np.linspace(r / 7, r, 7)
        value = apply_operator(reference_spec, r, lambda t: t, points)
        assert np.all(np.isfinite(value))
        small = apply_operator(reference_spec, 1e-100, lambda t: t, points / r * 1e-100)
        assert value / r == pytest.approx(small / 1e-100, abs=1e-12)

    @pytest.mark.parametrize("r", [1.0, "R", 3.0])
    @pytest.mark.parametrize("tol", [None, 1e-12])  # None: the default tolerance
    # u_2 converges at the same level on every side; t cos(30 t) does not
    @pytest.mark.parametrize("h", [u2, lambda t: t * np.cos(30.0 * t)], ids=["u2", "wiggle"])
    def test_batched_points_match_single_calls(self, reference_spec, root_r, r, tol, h):
        r = root_r if r == "R" else r
        quad = {} if tol is None else {"tol": tol}
        points = np.linspace(r / 7, r, 7)  # ends at s = r, whose right side is empty
        batched = apply_operator(reference_spec, r, h, points, **quad)
        assert isinstance(batched, np.ndarray) and batched.shape == points.shape
        for s, value in zip(points, batched):
            alone = apply_operator(reference_spec, r, h, float(s), **quad)
            assert type(alone) is float
            assert abs(value - alone) <= 1e-15, s

    @pytest.mark.parametrize("h", [u2, lambda t: t * np.cos(30.0 * t)], ids=["u2", "wiggle"])
    def test_chunked_levels_give_identical_values(self, reference_spec, monkeypatch, h):
        points = np.linspace(0.1, 1.0, 10)
        whole = apply_operator(reference_spec, 1.0, h, points, tol=1e-12)
        monkeypatch.setattr(op_module, "_CHUNK_NODES", 40)  # one row per chunk
        chunked = apply_operator(reference_spec, 1.0, h, points, tol=1e-12)
        assert np.array_equal(chunked, whole)

    def test_failing_call_memory_does_not_grow_with_points(self, reference_spec, monkeypatch):
        # small limits keep this cheap; the default levels run 64 times deeper
        monkeypatch.setattr(op_module, "_MAX_DOUBLINGS", 9)
        monkeypatch.setattr(op_module, "_CHUNK_NODES", 2**12)

        def peak_bytes(points):
            rng = np.random.default_rng(5)
            tracemalloc.start()
            try:
                with pytest.raises(ConvergenceError):
                    apply_operator(reference_spec, 1.0,
                                   lambda t: rng.standard_normal(t.shape), points)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(0.5)  # fill the lazy caches first
        one = peak_bytes(0.5)
        many = peak_bytes(np.linspace(1 / 16, 1.0, 16))
        assert many <= 1.5 * one

    def test_batched_point_validation(self, reference_spec):
        with pytest.raises(ValueError):
            apply_operator(reference_spec, 1.0, u2, np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            apply_operator(reference_spec, 1.0, u2, np.array([0.5, math.nan]))
        with pytest.raises(ValueError):
            apply_operator(reference_spec, 1.0, u2, np.full((2, 2), 0.5))


def levelwise_split_integrals(order, h, s, r, tol):
    """``_kink_split_integrals`` with one ``_panel_sums`` pass per doubling level."""
    n = len(s)
    lo = np.concatenate([np.zeros(n), s])
    hi = np.concatenate([s, np.full(n, r)])
    is_left = np.arange(2 * n) < n
    values = np.zeros(2 * n)
    previous = np.full(2 * n, np.nan)
    active = lo < hi
    count = 2
    for _ in range(op_module._MAX_DOUBLINGS):
        level_rows = np.flatnonzero(active)
        if level_rows.size == 0:
            break
        chunk_rows = max(1, op_module._CHUNK_NODES // (count * op_module._QUAD_NODES))
        for start in range(0, level_rows.size, chunk_rows):
            rows = level_rows[start:start + chunk_rows]
            (level,) = op_module._panel_sums(order, h, lo[rows], hi[rows], is_left[rows],
                                             (count,))
            active[rows[np.abs(level - previous[rows]) <= tol]] = False
            values[rows] = previous[rows] = level
        count *= 2
    if active.any():
        row = np.flatnonzero(active)[0]
        raise ConvergenceError(
            f"integral on [{lo[row]:g}, {hi[row]:g}] did not stabilize to {tol:.1e} "
            f"within {count // 2} panels"
        )
    return values[:n], values[n:]


def apply_outcome(spec, r, h, points, **quad):
    """apply_operator's values, or the message of the ConvergenceError it raised."""
    try:
        return apply_operator(spec, r, h, points, **quad)
    except ConvergenceError as exc:
        return str(exc)


WIGGLE = lambda t: t * np.cos(30.0 * t)  # noqa: E731
H_CASES = [u2, WIGGLE, lambda t: 0.7]  # 0.7 / t diverges on [0, s]: never converges
H_IDS = ["u2", "wiggle", "scalar"]


class TestFirstPass:
    """apply_operator evaluates its 2- and 4-panel levels in one pass."""

    @pytest.fixture
    def panel_passes(self, monkeypatch):
        passes = []
        real = op_module._panel_sums

        def recorded(order, h, lo, hi, left, counts):
            passes.append((len(lo), tuple(counts)))
            return real(order, h, lo, hi, left, counts)

        monkeypatch.setattr(op_module, "_panel_sums", recorded)
        return passes

    @pytest.mark.parametrize("h", H_CASES, ids=H_IDS)
    def test_one_pass_gives_each_level_its_own_sums(self, h):
        lo = np.array([0.0, 0.0, 0.3, 1.0])
        hi = np.array([0.3, 1.0, 1.0, 1.0])  # the last row is empty
        left = np.array([True, True, False, False])
        together = op_module._panel_sums(0, h, lo, hi, left, (2, 4))
        apart = [op_module._panel_sums(0, h, lo, hi, left, (count,))[0] for count in (2, 4)]
        assert len(together) == 2
        for joint, single in zip(together, apart):
            assert np.array_equal(joint, single)

    @pytest.mark.parametrize("chunk_nodes", [None, 40])  # None: the default chunks
    @pytest.mark.parametrize("tol", [None, 1e-12, 0.0])  # None: the default tolerance
    @pytest.mark.parametrize("h", H_CASES, ids=H_IDS)
    def test_bits_equal_the_level_by_level_loop(self, reference_spec, monkeypatch,
                                                chunk_nodes, tol, h):
        # 2**8 panels keep the failing cases cheap; u_2 converges well within it
        monkeypatch.setattr(op_module, "_MAX_DOUBLINGS", 8)
        if chunk_nodes is not None:
            monkeypatch.setattr(op_module, "_CHUNK_NODES", chunk_nodes)
        quad = {} if tol is None else {"tol": tol}
        points = np.linspace(0.2, 1.0, 5)  # ends at s = r, whose right side is empty
        passes = apply_outcome(reference_spec, 1.0, h, points, **quad)
        monkeypatch.setattr(op_module, "_kink_split_integrals", levelwise_split_integrals)
        levels = apply_outcome(reference_spec, 1.0, h, points, **quad)
        if isinstance(levels, str):
            assert passes == levels
        else:
            assert isinstance(passes, np.ndarray) and np.array_equal(passes, levels)
        if h is u2:
            assert not isinstance(levels, str)

    def test_h_called_once_when_converged_at_four_panels(self, reference_spec, panel_passes):
        calls = []

        def counted(t):
            calls.append(len(t))
            return u2(t)

        value = apply_operator(reference_spec, 1.0, counted, 0.5)
        assert panel_passes == [(2, (2, 4))]  # both sides stop at 4 panels
        assert calls == [2 * 6 * op_module._QUAD_NODES]
        assert value == apply_operator(reference_spec, 1.0, u2, 0.5)

    @pytest.mark.parametrize("chunk_nodes, rows_per_pass", [(40, 1), (200, 2), (400, 4)])
    def test_chunks_count_the_nodes_of_both_levels(self, reference_spec, monkeypatch,
                                                   panel_passes, chunk_nodes, rows_per_pass):
        monkeypatch.setattr(op_module, "_CHUNK_NODES", chunk_nodes)
        points = np.linspace(0.1, 1.0, 4)  # 8 rows, the right side of s = r empty
        apply_operator(reference_spec, 1.0, WIGGLE, points, tol=1e-12)
        first = [rows for rows, counts in panel_passes if counts == (2, 4)]
        assert sum(first) == 7
        assert max(first) == rows_per_pass
        for rows, counts in panel_passes:
            nodes = rows * sum(counts) * op_module._QUAD_NODES
            assert rows == 1 or nodes <= chunk_nodes

    def test_one_doubling_evaluates_two_panels_only(self, reference_spec, monkeypatch,
                                                    panel_passes):
        monkeypatch.setattr(op_module, "_MAX_DOUBLINGS", 1)
        with pytest.raises(ConvergenceError, match="within 2 panels$"):
            apply_operator(reference_spec, 1.0, u2, 0.5)
        assert panel_passes == [(2, (2,))]

    def test_deepest_level_and_message_unchanged(self, reference_spec, panel_passes):
        with pytest.raises(ConvergenceError, match="within 16384 panels$"):
            apply_operator(reference_spec, 1.0, lambda t: 0.7, 0.5)
        assert [counts for _, counts in panel_passes] == (
            [(2, 4)] + [(2**k,) for k in range(3, 15)]
        )

    def test_identity_check_op_calls(self, monkeypatch, capsys):
        import rbkernel.cli as cli

        riccati = []

        def counted(real):
            def call(*args, **kwargs):
                riccati.append(None)
                return real(*args, **kwargs)
            return call

        # h is cli's own lambda over cli.eval_regular
        monkeypatch.setattr(cli, "eval_regular", counted(cli.eval_regular))
        for name in ("eval_regular", "eval_irregular"):
            monkeypatch.setattr(op_module, name, counted(getattr(op_module, name)))
        per_point = []
        real_apply = cli.apply_operator

        def apply(*args, **kwargs):
            before = len(riccati)
            result = real_apply(*args, **kwargs)
            per_point.append(len(riccati) - before)
            return result

        monkeypatch.setattr(cli, "apply_operator", apply)
        assert cli.main(["identity-check", "--r", "2.3", "--tol", "1e-10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 21
        assert len(per_point) == 20  # one call per point
        assert max(per_point) <= 5  # h, u_0 and v_0 once each, then v_0, u_0 at s


class TestMinSingularValue:
    def test_zero_matrix_limit(self, reference_spec):
        grid = build_grid(1.0, panels_count=2, nodes_per_panel=4)
        op = NystromOperator(grid=grid, matrix=np.zeros((grid.size, grid.size)))
        assert min_singular_value(op) == pytest.approx(1.0, abs=1e-14)

    def test_small_radius_well_conditioned(self, reference_spec):
        grid = build_grid(0.5, panels_count=8, nodes_per_panel=12)
        assert min_singular_value(nystrom_matrix(reference_spec, grid)) >= 0.5

    def test_certificate_invariant(self, reference_spec):
        grid = build_grid(2.0, panels_count=8, nodes_per_panel=12)
        op = nystrom_matrix(reference_spec, grid)
        sigma_min = min_singular_value(op)
        identity_minus = np.eye(grid.size) - op.matrix
        _, _, v_rows = np.linalg.svd(identity_minus)
        residual = np.linalg.norm(identity_minus @ v_rows[-1])
        assert residual <= sigma_min * (1.0 + 1e-8) + 1e-15

    @pytest.mark.parametrize("r", [0.5, 2.0, "R"])
    def test_values_only_svd_matches_full_svd(self, reference_spec, root_r, r):
        grid = build_grid(root_r if r == "R" else r, panels_count=8, nodes_per_panel=12)
        op = nystrom_matrix(reference_spec, grid)
        _, singular_values, _ = np.linalg.svd(np.eye(grid.size) - op.matrix)
        assert abs(min_singular_value(op) - singular_values[-1]) <= 1e-15


class TestSweep:
    def test_no_collapse_away_from_root(self, reference_spec):
        report = sweep(reference_spec, 0.5, 1.5, 5)
        assert all(sigma > 0.1 for sigma in report.column("sigma_min"))

    def test_two_steps_sample_endpoints(self, reference_spec):
        report = sweep(reference_spec, 1.0, 2.0, 2)
        assert report.column("r") == [1.0, 2.0]
        assert len(report.rows) == 2

    def test_minimum_localizes_the_root(self, reference_spec, root_r):
        report = sweep(reference_spec, 2.0, 3.0, 101)
        rs = report.column("r")
        sigmas = report.column("sigma_min")
        r_at_min = rs[int(np.argmin(sigmas))]
        assert abs(r_at_min - root_r) <= 0.02

    def test_localization_tightens_under_refinement(self, reference_spec, root_r):
        report = sweep(
            reference_spec, 2.3, 2.6, 61, panels_count=16, nodes_per_panel=12
        )
        rs = report.column("r")
        sigmas = report.column("sigma_min")
        r_at_min = rs[int(np.argmin(sigmas))]
        assert abs(r_at_min - root_r) <= 0.005

    def test_refinement_deltas_recorded(self, reference_spec):
        report = sweep(reference_spec, 0.8, 1.2, 3, refine=True)
        deltas = report.column("refinement_delta")
        assert all(d is not None and d >= 0.0 for d in deltas)
        plain = sweep(reference_spec, 0.8, 1.2, 3)
        assert all(d is None for d in plain.column("refinement_delta"))

    def test_per_point_failures_recorded(self, reference_spec, monkeypatch):
        real = op_module._nystrom_assembly

        def flaky(grid, tables):
            if abs(grid.r - 1.0) < 1e-12:
                raise ValueError("synthetic failure")
            return real(grid, tables)

        monkeypatch.setattr(op_module, "_nystrom_assembly", flaky)
        report = op_module.sweep(reference_spec, 0.5, 1.5, 3)
        assert len(report.rows) == 2
        assert len(report.failures) == 1
        assert report.failures[0][0] == 1.0
        assert "synthetic" in report.failures[0][1]

    def test_programming_errors_propagate(self, reference_spec, monkeypatch):
        def broken(spec, points):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(op_module, "_family_tables", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            op_module.sweep(reference_spec, 0.5, 1.5, 3)

        def failing(spec, points):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(op_module, "_family_tables", failing)
        report = op_module.sweep(reference_spec, 0.5, 1.5, 3)
        assert report.rows == []
        assert [message for _, message in report.failures] == ["synthetic failure"] * 3

    def test_argument_validation(self, reference_spec):
        with pytest.raises(ValueError):
            sweep(reference_spec, 2.0, 1.0, 5)
        with pytest.raises(ValueError):
            sweep(reference_spec, 1.0, 2.0, 1)
        # an unbuildable grid is an argument error, not a per-point failure
        with pytest.raises(ValueError, match="panels_count"):
            sweep(reference_spec, 1.0, 2.0, 3, panels_count=0)



def per_radius_sweep(spec, r_min, r_max, steps, panels_count=8, nodes_per_panel=12,
                     grading=2.0, refine=False):
    """sweep's rows and failures from one nystrom_matrix per grid, radius by radius."""
    rows, failures = [], []
    for r in np.linspace(r_min, r_max, steps).tolist():
        try:
            sigmas = [
                min_singular_value(nystrom_matrix(
                    spec, build_grid(r, count, nodes_per_panel, grading=grading)
                ))
                for count in ((panels_count, 2 * panels_count) if refine else (panels_count,))
            ]
            rows.append((r, sigmas[0], abs(sigmas[1] - sigmas[0]) if refine else None))
        except op_module.NUMERIC_ERRORS as exc:
            failures.append((r, str(exc)))
    return rows, failures


THREE_TERMS = ([0, 4, 8], [2, 6, 10])


class TestBatchedSweep:
    """The chunked sweep against a per-radius loop, compared with == throughout."""

    @pytest.fixture
    def table_calls(self, monkeypatch):
        calls = []
        real = op_module._family_tables

        def counted(spec, points):
            calls.append(len(points))
            return real(spec, points)

        monkeypatch.setattr(op_module, "_family_tables", counted)
        return calls

    @pytest.mark.parametrize("sets", [([0], [2]), THREE_TERMS])
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    @pytest.mark.parametrize("refine", [False, True])
    def test_rows_equal_the_per_radius_loop(self, sets, grading, refine, table_calls):
        spec = solve_gamma(validate_sets(*sets))
        report = sweep(spec, 0.5, 4.5, 6, panels_count=4, nodes_per_panel=6,
                       grading=grading, refine=refine)
        assert table_calls == [6 * (3 if refine else 1) * 24]  # one batch
        assert (report.rows, report.failures) == per_radius_sweep(
            spec, 0.5, 4.5, 6, panels_count=4, nodes_per_panel=6,
            grading=grading, refine=refine,
        )

    @pytest.mark.parametrize("refine", [False, True])
    def test_failing_chunk_falls_back_per_radius(self, refine, table_calls):
        # v_30 overflows at the first node of r = 1e-5: the batch raises, and
        # each radius redoes its own tables
        spec = solve_gamma(validate_sets([0, 30], [2, 40]))
        report = sweep(spec, 1e-5, 1.0, 5, refine=refine)
        # the batch, then each radius; r = 1e-5 stops at its first grid's tables
        assert len(table_calls) == (1 + 1 + 4 * 2 if refine else 1 + 5)
        assert report.failures == [
            (1e-05, "v_30(1.4405754494750553e-09) overflows double precision")
        ]
        assert len(report.rows) == 4
        assert (report.rows, report.failures) == per_radius_sweep(
            spec, 1e-5, 1.0, 5, refine=refine
        )

    @pytest.mark.parametrize("chunk_nodes", [1, 200, 300, 600])
    def test_chunk_boundaries(self, monkeypatch, table_calls, chunk_nodes):
        # 96 + 192 nodes a radius: 1 radius a chunk at 1, 200 and 300 nodes
        # (a radius never splits), 2 at 600; the failing first chunk falls back
        monkeypatch.setattr(op_module, "_CHUNK_NODES", chunk_nodes)
        spec = solve_gamma(validate_sets([0, 30], [2, 40]))
        report = sweep(spec, 1e-5, 2.0, 7, refine=True)
        per_chunk = max(1, chunk_nodes // 288)
        batches = [n for n in table_calls if n > 192]
        assert len(batches) == -(-7 // per_chunk)
        assert max(batches) == per_chunk * 288
        assert (report.rows, report.failures) == per_radius_sweep(
            spec, 1e-5, 2.0, 7, refine=True
        )
        assert len(report.failures) == 1

    def test_chunks_hold_at_most_the_chunk_nodes(self, monkeypatch, table_calls):
        # 128 x 12 nodes and its doubled grid: 14 radii (64512 nodes) a chunk;
        # the matrices are stubbed out, only the tables are measured
        monkeypatch.setattr(op_module, "_nystrom_assembly", lambda grid, tables: None)
        monkeypatch.setattr(op_module, "min_singular_value", lambda op: 0.0)
        report = sweep(solve_gamma(validate_sets([0], [2])), 1.0, 1.1, 29,
                       panels_count=128, nodes_per_panel=12, refine=True)
        assert table_calls == [14 * 4608, 14 * 4608, 4608]
        assert len(report.rows) == 29
