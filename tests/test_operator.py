"""Tests for the quadrature grids, Nystrom matrix, and spectral machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import rbkernel.operator as op_module
from rbkernel import (
    ConvergenceError,
    QuadratureGrid,
    SeparableNystromOperator,
    apply_operator,
    build_grid,
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

from conftest import (
    definition_form,
    definition_sigma,
    kernel_definition_matrix,
    kink_exact_definition_matrix,
    read_matrix,
)

# (K u_2)(0.5) at r = 1 equals u_2(0.5) + p(1) u_0(0.5); 40-digit oracle value
J_R1_S_HALF = -0.062715474113685405

# -g(0.5, 0.5) * 1.0 / 0.25 = 6 sin(0.5) (-cos 0.5) * 4 = -12 sin(1)
A00_SINGLE_NODE = -10.097651817694758

# min |1 - lambda| of the kink-exact certificate at r = 3; the same to 12
# digits on 8x16, 16x16 and 32x16 uniform grids
KINK_EXACT_SIGMA_R3 = 0.749202529949

THREE_TERMS = ([0, 4, 8], [2, 6, 10])


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
        with pytest.raises(ValueError, match="grading"):
            build_grid(1.0, grading=math.nan)
        # (1/8)**400 and (1/8)**inf are 0, the same as the first bound
        for grading in (400.0, math.inf):
            with pytest.raises(ValueError, match=f"grading exponent {grading!r} collapses 8"):
                build_grid(1.0, grading=grading)

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

    @pytest.mark.parametrize("nodes, weights, message", [
        ([0.3, 0.7], [1.0], "equal length"),
        ([0.7, 0.3], [0.5, 0.5], "strictly increasing"),
        ([0.5, 0.5], [0.5, 0.5], "strictly increasing"),
    ])
    def test_manual_grid_node_validation(self, nodes, weights, message):
        with pytest.raises(ValueError, match=message):
            QuadratureGrid(r=1.0, panel_bounds=(0.0, 1.0), nodes=np.array(nodes),
                           weights=np.array(weights))


class TestNystromMatrix:
    def test_single_node_entry(self, reference_spec):
        grid = QuadratureGrid(
            r=1.0,
            panel_bounds=(0.0, 1.0),
            nodes=np.array([0.5]),
            weights=np.array([1.0]),
        )
        # D cancels on the diagonal: S[0, 0] = A[0, 0]
        entry = nystrom_matrix(reference_spec, grid)._form()[0][0, 0]
        assert entry == pytest.approx(A00_SINGLE_NODE, rel=1e-13)
        # same number from the defining formula
        direct = 6.0 * math.sin(0.5) * (-math.cos(0.5)) * 1.0 / 0.25
        assert entry == pytest.approx(direct, rel=1e-15)

    def test_entries_finite(self, reference_spec):
        grid = build_grid(2.5, panels_count=6, nodes_per_panel=10)
        op = nystrom_matrix(reference_spec, grid)
        assert np.all(np.isfinite(read_matrix(op)))

    def test_non_finite_entries_name_the_radius(self):
        grid = build_grid(1.7, panels_count=2, nodes_per_panel=3)
        tables = np.array([(np.full(grid.size, np.inf), np.ones(grid.size))])
        op = SeparableNystromOperator(grid, np.array([1.0]), tables)
        for evaluate in (op._form, lambda: min_singular_value(op)):
            with pytest.raises(ValueError) as exc:
                evaluate()
            assert str(exc.value) == "Nystrom matrix contains non-finite entries at r = 1.7"

    def test_upper_triangle_is_never_read(self):
        # above the diagonal the product holds v(t_0) u(t_1) = 1e600, which
        # overflows; S itself, its lower triangle, is finite
        grid = QuadratureGrid(r=1.0, panel_bounds=(0.0, 1.0),
                              nodes=np.array([0.25, 0.75]), weights=np.array([0.5, 0.5]))
        u, v = np.array([1.0, 1e300]), np.array([1e300, 1.0])
        op = SeparableNystromOperator(grid, np.array([-1.0]), np.array([(u, v)]))
        a = grid.l2_scaling
        s_10 = (a[1] * v[1]) * (a[0] * u[0])
        symmetric = np.array([[(a[0] * v[0]) * (a[0] * u[0]), s_10],
                              [s_10, (a[1] * v[1]) * (a[1] * u[1])]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = min_singular_value(op)
        assert sigma == np.min(np.abs(1.0 - np.linalg.eigvalsh(symmetric)))

    @pytest.mark.parametrize("make", [nystrom_matrix, kink_exact_matrix])
    @pytest.mark.parametrize("sets", [([0], [2]), THREE_TERMS])
    def test_fields_hold_gamma_and_one_stack_of_the_tables(self, make, sets):
        # tables[:, 0] is u_m and tables[:, 1] is v_m at the nodes, one row per order
        spec = solve_gamma(validate_sets(*sets))
        grid = build_grid(2.0, 4, 6, grading=1.0)
        op = make(spec, grid)
        assert op.tables.shape == (len(spec.gamma), 2, grid.size)
        expected = [(eval_regular(m, grid.nodes).value, eval_irregular(m, grid.nodes).value)
                    for m, _ in spec.terms]
        assert np.array_equal(op.tables, np.array(expected))
        assert op.gamma.shape == (len(spec.gamma),)
        assert np.array_equal(op.gamma, spec.gamma)

    @pytest.mark.parametrize("sets", [([0], [2]), THREE_TERMS, ([0, 30], [2, 40])])
    def test_scaled_generators_keep_the_bits_of_the_plain_product(self, sets):
        # each order's pair is scaled by a power of two before the product;
        # where the unscaled P = -gamma a v and Q = a u are finite and normal,
        # the lower triangle is that of P Q^T, bit for bit
        spec = solve_gamma(validate_sets(*sets))
        for r in (0.05, 0.5, 2.0, 6.0):
            grid = build_grid(r, 8, 12)
            op = nystrom_matrix(spec, grid)
            a = grid.l2_scaling
            with np.errstate(over="ignore"):  # above the diagonal, at S = {0, 30}
                plain = (-op.gamma * a[:, None] * op.tables[:, 1].T) @ (a * op.tables[:, 0])
            assert np.array_equal(np.tril(op._form()[0]), np.tril(plain)), r

    @pytest.mark.parametrize("sets", [([0], [2]), THREE_TERMS])
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    @pytest.mark.parametrize("panels", [8, 16])
    def test_separable_form_agrees_with_the_dense_route(self, root_r, sets, grading, panels):
        # the product of the scaled tables against D A D^-1 of A assembled
        # from the kernel's definition: the same lower triangle within 1e-14
        # relative (5.8e-16 measured), the same sigma within 1e-13 (5.6e-15)
        spec = solve_gamma(validate_sets(*sets))
        for r in np.geomspace(0.05, 6.0, 7).tolist() + [root_r]:
            grid = build_grid(r, panels, 12, grading=grading)
            op = nystrom_matrix(spec, grid)
            dense = kernel_definition_matrix(spec, grid)
            scaling = grid.l2_scaling
            reference = np.tril(scaling[:, None] * dense / scaling[None, :])
            gap = np.max(np.abs(np.tril(op._form()[0]) - reference))
            assert gap <= 1e-14 * np.max(np.abs(reference)), r
            assert abs(min_singular_value(op) - definition_sigma(grid, dense)) <= 1e-13, r
            assert self_adjoint_certificate(op).asymmetry == 0.0


class TestKinkExactMatrix:
    @pytest.mark.parametrize("panels, nodes, grading", [
        (1, 16, 1.0), (8, 16, 1.0), (5, 7, 2.0), (6, 12, 3.0),
    ])
    def test_cumulative_integration_exact_for_monomials(self, panels, nodes, grading):
        # the panel rule: sum_j rule[i, j] w_j x_j^k = integral_{-1}^{x_i} x^k
        # for k < n on the Gauss rule (x, w)...
        x, w = np.polynomial.legendre.leggauss(nodes)
        rule = op_module._legendre_cumulative(nodes)
        for k in range(nodes):
            exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert np.max(np.abs(rule @ (w * x**k) - exact)) <= 1e-13, k
        # ...and on every panel of a graded grid, after the full weights of
        # the panels before it, it integrates from 0 to each node
        grid = build_grid(2.0, panels_count=panels, nodes_per_panel=nodes,
                          grading=grading)
        panel = np.repeat(np.arange(panels), nodes)
        share = np.where(panel[:, None] == panel[None, :], np.tile(rule, (panels, panels)),
                         (panel[:, None] > panel[None, :]).astype(float))
        lower = share * grid.weights
        for k in range(nodes):
            exact = grid.nodes ** (k + 1) / (k + 1)
            error = np.max(np.abs(lower @ grid.nodes**k - exact)) / np.max(exact)
            assert error <= 1e-13, k

    @pytest.mark.parametrize("sets", [([0], [2]), THREE_TERMS])
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    def test_shares_the_nystrom_product_off_the_diagonal_panel_blocks(
            self, root_r, sets, grading):
        # both forms are the product P Q^T wherever row and column lie in
        # different panels, bit for bit; only the diagonal blocks differ
        spec = solve_gamma(validate_sets(*sets))
        grid = build_grid(root_r, 8, 12, grading=grading)
        kink = kink_exact_matrix(spec, grid)._form()[0]
        nystrom = nystrom_matrix(spec, grid)._form()[0]
        panel = np.repeat(np.arange(8), 12)
        apart = panel[:, None] != panel[None, :]
        assert np.array_equal(kink[apart], nystrom[apart])
        assert not np.array_equal(kink[~apart], nystrom[~apart])

    @pytest.mark.parametrize("sets", [([0], [2]), ([1], [3]), THREE_TERMS, ([0, 1], [2, 3])])
    @pytest.mark.parametrize("panels, nodes, grading", [
        (8, 16, 1.0), (8, 12, 2.0), (4, 12, 1.0), (16, 16, 1.0),
    ])
    def test_agrees_with_the_dense_assembly(self, root_r, sets, panels, nodes, grading):
        # the separable form against D A D^-1 of the dense product-integration
        # A, symmetrized: within 1e-13 of its largest entry (2.7e-14 measured),
        # and the reference kernel's sigma within 1e-14 (2.9e-15)
        spec = solve_gamma(validate_sets(*sets))
        for r in np.geomspace(0.05, 6.0, 7).tolist() + [root_r]:
            grid = build_grid(r, panels, nodes, grading=grading)
            op = kink_exact_matrix(spec, grid)
            dense = kink_exact_definition_matrix(spec, grid)
            reference = np.tril(definition_form(grid, dense))
            gap = np.max(np.abs(read_matrix(op) - reference))
            assert gap <= 1e-13 * np.max(np.abs(reference)), r
            if sets == ([0], [2]):
                assert abs(min_singular_value(op) - definition_sigma(grid, dense)) <= 1e-14, r

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
        assert not hasattr(certificate, "null_vector")
        assert certificate.sigma_min <= certificate.next_sigma
        # sigma_min and next_sigma come from eigvalsh; eigh of the same form
        # finds both to rounding
        assert certificate.sigma_min == min_singular_value(op)
        # and from the signed eigenvalues the certificate keeps, ascending
        eigenvalues = certificate.eigenvalues
        assert eigenvalues.shape == (grid.size,) and np.all(np.diff(eigenvalues) >= 0.0)
        kept = np.sort(np.abs(1.0 - eigenvalues))
        assert (kept[0], kept[1]) == (certificate.sigma_min, certificate.next_sigma)
        distance = np.sort(np.abs(1.0 - np.linalg.eigh(op._form()[0], UPLO="L")[0]))
        assert abs(certificate.sigma_min - distance[0]) <= 1e-14
        assert abs(certificate.next_sigma - distance[1]) <= 1e-14
        # the same values from the symmetric part of the dense D A D^-1
        form = definition_form(grid, kink_exact_definition_matrix(reference_spec, grid))
        distance = np.sort(np.abs(1.0 - np.linalg.eigvalsh(form)))
        assert abs(certificate.sigma_min - distance[0]) <= 1e-14
        assert abs(certificate.next_sigma - distance[1]) <= 1e-14

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

    @pytest.mark.parametrize("sets", [([0], [2]), THREE_TERMS])
    def test_certificate_forms_the_product_once(self, monkeypatch, root_r, sets):
        op = kink_exact_matrix(solve_gamma(validate_sets(*sets)),
                               build_grid(root_r, 8, 16, grading=1.0))
        calls = []
        original = SeparableNystromOperator._generators

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(SeparableNystromOperator, "_generators", counted)
        certificate = self_adjoint_certificate(op)
        assert calls == [op]
        # max |B - B^T| over the diagonal panel blocks B = rule * M + (1 - rule) * M^T
        # of the product M = P Q^T, before they are symmetrized
        scaling = op.grid.l2_scaling
        product = ((-op.gamma * scaling[:, None] * op.tables[:, 1].T)
                   @ (scaling * op.tables[:, 0]))
        rule = op.panel_rule
        diagonal = [product[i:i + 16, i:i + 16] for i in range(0, 128, 16)]
        asymmetry = max(float(np.max(np.abs(b - b.T)))
                        for b in (rule * m + (1.0 - rule) * m.T for m in diagonal))
        assert certificate.asymmetry == asymmetry
        assert (asymmetry <= 1e-10) if sets == ([0], [2]) else (asymmetry > 1.0)

    def test_collapse_at_root(self, reference_spec, root_r):
        grid = build_grid(root_r, 8, 16, grading=1.0)
        certificate = self_adjoint_certificate(kink_exact_matrix(reference_spec, grid))
        assert certificate.sigma_min <= 1e-12
        assert certificate.next_sigma >= 0.5
        # the eigenvector of the eigenvalue nearest 1, from an eigh of the
        # certificate's form, is u_2 at the nodes, D-scaled, up to sign
        samples = u2(grid.nodes) * grid.l2_scaling
        samples /= np.linalg.norm(samples)
        eigenvalues, eigenvectors = np.linalg.eigh(certificate.form, UPLO="L")
        null_vector = eigenvectors[:, np.argmin(np.abs(1.0 - eigenvalues))]
        assert abs(float(null_vector @ samples)) == pytest.approx(1.0, abs=1e-14)


class TestNodeUnderflow:
    """Below about 1e-151, t*t is subnormal or 0 at the first nodes.  K is
    defined there; both matrices are formed from a = sqrt(w)/t and never
    square t, and apply_operator divides by t once on each side of the
    product at those nodes, so K forms down to the smallest radii."""

    @staticmethod
    def gap_to_small_radius(build, spec, r):
        """max |A(r) - A(1e-100)| / max |A(1e-100)| on 8 x 16, of the matrix
        :func:`read_matrix` reads; below r ~ 1e-8 neither depends on r beyond
        rounding.  numpy must not warn."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = read_matrix(build(spec, build_grid(r, 8, 16, grading=1.0)))
        small = read_matrix(build(spec, build_grid(1e-100, 8, 16, grading=1.0)))
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
        # at the first ones, which the form, dividing by t only in a, never forms
        spec = solve_gamma(validate_sets([1], [3]))
        grid = build_grid(1e-140, 8, 16, grading=1.0)
        assert np.all(grid.nodes**2 >= np.finfo(float).tiny)
        first = float(grid.nodes[0])
        assert abs(eval_irregular(1, first).value) / first > np.finfo(float).max * first
        assert self.gap_to_small_radius(kink_exact_matrix, spec, 1e-140) <= 1e-12

    @pytest.mark.parametrize("r", [2.5e-159, 1e-155, 1e-152, 1.1e-151])
    def test_kink_exact_subnormal_band_assembles_without_warnings(self, reference_spec, r):
        # t*t is subnormal, not 0, at the first nodes, and 1/t^2 overflows
        # there, which the form never divides by
        grid = build_grid(r, 8, 16, grading=1.0)
        assert np.all(grid.nodes**2 > 0.0)
        assert grid.nodes[0] ** 2 < 1.0 / np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = kink_exact_matrix(reference_spec, grid)
            assert np.all(np.isfinite(read_matrix(op)))
        # below r ~ 1e-4 the certificate sits at its small-radius limit
        certificate = self_adjoint_certificate(op)
        small = self_adjoint_certificate(
            kink_exact_matrix(reference_spec, build_grid(1e-140, 8, 16, grading=1.0))
        )
        assert certificate.sigma_min == pytest.approx(small.sigma_min, abs=1e-12)
        assert certificate.asymmetry <= 1e-10

    @pytest.mark.parametrize("r", [2e-151, 1.2e-151])
    def test_subnormal_squares_still_assemble(self, reference_spec, r):
        grid = build_grid(r, 8, 16, grading=1.0)
        assert np.any(grid.nodes**2 < np.finfo(float).tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (kink_exact_matrix, nystrom_matrix):
                assert np.all(np.isfinite(read_matrix(build(reference_spec, grid))))

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
            # A h = D^-1 S D h
            form = mirrored(nystrom_matrix(reference_spec, grid)._form()[0])
            scaling = grid.l2_scaling
            samples = np.array([u2(t) for t in grid.nodes])
            lhs = form @ (scaling * samples) / scaling
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

    @pytest.mark.parametrize("r", [1.0, 1e-300])
    @pytest.mark.parametrize("points", [0.5, np.linspace(1 / 7, 1.0, 7)], ids=["float", "array"])
    @pytest.mark.parametrize("scalar, array", [
        (lambda t: 0.0, np.zeros_like),
        (lambda t: 0.7, lambda t: np.full_like(t, 0.7)),  # never converges
        (lambda t: u2(t).tolist(), u2),
    ], ids=["zero", "constant", "list"])
    def test_scalar_h_gives_the_bits_of_its_node_array(self, reference_spec, r, points,
                                                       scalar, array):
        # numpy's broadcasting gives a scalar (or list) h's value to every node
        def outcome(h):
            try:
                return apply_operator(reference_spec, r, h, points * r)
            except ConvergenceError as exc:
                return str(exc)

        first, second = outcome(scalar), outcome(array)
        assert type(first) is type(second)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("values", [np.ones(3), np.ones(1), np.ones((192, 1))],
                             ids=["short", "one", "column"])
    def test_wrong_length_h_is_named(self, reference_spec, values):
        # one point's first pass holds 2 + 4 panels a side of 16 nodes: 192
        count = values.size
        with pytest.raises(ValueError,
                           match=rf"^h returned {count} values for 192 quadrature nodes$"):
            apply_operator(reference_spec, 1.0, lambda t: values, 0.5)

    @pytest.mark.parametrize("r", [1e-155, 1e-158, 1e-160])
    def test_subnormal_squares_converge(self, reference_spec, r):
        # t*t is subnormal or 0 at the nodes: K t is r times its value at
        # r = 1e-100, where it converged all along
        points = np.linspace(r / 7, r, 7)
        value = apply_operator(reference_spec, r, lambda t: t, points)
        assert np.all(np.isfinite(value))
        small = apply_operator(reference_spec, 1e-100, lambda t: t, points / r * 1e-100)
        assert value / r == pytest.approx(small / 1e-100, abs=1e-12)

    @pytest.mark.parametrize("r", [0.7, 1.0, "R", 3.0, 3.99, 10.0])
    @pytest.mark.parametrize("tol", [None, 1e-12, 1e-13, 1e-14])  # None: the default
    # u_2 converges at the same level on every side; t cos(30 t) does not
    @pytest.mark.parametrize("h", [u2, lambda t: t * np.cos(30.0 * t)], ids=["u2", "wiggle"])
    def test_batched_points_match_single_calls(self, reference_spec, root_r, r, tol, h):
        # every point gets the bits it gets on its own
        r = root_r if r == "R" else r
        quad = {} if tol is None else {"tol": tol}
        for count in (7, 20):
            points = np.linspace(r / count, r, count)  # ends at s = r, whose right side is empty
            batched = apply_operator(reference_spec, r, h, points, **quad)
            assert isinstance(batched, np.ndarray) and batched.shape == points.shape
            for s, value in zip(points, batched):
                alone = apply_operator(reference_spec, r, h, float(s), **quad)
                assert type(alone) is float
                assert value == alone, (count, s)

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


LARGEST = float(np.finfo(float).max)


class TestNodeRule:
    """A row [lo, hi] takes the nodes lo + (hi - lo) F and weights (hi - lo) W of its unit
    pattern, from the largest double down to subnormal radii."""

    @pytest.mark.parametrize("divisor", [None, 3, 9])  # lo = 0 or hi / divisor
    @pytest.mark.parametrize("hi", [1.0, 2.0**1023, LARGEST, 2.2e-308, 1e-310, 5e-324])
    def test_nodes_stay_in_the_row_and_weights_finite(self, hi, divisor):
        lo = np.full(2, 0.0 if divisor is None else hi / divisor)
        hi = np.full(2, hi)
        left = np.array([True, False])  # the left row graded, the right uniform
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, overflow included
            nodes, weights = op_module._level_nodes(lo, hi, left, (2, 4))
            assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
            assert np.all((lo[:, None] <= nodes) & (nodes <= hi[:, None]))
            assert np.all(weights >= 0.0)
            # the early failure of _kink_split_integrals reads the smallest
            # weight of a level on its own
            for count in (2, 8, 2**14):
                level = op_module._level_nodes(lo, hi, left, (count,))[1]
                assert np.all(np.isfinite(level)) and np.all(level >= 0.0), count


def levelwise_split_integrals(order, h, s, r, tol):
    """``_kink_split_integrals`` one row and one doubling level at a time.

    It shares only the rules ``_gauss_rule`` and ``_over_square`` with the
    code it checks: it forms each level's unit pattern itself, the Gauss
    nodes and weights of the panels between j/c (squared on [0, s]), and a
    row's nodes lo + (hi - lo) F and weights (hi - lo) W from it, and sums
    each row with ``np.dot``.  u_m and v_m at the points come from calls of
    their own.
    """
    x, w = op_module._gauss_rule(op_module._QUAD_NODES)
    n = len(s)
    lo = np.concatenate([np.zeros(n), s])
    hi = np.concatenate([s, np.full(n, r)])
    values = np.zeros(2 * n)
    previous = np.full(2 * n, np.nan)
    active = lo < hi
    count = 2
    for _ in range(op_module._MAX_DOUBLINGS):
        for row in np.flatnonzero(active):
            left = row < n
            edges = np.arange(count + 1) / count
            edges = edges**2.0 if left else edges
            half = 0.5 * (edges[1:] - edges[:-1])
            unit = (0.5 * edges[1:] + 0.5 * edges[:-1])[:, None] + half[:, None] * x
            width = hi[row] - lo[row]
            nodes = lo[row] + width * unit.ravel()
            weights = width * (half[:, None] * w).ravel()
            with np.errstate(all="ignore"):  # see _panel_sums
                family = (eval_regular if left else eval_irregular)(order, nodes).value
                h_values = np.broadcast_to(h(nodes), nodes.shape)
                level = np.dot(weights, op_module._over_square(nodes, family, h_values))
                if abs(level - previous[row]) <= tol:
                    active[row] = False
            values[row] = previous[row] = level
        count *= 2
    if active.any():
        row = np.flatnonzero(active)[0]
        raise ConvergenceError(
            f"integral on [{lo[row]:g}, {hi[row]:g}] did not stabilize to {tol:.1e} "
            f"within {count // 2} panels"
        )
    return (values[:n], values[n:],
            eval_regular(order, s).value, eval_irregular(order, s).value)


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

        def recorded(order, h, lo, hi, left, counts, points):
            passes.append((len(lo), tuple(counts)))
            return real(order, h, lo, hi, left, counts, points)

        monkeypatch.setattr(op_module, "_panel_sums", recorded)
        return passes

    @pytest.mark.parametrize("h", H_CASES, ids=H_IDS)
    def test_one_pass_gives_each_level_its_own_sums(self, h):
        lo = np.array([0.0, 0.0, 0.3, 1.0])
        hi = np.array([0.3, 1.0, 1.0, 1.0])  # the last row is empty
        left = np.array([True, True, False, False])
        none = np.empty(0)
        together, _, _ = op_module._panel_sums(0, h, lo, hi, left, (2, 4), none)
        apart = [op_module._panel_sums(0, h, lo, hi, left, (count,), none)[0][0]
                 for count in (2, 4)]
        assert len(together) == 2
        for joint, single in zip(together, apart):
            assert np.array_equal(joint, single)

    @pytest.mark.parametrize("chunk_nodes", [None, 40])  # None: the default chunks
    @pytest.mark.parametrize("tol", [None, 1e-12, 0.0])  # None: the default tolerance
    @pytest.mark.parametrize("h", H_CASES, ids=H_IDS)
    def test_bits_equal_the_level_by_level_loop(self, reference_spec, monkeypatch,
                                                chunk_nodes, tol, h):
        # 2**9 panels keep the failing cases cheap; u_2 converges within it,
        # at tol = 0 (two levels with equal bits) on [0.4, 1] at 512 panels
        monkeypatch.setattr(op_module, "_MAX_DOUBLINGS", 9)
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

    @pytest.mark.parametrize("doublings, h, passes", [
        (1, u2, [(2, (2,))]),  # u2 would settle at 4 panels
        # 0.7 / t diverges on [0, s]; [s, r] settles at 4 panels
        (2, lambda t: 0.7, [(2, (2, 4))]),
        (3, lambda t: 0.7, [(2, (2, 4)), (1, (8,))]),
    ], ids=["one", "two", "three"])
    def test_one_doubling_evaluates_two_panels_only(self, reference_spec, monkeypatch,
                                                    panel_passes, doublings, h, passes):
        monkeypatch.setattr(op_module, "_MAX_DOUBLINGS", doublings)
        with pytest.raises(ConvergenceError, match=f"within {2**doublings} panels$"):
            apply_operator(reference_spec, 1.0, h, 0.5)
        assert panel_passes == passes

    def test_no_points_give_an_empty_array_without_calling_h(self, reference_spec):
        def never(t):
            raise AssertionError("h called")

        values = apply_operator(reference_spec, 1.0, never, np.empty(0))
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64 and values.shape == (0,)

    def test_deepest_level_and_message_unchanged(self, reference_spec, panel_passes):
        with pytest.raises(ConvergenceError, match="within 16384 panels$"):
            apply_operator(reference_spec, 1.0, lambda t: 0.7, 0.5)
        assert [counts for _, counts in panel_passes] == (
            [(2, 4)] + [(2**k,) for k in range(3, 15)]
        )

    @pytest.mark.parametrize("r", [1e-310, 2.3e-308, 1e-307])
    def test_underflowing_weights_fail_fast(self, reference_spec, panel_passes, r):
        # v_0/t overflows at the nodes of [s, r], so those sums are not
        # finite, and the weights of 8 panels are subnormal: no doubling can
        # mend that, and the call says so after its first pass, not after 13
        with pytest.raises(ConvergenceError, match="did not stabilize .* within 4 panels$"):
            apply_operator(reference_spec, r, u2, np.linspace(r / 20, r, 20))
        assert len(panel_passes) <= 2

    @pytest.mark.parametrize("h", [lambda t: t, WIGGLE], ids=["t", "wiggle"])
    def test_subnormal_weights_alone_do_not_stop_a_row(self, reference_spec, monkeypatch,
                                                       panel_passes, h):
        # at r = 1e-304 and tol = 0 the rows settle after up to 64 panels,
        # with subnormal weights from 8 panels on; their sums stay finite, so
        # they keep doubling, and end with the level-by-level loop's bits
        # (at 1e-305 every row settles by 8 panels)
        points = np.array([1e-304 / 7, 1e-304 / 2, 1e-304])
        fast = apply_operator(reference_spec, 1e-304, h, points, tol=0.0)
        assert max(counts[-1] for _, counts in panel_passes) == 64
        assert op_module._level_nodes(
            np.zeros(1), points[-1:], np.ones(1, dtype=bool), (8,))[1].min() < np.finfo(float).tiny
        monkeypatch.setattr(op_module, "_kink_split_integrals", levelwise_split_integrals)
        assert np.array_equal(fast, apply_operator(reference_spec, 1e-304, h, points, tol=0.0))

    def test_identity_check_op_calls(self, monkeypatch, capsys):
        import rbkernel.cli as cli

        riccati = []

        def counted(real):
            def call(*args, **kwargs):
                riccati.append(None)
                return real(*args, **kwargs)
            return call

        # h is counterexample's u_2, over the values path beside eval_regular
        monkeypatch.setattr(cli.cx, "_regular_values", counted(cli.cx._regular_values))
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
        # each point settles at 4 panels: h (u_2), then u_0 and v_0 once each
        # on the nodes of both levels and at s; at s = r, which has no
        # [s, r], v_0 is called at s alone
        assert per_point == [3] * 20


def mirrored(lower):
    """The symmetric matrix whose lower triangle is that of ``lower``."""
    return np.tril(lower) + np.tril(lower, -1).T


class TestMinSingularValue:
    def test_zero_matrix_limit(self, reference_spec):
        grid = build_grid(1.0, panels_count=2, nodes_per_panel=4)
        zeros = np.zeros(grid.size)
        op = SeparableNystromOperator(grid, np.array([0.0]), np.array([(zeros, zeros)]))
        assert min_singular_value(op) == pytest.approx(1.0, abs=1e-14)

    def test_small_radius_well_conditioned(self, reference_spec):
        grid = build_grid(0.5, panels_count=8, nodes_per_panel=12)
        assert min_singular_value(nystrom_matrix(reference_spec, grid)) >= 0.5

    def test_certificate_invariant(self, reference_spec):
        # eigh's unit eigenvector of the eigenvalue nearest 1 is one that
        # I - S takes to at most the certificate's sigma_min
        grid = build_grid(2.0, panels_count=8, nodes_per_panel=12)
        op = nystrom_matrix(reference_spec, grid)
        certificate = self_adjoint_certificate(op)
        sigma_min, symmetric = certificate.sigma_min, certificate.form
        # the certificate keeps the whole symmetric matrix it solved
        assert np.array_equal(symmetric, mirrored(op._form()[0]))
        eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
        null_vector = eigenvectors[:, np.argmin(np.abs(1.0 - eigenvalues))]
        residual = np.linalg.norm(null_vector - symmetric @ null_vector)
        assert residual <= sigma_min * (1.0 + 1e-8) + 1e-15

    @pytest.mark.parametrize("r", [0.5, 2.0, "R"])
    def test_values_only_svd_matches_full_svd(self, reference_spec, root_r, r):
        # for the symmetric S, min |1 - lambda| is the smallest singular value
        # of I - S; the two LAPACK routes differ by at most 1.4e-15 here
        grid = build_grid(root_r if r == "R" else r, panels_count=8, nodes_per_panel=12)
        op = nystrom_matrix(reference_spec, grid)
        symmetric = mirrored(op._form()[0])
        _, singular_values, _ = np.linalg.svd(np.eye(grid.size) - symmetric)
        assert abs(min_singular_value(op) - singular_values[-1]) <= 1e-14


class TestSweep:
    def test_no_collapse_away_from_root(self, reference_spec):
        report = sweep(reference_spec, 0.5, 1.5, 5)
        assert all(sigma > 0.1 for _, sigma, _ in report.rows)

    def test_two_steps_sample_endpoints(self, reference_spec):
        report = sweep(reference_spec, 1.0, 2.0, 2)
        assert [r for r, *_ in report.rows] == [1.0, 2.0]
        assert len(report.rows) == 2

    def test_minimum_localizes_the_root(self, reference_spec, root_r):
        report = sweep(reference_spec, 2.0, 3.0, 101)
        rs, sigmas, _ = zip(*report.rows)
        r_at_min = rs[int(np.argmin(sigmas))]
        assert abs(r_at_min - root_r) <= 0.02

    def test_localization_tightens_under_refinement(self, reference_spec, root_r):
        report = sweep(
            reference_spec, 2.3, 2.6, 61, panels_count=16, nodes_per_panel=12
        )
        rs, sigmas, _ = zip(*report.rows)
        r_at_min = rs[int(np.argmin(sigmas))]
        assert abs(r_at_min - root_r) <= 0.005

    def test_refinement_deltas_recorded(self, reference_spec):
        report = sweep(reference_spec, 0.8, 1.2, 3, refine=True)
        assert all(d is not None and d >= 0.0 for *_, d in report.rows)
        plain = sweep(reference_spec, 0.8, 1.2, 3)
        assert all(d is None for *_, d in plain.rows)

    def test_per_point_failures_recorded(self, reference_spec, monkeypatch):
        real = op_module.SeparableNystromOperator

        def flaky(grid, gamma, tables):
            if abs(grid.r - 1.0) < 1e-12:
                raise ValueError("synthetic failure")
            return real(grid, gamma, tables)

        monkeypatch.setattr(op_module, "SeparableNystromOperator", flaky)
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
        # grid parameters no radius accepts are an argument error, not a
        # per-point failure
        with pytest.raises(ValueError, match="panels_count"):
            sweep(reference_spec, 1.0, 2.0, 3, panels_count=0)
        with pytest.raises(ValueError, match="nodes_per_panel"):
            sweep(reference_spec, 1.0, 2.0, 3, nodes_per_panel=1)
        for grading in (0.5, math.nan):
            with pytest.raises(ValueError, match="grading"):
                sweep(reference_spec, 1.0, 2.0, 3, grading=grading)
        # a grading that makes two unit bounds (i/n)**grading equal fails every
        # radius: 400 and inf on 8 panels, 300 on the 16 of a refined sweep
        for grading, refine, panels in ((400.0, False, 8), (math.inf, False, 8),
                                        (300.0, True, 16)):
            with pytest.raises(ValueError,
                               match=f"grading exponent {grading!r} collapses {panels} panels"):
                sweep(reference_spec, 1.0, 2.0, 2, grading=grading, refine=refine)



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

    def test_steep_grading_keeps_its_rows(self, reference_spec):
        # (1/8)**300 = 2**-900 is a normal double: 8 panels at grading 300 build
        report = sweep(reference_spec, 1.0, 2.0, 2, grading=300.0)
        assert report.failures == [] and len(report.rows) == 2
        assert (report.rows, report.failures) == per_radius_sweep(
            reference_spec, 1.0, 2.0, 2, grading=300.0)

    @pytest.mark.parametrize("refine", [False, True])
    def test_failing_chunk_falls_back_per_radius(self, refine, table_calls):
        # v_30 overflows at the first node of r = 5e-6: the batch raises, and
        # each radius redoes its own tables
        spec = solve_gamma(validate_sets([0, 30], [2, 40]))
        report = sweep(spec, 5e-6, 1.0, 5, refine=refine)
        # the batch, then each radius; r = 5e-6 stops at its first grid's tables
        assert len(table_calls) == (1 + 1 + 4 * 2 if refine else 1 + 5)
        assert report.failures == [
            (5e-06, "v_30(7.202877247375276e-10) overflows double precision")
        ]
        assert len(report.rows) == 4
        assert (report.rows, report.failures) == per_radius_sweep(
            spec, 5e-6, 1.0, 5, refine=refine
        )

    def test_radius_whose_derivatives_overflow_forms_its_matrix(self):
        # for S = {0, 4, 8}, v'_8 overflows at the first node of r = 1e-30,
        # v_8 itself only below r ~ 1.25e-34: the tables read values, so both
        # radii form their matrices (at the small-radius limit of sigma)
        spec = solve_gamma(validate_sets(*THREE_TERMS))
        report = sweep(spec, 1e-30, 1e-29, 2)
        assert report.failures == []
        assert [(r, sigma) for r, sigma, _ in report.rows] == [
            (1e-30, 1.000918915511637), (1e-29, 1.000918915511637)
        ]

    def test_radius_whose_generator_overflows_forms_its_matrix(self):
        # the tables of r = 1e-5 are finite (max |v_30| = 5.1e305), but
        # gamma_30 a v_30 alone overflows; the radius forms its matrix, at a
        # sigma next to that of r = 0.2500075
        spec = solve_gamma(validate_sets([0, 30], [2, 40]))
        report = sweep(spec, 1e-5, 1.0, 5)
        assert report.failures == []
        assert (report.rows, report.failures) == per_radius_sweep(spec, 1e-5, 1.0, 5)
        (r_min, sigma, _), (r_next, sigma_next, _) = report.rows[:2]
        assert (r_min, r_next) == (1e-5, 0.2500075)
        assert abs(sigma - sigma_next) <= 1e-8

    @pytest.mark.parametrize("refine", [False, True])
    def test_unbuildable_grid_is_a_per_point_failure(self, reference_spec, refine, table_calls):
        # the grid of 1e-320 cannot be built, so the chunk falls back before
        # any table call, and each grid that builds makes its own
        report = sweep(reference_spec, 1e-320, 1e-300, 3, refine=refine)
        assert table_calls == ([96, 192] * 2 if refine else [96] * 2)
        assert report.failures == [
            (1e-320, "nodes must lie strictly inside (0, r) at r = 1e-320")
        ]
        assert [r for r, *_ in report.rows] == [5e-301, 1e-300]
        assert (report.rows, report.failures) == per_radius_sweep(
            reference_spec, 1e-320, 1e-300, 3, refine=refine
        )

    def test_chunk_failing_both_ways_falls_back_per_radius(self):
        # one chunk: the grid of 1e-320 cannot be built, v_30 overflows at
        # the first node of 5e-6, and 1e-5 gets a row
        spec = solve_gamma(validate_sets([0, 30], [2, 40]))
        report = sweep(spec, 1e-320, 1e-5, 3)
        assert report.failures == [
            (1e-320, "nodes must lie strictly inside (0, r) at r = 1e-320"),
            (5e-06, "v_30(7.202877247375276e-10) overflows double precision"),
        ]
        assert [r for r, *_ in report.rows] == [1e-5]
        assert (report.rows, report.failures) == per_radius_sweep(spec, 1e-320, 1e-5, 3)

    @pytest.mark.parametrize("chunk_nodes", [1, 200, 300, 600])
    def test_chunk_boundaries(self, monkeypatch, table_calls, chunk_nodes):
        # 96 + 192 nodes a radius: 1 radius a chunk at 1, 200 and 300 nodes
        # (a radius never splits), 2 at 600; the failing first chunk falls back
        monkeypatch.setattr(op_module, "_CHUNK_NODES", chunk_nodes)
        spec = solve_gamma(validate_sets([0, 30], [2, 40]))
        report = sweep(spec, 5e-6, 2.0, 7, refine=True)
        per_chunk = max(1, chunk_nodes // 288)
        batches = [n for n in table_calls if n > 192]
        assert len(batches) == -(-7 // per_chunk)
        assert max(batches) == per_chunk * 288
        assert (report.rows, report.failures) == per_radius_sweep(
            spec, 5e-6, 2.0, 7, refine=True
        )
        assert len(report.failures) == 1

    def test_chunks_hold_at_most_the_chunk_nodes(self, monkeypatch, table_calls):
        # 128 x 12 nodes and its doubled grid: 14 radii (64512 nodes) a chunk;
        # the matrices are stubbed out, only the tables are measured
        monkeypatch.setattr(op_module, "SeparableNystromOperator",
                            lambda grid, gamma, tables: None)
        monkeypatch.setattr(op_module, "min_singular_value", lambda op: 0.0)
        report = sweep(solve_gamma(validate_sets([0], [2])), 1.0, 1.1, 29,
                       panels_count=128, nodes_per_panel=12, refine=True)
        assert table_calls == [14 * 4608, 14 * 4608, 4608]
        assert len(report.rows) == 29
