import numpy as np
import pytest

from gaussian_reference import (
    CovMatrix,
    GaussianStateError,
    QuadratureSpec,
    apply_loss,
    intrinsic_db_to_r,
    joint_quad_variance,
    locked_joint_minimum,
    phase_rotate,
    quad_variance,
    r_to_detected_db,
    two_mode_squeezed_cov,
    vacuum_cov,
)

from oracles import (
    empirical_min_joint_variance,
    twin_beam_samples,
    variance_standard_error,
)

# squeezing parameter matching a -2.2 dB detected lossless baseline,
# r = 2.2 / (20 log10 e)
R_REF = 0.2532843602293450


class TestVacuum:
    def test_single_mode_diagonal(self):
        cov = vacuum_cov(1)
        assert np.allclose(cov.entries, 0.5 * np.eye(2))

    def test_two_mode_diagonal(self):
        cov = vacuum_cov(2)
        assert np.allclose(cov.entries, 0.5 * np.eye(4))

    @pytest.mark.parametrize("theta", [0.0, 1.3, 2.0, 5.9])
    def test_phase_symmetry(self, theta):
        cov = vacuum_cov(1)
        assert quad_variance(cov, QuadratureSpec(0, theta)) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("dim", [0, 3, -1])
    def test_rejects_bad_dim(self, dim):
        with pytest.raises(GaussianStateError):
            vacuum_cov(dim)


class TestCovMatrixInvariants:
    def test_rejects_asymmetric(self):
        m = 0.5 * np.eye(2)
        m[0, 1] = 1e-6
        with pytest.raises(GaussianStateError):
            CovMatrix(m)

    def test_rejects_unphysical(self):
        with pytest.raises(GaussianStateError):
            CovMatrix(0.3 * np.eye(2))

    def test_rejects_wrong_size(self):
        with pytest.raises(GaussianStateError):
            CovMatrix(0.5 * np.eye(6))

    def test_entries_read_only(self):
        cov = vacuum_cov(1)
        with pytest.raises(ValueError):
            cov.entries[0, 0] = 1.0


class TestTwoModeSqueezed:
    def test_r_zero_is_vacuum(self):
        assert np.allclose(two_mode_squeezed_cov(0.0).entries, vacuum_cov(2).entries)

    @pytest.mark.parametrize("r", [-0.1, np.nan, np.inf])
    def test_rejects_bad_r(self, r):
        with pytest.raises(GaussianStateError):
            two_mode_squeezed_cov(r)

    def test_single_arm_thermal_variance(self):
        cov = two_mode_squeezed_cov(R_REF)
        expected = np.cosh(2 * R_REF) / 2
        for theta in (0.0, 0.7, np.pi / 2, 4.1):
            for mode in (0, 1):
                v = quad_variance(cov, QuadratureSpec(mode, theta))
                assert v == pytest.approx(expected, abs=1e-12)

    def test_single_arm_variance_against_sampling(self):
        rng = np.random.default_rng(4)
        xp, yp, _, _ = twin_beam_samples(R_REF, 10**6, rng)
        emp = np.var(xp)
        se = variance_standard_error(emp, 10**6)
        assert abs(emp - np.cosh(2 * R_REF) / 2) < 5 * se

    def test_joint_minimum_matches_sampling(self):
        rng = np.random.default_rng(5)
        samples = twin_beam_samples(R_REF, 10**6, rng)
        emp = empirical_min_joint_variance(*samples)
        analytic, _ = locked_joint_minimum(two_mode_squeezed_cov(R_REF))
        se = variance_standard_error(emp, 10**6)
        assert abs(emp - analytic) < 5 * se

    def test_joint_minimum_exact(self):
        value, theta_c = locked_joint_minimum(two_mode_squeezed_cov(R_REF))
        assert value == pytest.approx(np.exp(-2 * R_REF), abs=1e-12)
        # locked with theta_p = 0, the squeezing condition puts theta_c at pi
        assert theta_c == pytest.approx(np.pi, abs=1e-6)

    def test_joint_antisqueezed_phase(self):
        cov = two_mode_squeezed_cov(R_REF)
        worst = max(
            joint_quad_variance(cov, 0.0, th) for th in np.linspace(0, 2 * np.pi, 2001)
        )
        assert worst == pytest.approx(np.exp(2 * R_REF), rel=1e-6)

    def test_joint_variance_of_vacua_is_snl(self):
        cov = vacuum_cov(2)
        for tp, tc in [(0.0, 0.0), (1.0, 2.0), (0.3, np.pi)]:
            assert joint_quad_variance(cov, tp, tc) == pytest.approx(1.0, abs=1e-15)

    def test_joint_requires_two_modes(self):
        with pytest.raises(GaussianStateError):
            joint_quad_variance(vacuum_cov(1), 0.0, 0.0)


class TestLoss:
    def test_identity_at_full_transmission(self):
        cov = two_mode_squeezed_cov(0.8)
        assert np.allclose(apply_loss(cov, 0, 1.0).entries, cov.entries, atol=1e-15)

    def test_full_block_gives_vacuum_mode(self):
        cov = two_mode_squeezed_cov(0.8)
        out = apply_loss(cov, 0, 0.0)
        assert np.allclose(out.mode_block(0), 0.5 * np.eye(2))
        assert np.allclose(out.cross_block(0, 1), 0.0)
        assert np.allclose(out.mode_block(1), cov.mode_block(1))

    @pytest.mark.parametrize("t", [-0.01, 1.01, np.nan])
    def test_rejects_bad_transmission(self, t):
        with pytest.raises(GaussianStateError):
            apply_loss(vacuum_cov(1), 0, t)

    def test_rejects_bad_mode(self):
        with pytest.raises(GaussianStateError):
            apply_loss(vacuum_cov(1), 1, 0.5)

    def test_symmetric_loss_joint_minimum(self):
        # detection chain of 95% efficiency x 96% path on both arms
        t = 0.95 * 0.96
        cov = two_mode_squeezed_cov(R_REF)
        lossy = apply_loss(apply_loss(cov, 0, t), 1, t)
        value, _ = locked_joint_minimum(lossy)
        expected = t * np.exp(-2 * R_REF) + (1 - t)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_symmetric_loss_against_sampling(self):
        t = 0.95 * 0.96
        rng = np.random.default_rng(6)
        samples = twin_beam_samples(R_REF, 10**6, rng, t_probe=t, t_conj=t)
        emp = empirical_min_joint_variance(*samples)
        se = variance_standard_error(emp, 10**6)
        assert abs(emp - (t * np.exp(-2 * R_REF) + (1 - t))) < 5 * se

    def test_contraction_toward_vacuum_for_thermal_modes(self):
        # loss on a phase-symmetric (thermal) mode shrinks the excess over 1/2
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_th = rng.uniform(0, 4)
            cov = CovMatrix((0.5 + n_th) * np.eye(2))
            t1, t2 = sorted(rng.uniform(0, 1, size=2), reverse=True)
            ex1 = apply_loss(cov, 0, t1).symplectic_eigenvalues()[0] - 0.5
            ex2 = apply_loss(cov, 0, t2).symplectic_eigenvalues()[0] - 0.5
            assert ex2 <= ex1 + 1e-12


class TestPhaseRotate:
    def test_zero_is_identity(self):
        cov = two_mode_squeezed_cov(0.5)
        assert np.allclose(phase_rotate(cov, 0, 0.0).entries, cov.entries)

    def test_full_turn_is_identity(self):
        cov = two_mode_squeezed_cov(0.5)
        out = phase_rotate(cov, 1, 2 * np.pi)
        assert np.max(np.abs(out.entries - cov.entries)) < 1e-12

    def test_pi_flips_cross_covariances(self):
        cov = two_mode_squeezed_cov(0.5)
        out = phase_rotate(cov, 0, np.pi)
        assert np.allclose(out.cross_block(0, 1), -cov.cross_block(0, 1), atol=1e-12)
        assert np.allclose(out.mode_block(0), cov.mode_block(0), atol=1e-12)

    def test_preserves_symplectic_spectrum(self):
        cov = apply_loss(two_mode_squeezed_cov(0.9), 0, 0.7)
        before = cov.symplectic_eigenvalues()
        after = phase_rotate(cov, 1, 1.234).symplectic_eigenvalues()
        assert np.allclose(np.sort(before), np.sort(after), atol=1e-10)

    def test_rotation_moves_minimizing_phase(self):
        cov = two_mode_squeezed_cov(0.4)
        shift = 0.37
        _, theta_plain = locked_joint_minimum(cov)
        _, theta_rot = locked_joint_minimum(phase_rotate(cov, 1, shift))
        assert (theta_rot - theta_plain + shift) % (2 * np.pi) == pytest.approx(
            0.0, abs=1e-6
        ) or (theta_rot - theta_plain + shift) % (2 * np.pi) == pytest.approx(
            2 * np.pi, abs=1e-6
        )


class TestQuadVariance:
    def test_reads_squeezed_diagonal(self):
        r = 0.6
        cov = CovMatrix(np.diag([np.exp(-2 * r) / 2, np.exp(2 * r) / 2]))
        assert quad_variance(cov, QuadratureSpec(0, np.pi / 2)) == pytest.approx(
            np.exp(2 * r) / 2, abs=1e-12
        )
        assert quad_variance(cov, QuadratureSpec(0, 0.0)) == pytest.approx(
            np.exp(-2 * r) / 2, abs=1e-12
        )

    def test_theta_reduced_modulo_two_pi(self):
        spec = QuadratureSpec(0, 2 * np.pi + 1.0)
        assert spec.theta == pytest.approx(1.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(GaussianStateError):
            quad_variance(vacuum_cov(1), QuadratureSpec(2, 0.0))


class TestFuzzedInvariants:
    def test_constructed_states_stay_physical(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            r = rng.uniform(0, 1.5)
            cov = two_mode_squeezed_cov(r)
            cov = apply_loss(cov, 0, rng.uniform(0, 1))
            cov = apply_loss(cov, 1, rng.uniform(0, 1))
            cov = phase_rotate(cov, rng.integers(0, 2), rng.uniform(0, 2 * np.pi))
            assert np.max(np.abs(cov.entries - cov.entries.T)) <= 1e-12
            assert cov.symplectic_eigenvalues().min() >= 0.5 - 1e-9

    def test_lossless_minimum_is_exact_and_at_pi_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            r = rng.uniform(0, 1.5)
            theta_p = rng.uniform(0, 2 * np.pi)
            value, theta_c = locked_joint_minimum(two_mode_squeezed_cov(r), theta_p)
            assert value == pytest.approx(np.exp(-2 * r), abs=1e-12)
            assert (theta_p + theta_c) % (2 * np.pi) == pytest.approx(np.pi, abs=1e-5)

    def test_thermal_arm_phase_invariance(self):
        rng = np.random.default_rng(13)
        cov = apply_loss(two_mode_squeezed_cov(0.9), 1, 0.8)
        thetas = rng.uniform(0, 2 * np.pi, size=20)
        values = [quad_variance(cov, QuadratureSpec(1, th)) for th in thetas]
        assert max(values) - min(values) < 1e-12

    def test_sampled_covariance_matches_analytic(self):
        # draw Gaussian vectors straight from a covariance matrix and compare
        # empirical quadrature variances with quad_variance
        rng = np.random.default_rng(14)
        cov = apply_loss(apply_loss(two_mode_squeezed_cov(0.7), 0, 0.85), 1, 0.6)
        chol = np.linalg.cholesky(cov.entries)
        samples = chol @ rng.standard_normal((4, 10**6))
        for mode in (0, 1):
            for theta in (0.0, 0.9, 2.4):
                u = np.zeros(4)
                u[2 * mode] = np.cos(theta)
                u[2 * mode + 1] = np.sin(theta)
                emp = np.var(u @ samples)
                se = variance_standard_error(emp, 10**6)
                assert abs(emp - quad_variance(cov, QuadratureSpec(mode, theta))) < 5 * se


class TestDbHelpers:
    def test_round_trip(self):
        assert intrinsic_db_to_r(2.2) == pytest.approx(R_REF, abs=1e-12)
        assert r_to_detected_db(R_REF) == pytest.approx(-2.2, abs=1e-12)

    def test_zero_db(self):
        assert intrinsic_db_to_r(0.0) == 0.0

    def test_rejects_negative_depth(self):
        with pytest.raises(GaussianStateError):
            intrinsic_db_to_r(-1.0)
