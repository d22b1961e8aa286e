import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnswitch.channels import (
    MAX_BASIS_DIMENSION,
    DensityMatrix,
    DepolarizingChannel,
    UnitaryBasis,
    apply_depolarizing,
    compose_definite,
    kraus_set,
    random_density,
    weyl_basis,
)
from qnswitch.errors import SizeLimitError
from qnswitch.symgroup import enumerate_orders


class TestWeylBasis:
    def test_qubit_elements(self):
        basis = weyl_basis(2)
        eye = np.eye(2)
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(basis.elements[0], eye, atol=1e-15)
        np.testing.assert_allclose(basis.elements[1], z, atol=1e-15)
        np.testing.assert_allclose(basis.elements[2], x, atol=1e-15)
        np.testing.assert_allclose(basis.elements[3], x @ z, atol=1e-15)

    def test_qutrit_trace_orthogonality_all_pairs(self):
        basis = weyl_basis(3)
        for i in range(1, 10):
            for j in range(1, 10):
                ip = np.trace(basis.elements[i - 1].conj().T @ basis.elements[j - 1])
                expected = 3.0 if i == j else 0.0
                assert abs(ip - expected) < 1e-12

    def test_uniform_conjugation_depolarizes(self, rng):
        rho = random_density(2, rng)
        total = sum(u @ rho.entries @ u.conj().T for u in weyl_basis(2).elements)
        np.testing.assert_allclose(total, 2.0 * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_conjugation_identity_random_matrix(self, d, rng):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        basis = weyl_basis(d)
        total = sum(u @ x @ u.conj().T for u in basis.elements)
        np.testing.assert_allclose(total, d * np.trace(x) * np.eye(d), atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_expansion_identity_random_matrix(self, d, rng):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        basis = weyl_basis(d)
        total = sum(np.trace(u.conj().T @ x) * u for u in basis.elements)
        np.testing.assert_allclose(total, d * x, atol=1e-10)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            weyl_basis(1)

    def test_basis_cap_refuses_before_anything_is_built(self, monkeypatch):
        # One over the cap only: a basis at a large d would be d^4 complex entries.
        import qnswitch.channels as ch

        monkeypatch.setattr(ch, "_weyl_basis", None)
        monkeypatch.setattr(ch.np, "eye", None)
        for make in (weyl_basis, lambda d: kraus_set(0.5, d)):
            with pytest.raises(SizeLimitError, match=f"at most {MAX_BASIS_DIMENSION}"):
                make(MAX_BASIS_DIMENSION + 1)

    def test_non_orthogonal_set_rejected(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            UnitaryBasis(d=2, elements=(eye, eye, eye, eye))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_constructors(self):
        np.testing.assert_allclose(
            DensityMatrix.basis_state(3, 1).entries, np.diag([0, 1.0, 0]), atol=1e-15
        )
        np.testing.assert_allclose(
            DensityMatrix.maximally_mixed(4).entries, np.eye(4) / 4, atol=1e-15
        )
        pure = DensityMatrix.pure([1.0, 1.0])
        np.testing.assert_allclose(pure.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_random_density_is_valid(self, rng):
        for d in (2, 3, 5):
            random_density(d, rng)


class TestApplyDepolarizing:
    def test_full_depolarization(self, rng):
        rho = random_density(3, rng)
        out = apply_depolarizing(rho, 0.0)
        np.testing.assert_allclose(out.entries, np.eye(3) / 3, atol=1e-14)

    def test_transparent(self, rng):
        rho = random_density(2, rng)
        out = apply_depolarizing(rho, 1.0)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-15)

    def test_half_noise_on_basis_state(self):
        out = apply_depolarizing(DensityMatrix.basis_state(2), 0.5)
        np.testing.assert_allclose(out.entries, np.diag([0.75, 0.25]), atol=1e-15)

    def test_q_out_of_range(self, rng):
        with pytest.raises(ValueError):
            apply_depolarizing(random_density(2, rng), 1.5)

    @settings(max_examples=100, deadline=None)
    @given(q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_preserves_validity(self, q, seed):
        rho = random_density(3, np.random.default_rng(seed))
        apply_depolarizing(rho, q)  # constructor revalidates the output


class TestKrausSet:
    def test_transparent_channel(self):
        ops = kraus_set(1.0, 2)
        np.testing.assert_allclose(ops[0], np.eye(2), atol=1e-15)
        for k in ops[1:]:
            np.testing.assert_allclose(k, np.zeros((2, 2)), atol=1e-15)

    def test_fully_depolarizing_channel(self):
        ops = kraus_set(0.0, 2)
        basis = weyl_basis(2)
        np.testing.assert_allclose(ops[0], np.zeros((2, 2)), atol=1e-15)
        for i in range(1, 5):
            np.testing.assert_allclose(ops[i], basis.elements[i - 1] / 2, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_completeness(self, q, d):
        total = sum(k.conj().T @ k for k in kraus_set(q, d))
        assert np.abs(total - np.eye(d)).max() < 1e-12

    def test_completeness_tight(self):
        total = sum(k.conj().T @ k for k in kraus_set(0.5, 2))
        assert np.abs(total - np.eye(2)).max() < 1e-14

    def test_channel_reconstruction(self, rng):
        rho = random_density(3, rng)
        ops = kraus_set(0.4, 3)
        out = sum(k @ rho.entries @ k.conj().T for k in ops)
        np.testing.assert_allclose(
            out, apply_depolarizing(rho, 0.4).entries, atol=1e-12
        )


class TestComposeDefinite:
    def test_all_transparent(self, rng):
        rho = random_density(2, rng)
        chans = [DepolarizingChannel(1.0, 2)] * 3
        for p in enumerate_orders(3):
            out = compose_definite(chans, p, rho)
            np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)

    def test_one_full_depolarizer_erases(self, rng):
        rho = random_density(2, rng)
        chans = [DepolarizingChannel(0.0, 2), DepolarizingChannel(0.6, 2)]
        for p in enumerate_orders(2):
            out = compose_definite(chans, p, rho)
            np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-14)

    def test_two_half_channels_on_basis_state(self):
        rho = DensityMatrix.basis_state(2)
        chans = [DepolarizingChannel(0.5, 2), DepolarizingChannel(0.5, 2)]
        out = compose_definite(chans, enumerate_orders(2)[0], rho)
        np.testing.assert_allclose(out.entries, np.diag([0.625, 0.375]), atol=1e-15)

    def test_order_independent(self, rng):
        rho = random_density(3, rng)
        chans = [DepolarizingChannel(q, 3) for q in rng.uniform(size=3)]
        outs = [compose_definite(chans, p, rho).entries for p in enumerate_orders(3)]
        for other in outs[1:]:
            assert np.abs(other - outs[0]).max() < 1e-12

    def test_matches_product_transparency(self, rng):
        rho = random_density(2, rng)
        qs = rng.uniform(size=3)
        chans = [DepolarizingChannel(q, 2) for q in qs]
        out = compose_definite(chans, enumerate_orders(3)[4], rho)
        expected = apply_depolarizing(rho, float(np.prod(qs)))
        np.testing.assert_allclose(out.entries, expected.entries, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            compose_definite(
                [DepolarizingChannel(0.5, 3), DepolarizingChannel(0.5, 3)],
                enumerate_orders(2)[0],
                random_density(2, rng),
            )

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            DepolarizingChannel(-0.1, 2)
        with pytest.raises(ValueError):
            DepolarizingChannel(0.5, 1)
