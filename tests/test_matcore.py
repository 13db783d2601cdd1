import warnings

import numpy as np
import pytest

from qdephase import kernels, matcore, states
from qdephase.errors import BadDim, NoConvergence, NotHermitian, NotPSD
from qdephase.states import family_state, initial_pure
from reference import SY, SY2, partial_trace


def random_psd(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


class TestHermitianEig:
    def test_identity(self):
        w, _ = matcore.hermitian_eig(np.eye(4, dtype=complex))
        assert np.allclose(w, [1, 1, 1, 1], atol=1e-14)

    def test_diagonal(self):
        w, _ = matcore.hermitian_eig(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
        assert np.allclose(w, [0, 0, 0.5, 0.5], atol=1e-14)

    def test_family_state_spectrum(self):
        # 2x2 corner block gives (1 +- |a|)/2 by hand
        rho = family_state(0.5, 0.5)
        w, _ = matcore.hermitian_eig(rho)
        assert np.allclose(w, [0.0, 0.0, 0.25, 0.75], atol=1e-14)

    def test_ascending_and_orthonormal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            m = random_psd(rng, dim)
            w, v = matcore.hermitian_eig(m)
            assert np.all(np.diff(w) >= -1e-13)
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
            norm = np.abs(m).max()
            assert np.abs(m @ v - v * w).max() < 1e-9 * max(1.0, norm)

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = (g + g.conj().T) / 2
            w, v = matcore.hermitian_eig(m)
            assert np.abs((v * w) @ v.conj().T - m).max() < 1e-9

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(NotHermitian):
            matcore.hermitian_eig(m)


class TestPsdSqrt:
    def test_identity(self):
        s = matcore.psd_sqrt(np.eye(4, dtype=complex))
        assert np.abs(s - np.eye(4)).max() < 1e-14

    def test_diagonal(self):
        s = matcore.psd_sqrt(np.diag([4.0, 1.0, 0.0, 9.0]).astype(complex))
        assert np.abs(s - np.diag([2.0, 1.0, 0.0, 3.0])).max() < 1e-13

    def test_pure_projector_is_fixed_point(self):
        rho = initial_pure(0.5)
        assert np.abs(matcore.psd_sqrt(rho) - rho).max() < 1e-12

    def test_square_recovers_input(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            m = random_psd(rng, dim)
            s = matcore.psd_sqrt(m)
            assert np.abs(s @ s - m).max() < 1e-8
            assert np.abs(s - s.conj().T).max() < 1e-12

    def test_clips_tiny_negatives(self):
        m = np.diag([1.0, -0.5e-9, 0.0, 0.0]).astype(complex)
        s = matcore.psd_sqrt(m)
        assert np.abs(s - np.diag([1.0, 0.0, 0.0, 0.0])).max() < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            matcore.psd_sqrt(np.diag([1.0, -1e-6, 0.0, 0.0]).astype(complex))

    def test_first_failing_matrix_of_a_stack_names_itself(self):
        rng = np.random.default_rng(19)
        stack = np.array([random_psd(rng, 4) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        stack[1] = np.diag([1.0, -2e-6, 0.0, 0.0])
        with pytest.raises(NotPSD, match="-2.000e-06"):  # before matrix 3
            matcore.psd_sqrt(stack)
        stack[1] = np.eye(4)
        with pytest.raises(NotHermitian, match="1.000e-06"):
            matcore.psd_sqrt(stack)

    @pytest.mark.parametrize("call", [matcore.psd_sqrt, matcore.hermitian_eig,
                                      matcore.psd_eig])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_matrix_is_named_not_hermitian(self, call, bad):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match="^matrix has a non-finite entry$"):
                call(m)

    @pytest.mark.parametrize("call", [matcore.hermitian_eig, matcore.psd_eig])
    def test_entries_near_the_largest_float_do_not_overflow(self, call):
        # the Hermitian part is taken as m/2 + m†/2, not (m + m†)/2
        m = np.diag([1.5e308, 1e308, 0.0, 0.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, _ = call(m)
        assert w.tolist() == [0.0, 0.0, 1e308, 1.5e308]

    @pytest.mark.parametrize("call", [matcore.psd_sqrt, matcore.psd_eig])
    def test_first_non_finite_matrix_of_a_stack_names_itself(self, call):
        stack = np.array([np.eye(4, dtype=complex) / 4.0] * 5)
        stack[4, 2, 2] = np.nan
        stack[2, 0, 1] = np.inf  # its mirror stays finite
        stack[1] = np.diag([1.0, -2e-6, 0.0, 0.0])  # NotPSD, but finiteness comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match="^matrix 2 of the stack has a non-finite"):
                call(stack)

    def test_root_carries_the_decomposition_it_used(self):
        # psd_sqrt's root is built from psd_eig's eigenpairs; a stack equals
        # its per-matrix calls
        rng = np.random.default_rng(20)
        stack = np.array([random_psd(rng, 4) for _ in range(3)])
        s = matcore.psd_sqrt(stack)
        w, v = matcore.psd_eig(stack)
        for k, m in enumerate(stack):
            assert np.array_equal(s[k], matcore.psd_sqrt(m))
            wk, vk = matcore.hermitian_eig(m)
            assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        sk, wk, vk = kernels.psd_sqrt_with_min((stack + kernels._dagger(stack)) / 2.0)
        assert np.array_equal(sk, s)
        assert np.array_equal(wk, w) and np.array_equal(vk, v)


def _broken(kind):
    # a unit-trace 4x4 matrix that fails one check: check lists that failure first
    if kind == "indefinite":
        return np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    m = np.eye(4, dtype=complex) / 4.0
    m[2, 1] = np.nan if kind == "non-finite" else 0.2
    return m


@pytest.mark.parametrize("call", [matcore.psd_eig, matcore.psd_sqrt])
@pytest.mark.parametrize("kind, error", [("non-finite", NotHermitian),
                                         ("non-Hermitian", NotHermitian),
                                         ("indefinite", NotPSD)])
@pytest.mark.parametrize("k", [None, 0, 2])
def test_one_wording_per_failure(call, kind, error, k):
    # the eigen routes raise exactly the first diagnostic states.check lists,
    # for one matrix and for matrix k of a stack
    m = _broken(kind)
    if k is not None:
        stack = np.array([np.eye(4, dtype=complex) / 4.0] * 3)
        stack[k] = m
        m = stack
    said = states.check(m)
    with pytest.raises(error) as info:
        call(m)
    assert str(info.value) == said[0]
    if k is None and error is NotHermitian:
        with pytest.raises(NotHermitian) as info:
            matcore.hermitian_eig(m)
        assert str(info.value) == said[0]


def _no_convergence(*args):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("kernel, call", [
    ("eigh_herm", matcore.hermitian_eig),
    ("psd_sqrt_with_min", matcore.psd_sqrt),
    ("eigh_herm", matcore.psd_eig),
])
def test_eigensolver_failure_maps_to_no_convergence(monkeypatch, kernel, call):
    monkeypatch.setattr(kernels, kernel, _no_convergence)
    with pytest.raises(NoConvergence, match="did not converge"):
        call(np.eye(4, dtype=complex) / 4.0)


class TestPartialTranspose:
    def test_diagonal_invariant(self):
        m = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.array_equal(matcore.partial_transpose(m), m)

    def test_bell_projector_spectrum(self):
        rho = initial_pure(0.5)
        w = np.linalg.eigvalsh(matcore.partial_transpose(rho))
        assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_involution_exact(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        twice = matcore.partial_transpose(matcore.partial_transpose(m))
        assert np.array_equal(twice, m)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(15)
        m = random_psd(rng, 4)
        pt = matcore.partial_transpose(m)
        assert np.trace(pt) == pytest.approx(np.trace(m).real, abs=0)
        assert np.abs(pt - pt.conj().T).max() < 1e-14

    def test_rejects_wrong_dim(self):
        with pytest.raises(BadDim):
            matcore.partial_transpose(np.eye(3, dtype=complex))
        for bad in (np.zeros((2, 3, 3)), np.zeros((2, 2, 4, 4)), np.zeros(16)):
            with pytest.raises(BadDim):
                matcore.partial_transpose(bad)

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(17)
        stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        got = matcore.partial_transpose(stack)
        for k, m in enumerate(stack):
            assert np.array_equal(got[k], matcore.partial_transpose(m))

    def test_as_matrix_takes_stacks_only_when_asked(self):
        stack = np.zeros((3, 4, 4))
        with pytest.raises(BadDim):
            matcore.as_matrix(stack)
        assert matcore.as_matrix(stack, stacked=True).dtype == complex
        with pytest.raises(BadDim):
            matcore.as_matrix(np.zeros((3, 4, 2)), stacked=True)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(16)
        rho = random_psd(rng, 2)
        sig = random_psd(rng, 2)
        full = np.kron(rho, sig)
        out = partial_trace(full, [2, 2], keep={0})
        assert np.abs(out - rho * np.trace(sig)).max() < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        rho = initial_pure(0.5)
        for keep in ({0}, {1}):
            out = partial_trace(rho, [2, 2], keep)
            assert np.abs(out - np.eye(2) / 2).max() < 1e-14

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        full = random_psd(rng, 12)
        for keep in ({0}, {1}, {2}, {0, 2}, {0, 1, 2}):
            out = partial_trace(full, [2, 3, 2], keep)
            assert abs(np.trace(out) - np.trace(full)) < 1e-12
        assert np.abs(
            partial_trace(full, [2, 3, 2], {0, 1, 2}) - full).max() == 0.0

    def test_hermitian_in_hermitian_out(self):
        rng = np.random.default_rng(18)
        full = random_psd(rng, 8)
        out = partial_trace(full, [2, 2, 2], {1})
        assert np.abs(out - out.conj().T).max() < 1e-14

    def test_rejects_bad_dims(self):
        m = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(m, [2, 3], {0})
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(m, [2, 2], set())
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(m, [2, 2], {5})


class TestKron:
    def test_spin_flip_literal(self):
        assert np.array_equal(np.kron(SY, SY), SY2)
