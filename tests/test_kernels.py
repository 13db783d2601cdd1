"""The spectral kernels, and the closest-separable-state kernels: the
product-mixture parametrization and the analytic gradient of the objective
against central differences, for both factors a of rho = aa† the library
forms."""

import numpy as np
import pytest

from qdephase import kernels
from reference import random_density


def factors(rho):
    """Two factors a of rho = aa†: the PSD root, and V sqrt(Lambda) from the
    eigenpairs, which the closest-separable-state routes read."""
    s, w, v = kernels.psd_sqrt_with_min(rho)
    return {"sqrt_rho": s, "eigenpairs": v * np.sqrt(kernels._clip_spectrum(w))}


def test_sigma_from_params_is_state():
    rng = np.random.default_rng(25)
    for _ in range(100):
        sig = kernels.sigma_from_params(rng.standard_normal(32))
        assert abs(sig.trace().real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(sig).min() > -1e-13
        # a mixture of product states: its partial transpose is a state too
        assert kernels.pt_min_eig(sig) >= -1e-14


def _clip_spectrum_reference(w):
    """The clip written for spectra in any order: negatives to zero, then
    zero everything below the relative noise floor of the largest value."""
    w = np.where(w > 0.0, w, 0.0)
    top = w.max(initial=0.0)
    return np.where(w >= kernels.NOISE_FLOOR_REL * top, w, 0.0)


def test_clip_spectrum_matches_reference():
    rng = np.random.default_rng(28)
    noise = (0.0, -0.0, 1e-17, -1e-17)
    spectra = [np.zeros(4), np.full(4, -0.0), -np.sort(rng.random(4))[::-1],
               np.array([-1e-17, -0.0, 0.0, 1e-17]), np.array([-0.2, -0.1, -0.0, 0.0]),
               np.array([0.0, kernels.NOISE_FLOOR_REL, 0.5, 1.0])]
    for _ in range(2000):
        w = rng.random(4) * 10.0 ** rng.integers(-20, 1, 4)
        w[rng.random(4) < 0.4] = rng.choice(noise)
        spectra.append(np.sort(w))
    for w in spectra:
        got = kernels._clip_spectrum(w.copy())
        expect = _clip_spectrum_reference(w)
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))
    # a stack clips each spectrum against its own top
    stack = np.array(spectra)
    got = kernels._clip_spectrum(stack.copy())
    expect = np.array([_clip_spectrum_reference(w) for w in spectra])
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


def test_stacked_kernels_equal_single_matrix_calls():
    rng = np.random.default_rng(29)
    rho = np.array([random_density(rng, rank) for rank in (1, 2, 3, 4) for _ in range(5)])
    sigma = np.array([random_density(rng) for _ in rho])
    s, w, v = kernels.psd_sqrt_with_min(rho)
    fid = kernels.sqrt_fidelity(s, sigma)
    assert s.shape == rho.shape and w.shape == v.shape[:-1] and fid.shape == (len(rho),)
    for k, m in enumerate(rho):
        sk, wk, vk = kernels.psd_sqrt_with_min(m)
        assert np.array_equal(s[k], sk)
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        assert fid[k] == kernels.sqrt_fidelity(sk, sigma[k])
    assert isinstance(kernels.sqrt_fidelity(s[0], sigma[0]), float)


def test_degenerate_params_guarded():
    zero = np.zeros(32)
    assert kernels.sigma_from_params(zero) is None
    value, grad = kernels.css_objective(zero, np.eye(4, dtype=complex) / 2.0)
    assert value == 1e6
    assert np.array_equal(grad, np.zeros(32))


def test_objective_value_matches_its_parts():
    rng = np.random.default_rng(26)
    both = factors(random_density(rng))
    for _ in range(50):
        x = rng.standard_normal(32)
        # its parts: the state sigma_from_params builds, and its root fidelity
        # through sqrt(rho) sigma sqrt(rho)
        expect = 1.0 - kernels.sqrt_fidelity(both["sqrt_rho"], kernels.sigma_from_params(x))
        for a in both.values():
            assert abs(kernels.css_objective(x, a)[0] - expect) < 1e-12


def _central_difference(x, a, h):
    """Two-point central differences of the objective value, slot by slot."""
    grad = np.empty(32)
    for k in range(32):
        step = np.zeros(32)
        step[k] = h
        grad[k] = (kernels.css_objective(x + step, a)[0]
                   - kernels.css_objective(x - step, a)[0]) / (2.0 * h)
    return grad


@pytest.mark.parametrize("rank", [1, 2, 4], ids=["pure_rho", "rank_two_rho", "full_rank_rho"])
@pytest.mark.parametrize("zero_member", [False, True], ids=["generic", "a_k_zero"])
def test_gradient_matches_central_differences(rank, zero_member):
    rng = np.random.default_rng([27, rank, int(zero_member)])
    both = factors(random_density(rng, rank))
    for k in range(4):
        x = rng.standard_normal(32)
        if zero_member:
            x[8 * k: 8 * k + 4] = 0.0  # Re a_k, Im a_k: member k drops out of sigma
        for a in both.values():
            _, grad = kernels.css_objective(x, a)
            numeric = _central_difference(x, a, 1e-6)
            scale = max(1.0, np.abs(grad).max())
            assert np.abs(grad - numeric).max() <= 1e-6 * scale


def test_purity_of_a_stack_is_each_matrix_vdot():
    rng = np.random.default_rng(26)
    stack = np.array([random_density(rng, rank)
                      for rank in (1, 2, 3, 4) for _ in range(50)])
    expect = np.array([np.vdot(m, m).real for m in stack])
    assert np.array_equal(kernels.purity(stack), expect)
    for m, p in zip(stack, expect):
        assert isinstance(kernels.purity(m), float) and kernels.purity(m) == p
