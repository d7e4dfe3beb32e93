import numpy as np
import pytest

from quditcolor.graph import select_fixed_node
from quditcolor.qudits import (amplitudes_to_angles, build_ops,
                               init_qdgd_state, init_qdlqa_state,
                               lx_ground_state)

from instances import amplitudes, lx_matrix, qdlqa_start

SQ2 = np.sqrt(2) / 2


def numeric_ground_state(c):
    """Independent oracle: dense eigendecomposition of the tridiagonal Lx."""
    w, v = np.linalg.eigh(lx_matrix(c))
    vec = v[:, np.argmax(w)]
    if vec.sum() < 0:
        vec = -vec
    return vec


def test_spherical_map_small_cases():
    np.testing.assert_allclose(amplitudes(np.zeros(3)), [1, 0, 0, 0],
                               atol=1e-15)
    np.testing.assert_allclose(amplitudes(np.array([np.pi / 4])),
                               [SQ2, SQ2])
    np.testing.assert_allclose(
        amplitudes(np.array([np.pi / 2, np.pi / 2])), [0, 0, 1],
        atol=1e-15)


def test_spherical_map_normalization_property():
    rng = np.random.default_rng(0)
    for c in (2, 3, 5, 11, 24, 70):
        phi = rng.uniform(-12.0, 12.0, size=(40, c - 1))
        psi = amplitudes(phi)
        np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)


def test_inverse_small_cases():
    np.testing.assert_allclose(amplitudes_to_angles(np.array([1.0, 0, 0])),
                               [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(amplitudes_to_angles(np.array([SQ2, SQ2])),
                               [np.pi / 4])


def test_inverse_of_lx_ground_state():
    phi = amplitudes_to_angles(lx_ground_state(3))
    np.testing.assert_allclose(amplitudes(phi), [0.5, SQ2, 0.5],
                               atol=1e-12)


def test_inverse_rejects_non_unit():
    with pytest.raises(ValueError, match="unit-norm"):
        amplitudes_to_angles(np.array([1.0, 1.0]))


def test_amplitude_round_trip_property():
    rng = np.random.default_rng(3)
    for c in (2, 3, 8, 31):
        psi = rng.normal(size=(60, c))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        back = amplitudes(amplitudes_to_angles(psi))
        np.testing.assert_allclose(back, psi, atol=1e-10)


def test_angle_round_trip_on_canonical_domain():
    rng = np.random.default_rng(4)
    for c in (3, 6, 13):
        phi = rng.uniform(0.05, np.pi - 0.05, size=(30, c - 1))
        phi[:, -1] = rng.uniform(-np.pi + 0.05, np.pi - 0.05, size=30)
        back = amplitudes_to_angles(amplitudes(phi))
        np.testing.assert_allclose(back, phi, atol=1e-10)


def test_degenerate_tail_maps_remaining_angles_to_zero():
    phi = amplitudes_to_angles(np.array([0.6, 0.8, 0.0, 0.0]))
    assert phi[2] == 0.0
    np.testing.assert_allclose(amplitudes(phi), [0.6, 0.8, 0, 0],
                               atol=1e-15)


def test_build_ops_small_cases():
    np.testing.assert_allclose(lx_matrix(2), [[0, 0.5], [0.5, 0]])
    np.testing.assert_allclose(build_ops(3).lx_offdiag, [1 / np.sqrt(2)] * 2)
    with pytest.raises(ValueError):
        build_ops(1)


def test_lx_symmetry_and_top_eigenvalue():
    for c in (2, 3, 6, 70):
        lx = lx_matrix(c)
        np.testing.assert_array_equal(lx, lx.T)
        assert np.linalg.eigvalsh(lx)[-1] == pytest.approx((c - 1) / 2, abs=1e-10)


def test_lx_matches_ladder_construction():
    # build L+ and L- from their defining action and compare exactly
    for c in (2, 3, 5, 17):
        l = (c - 1) / 2
        m = np.arange(c) - l
        lplus = np.zeros((c, c))
        lminus = np.zeros((c, c))
        for k in range(c - 1):
            lplus[k + 1, k] = np.sqrt((l - m[k]) * (l + m[k] + 1))
        for k in range(1, c):
            lminus[k - 1, k] = np.sqrt((l + m[k]) * (l - m[k] + 1))
        np.testing.assert_array_equal(lx_matrix(c), 0.5 * (lplus + lminus))


def test_ground_state_small_cases():
    np.testing.assert_allclose(lx_ground_state(2), [SQ2, SQ2])
    np.testing.assert_allclose(lx_ground_state(3), [0.5, SQ2, 0.5])
    np.testing.assert_allclose(lx_ground_state(4) ** 2,
                               [1 / 8, 3 / 8, 3 / 8, 1 / 8])


def test_ground_state_matches_eigensolver():
    for c in range(2, 71):
        np.testing.assert_allclose(lx_ground_state(c), numeric_ground_state(c),
                                   atol=1e-10)


def test_init_qdlqa_unperturbed(k3):
    angles = init_qdlqa_state(2, 3, 0.0, np.random.default_rng(0))
    assert angles.shape == (2, 2)
    p = qdlqa_start(k3, 3, 0.0, np.random.default_rng(0)) ** 2
    fixed = select_fixed_node(k3, "max_degree")
    np.testing.assert_allclose(np.delete(p, fixed, axis=0),
                               [[0.25, 0.5, 0.25]] * 2, atol=1e-12)
    np.testing.assert_allclose(p[fixed], [1, 0, 0])


def test_init_qdlqa_noise_bound():
    base = init_qdlqa_state(2, 4, 0.0, np.random.default_rng(0))
    noisy = init_qdlqa_state(2, 4, 0.1, np.random.default_rng(5))
    assert np.abs(noisy - base).max() < 0.1
    assert np.any(noisy != base)


@pytest.mark.parametrize("c", [2, 3, 5, 8, 11])
@pytest.mark.parametrize("f", [0.0, 0.1])
def test_init_qdlqa_equals_uncached_formula(c, f):
    # the ground-state angles are computed once per c; every call must give
    # the bits of the formula, and must not be able to change the cache
    for seed in range(3):
        angles = init_qdlqa_state(7, c, f, np.random.default_rng(seed))
        expected = np.tile(amplitudes_to_angles(lx_ground_state(c)), (7, 1))
        if f > 0:
            expected += np.random.default_rng(seed).uniform(-f, f, size=(7, c - 1))
        assert angles.tobytes() == expected.tobytes()
        angles += 1.0


def test_init_qdlqa_no_fixed_node():
    # with no pinned node every node owns a row
    assert init_qdlqa_state(3, 3, 0.0, np.random.default_rng(0)).shape == (3, 2)


def test_init_qdgd_unit_norm_nonnegative():
    psi = amplitudes(init_qdgd_state(5, 4, 1.0, np.random.default_rng(9)))
    np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)
    assert (psi >= 0).all()


def test_init_qdgd_two_color_angle_is_arctan():
    angles = init_qdgd_state(1, 2, 1.0, np.random.default_rng(21))
    a, b = np.random.default_rng(21).uniform(0.0, 1.0, size=(1, 2))[0]
    assert angles[0, 0] == pytest.approx(np.arctan2(b, a))


def test_init_qdgd_mean_probability_statistics():
    # sampling oracle: uniform draws, normalized, squared -> mean 1/c per color
    angles = init_qdgd_state(10000, 3, 1.0, np.random.default_rng(123))
    mean_p = (amplitudes(angles) ** 2).mean(axis=0)
    np.testing.assert_allclose(mean_p, 1 / 3, atol=0.02)


def test_init_qdgd_requires_positive_scale():
    with pytest.raises(ValueError):
        init_qdgd_state(2, 3, 0.0, np.random.default_rng(0))
