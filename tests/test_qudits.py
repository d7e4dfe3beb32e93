import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditcolor.graph import select_fixed_node
from quditcolor.qudits import (amplitudes_to_angles, build_ops, forward,
                               init_qdgd_state, init_qdlqa_state,
                               lx_ground_state)

from instances import amplitudes, lx_matrix, padded, qdlqa_start

SQ2 = np.sqrt(2) / 2


def numeric_ground_state(c):
    """Independent oracle: dense eigendecomposition of the tridiagonal Lx."""
    w, v = np.linalg.eigh(lx_matrix(c))
    vec = v[:, np.argmax(w)]
    if vec.sum() < 0:
        vec = -vec
    return vec


def test_spherical_map_small_cases():
    np.testing.assert_allclose(amplitudes(np.zeros(4)), [1, 0, 0, 0],
                               atol=1e-15)
    np.testing.assert_allclose(amplitudes(np.array([np.pi / 4, 0.0])),
                               [SQ2, SQ2])
    np.testing.assert_allclose(
        amplitudes(np.array([np.pi / 2, np.pi / 2, 0.0])), [0, 0, 1],
        atol=1e-15)


def test_spherical_map_normalization_property():
    rng = np.random.default_rng(0)
    for c in (2, 3, 5, 11, 24, 70):
        phi = rng.uniform(-12.0, 12.0, size=(40, c - 1))
        psi = amplitudes(padded(phi))
        np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)


@settings(deadline=None, max_examples=150)
@given(c=st.integers(2, 12), rows=st.integers(1, 4), data=st.data())
def test_forward_is_the_spherical_formula_bit_for_bit(c, rows, data):
    # psi_j = cos(phi_j) * prod_{i<j} sin(phi_i) for every color j: the pad
    # gives the last color a cosine of exactly 1; the sine products are
    # taken left to right, as np.cumprod takes them
    angle = st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi]),
                      st.floats(-20.0, 20.0))
    phi = padded(np.reshape(data.draw(st.lists(angle, min_size=rows * (c - 1),
                                               max_size=rows * (c - 1))),
                            (rows, c - 1)))
    fwd = forward(phi)
    s, u = np.sin(phi), np.cos(phi)
    assert fwd.sin.tobytes() == s.tobytes() and fwd.cos.tobytes() == u.tobytes()
    assert (s[:, -1] == 0.0).all() and (u[:, -1] == 1.0).all()
    sines, cosines = s.tolist(), u.tolist()
    expected = [[math.prod(row[:j]) * cos[j] for j in range(c)]
                for row, cos in zip(sines, cosines)]
    prefix = [[math.prod(row[:j]) for j in range(c)] for row in sines]
    assert fwd.psi.shape == fwd.prefix.shape == (rows, c)
    assert fwd.psi.tobytes() == np.array(expected).tobytes()
    assert fwd.prefix.tobytes() == np.array(prefix).tobytes()
    np.testing.assert_allclose(np.linalg.norm(fwd.psi, axis=1), 1.0, atol=1e-12)
    # the same bits from a stack of angles in any memory layout
    stack = np.asfortranarray(np.stack([phi, phi[::-1]]))
    assert forward(stack).psi.tobytes() == np.stack([fwd.psi, fwd.psi[::-1]]).tobytes()


def test_inverse_small_cases():
    np.testing.assert_allclose(amplitudes_to_angles(np.array([1.0, 0, 0])),
                               [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(amplitudes_to_angles(np.array([SQ2, SQ2])),
                               [np.pi / 4, 0.0])


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
        back = amplitudes_to_angles(amplitudes(padded(phi)))
        np.testing.assert_allclose(back, padded(phi), atol=1e-10)


def test_inverse_of_a_stack_is_each_batch_inverted():
    # two two-row batches on which one arctan2 over the stack would round
    # an angle differently from a call on its batch
    draws = np.stack([np.random.default_rng(seed).uniform(0.0, 1.0, (2, 3))
                      for seed in (0, 1)])
    psi = draws / np.linalg.norm(draws, axis=2, keepdims=True)
    phi = amplitudes_to_angles(psi)
    assert phi.shape == (2, 2, 3)
    assert phi.tobytes() == np.stack([amplitudes_to_angles(b) for b in psi]).tobytes()


def test_degenerate_tail_maps_remaining_angles_to_zero():
    phi = amplitudes_to_angles(np.array([0.6, 0.8, 0.0, 0.0]))
    assert phi[2] == 0.0 and phi[3] == 0.0
    np.testing.assert_allclose(amplitudes(phi), [0.6, 0.8, 0, 0],
                               atol=1e-15)


def test_build_ops_small_cases():
    np.testing.assert_allclose(lx_matrix(2), [[0, 0.5], [0.5, 0]])
    np.testing.assert_allclose(build_ops(3), [1 / np.sqrt(2)] * 2)
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
    angles = init_qdlqa_state(2, 3, 0.0, [np.random.default_rng(0)])
    assert angles.shape == (1, 2, 3)
    p = qdlqa_start(k3, 3, 0.0, np.random.default_rng(0)) ** 2
    fixed = select_fixed_node(k3, "max_degree")
    np.testing.assert_allclose(np.delete(p, fixed, axis=0),
                               [[0.25, 0.5, 0.25]] * 2, atol=1e-12)
    np.testing.assert_allclose(p[fixed], [1, 0, 0])


def test_init_qdlqa_noise_bound():
    base = init_qdlqa_state(2, 4, 0.0, [np.random.default_rng(0)])
    noisy = init_qdlqa_state(2, 4, 0.1, [np.random.default_rng(5)])
    assert np.abs(noisy - base).max() < 0.1
    assert np.any(noisy != base)


@pytest.mark.parametrize("c", [2, 3, 5, 8, 11])
@pytest.mark.parametrize("f", [0.0, 0.1])
def test_init_qdlqa_equals_uncached_formula(c, f):
    # the ground-state angles are computed once per c; every call must give
    # the bits of the formula, and must not be able to change the cache
    for seed in range(3):
        angles = init_qdlqa_state(7, c, f, [np.random.default_rng(seed)])
        expected = np.tile(amplitudes_to_angles(lx_ground_state(c)), (1, 7, 1))
        if f > 0:
            expected[..., :-1] += np.random.default_rng(seed).uniform(-f, f, size=(7, c - 1))
        assert angles.shape == expected.shape
        assert angles.tobytes() == expected.tobytes()
        angles += 1.0


def test_init_qdlqa_no_fixed_node():
    # with no pinned node every node owns a row
    assert init_qdlqa_state(3, 3, 0.0, [np.random.default_rng(0)]).shape == (1, 3, 3)


def test_init_qdgd_unit_norm_nonnegative():
    psi = amplitudes(init_qdgd_state(5, 4, [np.random.default_rng(9)])[0])
    np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)
    assert (psi >= 0).all()


def test_init_qdgd_two_color_angle_is_arctan():
    angles = init_qdgd_state(1, 2, [np.random.default_rng(21)])
    a, b = np.random.default_rng(21).random((1, 2))[0]
    assert angles[0, 0, 0] == pytest.approx(np.arctan2(b, a))


def test_init_qdgd_mean_probability_statistics():
    # sampling oracle: uniform draws, normalized, squared -> mean 1/c per color
    angles = init_qdgd_state(10000, 3, [np.random.default_rng(123)])[0]
    mean_p = (amplitudes(angles) ** 2).mean(axis=0)
    np.testing.assert_allclose(mean_p, 1 / 3, atol=0.02)


@settings(deadline=None, max_examples=60)
@given(method=st.sampled_from(["qdlqa", "qdgd"]),
       n_free=st.integers(0, 8), c=st.integers(2, 12),
       f=st.sampled_from([0.0, 0.1, 1.0, 2.5]),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
# one arctan2 over these stacked two-row blocks rounds one angle differently
@example(method="qdgd", n_free=2, c=3, f=0.0, seeds=[0, 1])
def test_grouped_init_is_the_single_calls_stacked(method, n_free, c, f, seeds):
    # a group is set up in one call; each run's row block must be the bits
    # of a call with its generator alone, which it must leave in the same state
    def init(rngs):
        if method == "qdgd":
            return init_qdgd_state(n_free, c, rngs)
        return init_qdlqa_state(n_free, c, f, rngs)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    refs = [np.random.default_rng(seed) for seed in seeds]
    stacked = init(rngs)
    singles = [init([ref]) for ref in refs]
    assert stacked.shape == (len(seeds), n_free, c)
    assert not stacked[..., -1].any()
    assert stacked.tobytes() == np.concatenate(singles).tobytes()
    assert [g.random() for g in rngs] == [g.random() for g in refs]


class ZeroFirstRow:
    """A generator whose first ``random`` draw has an all-zero first row."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, size):
        out = self.rng.random(size)
        if self.calls == 0:
            out[0] = 0.0
        self.calls += 1
        return out


def test_init_qdgd_redraws_all_zero_rows_from_their_own_generator():
    rngs = [np.random.default_rng(1), ZeroFirstRow(2), np.random.default_rng(3),
            ZeroFirstRow(4)]
    stacked = init_qdgd_state(5, 4, rngs)
    assert [g.calls for g in rngs[1::2]] == [2, 2]
    singles = [init_qdgd_state(5, 4, [g]) for g in
               (np.random.default_rng(1), ZeroFirstRow(2), np.random.default_rng(3),
                ZeroFirstRow(4))]
    assert stacked.tobytes() == np.concatenate(singles).tobytes()
    # the zero row of run 1 is its generator's next draw, normalized
    ref = np.random.default_rng(2)
    ref.random((5, 4))
    redraw = ref.random((1, 4))[0]
    np.testing.assert_allclose(amplitudes(stacked[1, 0]), redraw / np.linalg.norm(redraw),
                               atol=1e-12)
