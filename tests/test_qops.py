import numpy as np
import pytest

from photonlink import qops
from conftest import random_density, random_pure, to_mhz
from oracles import check_density_matrix


def brute_force_embed(op, slot, dims):
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[slot] = op
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def loop_partial_trace(rho, dims, keep):
    """Direct-summation oracle, independent of the reshape implementation."""
    keep = sorted(keep)
    drop = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[k] for k in keep]
    out = np.zeros((int(np.prod(kept_dims)),) * 2, dtype=complex)
    idx = list(np.ndindex(*dims))
    for i, mi in enumerate(idx):
        for j, mj in enumerate(idx):
            if all(mi[d] == mj[d] for d in drop):
                a = np.ravel_multi_index([mi[k] for k in keep], kept_dims)
                b = np.ravel_multi_index([mj[k] for k in keep], kept_dims)
                out[a, b] += rho[i, j]
    return out


def test_embed_identity():
    out = qops.embed(qops.identity(2), 0, [2, 2])
    assert np.allclose(out, np.eye(4))


def test_embed_diagonal_second_slot():
    out = qops.embed(np.diag([0.0, 1.0]).astype(complex), 1, [2, 2])
    assert np.allclose(np.diag(out), [0, 1, 0, 1])


def test_embed_matches_brute_force_kron(rng):
    op = qops.destroy(3)
    out = qops.embed(op, 0, [3, 3])
    assert np.allclose(out, brute_force_embed(op, 0, [3, 3]))
    # <(1,k)| a (x) I |(2,k)> = sqrt(2)
    for k in range(3):
        assert out[3 * 1 + k, 3 * 2 + k] == pytest.approx(np.sqrt(2))


def test_embed_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        qops.embed(qops.identity(2), 0, [3, 3])
    with pytest.raises(ValueError):
        qops.embed(qops.identity(2), 5, [2, 2])


def test_partial_trace_bell_state():
    psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    red = qops.partial_trace(rho, (2, 2), keep={0})
    assert np.allclose(red, np.eye(2) / 2)


def test_partial_trace_product_state(rng):
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    red = qops.partial_trace(np.kron(rho_a, rho_b), (2, 3), keep={1})
    assert np.allclose(red, rho_b, atol=1e-12)


def test_partial_trace_matches_loop_oracle(rng):
    rho = random_density(9, rng)
    red = qops.partial_trace(rho, (3, 3), keep={0})
    assert np.allclose(red, loop_partial_trace(rho, (3, 3), [0]), atol=1e-12)
    assert abs(np.trace(red) - np.trace(rho)) < 1e-12


def test_partial_trace_invalid_keep():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        qops.partial_trace(rho, (2, 2), keep=set())
    with pytest.raises(ValueError):
        qops.partial_trace(rho, (2, 2), keep={3})


def test_realign_product_state(rng):
    rho_a = random_density(3, rng)
    rho_b = random_density(3, rng)
    r = qops.realign(np.kron(rho_a, rho_b), (3, 3))
    sv = np.linalg.svd(r, compute_uv=False)
    expected = np.sqrt(np.trace(rho_a @ rho_a).real * np.trace(rho_b @ rho_b).real)
    assert sv[0] == pytest.approx(expected, abs=1e-12)
    assert sv[1] < 1e-12
    # pure product state: the single coefficient is 1
    psi = np.kron(random_pure(3, rng), random_pure(3, rng))
    r = qops.realign(np.outer(psi, psi.conj()), (3, 3))
    assert np.linalg.svd(r, compute_uv=False)[0] == pytest.approx(1.0, abs=1e-12)


def test_realign_bell_state():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    r = qops.realign(np.outer(psi, psi.conj()), (2, 2))
    sv = np.linalg.svd(r, compute_uv=False)
    assert np.allclose(sv, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert sv.sum() == pytest.approx(2.0, abs=1e-12)


def test_realign_maximally_mixed_two_qutrit():
    rho = np.eye(9, dtype=complex) / 9
    # oracle: brute-force reshuffle + SVD
    r_oracle = np.zeros((9, 9), dtype=complex)
    for a1 in range(3):
        for a2 in range(3):
            for b1 in range(3):
                for b2 in range(3):
                    r_oracle[3 * a1 + a2, 3 * b1 + b2] = rho[3 * a1 + b1, 3 * a2 + b2]
    sv = np.linalg.svd(qops.realign(rho, (3, 3)), compute_uv=False)
    assert np.allclose(qops.realign(rho, (3, 3)), r_oracle)
    assert sv.sum() == pytest.approx(np.linalg.svd(r_oracle, compute_uv=False).sum())
    assert sv.sum() == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_realign_is_involution(rng):
    for d in (2, 3):
        m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        twice = qops.realign(qops.realign(m, (d, d)), (d, d))
        assert np.array_equal(twice, m)


def test_realign_rejects_non_bipartite():
    with pytest.raises(ValueError):
        qops.realign(np.eye(8, dtype=complex), (2, 2, 2))
    with pytest.raises(ValueError):
        qops.realign(np.eye(8, dtype=complex), (3, 3))


def test_embed_partial_trace_duality(rng):
    dims = (3, 2, 3)
    rho = random_density(18, rng)
    for slot in range(3):
        op = rng.standard_normal((dims[slot],) * 2) + 1j * rng.standard_normal(
            (dims[slot],) * 2
        )
        lhs = np.trace(qops.embed(op, slot, dims) @ rho)
        rhs = np.trace(op @ qops.partial_trace(rho, dims, {slot}))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_density_matrix_validation(rng):
    rho = random_density(4, rng)
    check_density_matrix(rho)
    with pytest.raises(ValueError):
        check_density_matrix(rho + 1e-6 * 1j * np.eye(4))
    with pytest.raises(ValueError):
        check_density_matrix(1.1 * rho)
    bad = rho.copy()
    bad[0, 0] -= 2e-7
    bad[1, 1] += 2e-7
    bad[0, 1] = bad[1, 0] = 0.9  # breaks positivity
    with pytest.raises(ValueError):
        check_density_matrix(bad)


def test_units_round_trip():
    assert to_mhz(qops.mhz(10.4)) == pytest.approx(10.4)
    assert qops.mhz(1.0) == pytest.approx(2 * np.pi * 1e-3)
