"""Tensor-product operator algebra for multipartite open quantum systems.

All operators and states live on a Hilbert space that is an ordered tensor
product of finite subsystems.  Throughout the package the convention is
(transmon A, transfer resonator A, transmon B, transfer resonator B), and
all rates and frequencies are angular, in rad/ns.
"""

from __future__ import annotations

import functools

import numpy as np

# rad/ns per (linear) MHz: omega = 2*pi*f with f in MHz = 1e-3/ns cycles
TWO_PI_MHZ = 2.0 * np.pi * 1e-3


def mhz(f):
    """Convert a linear frequency in MHz to an angular rate in rad/ns."""
    return TWO_PI_MHZ * np.asarray(f, dtype=float)


def ket(dim: int, level: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[level] = 1.0
    return v


def projector(dim: int, level: int) -> np.ndarray:
    return np.outer(ket(dim, level), ket(dim, level).conj())


def transition(dim: int, lower: int, upper: int) -> np.ndarray:
    """Lowering operator |lower><upper| on a dim-level system."""
    op = np.zeros((dim, dim), dtype=complex)
    op[lower, upper] = 1.0
    return op


def destroy(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation operator."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def kron(*ops) -> np.ndarray:
    """Kronecker product of the operators, in order (A-major)."""
    return functools.reduce(np.kron, [np.asarray(m) for m in ops])


def embed(op: np.ndarray, slot: int, dims) -> np.ndarray:
    """Embed a single-subsystem operator into the full tensor product.

    Returns I (x) ... (x) op (x) ... (x) I with ``op`` acting on subsystem
    ``slot`` of a space with subsystem dimensions ``dims``.
    """
    dims = tuple(int(d) for d in dims)
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for dims {dims}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (dims[slot], dims[slot]):
        raise ValueError(
            f"operator shape {op.shape} does not match dims[{slot}] = {dims[slot]}"
        )
    factors = [identity(d) for d in dims]
    factors[slot] = op
    return kron(*factors)


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    The kept subsystems retain their original relative order.  The trace of
    the input is preserved exactly.
    """
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"invalid keep set {keep} for dims {dims}")
    rho = np.asarray(rho, dtype=complex)
    n = len(dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"state shape {rho.shape} inconsistent with dims {dims}")
    tensor = rho.reshape(dims + dims)
    # contract bra/ket index pairs of every traced subsystem
    for offset, slot in enumerate(s for s in range(n) if s not in keep):
        traced_before = offset  # already-removed subsystems shift indices down
        ax = slot - traced_before
        nleft = n - traced_before
        tensor = np.trace(tensor, axis1=ax, axis2=ax + nleft)
    kept = int(np.prod([dims[k] for k in keep]))
    return tensor.reshape(kept, kept)


def realign(rho: np.ndarray, dims) -> np.ndarray:
    """Realignment (index reshuffle) of a bipartite operator.

    Maps the matrix elements rho[(a1 b1), (a2 b2)] to R[(a1 a2), (b1 b2)].
    The singular values of R are the operator-Schmidt coefficients of rho.
    For equal subsystem dimensions the reshuffle is an exact involution.
    """
    if len(dims) != 2:
        raise ValueError(f"realign requires a bipartite dimension pair, got {dims}")
    da, db = int(dims[0]), int(dims[1])
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (da * db, da * db):
        raise ValueError(f"state shape {rho.shape} inconsistent with dims {dims}")
    return rho.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)

