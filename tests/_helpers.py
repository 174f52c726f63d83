"""Shared helpers for the test suite: random matrices and a reference kernel writer."""

import json

import numpy as np

from starprod.serialization import _encode
from starprod.verification import haar_unitaries


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d):
    m = random_complex(rng, (d, d))
    return (m + m.conj().T) / 2


def conditioned_frame(n, kappa, seed):
    """Seeded 9 x N frame U = W Sigma V^dag (d = 3) from Haar W, V, with a
    geometric spectrum from 1 down to 1 / kappa."""
    rng = np.random.default_rng(seed)
    w = haar_unitaries(rng.standard_normal((2, 9, 9)))
    v = haar_unitaries(rng.standard_normal((2, n, n)))
    return (w * np.geomspace(1.0, 1.0 / kappa, 9)) @ v[:, :9].conj().T


def tight_frame(rng, d, n, c):
    """sqrt(c) times the first d^2 rows of a Haar n x n unitary: a d^2 x n
    matrix U with U U^dag = c I."""
    return np.sqrt(c) * haar_unitaries(rng.standard_normal((2, n, n)))[: d * d]


def self_dual_reference(dequantizers, quantizers, residual_tol=1e-10):
    """One family at a time: c from np.linalg.norm of both families, then an
    entrywise check relative to the largest |U| entry; None when the family is
    not self-dual."""
    u_norm, d_norm = float(np.linalg.norm(dequantizers)), float(np.linalg.norm(quantizers))
    if u_norm == 0.0 or d_norm == 0.0:
        return None
    c = u_norm / d_norm
    scale = float(np.abs(dequantizers).max())
    if float(np.abs(dequantizers - c * quantizers).max()) > residual_tol * scale:
        return None
    return c


def reference_kernel_texts(d, values, assoc_residuals):
    """Kernel-file text for each associativity residual (None for none), as
    written slice by slice with ``json.dumps`` over the nested [re, im] lists,
    one float ``repr`` per entry.  The texts differ only in their trailers, so
    the slices are formatted once."""
    lines = ",".join("\n" + json.dumps(_encode(part)) for part in values)
    head = f'{{"d": {json.dumps(d)}, "n": {len(values)}, "values": [{lines}\n]'
    return tuple(
        head + ("" if r is None else f', "associativity_residual": {json.dumps(r)}') + "}\n"
        for r in assoc_residuals
    )
