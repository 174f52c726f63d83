"""Shared random-matrix helpers for the test suite."""


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d):
    m = random_complex(rng, (d, d))
    return (m + m.conj().T) / 2

