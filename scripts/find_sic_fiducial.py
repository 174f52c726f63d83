#!/usr/bin/env python3
"""Search a SIC fiducial vector for a given dimension and write it as JSON.

Two stages: seeded L-BFGS-B minimization of the frame potential
sum |<psi_k|psi_k'>|^4 over the clock/shift orbit, then a least-squares
polish that drives every orbit overlap onto (d*delta + 1)/(d + 1) to
machine precision.  The output feeds src/starprod/data/.

Usage: python scripts/find_sic_fiducial.py [-d 3] [--seed 7] [-o out.json]

Needs scipy (dev-only; the package itself does not) and an importable
starprod (installed, or PYTHONPATH=src).
"""

from __future__ import annotations

import argparse

import numpy as np
from scipy.optimize import least_squares, minimize

from starprod.catalog import displacement_orbit
from starprod.serialization import write_json


def to_complex(params: np.ndarray) -> np.ndarray:
    half = params.size // 2
    return params[:half] + 1j * params[half:]


def frame_potential(params: np.ndarray) -> float:
    psi = to_complex(params)
    psi = psi / np.linalg.norm(psi)
    orbit = displacement_orbit(psi)
    gram = orbit.conj() @ orbit.T
    return float((np.abs(gram) ** 4).sum())


def overlap_residuals(params: np.ndarray, d: int) -> np.ndarray:
    psi = to_complex(params)
    norm_penalty = np.linalg.norm(psi) - 1.0
    orbit = displacement_orbit(psi / np.linalg.norm(psi))
    gram = np.abs(orbit.conj() @ orbit.T) ** 2
    target = (d * np.eye(d * d) + 1.0) / (d + 1.0)
    return np.concatenate([(gram - target).reshape(-1), [norm_penalty]])


def search(d: int, seed: int, restarts: int = 40) -> tuple[np.ndarray, float]:
    rng = np.random.default_rng(seed)
    ideal = d * d + d * d * (d * d - 1) / (d + 1) ** 2
    best = None
    for _ in range(restarts):
        start = rng.standard_normal(2 * d)
        res = minimize(frame_potential, start, method="L-BFGS-B")
        if best is None or res.fun < best.fun:
            best = res
        if best.fun - ideal < 1e-8:
            break
    if best is None or best.fun - ideal > 1e-4:
        raise RuntimeError(f"frame potential stuck at {best.fun} (ideal {ideal})")
    polish = least_squares(
        overlap_residuals, best.x, args=(d,), xtol=1e-15, ftol=1e-15, gtol=1e-15
    )
    psi = to_complex(polish.x)
    psi = psi / np.linalg.norm(psi)
    # canonical global phase: first significant entry real positive
    anchor = psi[np.flatnonzero(np.abs(psi) > 1e-8)[0]]
    psi = psi * (abs(anchor) / anchor)
    orbit = displacement_orbit(psi)
    gram = np.abs(orbit.conj() @ orbit.T) ** 2
    target = (d * np.eye(d * d) + 1.0) / (d + 1.0)
    return psi, float(np.abs(gram - target).max())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-d", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("-o", "--output", default="src/starprod/data/sic_fiducial_d3.json")
    args = parser.parse_args()

    psi, deviation = search(args.d, args.seed)
    payload = {
        "d": args.d,
        "values": psi,
        "max_gram_deviation": deviation,
        "seed": args.seed,
        "generator": "scripts/find_sic_fiducial.py",
    }
    write_json(payload, args.output)
    print(f"wrote {args.output}  (max overlap deviation {deviation:.3e})")


if __name__ == "__main__":
    main()
