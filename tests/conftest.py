import hypothesis
import numpy as np
import pytest

from critmode.design import catalog
from critmode.jordan import compute_spectrum

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None
)
hypothesis.settings.register_profile(
    "thorough", max_examples=200, deadline=None
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def catalog_entries():
    return {e.name: e for e in catalog()}


@pytest.fixture(scope="session")
def catalog_spectra(catalog_entries):
    """Spectra of every catalog system, computed once per session."""
    return {
        name: compute_spectrum(entry.system)
        for name, entry in catalog_entries.items()
    }


def random_system_matrices(rng, n, damping_scale=0.6):
    """A generic PD stiffness and PSD damping pair."""
    a = rng.standard_normal((n, n))
    k = a @ a.T + n * np.eye(n)
    b = rng.standard_normal((n, n))
    g = damping_scale * (b @ b.T) / n
    return k, g


def well_separated_system(rng, n, min_gap=0.05):
    """Random diagonalizable system whose eigenvalues keep a minimum gap.

    Resamples until no two eigenvalues of the evolution operator come closer
    than min_gap, so Jordan detection is unambiguous.
    """
    from critmode.model import build_system, evolution_operator

    for _ in range(200):
        k, g = random_system_matrices(rng, n)
        sys = build_system(k, g)
        evals = np.linalg.eigvals(evolution_operator(sys))
        d = np.abs(evals[:, None] - evals[None, :]) + 10.0 * np.eye(evals.size)
        if float(np.min(d)) >= min_gap:
            return sys
    raise RuntimeError("could not sample a well-separated system")


def ring_system(n, gamma=0.0):
    """n identical unit oscillators on a ring, each coupled to its two
    neighbours by springs of 0.5, with damping gamma * I.

    K = 2 I - 0.5 (P + P^T), P the cyclic shift, is circulant: its
    eigenvalues 2 - cos(2 pi k / n) come in equal pairs k, n - k, and gamma I
    commutes with it, so H has repeated simple eigenvalues (no Jordan block).
    """
    from critmode.model import build_system

    p = np.roll(np.eye(n), 1, axis=1)
    return build_system(2.0 * np.eye(n) - 0.5 * (p + p.T), gamma * np.eye(n))
