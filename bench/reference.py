"""Independent reference for the in-ball bilinear frequency sum.

Evaluates, at every sample point x of an n-dimensional periodic grid,

    out(x) = L^{-2n} sum_{xi, eta in ball} W(|xi|, |eta|) F(xi) G(eta) e^{2 pi i x.(xi + eta)}

literally: F and G come from a direct Riemann-sum DFT restricted to the
lattice points m/L inside the unit ball, and the pair sum is a dense
(P x P) weighted product evaluated at each x.  Only numpy is used; nothing
here shares code with ``brlab.operators`` (no FFT, no roll, no pruning).
"""

from __future__ import annotations

import numpy as np


def inball_indices(n: int, N: int, L: float) -> np.ndarray:
    """Integer lattice indices m, shape (P, n), with |m / L| <= 1."""
    axis = np.arange(-(N // 2), N - N // 2)
    mesh = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    return mesh[np.sum((mesh / L) ** 2, axis=1) <= 1.0]


def literal_pair_sum(f: np.ndarray, g: np.ndarray, L: float, weight_of_radii):
    """The bilinear frequency double sum over in-ball pairs, term by term.

    ``weight_of_radii(r_xi, r_eta)`` broadcasts a (P, 1) column against a
    (1, P) row and returns the (P, P) multiplier; it must vanish whenever
    |xi|^2 + |eta|^2 >= 1, which the dyadic slice weights do.

    Returns the sum at every sample point and its a-priori scale
    L^{-2n} sum|W| max|F| max|G|, with max|F| bounded by (L/N)^n sum|f|:
    it bounds |out(x)| for any operands of these magnitudes and sets the
    size of the round-off any correct evaluation makes, transforms included.
    """
    n, N = f.ndim, f.shape[0]
    m = inball_indices(n, N, L)
    samples = np.stack(
        np.meshgrid(*([np.arange(N)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    # reduce m.s modulo N in integers so every phase argument stays small
    E = np.exp(2j * np.pi * ((m @ samples.T) % N) / N)
    cell = (L / N) ** n
    F = cell * (E.conj() @ f.ravel())
    G = cell * (E.conj() @ g.ravel())
    r = np.sqrt(np.sum((m / L) ** 2, axis=1))
    W = weight_of_radii(r[:, None], r[None, :])
    C = W * F[:, None] * G[None, :]
    out = np.sum(E * (C @ E), axis=0) / L ** (2 * n)
    scale = np.sum(np.abs(W)) * cell * np.sum(np.abs(f)) * cell * np.sum(np.abs(g))
    return out.reshape(f.shape), float(scale) / L ** (2 * n)


def sum_error(actual: np.ndarray, expected: np.ndarray, scale: float) -> float:
    """Worst pointwise difference relative to the sum's a-priori scale.

    A plain relative error is meaningless when the exact sum is zero: many
    witness pairs have no spectrum in the ball, and both routes then return
    transform round-off of about 1e-17.  Relative to the a-priori scale the
    error of any correct evaluation stays a small multiple of the machine
    epsilon, while a wrong pair or weight shows up at order one.
    """
    diff = float(np.max(np.abs(actual - expected)))
    return diff / scale if scale > 0 else diff
