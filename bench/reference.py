"""Independent references for the benchmark's correctness checks.

Nothing here imports latticeband. Every function works from the plain
operator data (v, u, lattice step d) and numpy:

    H psi(n) = (2/d^2 + v(n)) psi(n) + (u(n) - 1/d^2) psi(n+1)
                                     + (u(n-1) - 1/d^2) psi(n-1)

Band edges come from dense eigenvalues of the Bloch matrices, hard-wall
levels from a dense tridiagonal matrix, and the trace checks from vectorised
residuals that never call the program's own residual helpers.
"""

from __future__ import annotations

import numpy as np


def _diag_off(v, u, delta):
    inv = 1.0 / (delta * delta)
    return 2.0 * inv + np.asarray(v, float), np.asarray(u, float) - inv


def bloch_edges_by_level(v, u, delta=1.0) -> dict:
    """Band edges by discriminant level: D = +2 at theta = 0, D = -2 at theta = pi.

    Each level maps to the sorted eigenvalues of the m x m Bloch matrix.
    """
    diag, off = _diag_off(v, u, delta)
    m = len(diag)
    edges = {}
    for level, phase in ((2.0, 1.0), (-2.0, -1.0)):
        if m == 1:
            edges[level] = np.array([diag[0] + 2.0 * phase * off[0]])
            continue
        h = np.diag(diag)
        idx = np.arange(m - 1)
        h[idx, idx + 1] = off[:-1]
        h[idx + 1, idx] = off[:-1]
        h[m - 1, 0] += phase * off[m - 1]
        h[0, m - 1] += phase * off[m - 1]
        edges[level] = np.linalg.eigvalsh(h)
    return edges


def bloch_edges(v, u, delta=1.0) -> np.ndarray:
    """All 2m band edges, sorted."""
    return np.sort(np.concatenate(list(bloch_edges_by_level(v, u, delta).values())))


def dirichlet_levels(v, u, delta=1.0) -> np.ndarray:
    """Eigenvalues of the (m-1)-site hard-wall well at phases 0..m-2."""
    diag, off = _diag_off(v, u, delta)
    m = len(diag)
    if m == 1:
        return np.empty(0)
    h = np.diag(diag[: m - 1])
    idx = np.arange(m - 2)
    h[idx, idx + 1] = off[: m - 2]
    h[idx + 1, idx] = off[: m - 2]
    return np.linalg.eigvalsh(h)


def allowed(edges: np.ndarray, energies) -> np.ndarray:
    """True where an energy lies inside a band [e0, e1], [e2, e3], ..."""
    pos = np.searchsorted(edges, np.asarray(energies, float))
    return pos % 2 == 1


def _steps(v, u, delta, energies):
    """Per-phase recurrence psi(n+1) = a psi(n) + b psi(n-1), over energies."""
    inv = 1.0 / (delta * delta)
    h = inv - np.asarray(u, float)
    e = np.asarray(energies, float)[..., None]
    a = (2.0 * inv + np.asarray(v, float) - e) / h
    b = -np.roll(h, 1) / h
    return a, np.broadcast_to(b, a.shape)


def monodromy(v, u, delta, energies) -> np.ndarray:
    """Period map M(E), shape (..., 2, 2), acting on (psi(0), psi(-1))."""
    a, b = _steps(v, u, delta, energies)
    out = np.broadcast_to(np.eye(2), a.shape[:-1] + (2, 2)).copy()
    for r in range(a.shape[-1]):
        step = np.zeros(a.shape[:-1] + (2, 2))
        step[..., 0, 0] = a[..., r]
        step[..., 0, 1] = b[..., r]
        step[..., 1, 0] = 1.0
        out = step @ out
    return out


def discriminant(v, u, delta, energies) -> np.ndarray:
    mono = monodromy(v, u, delta, energies)
    return mono[..., 0, 0] + mono[..., 1, 1]


def floquet_branch(v, u, delta, energy, growing=True):
    """Real multiplier and one period psi(-1..m) of a gap solution."""
    mono = monodromy(v, u, delta, energy)
    lams, vecs = np.linalg.eig(mono)
    lams = lams.real
    k = int(np.argmax(np.abs(lams))) if growing else int(np.argmin(np.abs(lams)))
    state = vecs[:, k].real  # (psi(0), psi(-1))
    a, b = _steps(v, u, delta, energy)
    psi = [state[1], state[0]]
    for r in range(len(a)):
        psi.append(a[r] * psi[-1] + b[r] * psi[-2])
    return float(lams[k]), np.asarray(psi)


def decaying_angle(v, u, delta, energy) -> float:
    """Boundary angle alpha, with (psi(0), psi(1)) ~ (cos a, sin a), of the decaying solution."""
    _, psi = floquet_branch(v, u, delta, energy, growing=False)
    return float(np.arctan2(psi[2], psi[1]) % np.pi)


def effective_profile(v, u, delta, energy, growing=True) -> tuple:
    """Folded potential w(r) on one period along a gap solution, and |psi(r)|."""
    _, psi = floquet_branch(v, u, delta, energy, growing)
    p = psi[1:-1]  # psi(0..m-1)
    w = np.asarray(v, float) + np.asarray(u, float) * psi[2:] / p
    w = w + np.roll(np.asarray(u, float), 1) * psi[:-2] / p
    return w, np.abs(p)


def _common_scale(s, ell):
    s = np.asarray(s, float)
    ell = np.asarray(ell, float)
    top = np.maximum(np.maximum(ell[:-2], ell[1:-1]), ell[2:])
    return (
        s[:-2] * np.exp(ell[:-2] - top),
        s[1:-1] * np.exp(ell[1:-1] - top),
        s[2:] * np.exp(ell[2:] - top),
    )


def recurrence_residual(s, ell, energy, v, u, delta=1.0) -> float:
    """Worst relative violation of h(n) psi(n+1) = (2/d^2+v-E) psi(n) - h(n-1) psi(n-1)."""
    inv = 1.0 / (delta * delta)
    m = len(v)
    n = np.arange(1, len(s) - 1)
    h = inv - np.asarray(u, float)
    hn, hp = h[n % m], h[(n - 1) % m]
    diag = 2.0 * inv + np.asarray(v, float)[n % m] - energy
    p1, p2, p3 = _common_scale(s, ell)
    terms = np.stack([hn * p3, diag * p2, hp * p1])
    scale = np.max(np.abs(terms), axis=0)
    ok = scale > 0.0
    res = np.abs(terms[0] - terms[1] + terms[2])[ok] / scale[ok]
    return float(res.max()) if res.size else 0.0


def knot_positions(s, ell) -> np.ndarray:
    """Zeros of the linear interpolant through psi(n) = s(n) exp(ell(n))."""
    s = np.asarray(s, float)
    ell = np.asarray(ell, float)
    a = s[:-1]
    b = s[1:] * np.exp(ell[1:] - ell[:-1])
    n = np.arange(len(a), dtype=float)
    exact = n[a == 0.0]
    cross = (a * b) < 0.0
    xs = n[cross] + a[cross] / (a[cross] - b[cross])
    tail = [float(len(a))] if s[-1] == 0.0 else []
    return np.sort(np.concatenate([exact, xs, tail]))


def ratio_periodicity(s, ell, m) -> float:
    """Worst circular (mod pi) mismatch of neighbour angles m sites apart."""
    s = np.asarray(s, float)
    ell = np.asarray(ell, float)
    a = s[:-1]
    b = s[1:] * np.exp(ell[1:] - ell[:-1])
    phi = np.mod(np.arctan2(b, a), np.pi)
    d = np.mod(np.abs(phi[m:] - phi[:-m]), np.pi)
    return float(np.max(np.minimum(d, np.pi - d)))


def effective_consistency(w, defined, s, ell, energy, delta=1.0) -> float:
    """Worst relative mismatch of -(psi(n+1)-2psi(n)+psi(n-1))/d^2 = (E-w(n)) psi(n)."""
    inv = 1.0 / (delta * delta)
    p1, p2, p3 = _common_scale(s, ell)
    lhs = -(p3 - 2.0 * p2 + p1) * inv
    rhs = (energy - np.asarray(w, float)[1:-1]) * p2
    denom = np.maximum(np.abs(lhs), np.abs(rhs))
    ok = np.asarray(defined, bool)[1:-1] & (denom > 0.0)
    res = np.abs(lhs - rhs)[ok] / denom[ok]
    return float(res.max()) if res.size else 0.0
