"""Independent oracles used by the tests.

Everything here sticks to brute force or a code path disjoint from the
package internals it checks: matrix-level group enumeration with canonical
phase normalization, determinant counting over Z_d, a transvection sweep
for the four-dimensional symplectic group over Z_3, tableau group closure
one composition at a time, and the solver Jacobian entry by entry.
"""

from __future__ import annotations

import numpy as np


def canonical_matrix_key(mat: np.ndarray, digits: int = 6) -> tuple:
    """Hashable form of a unitary modulo global phase."""
    flat = mat.ravel()
    idx = int(np.argmax(np.abs(flat) > 0.1))
    normalized = mat / (flat[idx] / abs(flat[idx]))
    rounded = np.round(normalized.ravel(), digits)
    return tuple((rounded + 0.0).tolist())


def matrix_group_order(generators: list[np.ndarray], limit: int = 2_000_000) -> int:
    """Order of the group generated by unitaries, modulo global phase."""
    gens = list(generators) + [g.conj().T for g in generators]
    eye = np.eye(gens[0].shape[0], dtype=complex)
    seen = {canonical_matrix_key(eye)}
    frontier = [eye]
    while frontier:
        fresh = []
        for g in gens:
            for m in frontier:
                candidate = g @ m
                key = canonical_matrix_key(candidate)
                if key not in seen:
                    seen.add(key)
                    fresh.append(candidate)
                    if len(seen) > limit:
                        raise RuntimeError("matrix group enumeration exceeded the limit")
        frontier = fresh
    return len(seen)


def sl2_order(d: int) -> int:
    """|SL(2, Z_d)| by brute force over all d**4 matrices."""
    count = 0
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    if (a * e - b * c) % d == 1:
                        count += 1
    return count


def sp4_z3_order() -> int:
    """|Sp(4, Z_3)| by closure over symplectic transvections.

    Transvections x -> x + lam * <x, v> * v (with the standard form
    J = [[0, I], [-I, 0]]) are symplectic and generate the group over a
    field; matrices are packed into base-3 integer keys and swept
    breadth-first with numpy.
    """
    j = np.zeros((4, 4), dtype=np.int64)
    j[0, 2] = j[1, 3] = 1
    j[2, 0] = j[3, 1] = -1
    gens = []
    for code in range(1, 81):
        v = np.array([(code // 3**k) % 3 for k in range(4)], dtype=np.int64)
        for lam in (1, 2):
            t = (np.eye(4, dtype=np.int64) - lam * np.outer(v, v) @ j) % 3
            gens.append(t)
    powers = 3 ** np.arange(16, dtype=np.int64)

    def pack(mats: np.ndarray) -> np.ndarray:
        return mats.reshape(len(mats), 16) @ powers

    visited = pack(np.eye(4, dtype=np.int64)[None, :, :])
    frontier = np.eye(4, dtype=np.int64)[None, :, :]
    while len(frontier):
        candidates = np.concatenate([(g @ frontier) % 3 for g in gens])
        keys = pack(candidates)
        keys, first = np.unique(keys, return_index=True)
        candidates = candidates[first]
        new_mask = np.isin(keys, visited, assume_unique=True, invert=True)
        if not new_mask.any():
            break
        visited = np.union1d(visited, keys[new_mask])
        frontier = candidates[new_mask]
    return int(visited.size)


def closure_keys_reference(generators: list) -> list[int]:
    """Sorted packed keys of the group a tableau set generates.

    Plain breadth-first search: every frontier element is composed with
    each generator and inverse through `CliffordTableau.compose`, and
    `tableau_key` values are collected in a Python set.  None of the
    vectorized closure's lookup tables or array deduplication is used.
    """
    from parabraid.clifford import CliffordTableau, tableau_key

    first = generators[0]
    gens = list(generators) + [g.inverse() for g in generators]
    identity = CliffordTableau.identity(first.d, first.n)
    seen = {tableau_key(identity)}
    frontier = [identity]
    while frontier:
        fresh = []
        for tab in frontier:
            for g in gens:
                product = g.compose(tab)
                key = tableau_key(product)
                if key not in seen:
                    seen.add(key)
                    fresh.append(product)
        frontier = fresh
    return sorted(seen)


def eigenspace_scalars(op: np.ndarray, commuting: np.ndarray, d: int) -> np.ndarray:
    """Scalar action of `op` on each eigenspace of `commuting`.

    Brute-force eigendecomposition: for eigenvalue omega**k of the
    commuting operator, project `op` onto the eigenspace and extract the
    scalar it acts by.  Raises if the restriction is not scalar.
    """
    eigvals, eigvecs = np.linalg.eig(commuting)
    labels = np.round(np.angle(eigvals) * d / (2 * np.pi)).astype(int) % d
    scalars = np.zeros(d, dtype=complex)
    for k in range(d):
        basis = eigvecs[:, labels == k]
        q, _ = np.linalg.qr(basis)
        block = q.conj().T @ op @ q
        scalar = block[0, 0]
        if np.max(np.abs(block - scalar * np.eye(block.shape[0]))) > 1e-9:
            raise AssertionError("operator is not scalar on the eigenspace")
        scalars[k] = scalar
    return scalars


def residual_jacobian_loops(u: np.ndarray, d: int) -> np.ndarray:
    """Jacobian of the solver residual stack, one entry at a time.

    Rows are the d unitarity components then the d**2 Yang-Baxter
    components (k, m) in row-major order, real parts above imaginary
    parts; columns are (Re c, Im c).  Each complex entry is the Wirtinger
    pair d/dc_j, d/dconj(c_j) written out term by term in plain loops.
    """
    c = u[:d] + 1j * u[d:]
    om = np.exp(2j * np.pi * np.arange(d) / d)
    idx = np.arange(d)

    n_cplx = d + d * d
    dP = np.zeros((n_cplx, d), dtype=complex)  # d/d c_j holding conj(c) fixed
    dQ = np.zeros((n_cplx, d), dtype=complex)  # d/d conj(c_j)

    for r in range(d):
        for j in range(d):
            dP[r, j] = np.conj(c[(j + r) % d])
            dQ[r, j] = c[(j - r) % d]

    wmat = om[(idx[:, None] * idx[None, :]) % d]
    conv = c[None, :] * c[(idx[:, None] - idx[None, :]) % d]
    s_km = conv @ wmat.T

    row = d
    for k in range(d):
        for m in range(d):
            for j in range(d):
                val = c[(k - j) % d] * c[m] * (om[(m * j) % d] + om[(m * (k - j)) % d])
                if j == m:
                    val += s_km[k, m]
                val -= c[k] * c[(m - j) % d] * (om[(k * j) % d] + om[(k * (m - j)) % d])
                if j == k:
                    val -= s_km[m, k]
                dP[row, j] = val
            row += 1

    da = dP + dQ
    db = 1j * (dP - dQ)
    top = np.hstack([da.real, db.real])
    bot = np.hstack([da.imag, db.imag])
    return np.vstack([top, bot])
