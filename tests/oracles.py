"""Independent oracles used by the tests.

Everything here sticks to brute force or a code path disjoint from the
package internals it checks: matrix-level group enumeration with canonical
phase normalization, Pauli monomials as Kronecker products of local
factors, (rows, roots) pairs scattered entry by entry, the Jordan-Wigner parafermions as dense string products, braid
generator tableaux read off dense restricted unitaries, the reference
generator tableaux read off embedded dense unitaries, determinant
counting over Z_d, a transvection sweep
for the four-dimensional symplectic group over Z_3, tableau conjugation,
composition and inversion in PauliLabel arithmetic one label at a time,
tableau group closure one composition at a time, the two constraint
residuals, the reduced d = 3 and d = 4 systems and the solver residual and
Jacobian entry by entry, the solver's manifold probes one vector at a
time, braid generators summed from dense parity powers or built as
Kronecker products of their local blocks, the braid relations on those
dense generators, braid words composed and restricted by dense products,
and the gate dictionary built whole and scanned.
"""

from __future__ import annotations

from functools import reduce

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


def pauli_monomial_kron(d: int, x_exps, z_exps, phase: int = 0) -> np.ndarray:
    """exp(i pi phase / d) prod_i X_i**x_i Z_i**z_i as a Kronecker product of local factors.

    The local factor is X**a Z**b: |k> -> omega**(b*k) |k+a mod d>.
    """
    def local_pauli(a: int, b: int) -> np.ndarray:
        k = np.arange(d)
        out = np.zeros((d, d), dtype=complex)
        out[(k + a) % d, k] = np.exp(2j * np.pi * (b * k % d) / d)
        return out

    locals_ = [local_pauli(a, b) for a, b in zip(x_exps, z_exps)]
    return complex(np.exp(1j * np.pi * phase / d)) * reduce(np.kron, locals_)


def scatter_monomial(support) -> np.ndarray:
    """The dense matrix of a (rows, roots) pair: entry roots[k] at (rows[k], k), summed on collisions."""
    rows, roots = support
    out = np.zeros((len(rows),) * 2, dtype=complex)
    np.add.at(out, (rows, np.arange(len(rows))), roots)
    return out


def is_phased_permutation(support, tol: float = 1e-12) -> bool:
    """Rows a permutation of 0..D-1 and every root of unit modulus."""
    rows, roots = support
    return bool(np.array_equal(np.sort(rows), np.arange(len(rows)))
                and np.max(np.abs(np.abs(roots) - 1)) <= tol)


def jordan_wigner_gammas(d: int, n_pairs: int) -> list[np.ndarray]:
    """Dense parafermions gamma_1 .. gamma_{2n} by the Jordan-Wigner string product.

    gamma_{2i-1} = (prod_{j<i} X_j) Z_i and
    gamma_{2i} = omega**((d+1)/2) (prod_{j<=i} X_j) Z_i, with
    omega**(1/2) = exp(i pi / d), X|k> = |k+1 mod d>, Z|k> = omega**k |k>
    and qudit 1 the most significant Kronecker factor; the string is
    accumulated one dense matrix product at a time.
    """
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))

    def on(q: int, local: np.ndarray) -> np.ndarray:
        return reduce(np.kron, [local if p == q else np.eye(d) for p in range(n_pairs)])

    half = np.exp(1j * np.pi * (d + 1) / d)
    gammas = []
    string = np.eye(d**n_pairs)
    for i in range(n_pairs):
        gammas.append(string @ on(i, z))
        string = string @ on(i, x)
        gammas.append(half * (string @ on(i, z)))
    return gammas


# The generator words of up to three encoded qudits in operator-order text,
# each spelled out in full: the oracle does no word arithmetic of its own
# beyond the odd-d power of the inverse-S braid.
QUDIT_WORD_TEXTS = (("1", "1 2 1"), ("5", "5 6 5"), ("9", "9 10 9"))
PAIR_WORD_TEXTS = ("4 3 | -5 -6 -4 -5 | -5 -6 -4 -5 | -3 -4",
                   "8 7 | -9 -10 -8 -9 | -9 -10 -8 -9 | -7 -8")


def dense_braid_tableaux(d: int, n_logical: int, r: int | None = None, sign: int = +1) -> list:
    """braid_generator_tableaux through dense matrices, for n_logical <= 3.

    Builds the encoding isometry and the braid representation, restricts
    each generator word's unitary to the code, and reads its tableau off the
    matrix with clifford_membership.
    """
    from parabraid.braiding import BraidWord
    from parabraid.clifford import clifford_membership
    from parabraid.encoding import LEAKAGE_TOL, build_encoding, certificate_r, restrict_word

    if r is None:
        r = certificate_r(d)
    enc = build_encoding(d, n_logical, r=r, sign=sign)
    words = [BraidWord.from_text(text) for texts in QUDIT_WORD_TEXTS[:n_logical] for text in texts]
    for text in PAIR_WORD_TEXTS[:n_logical - 1]:
        word = BraidWord.from_text(text)
        words.append(word.power((d + 1) // 2) if d % 2 == 1 else word)
    out = []
    for word in words:
        restricted, leakage = restrict_word(enc, word)
        if leakage > LEAKAGE_TOL:
            raise ValueError(f"braid generator leaks: {leakage:.3e}")
        tab = clifford_membership(restricted)
        if tab is None:
            raise ValueError("braid generator is not a Clifford gate")
        out.append(tab)
    return out


def reference_phase_gate(d: int):
    """Canonical diagonal gate with conjugation action X -> X Zdag, Z -> Z.

    For odd d the action is realized with phase exactly 1,
    diag(omega**(-k(k-1)/2)).  For even d no unitary realizes the phase-free
    action (the image of the cyclic shift would have the wrong Hermiticity),
    so the minimal half-power realization diag(omega**(-k**2/2)) is used,
    whose X image carries the unavoidable phase omega**(-1/2).
    """
    from parabraid.systems import DenseOperator

    k = np.arange(d)
    if d % 2 == 1:
        diag = np.exp(-1j * np.pi * k * (k - 1) / d)
    else:
        diag = np.exp(-1j * np.pi * k * k / d)
    return DenseOperator(np.diag(diag), d, 1)


def dense_reference_generators(d: int, n: int) -> list:
    """reference_generators through explicit unitaries: each gate embedded as a d**n matrix
    and its tableau read back with clifford_membership, so the dense size bound applies.

    The phase gate (X -> X Zdag, Z -> Z) and the Fourier gate (X -> Z,
    Z -> Xdag) on each qudit in turn, then the controlled shift on each
    adjacent pair (q, q+1).
    """
    from parabraid.clifford import clifford_membership
    from parabraid.systems import QuditSystem, controlled_shift, embed, fourier_gate

    system = QuditSystem(d, n)
    singles = (reference_phase_gate(d), fourier_gate(d))
    mats = [embed(system, q, gate.mat) for q in range(1, n + 1) for gate in singles]
    mats += [embed(system, q, controlled_shift(d).mat) for q in range(1, n)]
    out = []
    for mat in mats:
        tab = clifford_membership(mat)
        if tab is None:
            raise AssertionError("reference gate failed Clifford membership")
        out.append(tab)
    return out


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


def symplectic_product_loop(u, v, d: int) -> int:
    """sp(u, v) = z_u . x_v - z_v . x_u mod d for one pair of (x|z) vectors, term by term."""
    n = len(u) // 2
    return (sum(a * b for a, b in zip(u[n:], v[:n])) - sum(a * b for a, b in zip(v[n:], u[:n]))) % d


def tableau_apply_loop(tab, label):
    """Image of a Pauli label under a tableau in PauliLabel arithmetic.

    The label's generator powers are multiplied in one at a time, in the
    order X_1, Z_1, X_2, Z_2, ..., as powers of the generator images.
    """
    from parabraid.clifford import PauliLabel

    d, n = tab.d, tab.n
    images = tab.images
    acc = PauliLabel.identity(d, n)
    for q in range(n):
        if label.x[q]:
            acc = acc * (images[q] ** label.x[q])
        if label.z[q]:
            acc = acc * (images[n + q] ** label.z[q])
    return PauliLabel(d, n, acc.phase + label.phase, acc.x, acc.z)


def tableau_compose_loop(later, first):
    """Tableau of U_later @ U_first, one label image at a time."""
    from parabraid.clifford import CliffordTableau

    return CliffordTableau.from_images(first.d, first.n,
                                       [tableau_apply_loop(later, img) for img in first.images])


def tableau_inverse_loop(tab):
    """Inverse tableau: vectors from M^-1 = -J M^T J (M with the image vectors as columns),
    phases from the label round trip through tableau_apply_loop."""
    from parabraid.clifford import CliffordTableau, PauliLabel

    d, n = tab.d, tab.n
    form = np.block([[np.zeros((n, n), dtype=np.int64), -np.eye(n, dtype=np.int64)],
                     [np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)]])
    m = np.array([img.vector() for img in tab.images], dtype=np.int64).T
    m_inv = (-form @ m.T @ form) % d
    images = []
    for j in range(2 * n):
        vec = tuple(int(v) for v in m_inv[:, j])
        round_trip = tableau_apply_loop(tab, PauliLabel(d, n, 0, vec[:n], vec[n:]))
        images.append(PauliLabel(d, n, -round_trip.phase, vec[:n], vec[n:]))
    return CliffordTableau.from_images(d, n, images)


def closure_keys_reference(generators: list) -> tuple[list[int], list[int], list[int]]:
    """Sorted packed keys of the group a tableau set generates, with per-level counts.

    Plain breadth-first search: every frontier element is composed with
    each generator and inverse in label arithmetic (`tableau_compose_loop`,
    `tableau_inverse_loop`), and `tableau_key` values are collected in a
    Python set.  None of the vectorized closure's lookup tables, array
    deduplication or array conjugation is used.  Returns the sorted keys,
    the new elements per level and the distinct products per level; the
    last level finds nothing new.
    """
    from parabraid.clifford import CliffordTableau, tableau_key

    first = generators[0]
    gens = list(generators) + [tableau_inverse_loop(g) for g in generators]
    identity = CliffordTableau.identity(first.d, first.n)
    seen = {tableau_key(identity)}
    frontier = [identity]
    level_sizes, candidate_sizes = [], []
    while frontier:
        fresh, products = [], set()
        for tab in frontier:
            for g in gens:
                product = tableau_compose_loop(g, tab)
                key = tableau_key(product)
                products.add(key)
                if key not in seen:
                    seen.add(key)
                    fresh.append(product)
        level_sizes.append(len(fresh))
        candidate_sizes.append(len(products))
        frontier = fresh
    return sorted(seen), level_sizes, candidate_sizes


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


def unitarity_residual_loops(vec) -> float:
    """Max over r of |sum_m c_m conj(c_{m+r}) - d*delta_{r,0}|, one term at a time."""
    d, c = vec.d, vec.c
    worst = 0.0
    for r in range(d):
        total = sum(c[m] * np.conj(c[(m + r) % d]) for m in range(d))
        if r == 0:
            total -= d
        worst = max(worst, abs(total))
    return worst


def yang_baxter_residual_loops(vec) -> float:
    """Max over (k, m) of the two-sided cubic constraint mismatch, one term at a time."""
    d, c = vec.d, vec.c
    om = np.exp(2j * np.pi * np.arange(d) / d)
    worst = 0.0
    for k in range(d):
        for m in range(d):
            lhs = sum(c[r] * c[(k - r) % d] * c[m] * om[(m * r) % d] for r in range(d))
            rhs = sum(c[r] * c[k] * c[(m - r) % d] * om[(k * r) % d] for r in range(d))
            worst = max(worst, abs(lhs - rhs))
    return worst


def residual_stack_loops(u: np.ndarray, d: int) -> np.ndarray:
    """The solver residual stack, one component at a time from the definitions.

    Unitarity component r is sum_m c_m conj(c_{m+r}) - d [r = 0]; Yang-Baxter
    component (k, m) is sum_r c_r c_{k-r} c_m omega**(m r) minus
    sum_r c_r c_k c_{m-r} omega**(k r).  Rows are ordered as in
    residual_jacobian_loops.
    """
    c = u[:d] + 1j * u[d:]
    om = np.exp(2j * np.pi * np.arange(d) / d)
    components = []
    for r in range(d):
        total = sum(c[m] * np.conj(c[(m + r) % d]) for m in range(d))
        components.append(total - d if r == 0 else total)
    for k in range(d):
        for m in range(d):
            lhs = sum(c[r] * c[(k - r) % d] * c[m] * om[(m * r) % d] for r in range(d))
            rhs = sum(c[r] * c[k] * c[(m - r) % d] * om[(k * r) % d] for r in range(d))
            components.append(lhs - rhs)
    components = np.array(components)
    return np.concatenate([components.real, components.imag])


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


def manifold_dimension_loop(vec, tol: float = 1e-9) -> int:
    """Local solution-manifold dimension at one solution, one probe at a time.

    The per-vector form of solver.manifold_dimension: the Jacobian's null
    space less the phase direction, each candidate direction probed both
    ways by an anchored descent whose end point is checked on its own.
    """
    import math

    from parabraid.solver import (ANCHOR_WEIGHT, PROBE_STEP, combined_residuals,
                                  least_squares, residual_jacobian, residual_stack)

    if combined_residuals(vec.c) > tol:
        raise ValueError("manifold dimension is only defined at a solution")
    d = vec.d
    u = np.concatenate([vec.c.real, vec.c.imag])
    _, singulars, v_rows = np.linalg.svd(residual_jacobian(u, d))
    null_mask = singulars < math.sqrt(tol)
    if int(np.sum(null_mask)) <= 1:
        return 0
    phase_dir = np.concatenate([-vec.c.imag, vec.c.real])
    norm = np.linalg.norm(phase_dir)
    if norm > 0:
        phase_dir /= norm
    basis = v_rows[null_mask]
    basis = basis - np.outer(basis @ phase_dir, phase_dir)
    q, r = np.linalg.qr(basis.T)
    directions = q[:, np.abs(np.diag(r)) > 1e-8].T

    root = math.sqrt(ANCHOR_WEIGHT)
    displacements = []
    for w in directions:
        for sign in (+1.0, -1.0):
            target = u + sign * PROBE_STEP * w
            fit = least_squares(
                lambda y: np.concatenate([residual_stack(y, d), root * (y - target)]), target,
                lambda y: np.concatenate([residual_jacobian(y, d), root * np.eye(2 * d)]),
                max_nfev=200)
            if combined_residuals(fit.x[:d] + 1j * fit.x[d:]) > tol:
                continue
            delta = (fit.x - u) / PROBE_STEP
            delta = delta - (delta @ phase_dir) * phase_dir
            if np.linalg.norm(delta) >= 0.5:
                displacements.append(delta)
    if not displacements:
        return 0
    spectrum = np.linalg.svd(np.array(displacements), compute_uv=False)
    return int(np.sum(spectrum >= 0.5))


def unitarity_defect(mat: np.ndarray) -> float:
    """Max-norm Gram defect max|M M^dag - 1|."""
    return float(np.max(np.abs(mat @ mat.conj().T - np.eye(len(mat)))))


def is_unitary(op, tol: float) -> bool:
    return unitarity_defect(op.mat) <= tol


def is_trivial(vec, tol: float = 1e-6) -> bool:
    """Whether a coefficient vector is the trivial solution (sqrt(d), 0, .., 0)."""
    from parabraid.constraints import trivial_vector

    return vec.distance(trivial_vector(vec.d)) <= tol


def d3_system_residuals(vec) -> list[float]:
    """The six scalar equations of the reduced d = 3 constraint system.

    Exercised individually so the system reduction is testable on its own,
    independent of the generic residual definitions.
    """
    if vec.d != 3:
        raise ValueError("reduced system is for d = 3")
    c0, c1, c2 = vec.c
    eqs = [
        abs(c0) ** 2 + abs(c1) ** 2 + abs(c2) ** 2 - 3,
        c0 * np.conj(c1) + c1 * np.conj(c2) + c2 * np.conj(c0),
        c0 * np.conj(c2) + c1 * np.conj(c0) + c2 * np.conj(c1),
        c0**2 * c1 + c1**2 * c2 + c2**2 * c0,
        c0**2 * c2 + c1**2 * c0 + c2**2 * c1,
        c1**3 - c2**3,
    ]
    return [abs(e) for e in eqs]


def d4_system_residuals(vec) -> list[float]:
    """The seven scalar equations of the reduced d = 4 constraint system."""
    if vec.d != 4:
        raise ValueError("reduced system is for d = 4")
    c0, c1, c2, c3 = vec.c
    eqs = [
        abs(c0) ** 2 + abs(c1) ** 2 + abs(c2) ** 2 + abs(c3) ** 2 - 4,
        c0 * np.conj(c1) + c1 * np.conj(c2) + c2 * np.conj(c3) + c3 * np.conj(c0),
        c0 * np.conj(c2) + c1 * np.conj(c3) + c2 * np.conj(c0) + c3 * np.conj(c1),
        c1 * (c0**2 + c2**2) + 2 * c0 * c2 * c3,
        c3 * (c0**2 + c2**2) + 2 * c0 * c1 * c2,
        c0 * (c1**2 + c3**2) + c0**2 * c2 - c2**3 + 2 * c1 * c2 * c3,
        c1**2 - c3**2,
    ]
    return [abs(e) for e in eqs]


def braid_generator_dense_powers(system, coefficients, i: int) -> np.ndarray:
    """U_i = sum_m c_m Lambda_i**m / sqrt(d), with each power built as a dense matrix."""
    import math

    lam = system.parities[i - 1]
    return sum(coefficients.c[m] * (lam ** m).to_matrix()
               for m in range(system.d)) / math.sqrt(system.d)


def commutator_with_monomial(mat: np.ndarray, a) -> float:
    """max|M A - A M| for a dense M and a phased permutation A, in O(D**2): row rows[j]
    of M A - A M holds M[rows[j], rows[k]] roots[k] - roots[j] M[j, k] at column k."""
    rows, roots = a
    return float(np.max(np.abs(mat.take(rows, 0).take(rows, 1) * roots - roots[:, None] * mat)))


def overall_parity_support(sys_) -> tuple[np.ndarray, np.ndarray]:
    """Support of Lambda_1 Lambda_3 ... Lambda_{2n-1}, conserved by all braids, by gathers."""
    from parabraid.systems import monomial_product

    return reduce(monomial_product, ((rows[1], roots[1]) for rows, roots in sys_.parity_powers[::2]))


def dense_representation_residuals(rep) -> dict[str, float]:
    """The braid relations on the dense D x D generators U_i, all as max-norm residuals:
    Gram defects, far commutators, Yang-Baxter on adjacent pairs, and commutators with
    the gamma_j outside each pair and with the overall parity."""
    gens = [rep.generator(i) for i in range(1, rep.system.n_modes)]
    unit = max(unitarity_defect(u.mat) for u in gens)
    far = 0.0
    yb = 0.0
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            ua, ub = gens[a].mat, gens[b].mat
            if b - a > 1:
                far = max(far, float(np.max(np.abs(ua @ ub - ub @ ua))))
            else:
                yb = max(yb, float(np.max(np.abs(ua @ ub @ ua - ub @ ua @ ub))))
    locality = max(commutator_with_monomial(u.mat, gamma) for i, u in enumerate(gens, start=1)
                   for j, gamma in enumerate(rep.system.gamma_supports, start=1) if j not in (i, i + 1))
    overall = overall_parity_support(rep.system)
    par = max(commutator_with_monomial(u.mat, overall) for u in gens)
    return {"unitarity": unit, "far_commutativity": far, "yang_baxter": yb,
            "locality": locality, "overall_parity": par}


def kron_braid_generator(rep, i: int) -> np.ndarray:
    """Dense U_i = sum_m c_m L**m / sqrt(d) as a Kronecker product of its local block.

    L is the local parity: Xdag on qudit (i + 1) / 2 for odd i, and Z (x) Zdag on qudits i / 2
    and i / 2 + 1 for even i (the closed forms the algebra suite checks against the parities),
    with identities on every other qudit.
    """
    import math

    d, n, c = rep.system.d, rep.system.n_pairs, rep.coefficients.c
    shift = np.roll(np.eye(d), 1, axis=0)  # X|k> = |k+1 mod d>
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    local = shift.T if i % 2 else np.kron(clock, clock.conj())
    block = sum(c[m] * np.linalg.matrix_power(local, m) for m in range(d)) / math.sqrt(d)
    first, width = (i + 1) // 2, 1 if i % 2 else 2
    return reduce(np.kron, [np.eye(d ** (first - 1)), block, np.eye(d ** (n - first - width + 1))])


def dense_compose_braid(rep, word):
    """compose_braid by dense products: one D x D matmul per letter, each U_i from
    kron_braid_generator and an inverse letter its conjugate transpose."""
    from parabraid.systems import DenseOperator

    out = DenseOperator.identity(rep.system.system)
    for idx, exp in word.entries:
        u = DenseOperator(kron_braid_generator(rep, idx), rep.system.d, rep.system.n_pairs)
        out = (u if exp > 0 else u.dag()) @ out
    return out


def restrict(enc, op):
    """Restriction T(A) = Edag A E plus the leakage norm of A on the code space."""
    from parabraid.systems import DenseOperator

    e = enc.isometry
    if op.dim != e.shape[0]:
        raise ValueError(f"operator dim {op.dim} does not match the full space {e.shape[0]}")
    restricted = DenseOperator(e.conj().T @ op.mat @ e, enc.d, enc.n_logical)
    # (I - E Edag) A E = A E - E T(A): the part of A E outside the code space.
    leakage = float(np.max(np.abs(op.mat @ e - e @ restricted.mat)))
    return restricted, leakage


def dense_restrict_words(enc, words) -> list:
    """restrict_word for each word through dense matrices: the dense_compose_braid products,
    associated onto the isometry E (U_L (... (U_1 E))), so a letter costs D**2 d**n rather than
    D**3; each U_i is built once by kron_braid_generator.  Returns (T(U), leakage) pairs."""
    from parabraid.systems import DenseOperator

    gens, out, e = {}, [], enc.isometry
    for word in words:
        image = e
        for idx, exp in word.entries:
            if idx not in gens:
                gens[idx] = kron_braid_generator(enc.rep, idx)
            # Udag B = conj(U^T conj(B)): U^T is a view, so no D x D copy per inverse letter
            image = gens[idx] @ image if exp > 0 else (gens[idx].T @ image.conj()).conj()
        restricted = DenseOperator(e.conj().T @ image, enc.d, enc.n_logical)
        out.append((restricted, float(np.max(np.abs(image - e @ restricted.mat)))))
    return out


def gate_dictionary_list(enc) -> list:
    """The gate dictionary built whole, as one list in identification order: the identity,
    then at one qudit the Paulis, F, F_dagger and the quadratic phase gate, at two qudits the
    powers of CX and CZ, then the Paulis."""
    from itertools import product

    from parabraid.braiding import diagonal_phases
    from parabraid.systems import DenseOperator, controlled_phase, controlled_shift, fourier_gate, \
        pauli_monomial

    if enc.n_logical not in (1, 2):
        raise ValueError(f"the gate dictionary covers 1 or 2 logical qudits, got {enc.n_logical}")
    d, sys_ = enc.d, enc.logical_system
    paulis = []
    for exps in list(product(range(d), repeat=2 * enc.n_logical))[1:]:  # the identity is first
        a, b = exps[0::2], exps[1::2]  # exps = (a_1, b_1, a_2, b_2)
        paulis.append(("@".join(f"X^{x}Z^{z}" for x, z in zip(a, b)), pauli_monomial(sys_, a, b)))
    identity = [("identity", DenseOperator.identity(sys_))]
    if enc.n_logical == 1:
        quadratic_phase = DenseOperator(np.diag(diagonal_phases(enc.rep, 1).phases), d, 1)
        return identity + paulis + [("F", fourier_gate(d)), ("F_dagger", fourier_gate(d).dag()),
                                    ("quadratic_phase", quadratic_phase)]
    powers = [(f"{name}^{a}", gate.power(a)) for name, gate in
              (("CX", controlled_shift(d)), ("CZ", controlled_phase(d))) for a in range(1, d)]
    return identity + powers + paulis


def identify_in_list(restricted, candidates, d: int, tol: float = 1e-9) -> tuple:
    """(name, phase exponent mod 8d) of the first listed candidate equal to the restriction up
    to a phase, or ("unknown", None): a scan of the whole list."""
    from parabraid.phases import phase_from_complex
    from parabraid.systems import equal_up_to_phase

    for name, candidate in candidates:
        lam = equal_up_to_phase(restricted, candidate, tol)
        if lam is not None:
            return name, phase_from_complex(lam, d).num
    return "unknown", None
