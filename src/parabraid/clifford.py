"""Generalized Pauli labels, Clifford tableaux and breadth-first group closure.

A Pauli monomial on n qudits is written canonically as

    exp(i*pi*phase/d) * prod_i X_i**x_i Z_i**z_i

with x, z in Z_d**n and the phase exponent mod 2*d (conjugation images of
Pauli words only ever need 2d-th roots of unity).  A Clifford element is
stored modulo global phase as its conjugation tableau: the images of the
2n generators X_1..X_n, Z_1..Z_n as PauliLabels.  Tableaux compose and
invert symbolically, so group closures never touch matrices; the closure
itself runs as a vectorized breadth-first sweep over packed integer keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .systems import (
    DenseOperator,
    QuditSystem,
    controlled_shift,
    embed,
    fourier_gate,
    pauli_monomial,
    pauli_x,
    pauli_z,
)

MEMBERSHIP_TOL = 1e-9
DEFAULT_CLOSURE_LIMIT = 10_000_000


class ClosureLimitError(RuntimeError):
    def __init__(self, limit: int, reached: int):
        super().__init__(f"closure exceeded the element limit {limit} (reached {reached})")
        self.limit = limit
        self.reached = reached


@dataclass(frozen=True)
class PauliLabel:
    """Canonical form of a phased Pauli monomial."""

    d: int
    n: int
    phase: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.x) != self.n or len(self.z) != self.n:
            raise ValueError("exponent vectors must have length n")
        object.__setattr__(self, "phase", self.phase % (2 * self.d))
        object.__setattr__(self, "x", tuple(v % self.d for v in self.x))
        object.__setattr__(self, "z", tuple(v % self.d for v in self.z))

    @classmethod
    def identity(cls, d: int, n: int) -> "PauliLabel":
        return cls(d, n, 0, (0,) * n, (0,) * n)

    def __mul__(self, other: "PauliLabel") -> "PauliLabel":
        if (other.d, other.n) != (self.d, self.n):
            raise ValueError("label ring mismatch")
        # Z**z X**x = omega**(z*x) X**x Z**z, and omega is phase exponent 2.
        cross = sum(a * b for a, b in zip(self.z, other.x))
        return PauliLabel(
            self.d, self.n,
            self.phase + other.phase + 2 * cross,
            tuple(a + b for a, b in zip(self.x, other.x)),
            tuple(a + b for a, b in zip(self.z, other.z)),
        )

    def __pow__(self, k: int) -> "PauliLabel":
        if k < 0:
            return self.inverse() ** (-k)
        zx = sum(a * b for a, b in zip(self.z, self.x))
        return PauliLabel(
            self.d, self.n,
            k * self.phase + zx * k * (k - 1),
            tuple(k * v for v in self.x),
            tuple(k * v for v in self.z),
        )

    def inverse(self) -> "PauliLabel":
        zx = sum(a * b for a, b in zip(self.z, self.x))
        # (X^x Z^z)^-1 = Z^-z X^-x = omega^(z*x) X^-x Z^-z.
        return PauliLabel(
            self.d, self.n,
            -self.phase + 2 * zx,
            tuple(-v for v in self.x),
            tuple(-v for v in self.z),
        )

    def vector(self) -> tuple[int, ...]:
        return self.x + self.z

    def to_matrix(self) -> np.ndarray:
        return pauli_monomial(QuditSystem(self.d, self.n), self.x, self.z, self.phase).mat

    def to_operator(self) -> DenseOperator:
        return DenseOperator(self.to_matrix(), self.d, self.n)


def symplectic_product(u: tuple[int, ...], v: tuple[int, ...], d: int, n: int) -> int:
    """P(u) P(v) = omega**sp(u, v) P(v) P(u) for exponent vectors (x|z)."""
    ux, uz = u[:n], u[n:]
    vx, vz = v[:n], v[n:]
    return (sum(a * b for a, b in zip(uz, vx)) - sum(a * b for a, b in zip(vz, ux))) % d


def _symplectic_form(n: int) -> np.ndarray:
    """Integer matrix J with symplectic_product(u, v) = u^T J v (mod d)."""
    eye = np.eye(n, dtype=np.int64)
    zero = np.zeros((n, n), dtype=np.int64)
    return np.block([[zero, -eye], [eye, zero]])


def extract_pauli_monomial(mat: np.ndarray, d: int, n: int,
                           tol: float = MEMBERSHIP_TOL) -> PauliLabel | None:
    """Decompose a matrix as a phased Pauli monomial, or return None.

    The x exponents are read from the image of |0..0>, the z exponents from
    entry ratios on the unit-vector columns, and the phase is quantized to
    a 2d-th root of unity; the reassembled monomial is then checked
    entrywise against the input.
    """
    dim = d**n
    if mat.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got {mat.shape}")
    col0 = mat[:, 0]
    row0 = int(np.argmax(np.abs(col0)))
    lam = col0[row0]
    if abs(abs(lam) - 1.0) > tol:
        return None
    system = QuditSystem(d, n)
    x = system.digits(row0)
    z = []
    for q in range(n):
        col = d ** (n - 1 - q)
        row = system.index(tuple((x[i] + (1 if i == q else 0)) % d for i in range(n)))
        ratio = mat[row, col] / lam
        b = round(np.angle(ratio) * d / (2 * np.pi)) % d
        if abs(ratio - np.exp(2j * np.pi * b / d)) > tol:
            return None
        z.append(b)
    k = round(np.angle(lam) * d / np.pi) % (2 * d)
    if abs(lam - np.exp(1j * np.pi * k / d)) > tol:
        return None
    label = PauliLabel(d, n, k, tuple(x), tuple(z))
    if float(np.max(np.abs(mat - label.to_matrix()))) > tol:
        return None
    return label


@dataclass(frozen=True)
class CliffordTableau:
    """Conjugation action on the Pauli generators, modulo global phase.

    images holds the conjugation images of X_1..X_n, Z_1..Z_n in that
    order.  The symplectic condition (images commute exactly like their
    preimages) is validated at construction.
    """

    d: int
    n: int
    images: tuple[PauliLabel, ...]

    def __post_init__(self) -> None:
        if len(self.images) != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} generator images")
        for img in self.images:
            if (img.d, img.n) != (self.d, self.n):
                raise ValueError("image label ring mismatch")
        basis = _generator_vectors(self.d, self.n)
        for i in range(2 * self.n):
            for j in range(i + 1, 2 * self.n):
                want = symplectic_product(basis[i], basis[j], self.d, self.n)
                got = symplectic_product(
                    self.images[i].vector(), self.images[j].vector(), self.d, self.n
                )
                if want != got:
                    raise ValueError("images violate the symplectic condition")

    @classmethod
    def identity(cls, d: int, n: int) -> "CliffordTableau":
        images = []
        for vec in _generator_vectors(d, n):
            images.append(PauliLabel(d, n, 0, vec[:n], vec[n:]))
        return cls(d, n, tuple(images))

    def apply(self, label: PauliLabel) -> PauliLabel:
        """Image of an arbitrary Pauli label under this conjugation."""
        acc = PauliLabel.identity(self.d, self.n)
        for q in range(self.n):
            if label.x[q]:
                acc = acc * (self.images[q] ** label.x[q])
            if label.z[q]:
                acc = acc * (self.images[self.n + q] ** label.z[q])
        return PauliLabel(self.d, self.n, acc.phase + label.phase, acc.x, acc.z)

    def compose(self, first: "CliffordTableau") -> "CliffordTableau":
        """Tableau of U_self @ U_first (self applied after first)."""
        if (first.d, first.n) != (self.d, self.n):
            raise ValueError("tableau ring mismatch")
        return CliffordTableau(self.d, self.n, tuple(self.apply(img) for img in first.images))

    def symplectic_matrix(self) -> np.ndarray:
        """2n x 2n matrix over Z_d whose columns are the image vectors."""
        return np.array([img.vector() for img in self.images], dtype=np.int64).T % self.d

    def inverse(self) -> "CliffordTableau":
        # A symplectic M satisfies M^T J M = J, so M^-1 = -J M^T J (mod d).
        form = _symplectic_form(self.n)
        m_inv = (-form @ self.symplectic_matrix().T @ form) % self.d
        images = []
        for j in range(2 * self.n):
            vec = tuple(int(v) for v in m_inv[:, j])
            bare = PauliLabel(self.d, self.n, 0, vec[: self.n], vec[self.n:])
            round_trip = self.apply(bare)
            images.append(PauliLabel(self.d, self.n, -round_trip.phase,
                                     vec[: self.n], vec[self.n:]))
        return CliffordTableau(self.d, self.n, tuple(images))

    def key(self) -> tuple:
        return tuple((img.x, img.z, img.phase) for img in self.images)


def _generator_vectors(d: int, n: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(2 * n):
        vec = [0] * (2 * n)
        vec[i] = 1
        out.append(tuple(vec))
    return out


def clifford_membership(op: DenseOperator, tol: float = MEMBERSHIP_TOL) -> CliffordTableau | None:
    """Tableau of a unitary if it is Clifford, else None.

    Conjugates each Pauli generator and requires every image to be a phased
    Pauli monomial within tol.
    """
    d, n = op.d, op.n
    system = QuditSystem(d, n)
    u = op.mat
    udag = u.conj().T
    images = []
    for maker in (pauli_x, pauli_z):
        for q in range(1, n + 1):
            image = u @ maker(system, q).mat @ udag
            label = extract_pauli_monomial(image, d, n, tol)
            if label is None:
                return None
            images.append(label)
    return CliffordTableau(d, n, tuple(images))


def reference_phase_gate(d: int) -> DenseOperator:
    """Canonical diagonal gate with conjugation action X -> X Zdag, Z -> Z.

    For odd d the action is realized with phase exactly 1,
    diag(omega**(-k(k-1)/2)).  For even d no unitary realizes the phase-free
    action (the image of the cyclic shift would have the wrong Hermiticity),
    so the minimal half-power realization diag(omega**(-k**2/2)) is used,
    whose X image carries the unavoidable phase omega**(-1/2).
    """
    k = np.arange(d)
    if d % 2 == 1:
        diag = np.exp(-1j * np.pi * k * (k - 1) / d)
    else:
        diag = np.exp(-1j * np.pi * k * k / d)
    return DenseOperator(np.diag(diag), d, 1)


def reference_generators(d: int, n: int) -> list[CliffordTableau]:
    """Tableaux of the textbook generating set on n qudits, from explicit unitaries.

    The phase gate (X -> X Zdag, Z -> Z) and the Fourier gate (X -> Z,
    Z -> Xdag) on each qudit in turn, then the controlled shift on each
    adjacent pair (q, q+1).  Building them from matrices keeps every tableau
    realizable by an actual unitary; the matrices have dimension d**n, so
    the dense size bound applies.
    """
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


# ----- vectorized closure over packed tableau keys -----

def _column_space(d: int, n: int) -> int:
    return d ** (2 * n) * 2 * d


def check_key_width(d: int, n: int) -> None:
    """Raise ValueError unless packed closure keys at (d, n) fit in int64.

    A key has 2n base-col_space digits, so it fits iff col_space**(2n) <= 2**63.
    """
    if _column_space(d, n) ** (2 * n) <= 2**63:
        return
    d_max = d - 1
    while _column_space(d_max, n) ** (2 * n) > 2**63:
        d_max -= 1
    raise ValueError(f"packed closure keys overflow int64 at d = {d}, n = {n}; "
                     f"the largest supported d at n = {n} is {d_max}")


def _pack_params(d: int, n: int) -> tuple[int, int, int]:
    check_key_width(d, n)
    return d ** (2 * n), 2 * d, _column_space(d, n)


def _vector_index(vec: tuple[int, ...], d: int) -> int:
    idx = 0
    for v in reversed(vec):
        idx = idx * d + (v % d)
    return idx


def tableau_key(tab: CliffordTableau) -> int:
    vec_space, phase_space, col_space = _pack_params(tab.d, tab.n)
    key = 0
    for img in reversed(tab.images):
        code = _vector_index(img.vector(), tab.d) * phase_space + img.phase
        key = key * col_space + code
    return key


def _gen_tables(tab: CliffordTableau) -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables over all exponent vectors for composing with `tab`.

    Entry idx is the image under `tab` of the unphased Pauli label whose
    exponent vector (x|z) has the base-d digits of idx, least significant
    first: its packed vector index and its phase.  All labels are built at
    once with the arithmetic of `apply`: powers of the generator images,
    multiplied in the order X_1, Z_1, X_2, Z_2, ...  The tables hold vector
    indices below d**(2n), not packed keys, so no key-width check applies.
    """
    d, n = tab.d, tab.n
    vec_space = d ** (2 * n)
    powers = d ** np.arange(2 * n, dtype=np.int64)
    digits = (np.arange(vec_space, dtype=np.int64)[:, None] // powers) % d
    acc_vec = np.zeros((vec_space, 2 * n), dtype=np.int64)
    acc_phase = np.zeros(vec_space, dtype=np.int64)
    for q in range(n):
        for col in (q, n + q):
            img = tab.images[col]
            vec = np.array(img.vector(), dtype=np.int64)
            zx = sum(a * b for a, b in zip(img.z, img.x))
            k = digits[:, col]
            # acc * img**k, with Z**z X**x = omega**(z*x) X**x Z**z as in __mul__
            acc_phase += k * img.phase + zx * k * (k - 1) + 2 * k * (acc_vec[:, n:] @ vec[:n])
            acc_vec += k[:, None] * vec
    return (acc_vec % d) @ powers, acc_phase % (2 * d)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of an integer array; sorts `keys` in place.

    A sort plus an adjacent-difference mask: numpy >= 2.3 routes np.unique
    through a hash table, which is many times slower on millions of keys.
    Sorting in place saves a copy of the largest array a level holds.
    """
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


@dataclass
class ClosureResult:
    d: int
    n: int
    order: int
    keys: np.ndarray
    levels: int
    elapsed_ms: float
    level_sizes: tuple[int, ...] = ()  # new elements per BFS level; the last is 0

    def contains(self, tab: CliffordTableau) -> bool:
        key = tableau_key(tab)
        pos = int(np.searchsorted(self.keys, key))
        return pos < self.keys.size and int(self.keys[pos]) == key

    def symplectic_order(self) -> int:
        """Number of distinct conjugation actions modulo Pauli phase factors.

        Strips the phase entries from every element key and counts distinct
        exponent-matrix parts, i.e. the image of the closure in the
        symplectic group.
        """
        vec_space, phase_space, col_space = _pack_params(self.d, self.n)
        out = np.zeros_like(self.keys)
        shift = np.ones_like(self.keys)
        rest = self.keys.copy()
        for _ in range(2 * self.n):
            rest, code = np.divmod(rest, col_space)
            idx, _ = np.divmod(code, phase_space)
            out += idx * shift
            shift *= vec_space
        return int(_sorted_unique(out).size)


def closure(generators: list[CliffordTableau], limit: int = DEFAULT_CLOSURE_LIMIT) -> ClosureResult:
    """Breadth-first closure of a tableau set under composition.

    In a finite group the semigroup generated by a set equals the group, so
    one-sided products with the generators suffice; inverses of the
    generators are still included to shorten the frontier depth.  Elements
    are deduplicated on packed integer keys; the resulting sorted key array
    is deterministic and independent of generator order.

    Each level splits the frontier keys into their 2n column codes once;
    composing with a generator is then a table lookup per column and one
    repacking product.  Deduplication is sort-based: sorted distinct
    candidates, a binary search into the sorted visited set, and a stable
    sort that merges the two sorted runs.
    """
    if not generators:
        raise ValueError("need at least one generator")
    d, n = generators[0].d, generators[0].n
    for g in generators:
        if (g.d, g.n) != (d, n):
            raise ValueError("generators act on different systems")

    start = time.perf_counter()
    work = list(generators) + [g.inverse() for g in generators]
    tables = [_gen_tables(g) for g in work]
    _, phase_space, col_space = _pack_params(d, n)
    two_d = 2 * d
    weights = col_space ** np.arange(2 * n, dtype=np.int64)

    visited = np.array([tableau_key(CliffordTableau.identity(d, n))], dtype=np.int64)
    frontier = visited
    level_sizes = []
    while frontier.size:
        idx, phase = np.divmod((frontier[:, None] // weights) % col_space, phase_space)
        candidates = _sorted_unique(np.concatenate(
            [(vm[idx] * phase_space + (phase + pa[idx]) % two_d) @ weights for vm, pa in tables]
        ))
        pos = np.minimum(np.searchsorted(visited, candidates), visited.size - 1)
        new = candidates[visited[pos] != candidates]
        level_sizes.append(int(new.size))
        if new.size == 0:
            break
        visited = np.concatenate([visited, new])
        visited.sort(kind="stable")  # merges two sorted runs in linear time
        if visited.size > limit:
            raise ClosureLimitError(limit, visited.size)
        frontier = new
    elapsed = (time.perf_counter() - start) * 1000.0
    return ClosureResult(d, n, int(visited.size), visited, len(level_sizes), elapsed,
                         tuple(level_sizes))
