"""Generalized Pauli labels, Clifford tableaux and breadth-first group closure.

A Pauli monomial on n qudits is written canonically as

    exp(i*pi*phase/d) * prod_i X_i**x_i Z_i**z_i

with x, z in Z_d**n and the phase exponent mod 2*d (conjugation images of
Pauli words only ever need 2d-th roots of unity).  A Clifford element is
stored modulo global phase as its conjugation tableau: the images of the
2n generators X_1..X_n, Z_1..Z_n as two integer arrays, the 2n x 2n
exponent rows (x|z) mod d and the 2n phase exponents mod 2d.  PauliLabel
is the user-facing label algebra; every conjugation in the package is the
law of _times_power (label rows times a label power), step by step or, in
apply_rows, summed in closed form, so group closures never touch matrices;
the closure runs as a vectorized breadth-first sweep over packed keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .systems import DenseOperator, QuditSystem, pauli_monomial, pauli_x, pauli_z

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
        # (X^x Z^z)^k = omega^(zx k(k-1)/2) X^kx Z^kz for every integer k, negative ones too
        zx = sum(a * b for a, b in zip(self.z, self.x))
        return PauliLabel(
            self.d, self.n,
            k * self.phase + zx * k * (k - 1),
            tuple(k * v for v in self.x),
            tuple(k * v for v in self.z),
        )

    def inverse(self) -> "PauliLabel":
        # (X^x Z^z)^-1 = Z^-z X^-x = omega^(z*x) X^-x Z^-z, the power law at k = -1.
        return self ** -1

    def vector(self) -> tuple[int, ...]:
        return self.x + self.z

    def to_matrix(self) -> np.ndarray:
        return pauli_monomial(QuditSystem(self.d, self.n), self.x, self.z, self.phase).mat

    def to_operator(self) -> DenseOperator:
        return DenseOperator(self.to_matrix(), self.d, self.n)


def symplectic_product(u, v, d: int) -> np.ndarray:
    """P(u) P(v) = omega**sp(u, v) P(v) P(u) for exponent vectors (x|z), mod d.

    u and v are vectors or stacks of them (rows); two stacks give all pairs.
    """
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    n = u.shape[-1] // 2
    return (u[..., n:] @ v[..., :n].T - u[..., :n] @ v[..., n:].T) % d


def _symplectic_form(n: int) -> np.ndarray:
    """Integer matrix J = [[0, -I], [I, 0]] with symplectic_product(u, v) = u J v^T (mod d)."""
    return np.eye(2 * n, k=-n, dtype=np.int64) - np.eye(2 * n, k=n, dtype=np.int64)


def _times_power(vecs: np.ndarray, phases: np.ndarray, k: np.ndarray, vec: np.ndarray,
                 phase: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Each label row (vecs, phases) times the label (vec, phase) to its own power k >= 0.

    label**k has phase k*p + (z.x)*k*(k-1), and row * label picks up 2*(z_row . x),
    because Z**z X**x = omega**(z*x) X**x Z**z and omega is phase exponent 2.
    """
    n = vec.size // 2
    zx = int(vec[n:] @ vec[:n])
    phases = phases + k * phase + zx * k * (k - 1) + 2 * k * (vecs[:, n:] @ vec[:n])
    return (vecs + k[:, None] * vec) % d, phases % (2 * d)


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


@dataclass(frozen=True, eq=False)
class CliffordTableau:
    """Conjugation action on the Pauli generators X_1..X_n, Z_1..Z_n, modulo global phase.

    Row c of the read-only `vecs` is generator c's image exponents (x|z) mod d,
    `phases[c]` its phase exponent mod 2d.  Construction checks that the images
    commute like their preimages (V J V^T = J mod d) and have d-th power 1.
    """

    d: int
    n: int
    vecs: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        d, n = self.d, self.n
        vecs = np.asarray(self.vecs, dtype=np.int64) % d
        phases = np.asarray(self.phases, dtype=np.int64) % (2 * d)
        if vecs.shape != (2 * n, 2 * n) or phases.shape != (2 * n,):
            raise ValueError(f"expected {2 * n} generator images")
        if (symplectic_product(vecs, vecs, d) != _symplectic_form(n) % d).any():
            raise ValueError("images violate the symplectic condition")
        # the d-th power's phase d * (p + (z.x)(d - 1)) vanishes mod 2d iff p + (z.x)(d - 1) is even
        if ((phases + (vecs[:, :n] * vecs[:, n:]).sum(axis=1) * (d - 1)) % 2).any():
            raise ValueError("an image's d-th power is not the identity")
        for name, arr in (("vecs", vecs), ("phases", phases)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def identity(cls, d: int, n: int) -> "CliffordTableau":
        return cls(d, n, np.eye(2 * n, dtype=np.int64), np.zeros(2 * n, dtype=np.int64))

    @classmethod
    def from_images(cls, d: int, n: int, images: list[PauliLabel] | tuple[PauliLabel, ...]
                    ) -> "CliffordTableau":
        """Tableau whose generator images are the given PauliLabels."""
        if any((img.d, img.n) != (d, n) for img in images):
            raise ValueError("image label ring mismatch")
        return cls(d, n, [img.vector() for img in images], [img.phase for img in images])

    @property
    def images(self) -> tuple[PauliLabel, ...]:
        return tuple(PauliLabel(self.d, self.n, p, x, z) for x, z, p in self.key())

    def apply_rows(self, vecs: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Images of the labels with exponent rows `vecs` (x|z) and phase exponents `phases`:
        exp(i*pi*p/d) prod_c P_c**k_c maps to exp(i*pi*p/d) prod_c image_c**k_c, in closed form:
        _times_power's phase per image_c**k_c, and 2 k_b k_c (z_b . x_c) per earlier image b < c."""
        n, images = self.n, self.vecs
        zx = images[:, n:] @ images[:, :n].T  # [b, c]: z_b . x_c
        phases = (phases + vecs @ self.phases + (vecs * (vecs - 1)) @ zx.diagonal()
                  + 2 * ((vecs @ np.triu(zx, 1)) * vecs).sum(axis=1))
        return vecs @ images % self.d, phases % (2 * self.d)

    def apply(self, label: PauliLabel) -> PauliLabel:
        """Image of an arbitrary Pauli label under this conjugation."""
        vecs, phases = self.apply_rows(np.array([label.vector()]), np.array([label.phase]))
        row = vecs[0].tolist()
        return PauliLabel(self.d, self.n, int(phases[0]), tuple(row[:self.n]), tuple(row[self.n:]))

    def compose(self, first: "CliffordTableau") -> "CliffordTableau":
        """Tableau of U_self @ U_first (self applied after first)."""
        if (first.d, first.n) != (self.d, self.n):
            raise ValueError("tableau ring mismatch")
        return CliffordTableau(self.d, self.n, *self.apply_rows(first.vecs, first.phases))

    def inverse(self) -> "CliffordTableau":
        # V J V^T = J gives V^-1 = -J V^T J (mod d); the phases undo the round trip.
        form = _symplectic_form(self.n)
        vecs = (-form @ self.vecs.T @ form) % self.d
        _, back = self.apply_rows(vecs, np.zeros(2 * self.n, dtype=np.int64))
        return CliffordTableau(self.d, self.n, vecs, -back)

    def key(self) -> tuple:
        n = self.n
        return tuple((tuple(row[:n]), tuple(row[n:]), p)
                     for row, p in zip(self.vecs.tolist(), self.phases.tolist()))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CliffordTableau) and (self.d, self.n) == (other.d, other.n)
                and self.key() == other.key())

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.key()))


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
    return CliffordTableau.from_images(d, n, images)


# Rows (x|z) of the images of X_1.., Z_1.. under each reference gate, reduced mod d on use.
_GATE_ROWS = {"P": [[1, -1], [0, 1]], "F": [[0, 1], [-1, 0]],
              "CX": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]],
              "CZ": [[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}


def gate_tableau(name: str, d: int) -> CliffordTableau:
    """Closed-form tableau of a reference gate (Hostens, Dehaene and De Moor, PRA 2005).

    P: X -> X Zdag, Z -> Z.  F (systems.fourier_gate): X -> Z, Z -> Xdag.  CX
    (systems.controlled_shift): X_1 -> X_1 X_2, Z_2 -> Zdag_1 Z_2.  CZ
    (systems.controlled_phase): X_1 -> X_1 Z_2, X_2 -> X_2 Z_1.  Other rows are fixed with
    phase 0, except P's X image at even d: no unitary realizes P there with phase 1 (the
    shift's image would have the wrong Hermiticity), and the half-power realization
    diag(omega**(-k**2/2)) gives it omega**(-1/2), phase exponent 2d - 1.  At odd d,
    diag(omega**(-k(k-1)/2)) realizes P with phase 1.
    """
    rows = _GATE_ROWS[name]
    phases = [-1 if name == "P" and d % 2 == 0 else 0] + [0] * (len(rows) - 1)
    return CliffordTableau(d, len(rows) // 2, rows, phases)


def embed_tableau(n: int, q: int, local: CliffordTableau) -> CliffordTableau:
    """Place a k-qudit tableau on qudits q..q+k-1 (1-based) of n, identity elsewhere: the
    tableau of systems.embed's matrix."""
    k = local.n
    if not 1 <= q <= n - k + 1:
        raise IndexError(f"a {k}-qudit tableau at qudit {q} does not fit in 1..{n}")
    idx = np.r_[q - 1:q - 1 + k, n + q - 1:n + q - 1 + k]
    vecs, phases = np.eye(2 * n, dtype=np.int64), np.zeros(2 * n, dtype=np.int64)
    vecs[np.ix_(idx, idx)], phases[idx] = local.vecs, local.phases
    return CliffordTableau(local.d, n, vecs, phases)


def reference_generators(d: int, n: int) -> list[CliffordTableau]:
    """Tableaux of the textbook generating set on any n qudits, with no matrix: P and F
    (gate_tableau) on each qudit in turn, then CX on each adjacent pair (q, q+1)."""
    if d < 2 or n < 1:
        raise ValueError(f"need d >= 2 and n >= 1, got d = {d}, n = {n}")
    singles = [gate_tableau(name, d) for name in ("P", "F")]
    return ([embed_tableau(n, q, gate) for q in range(1, n + 1) for gate in singles]
            + [embed_tableau(n, q, gate_tableau("CX", d)) for q in range(1, n)])


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


def tableau_key(tab: CliffordTableau) -> int:
    _, phase_space, col_space = _pack_params(tab.d, tab.n)
    codes = (tab.vecs @ tab.d ** np.arange(2 * tab.n, dtype=np.int64)) * phase_space + tab.phases
    key = 0
    for code in reversed(codes.tolist()):
        key = key * col_space + code
    return key


def _gen_tables(tab: CliffordTableau) -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables over all exponent vectors for composing with `tab`.

    Entry idx is the image under `tab` of the unphased Pauli label whose
    exponent vector (x|z) has the base-d digits of idx, least significant
    first: its packed vector index and its phase, all d**(2n) labels in one
    apply_rows.  The tables hold vector indices below d**(2n), not packed
    keys, so no key-width check applies.
    """
    d, n = tab.d, tab.n
    powers = d ** np.arange(2 * n, dtype=np.int64)
    digits = (np.arange(d ** (2 * n), dtype=np.int64)[:, None] // powers) % d
    vecs, phases = tab.apply_rows(digits, np.zeros(d ** (2 * n), dtype=np.int64))
    return vecs @ powers, phases


def _inverse_tables(vec_map: np.ndarray, phase_add: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """_gen_tables of a tableau's inverse, from the tableau's own tables.

    If T sends label v to phase p times label vec_map[v], its inverse sends
    vec_map[v] back to phase -p times v; vec_map is a permutation.
    """
    phases = np.empty_like(phase_add)
    phases[vec_map] = -phase_add % (2 * d)
    return np.argsort(vec_map), phases


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


def _products(tables: list[list[np.ndarray]], frontier: np.ndarray, col_space: int) -> np.ndarray:
    """Packed keys of every working generator times every frontier element, one block
    per generator."""
    columns, rest = [], frontier
    for _ in tables[0]:
        rest, code = np.divmod(rest, col_space)
        columns.append(code)
    size = frontier.size
    out = np.empty(len(tables) * size, dtype=np.int64)
    term = np.empty(size, dtype=np.int64)
    for k, (first, *others) in enumerate(tables):
        block = out[k * size:(k + 1) * size]
        first.take(columns[0], out=block)
        for table, column in zip(others, columns[1:]):
            block += table.take(column, out=term)
    return out


def _new_elements(candidates: np.ndarray, previous: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Sorted distinct candidates found in neither of two sorted levels."""
    known = np.concatenate([previous, current])
    pos = np.minimum(candidates.searchsorted(known), candidates.size - 1)
    fresh = np.ones(candidates.size, dtype=bool)
    fresh[pos[candidates[pos] == known]] = False
    return candidates[fresh]


@dataclass
class ClosureResult:
    d: int
    n: int
    order: int
    keys: np.ndarray
    levels: int
    elapsed_ms: float
    level_sizes: tuple[int, ...] = ()  # new elements per BFS level; the last is 0
    candidate_sizes: tuple[int, ...] = ()  # distinct candidates per BFS level

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
    one-sided products with the generators suffice.  The inverses of the
    generators are added to the working set all the same: with them the
    Cayley graph is undirected, so a neighbour of a level-k element lies in
    level k - 1, k or k + 1, and the new elements of a level are its sorted
    distinct candidates minus those found in the previous and current
    levels.  No visited set is kept; the sorted key array, one sort of all
    levels at the end, is deterministic and independent of generator order.

    A composition maps each of a key's 2n column codes on its own, so each
    generator has one table per column over all column codes, holding the
    image code already times that column's weight: a level splits the
    frontier into its 2n column codes once, and a candidate key is then 2n
    lookups and 2n - 1 additions.  A sum of weighted codes is a packed key,
    which check_key_width bounds.
    """
    if not generators:
        raise ValueError("need at least one generator")
    d, n = generators[0].d, generators[0].n
    for g in generators:
        if (g.d, g.n) != (d, n):
            raise ValueError("generators act on different systems")

    start = time.perf_counter()
    work = [_gen_tables(g) for g in generators]
    work += [_inverse_tables(vec_map, phase_add, d) for vec_map, phase_add in work]
    _, phase_space, col_space = _pack_params(d, n)
    idx, phase = np.divmod(np.arange(col_space, dtype=np.int64), phase_space)
    tables = []
    for vec_map, phase_add in work:
        image = vec_map[idx] * phase_space + (phase + phase_add[idx]) % (2 * d)
        tables.append([image * col_space**c for c in range(2 * n)])

    previous = np.zeros(0, dtype=np.int64)
    frontier = np.array([tableau_key(CliffordTableau.identity(d, n))], dtype=np.int64)
    levels = [frontier]
    total = 1
    level_sizes, candidate_sizes = [], []
    # the helpers drop their scratch on return, so a level's temporaries are
    # freed before the next level's products are built
    while True:
        candidates = _sorted_unique(_products(tables, frontier, col_space))
        new = _new_elements(candidates, previous, frontier)
        candidate_sizes.append(int(candidates.size))
        level_sizes.append(int(new.size))
        if new.size == 0:
            break
        total += new.size
        if total > limit:
            raise ClosureLimitError(limit, total)
        levels.append(new)
        previous, frontier = frontier, new
    keys = np.concatenate(levels)
    keys.sort()
    elapsed = (time.perf_counter() - start) * 1000.0
    return ClosureResult(d, n, total, keys, len(level_sizes), elapsed,
                         tuple(level_sizes), tuple(candidate_sizes))
