"""Random-restart least-squares discovery of braid coefficient solutions.

The unknowns are the d complex ansatz coefficients, treated as 2d real
parameters.  The objective stacks the real and imaginary parts of every
unitarity component (d of them) and every Yang-Baxter component (d**2),
and each restart runs a Levenberg-Marquardt descent from a random start
drawn uniformly from the complex disk of radius sqrt(d) per coordinate
(solutions satisfy sum |c_m|**2 = d, so that scale brackets them).  In the
real parameters u = (Re c, Im c) the unitarity components are quadratic and
the Yang-Baxter components cubic, so the objective is
f(u) = b + A2 (u x u) + A3 (u x u x u) and its Jacobian
J(u) = B2 u + B3 (u x u).  The coefficient tensors, packed over distinct
monomials of u, are derived from the complex constraint definitions once
per d, on first use (see _tables).  Each solve binds the residual and
Jacobian once, as closures over those tables with their own scratch (see
_kernels), and an evaluation is one gather of monomials and one gemv.

Each restart is one Levenberg-Marquardt descent, MINPACK's lmder (More
1978) called as scipy.optimize.least_squares(method="lm") calls it; see
least_squares.  Its `status` is lmder's exit code mapped to the numbering
of scipy.optimize.least_squares: 0 the evaluation budget ran out, 1 the
gradient test held, 2 the residual test, 3 the step test, 4 both of the
last two, -1 improper input.  The first descent loads MINPACK's extension
module from scipy/optimize/ on its own, without importing scipy.optimize.

After all descents, the end points are re-checked in one pass through the
stacked residual definitions in `constraints` (a separate code path from
the solver objective).  Those within tol are gauge fixed, in start order,
and greedily clustered in max-norm: each point joins the first cluster, in
creation order, whose representative lies within the cluster radius, with
all distances to the representatives taken in one array operation.  One
manifold_dimension call then gives every representative its local
solution-manifold dimension, probing the Jacobian's null directions with
one stacked anchored Gauss-Newton descent over all probes and checking
all probe end points in one stacked pass.  Starts are drawn up front and
processed in order, and cluster identity is first-come, so at d = 2 and 3
a fixed seed gives the same clusters, and at every d the same quantised
report bytes.  At d = 4 the solutions form a continuum and
MINPACK's iterates can depend on the process's heap layout, so the number
of point clusters at one seed can differ between processes.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import NamedTuple, Sequence

import numpy as np

from .constraints import (
    CoefficientVector,
    _residual_tables,
    gauge_fix,
    trivial_vector,
    unitarity_residuals,
    yang_baxter_residuals,
)

DEFAULT_RESTARTS = 2000
DEFAULT_TOL = 1e-9
DEFAULT_CLUSTER_RADIUS = 1e-6
DEFAULT_SEED = 20240917
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class SolverConfig:
    d: int
    restarts: int = DEFAULT_RESTARTS
    tol: float = DEFAULT_TOL
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not 2 <= self.d <= 6:
            raise ValueError(f"solver supports d in 2..6, got {self.d}")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if not (math.isfinite(self.cluster_radius) and 0.0 < self.tol < self.cluster_radius):
            raise ValueError("residual tolerance must be positive and below a finite "
                             f"cluster radius, got tol={self.tol}, "
                             f"cluster_radius={self.cluster_radius}")


def _split(c: np.ndarray) -> np.ndarray:
    return np.concatenate([c.real, c.imag], axis=-1)


def _join(u: np.ndarray) -> np.ndarray:
    d = u.shape[-1] // 2
    return u[..., :d] + 1j * u[..., d:]


class _Tables(NamedTuple):
    """Both constraint polynomials for one d, as coefficients over monomials of u.

    With v = (u, 1), a kernel's monomial i is the product of v over column i
    of its gather table (index 2d is the constant 1).  Monomials are packed,
    one per multiset of variables, in itertools.combinations_with_replacement
    order; n2 and n3 count those of degree 2 and 3.
    """

    res_gather: np.ndarray  # [3, n2 + 1 + n3]: u_p u_q (p <= q), 1, u_p u_q u_s (p <= q <= s)
    res_coef: np.ndarray    # [2 (d + d**2), n2 + 1 + n3]: residual rows
    jac_gather: np.ndarray  # [2, 2d + n2]: u_p, then u_p u_q (p <= q)
    jac_coef: np.ndarray    # [2 (d + d**2) * 2d, 2d + n2]: Jacobian rows, row-major


def _packed(form: np.ndarray, monomials: list[tuple[int, ...]]) -> np.ndarray:
    """Coefficient of each monomial in a multilinear form evaluated at (u, .., u).

    The last axes of `form` are its slots; a monomial collects the entries
    of every distinct ordering of its variables over those slots.
    """
    return np.stack([sum(form[(..., *order)] for order in sorted(set(permutations(mono))))
                     for mono in monomials], axis=-1)


@lru_cache(maxsize=None)
def _tables(d: int) -> _Tables:
    n = 2 * d
    plus, diff, wmat = _residual_tables(d)  # (j + r), (a - b) mod d and omega**(m r)
    e = np.hstack([np.eye(d), 1j * np.eye(d)])        # c = e @ u, as c = a + i b
    # the complex components as multilinear forms in u, one slot per factor:
    # unitarity sum_j c_j conj(c_{j+r}); Yang-Baxter S[k, m] c_m - S[m, k] c_k
    # with S[k, m] = sum_r c_r c_{k-r} omega**(m r)
    unit = np.einsum("jp,rjq->rpq", e, e.conj()[plus])
    yb = (np.einsum("mr,rp,krq,ms->kmpqs", wmat, e, e[diff], e)
          - np.einsum("kr,rp,mrq,ks->kmpqs", wmat, e, e[diff], e)).reshape(d * d, n, n, n)

    pairs = list(combinations_with_replacement(range(n), 2))
    triples = list(combinations_with_replacement(range(n), 3))
    res_monos = pairs + [()] + triples
    cplx = np.zeros((d + d * d, len(res_monos)), dtype=complex)
    cplx[:d, :len(pairs)] = _packed(unit, pairs)
    cplx[0, len(pairs)] = -d
    cplx[d:, len(pairs) + 1:] = _packed(yb, triples)
    res_coef = np.vstack([cplx.real, cplx.imag])

    # d/du_t of a monomial: once for each of its factors equal to u_t
    jac_monos = [(p,) for p in range(n)] + pairs
    column = {mono: i for i, mono in enumerate(jac_monos)}
    jac_coef = np.zeros((res_coef.shape[0], n, len(jac_monos)))
    for col, mono in enumerate(res_monos):
        for i, var in enumerate(mono):
            jac_coef[:, var, column[mono[:i] + mono[i + 1:]]] += res_coef[:, col]

    def gather(monos: list[tuple[int, ...]], degree: int) -> np.ndarray:
        return np.array([mono + (n,) * (degree - len(mono)) for mono in monos]).T

    tables = _Tables(
        res_gather=gather(res_monos, 3),
        res_coef=res_coef,
        jac_gather=gather(jac_monos, 2),
        jac_coef=jac_coef.reshape(-1, len(jac_monos)),
    )
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _kernels(d: int):
    """Residual and Jacobian for one d, closures over its tables with their own scratch v = (u, 1)."""
    t = _tables(d)
    n = 2 * d
    v = np.ones(n + 1)
    r0, r1, r2 = (np.ascontiguousarray(row) for row in t.res_gather)
    j0, j1 = (np.ascontiguousarray(row) for row in t.jac_gather)
    res_coef, jac_coef = t.res_coef, t.jac_coef

    def residual(u: np.ndarray) -> np.ndarray:
        v[:n] = u
        return np.dot(res_coef, v[r0] * v[r1] * v[r2])

    def jacobian(u: np.ndarray) -> np.ndarray:
        v[:n] = u
        return np.dot(jac_coef, v[j0] * v[j1]).reshape(-1, n)

    return residual, jacobian


def residual_stack(u: np.ndarray, d: int) -> np.ndarray:
    """Real residual vector of both constraint families at real parameters u.

    Rows are the d unitarity components then the d**2 Yang-Baxter
    components (k, m) in row-major order, real parts above imaginary parts.
    """
    return _kernels(d)[0](u)


def residual_jacobian(u: np.ndarray, d: int) -> np.ndarray:
    """Analytic Jacobian of residual_stack with respect to (Re c, Im c)."""
    return _kernels(d)[1](u)


def combined_residuals(c: np.ndarray) -> np.ndarray:
    """Max of both constraint residuals through the reference definitions, per row of c."""
    return np.maximum(unitarity_residuals(c), yang_baxter_residuals(c))


class LeastSquaresFit(NamedTuple):
    x: np.ndarray
    nfev: int
    status: int


# lmder's exit code -> status as numbered by scipy.optimize.least_squares;
# codes 6-8 (a tolerance below machine precision) have no status
_LMDER_STATUS = {0: -1, 1: 2, 2: 3, 3: 4, 4: 1, 5: 0}


_MINPACK = "scipy.optimize._minpack"


def _minpack():
    """scipy's MINPACK extension module, loaded without the rest of scipy.optimize.

    The descents need only its _lmder; importing the scipy.optimize package
    to reach it takes about 0.4 s and 48 MB.  The extension is loaded from
    scipy/optimize/ and registered under its own name, so a later import of
    scipy.optimize uses the same module object.
    """
    module = sys.modules.get(_MINPACK)
    if module is not None:
        return module
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize")
    finder = importlib.machinery.FileFinder(
        folder, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_MINPACK)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no MINPACK extension in {folder}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_MINPACK] = module
    return module


def least_squares(fun, x0: np.ndarray, jac, args: tuple = (),
                  max_nfev: int = MAX_ITERATIONS) -> LeastSquaresFit:
    """One MINPACK lmder descent on the residual `fun` with Jacobian `jac`.

    The tolerances are fixed at 1e-15, so a descent normally stops on the
    step or residual test; status is explained in the module docstring.
    MINPACK's extension is loaded on the first descent (see _minpack).
    """
    # the call scipy.optimize.least_squares(method="lm") makes; lmder writes
    # its iterates into the array it is given, so it gets a copy of x0
    x, info, code = _minpack()._lmder(fun, jac, np.array(x0, dtype=float), args, 1, 0,
                                      1e-15, 1e-15, 1e-15, max_nfev, 100.0, None)
    if code not in _LMDER_STATUS:
        raise RuntimeError(f"lmder exit code {code} (a tolerance below machine precision)")
    return LeastSquaresFit(x, int(info["nfev"]), _LMDER_STATUS[code])


PROBE_STEP = 1e-3
ANCHOR_WEIGHT = 1e-8
ANCHOR_MAX_STEPS = 200
ANCHOR_STEP_TOL = 1e-10


def _stacked_residual_jacobian(ys: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Residual rows [P, R] and Jacobians [P, R, 2d] at each row of ys, from the same
    gathers and coefficient tables as the one-point kernels."""
    t = _tables(d)
    v = np.concatenate([ys, np.ones((len(ys), 1))], axis=1)
    r0, r1, r2 = t.res_gather
    j0, j1 = t.jac_gather
    # each monomial stack is multiplied in place, in the kernels' factor order
    mono = v[:, r0]
    mono *= v[:, r1]
    mono *= v[:, r2]
    f = mono @ t.res_coef.T
    mono = v[:, j0]
    mono *= v[:, j1]
    jac = (mono @ t.jac_coef.T).reshape(len(ys), -1, 2 * d)
    return f, jac


def _anchored_descent(targets: np.ndarray, d: int) -> np.ndarray:
    """Minimisers of |f(y)|**2 + ANCHOR_WEIGHT |y - t|**2, one per row t of targets.

    The anchor gives a unique nondegenerate minimum near the target even
    where the solution set is flat, so the iteration cannot slide along a
    solution valley the way an unanchored descent does.  All rows descend
    together by Gauss-Newton, each step solving the batched normal equations
    (J^T J + eps I) s = J^T f + eps (y - t); a row whose step is below
    ANCHOR_STEP_TOL in max-norm leaves the batch, and no row takes more than
    ANCHOR_MAX_STEPS steps.
    """
    ys = np.array(targets, dtype=float)
    damping = ANCHOR_WEIGHT * np.eye(2 * d)
    active = np.arange(len(ys))
    for _ in range(ANCHOR_MAX_STEPS):
        if not active.size:
            break
        y = ys[active]
        f, jac = _stacked_residual_jacobian(y, d)
        jac_t = jac.transpose(0, 2, 1)
        rhs = jac_t @ f[..., None] + ANCHOR_WEIGHT * (y - targets[active])[..., None]
        step = np.linalg.solve(jac_t @ jac + damping, rhs)[..., 0]
        ys[active] = y - step
        active = active[np.max(np.abs(step), axis=1) > ANCHOR_STEP_TOL]
        # the [P, R, 2d] Jacobians go before the next step builds its own
        del f, jac, jac_t, rhs
    return ys


def manifold_dimension(vecs: Sequence[CoefficientVector], tol: float = DEFAULT_TOL) -> list[int]:
    """Local solution-manifold dimension at each of a list of solutions of one d.

    The candidate null space is read off the Jacobian (singular values
    below sqrt(tol)), less the global-phase direction, null at every
    solution.  Each candidate direction is then probed to second order:
    step PROBE_STEP along it both ways, project back with an anchored
    descent, and keep the displacement if the end point is a solution to
    tol.  The dimension is the rank of the kept displacements, so the
    spurious rank drops at isolated degenerate points of the constraint
    variety (the d = 4 family has four) do not count.  The Jacobians of all
    inputs are decomposed in one batched reduced SVD (no U is kept), the
    probes of all of them descend as one stack, each step's Jacobians freed
    before the next, and their end points are checked in one pass.
    Raises if some input does not satisfy the constraints to tol.
    """
    if not vecs:
        return []
    d = vecs[0].d
    cs = np.array([vec.c for vec in vecs])
    if np.any(combined_residuals(cs) > tol):
        raise ValueError("manifold dimension is only defined at a solution")
    us = _split(cs)
    singulars, v_rows = np.linalg.svd(_stacked_residual_jacobian(us, d)[1], full_matrices=False)[1:]
    null_masks = singulars < math.sqrt(tol)
    nulls = np.sum(null_masks, axis=1)
    phase_dirs = np.concatenate([-cs.imag, cs.real], axis=1)
    phase_dirs /= np.linalg.norm(phase_dirs, axis=1, keepdims=True)  # sum |c_m|**2 = d
    # an orthonormal null basis less the phase direction, one QR for all
    # inputs with the same null count; probes as (input, direction)
    owners, dirs = [], []
    for m in sorted(set(nulls[nulls > 1].tolist())):
        ks = np.flatnonzero(nulls == m)
        basis = v_rows[ks][null_masks[ks]].reshape(len(ks), m, 2 * d)
        basis = basis - (basis @ phase_dirs[ks, :, None]) * phase_dirs[ks, None, :]
        q, r = np.linalg.qr(basis.transpose(0, 2, 1))
        rows, cols = np.nonzero(np.abs(np.diagonal(r, axis1=1, axis2=2)) > 1e-8)
        owners.append(ks[rows])
        dirs.append(q[rows, :, cols])
    if not owners:
        return [0] * len(vecs)
    owners = np.concatenate(owners * 2)
    steps = PROBE_STEP * np.concatenate(dirs)
    ends = _anchored_descent(us[owners] + np.concatenate([steps, -steps]), d)

    deltas = (ends - us[owners]) / PROBE_STEP
    deltas -= np.sum(deltas * phase_dirs[owners], axis=1, keepdims=True) * phase_dirs[owners]
    kept = (combined_residuals(_join(ends)) <= tol) & (np.linalg.norm(deltas, axis=1) >= 0.5)
    # the rank of each input's kept displacements, one SVD for all inputs
    # that kept the same number
    order = np.argsort(owners[kept], kind="stable")
    kept_owners, kept_deltas = owners[kept][order], deltas[kept][order]
    counts = np.bincount(kept_owners, minlength=len(vecs))
    dims = np.zeros(len(vecs), dtype=int)
    for m in sorted(set(counts[counts > 0].tolist())):
        stack = kept_deltas[counts[kept_owners] == m].reshape(-1, m, 2 * d)
        dims[counts == m] = np.sum(np.linalg.svd(stack, compute_uv=False) >= 0.5, axis=1)
    return dims.tolist()


@dataclass
class SolutionCluster:
    representative: CoefficientVector
    count: int
    max_internal_distance: float
    manifold_dim: int = 0
    trivial: bool = False

    def to_json(self) -> dict:
        return {
            "c": self.representative.to_json(),
            "count": self.count,
            "manifold_dim": self.manifold_dim,
            "trivial": self.trivial,
        }


@dataclass
class SolverResult:
    d: int
    seed: int
    restarts: int
    clusters: list[SolutionCluster] = field(default_factory=list)
    converged: int = 0
    discarded: int = 0
    nfev: int = 0  # residual evaluations over all restarts
    lm_status: dict[int, int] = field(default_factory=dict)  # descent status -> restarts

    @property
    def nontrivial_clusters(self) -> list[SolutionCluster]:
        return [c for c in self.clusters if not c.trivial]

    @property
    def trivial_clusters(self) -> list[SolutionCluster]:
        return [c for c in self.clusters if c.trivial]

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "seed": self.seed,
            "restarts": self.restarts,
            "clusters": [c.to_json() for c in self.clusters],
            "nfev": self.nfev,
            "lm_status": {str(k): v for k, v in sorted(self.lm_status.items())},
        }


def _random_starts(config: SolverConfig) -> np.ndarray:
    rng = np.random.default_rng(config.seed)
    radius = np.sqrt(rng.uniform(0.0, 1.0, size=(config.restarts, config.d)))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(config.restarts, config.d))
    return math.sqrt(config.d) * radius * np.exp(1j * angle)


def solve_all(config: SolverConfig) -> SolverResult:
    """Find constraint solutions from random restarts and cluster them."""
    d = config.d
    result = SolverResult(d, config.seed, config.restarts)
    residual, jacobian = _kernels(d)
    ends = np.empty((config.restarts, 2 * d))
    for i, start in enumerate(_random_starts(config)):
        fit = least_squares(residual, _split(start), jacobian)
        result.nfev += fit.nfev
        result.lm_status[fit.status] = result.lm_status.get(fit.status, 0) + 1
        ends[i] = fit.x
    ends = _join(ends)
    accepted = [gauge_fix(CoefficientVector(d, c))[0]
                for c in ends[combined_residuals(ends) <= config.tol]]
    result.converged = len(accepted)
    result.discarded = config.restarts - len(accepted)

    # representatives in creation order; a vector joins the first cluster
    # within the radius, with distances as in CoefficientVector.distance
    reps = np.empty((len(accepted), d), dtype=complex)
    for vec in accepted:
        n = len(result.clusters)
        dists = np.max(np.abs(vec.c - reps[:n]), axis=1)
        hits = np.flatnonzero(dists <= config.cluster_radius)
        if hits.size:
            first = hits[0]
            cluster = result.clusters[first]
            cluster.count += 1
            cluster.max_internal_distance = max(cluster.max_internal_distance,
                                                float(dists[first]))
        else:
            reps[n] = vec.c
            result.clusters.append(SolutionCluster(vec, 1, 0.0))

    trivial = trivial_vector(d)
    dims = manifold_dimension([cluster.representative for cluster in result.clusters], config.tol)
    for cluster, dim in zip(result.clusters, dims):
        cluster.trivial = cluster.representative.distance(trivial) <= config.cluster_radius
        cluster.manifold_dim = dim
    return result
