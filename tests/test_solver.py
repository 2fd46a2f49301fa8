import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import manifold_dimension_loop, residual_jacobian_loops, residual_stack_loops
from parabraid import solver
from parabraid.constraints import (
    CoefficientVector,
    FZCParams,
    d3_solution_table,
    d4_family,
    d4_family_distance,
    fzc_coefficients,
    gauge_fix,
    trivial_vector,
    unitarity_residual,
    yang_baxter_residual,
)
from parabraid.solver import (
    MAX_ITERATIONS,
    SolverConfig,
    _anchored_descent,
    _join,
    _random_starts,
    _split,
    combined_residuals,
    least_squares,
    manifold_dimension,
    residual_jacobian,
    residual_stack,
    solve_all,
)


def _real(vec):
    return np.concatenate([vec.c.real, vec.c.imag])


@pytest.mark.parametrize("d", range(2, 7))
def test_residual_stack_matches_reference_definitions(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        c = rng.normal(size=d) + 1j * rng.normal(size=d)
        vec = CoefficientVector(d, c)
        stack = residual_stack(_real(vec), d)
        n = d + d * d
        cplx = stack[:n] + 1j * stack[n:]
        assert abs(np.max(np.abs(cplx[:d])) - unitarity_residual(vec)) < 1e-12
        assert abs(np.max(np.abs(cplx[d:])) - yang_baxter_residual(vec)) < 1e-12


def _oracle_points(d, rng):
    points = [rng.normal(size=2 * d) for _ in range(20)]
    points += [_real(fzc_coefficients(FZCParams(d, r, sign)))
               for r in range(d) for sign in (+1, -1)]
    if d == 4:
        points += [_real(d4_family(1.3, sign)) for sign in (+1, -1)]
    return points


@pytest.mark.parametrize("d", range(2, 7))
def test_residual_stack_matches_loops_componentwise(d):
    # every row against the constraint definitions, so a permuted or
    # sign-flipped component fails where a max-norm comparison would not
    for u in _oracle_points(d, np.random.default_rng(7 + d)):
        assert np.max(np.abs(residual_stack(u, d) - residual_stack_loops(u, d))) < 1e-12


@pytest.mark.parametrize("d", range(2, 7))
def test_jacobian_against_finite_differences(d):
    rng = np.random.default_rng(42 + d)
    u = rng.normal(size=2 * d)
    jac = residual_jacobian(u, d)
    eps = 1e-7
    for j in range(2 * d):
        e = np.zeros(2 * d)
        e[j] = eps
        column = (residual_stack(u + e, d) - residual_stack(u - e, d)) / (2 * eps)
        assert np.max(np.abs(jac[:, j] - column)) < 1e-6

    # the coefficient tensors against the entry-by-entry loops, at random
    # points and at known solutions; only the summation order differs
    for u in _oracle_points(d, rng):
        assert np.max(np.abs(residual_jacobian(u, d) - residual_jacobian_loops(u, d))) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_least_squares_matches_scipy_lm(d):
    # the same lmder descent as scipy's least_squares(method="lm"), bit for
    # bit; at d = 4 lmder's iterates depend on heap layout, so not there
    from scipy.optimize import least_squares as scipy_least_squares

    for start in _random_starts(SolverConfig(d, 40, seed=3)):
        u = _split(start)
        fit = least_squares(residual_stack, u, residual_jacobian, (d,))
        ref = scipy_least_squares(residual_stack, u, jac=residual_jacobian, args=(d,),
                                  method="lm", max_nfev=MAX_ITERATIONS,
                                  xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert np.array_equal(fit.x, ref.x)
        assert (fit.nfev, fit.status) == (ref.nfev, ref.status)


def test_least_squares_raises_on_lmder_codes_without_a_status(monkeypatch):
    # lmder's codes 6-8 (a tolerance below machine precision) must not be
    # counted under another status
    from scipy.optimize import _minpack

    monkeypatch.setattr(_minpack, "_lmder", lambda *args: (np.zeros(4), {"nfev": 3}, 7))
    with pytest.raises(RuntimeError, match="exit code 7"):
        least_squares(residual_stack, np.zeros(4), residual_jacobian, (2,))


def test_least_squares_and_anchored_descent_leave_their_start_alone():
    # lmder writes its iterates into the array it is given; the start must
    # survive, and the anchored objective reads its targets on every step
    d = 3
    x0 = _split(_random_starts(SolverConfig(d, 1, seed=5))[0])
    saved = x0.copy()
    fit = least_squares(residual_stack, x0, residual_jacobian, (d,))
    assert np.array_equal(x0, saved)
    assert fit.x is not x0 and not np.array_equal(fit.x, x0)

    u = _split(fzc_coefficients(FZCParams(d, 1, +1)).c)
    targets = np.array([u + 1e-3, u - 1e-3])
    saved = targets.copy()
    assert np.all(combined_residuals(_join(_anchored_descent(targets, d))) <= 1e-9)
    assert np.array_equal(targets, saved)


def test_solve_all_discards_rows_that_fail_the_residual_check(monkeypatch):
    # every third descent is replaced by its start, which is not a solution:
    # the batched acceptance must keep exactly the rows whose reference
    # residual is within tol, gauge fixed and clustered in start order
    d, tol = 3, 1e-9
    ends = []
    probing = []

    def every_third_unconverged(fun, x0, jac, args=(), max_nfev=MAX_ITERATIONS):
        fit = least_squares(fun, x0, jac, args, max_nfev)
        if len(ends) % 3 == 2:
            fit = fit._replace(x=x0.copy())
        ends.append(fit.x)
        return fit

    def flagged_manifold_dimension(vecs, tol):
        probing.append(True)
        return manifold_dimension(vecs, tol)

    monkeypatch.setattr(solver, "least_squares", every_third_unconverged)
    monkeypatch.setattr(solver, "manifold_dimension", flagged_manifold_dimension)
    result = solve_all(SolverConfig(d, restarts=60, seed=8, tol=tol))
    vecs = [CoefficientVector(d, u[:d] + 1j * u[d:]) for u in ends]
    within = [max(unitarity_residual(vec), yang_baxter_residual(vec)) <= tol for vec in vecs]
    assert np.array_equal(combined_residuals(np.array([vec.c for vec in vecs])) <= tol, within)
    accepted = [gauge_fix(vec)[0] for vec, ok in zip(vecs, within) if ok]
    assert 20 <= result.discarded == len(vecs) - len(accepted)
    assert result.converged == len(accepted) == sum(c.count for c in result.clusters)
    assert np.array_equal(result.clusters[0].representative.c, accepted[0].c)
    for cluster in result.clusters:
        assert any(np.array_equal(cluster.representative.c, vec.c) for vec in accepted)
    assert len(ends) == 60 and probing == [True]


@pytest.mark.parametrize("d, nfev, counts", [
    (2, 4215, [79, 92, 29]),
    (3, 4878, [21, 32, 41, 17, 34, 34, 21]),
])
def test_descents_pinned(d, nfev, counts):
    # the total lmder evaluations, exit statuses and cluster counts of a
    # fixed seed: any change to the descents or their driver shows here
    result = solve_all(SolverConfig(d, restarts=200, seed=12345))
    assert result.nfev == nfev
    assert result.lm_status == {3: 200}
    assert [c.count for c in result.clusters] == counts
    assert (result.converged, result.discarded) == (200, 0)


def test_manifold_dimension_known_points():
    assert manifold_dimension([CoefficientVector(2, [1, 1j])]) == [0]
    assert manifold_dimension([fzc_coefficients(FZCParams(3, 0, +1))]) == [0]
    assert manifold_dimension([trivial_vector(3)]) == [0]
    assert manifold_dimension([d4_family(0.0, +1)]) == [1]
    assert manifold_dimension([d4_family(1.3, -1)]) == [1]


def test_manifold_dimension_at_degenerate_family_points():
    # the four rank-drop points of the d = 4 family are still locally 1-dim
    assert manifold_dimension([d4_family(np.pi / 2, +1)]) == [1]
    assert manifold_dimension([d4_family(0.0, -1)]) == [1]


def test_manifold_dimension_rejects_non_solutions():
    with pytest.raises(ValueError):
        manifold_dimension([CoefficientVector(3, [1, 1, 1])])
    with pytest.raises(ValueError):
        manifold_dimension([trivial_vector(3), CoefficientVector(3, [1, 1, 1])])
    with pytest.raises(ValueError):  # vectors of two dimensions do not stack
        manifold_dimension([trivial_vector(3), trivial_vector(4)])


def test_manifold_dimension_discards_probes_off_the_solution_set(monkeypatch):
    # a probe whose descent ends off the solution set counts for nothing:
    # with the stacked descent stopped at its starts, no direction survives
    monkeypatch.setattr(solver, "_anchored_descent", lambda targets, d: targets.copy())
    assert manifold_dimension([d4_family(1.3, +1), d4_family(0.0, -1)]) == [0, 0]


def test_manifold_dimension_of_no_vectors_is_empty():
    # every restart discarded leaves no cluster to probe
    assert manifold_dimension([]) == []


@pytest.mark.parametrize("d", [2, 3, 4])
def test_manifold_dimension_matches_loop_on_clusters(d):
    # one batched call over all representatives gives each the dimension
    # the one-vector-at-a-time probes give it
    for seed in (1, 2, 3):
        result = solve_all(SolverConfig(d, restarts=40, seed=seed))
        reps = [cluster.representative for cluster in result.clusters]
        assert reps
        expected = [manifold_dimension_loop(vec) for vec in reps]
        assert [cluster.manifold_dim for cluster in result.clusters] == expected
        assert manifold_dimension(reps) == expected


def test_manifold_dimension_matches_lmder_oracle_on_a_d4_cluster_set():
    # the stacked Gauss-Newton probes against the per-probe lmder descents
    # of the oracle, on every cluster of one 200-restart d = 4 solve
    result = solve_all(SolverConfig(4, restarts=200, seed=12345))
    reps = [cluster.representative for cluster in result.clusters]
    assert len(reps) > 50
    expected = [manifold_dimension_loop(vec) for vec in reps]
    assert manifold_dimension(reps) == expected
    assert [cluster.manifold_dim for cluster in result.clusters] == expected


def test_manifold_dimension_matches_loop_on_family_points():
    # regular and degenerate d = 4 family points with the trivial vector,
    # in one call
    vecs = [d4_family(theta, sign) for theta in (0.0, 1.3, np.pi / 2, np.pi) for sign in (+1, -1)]
    vecs.append(trivial_vector(4))
    expected = [manifold_dimension_loop(vec) for vec in vecs]
    assert expected == [1] * 8 + [0]
    assert manifold_dimension(vecs) == expected


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(7)
    with pytest.raises(ValueError):
        SolverConfig(3, restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(3, tol=1e-3, cluster_radius=1e-6)
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            SolverConfig(3, restarts=5, seed=1, tol=tol)


def test_solve_d2_finds_both_solutions():
    result = solve_all(SolverConfig(2, restarts=400, seed=3))
    nontrivial = result.nontrivial_clusters
    assert len(nontrivial) == 2
    targets = [CoefficientVector(2, [1, 1j]), CoefficientVector(2, [1, -1j])]
    for cluster in nontrivial:
        assert min(cluster.representative.distance(t) for t in targets) < 1e-6
        assert cluster.manifold_dim == 0
    assert len(result.trivial_clusters) == 1
    assert result.trivial_clusters[0].manifold_dim == 0


def test_solve_d3_matches_solution_table():
    result = solve_all(SolverConfig(3, restarts=800, seed=3))
    nontrivial = result.nontrivial_clusters
    assert len(nontrivial) == 6
    table = d3_solution_table()
    for cluster in nontrivial:
        assert min(cluster.representative.distance(t) for t in table) < 1e-6


def test_solve_d4_family_membership_and_dimension():
    result = solve_all(SolverConfig(4, restarts=300, seed=3))
    nontrivial = result.nontrivial_clusters
    assert nontrivial, "expected converged clusters"
    for cluster in nontrivial:
        assert d4_family_distance(cluster.representative) < 1e-6
        assert cluster.manifold_dim == 1


def test_solve_d5_soundness_only():
    # no closed-form count is asserted beyond d = 4; every emitted
    # representative must still satisfy both constraints through the
    # reference residual definitions
    result = solve_all(SolverConfig(5, restarts=60, seed=13))
    assert result.converged > 0
    for cluster in result.clusters:
        vec = cluster.representative
        assert unitarity_residual(vec) <= 1e-9
        assert yang_baxter_residual(vec) <= 1e-9


@pytest.mark.parametrize("d, counts", [
    (2, [401, 411, 188]),
    (3, [156, 153, 156, 153, 170, 65, 147]),
])
def test_cluster_counts_pinned(d, counts):
    # the solutions at d = 2 and 3 are isolated, so the per-cluster counts in
    # creation order are insensitive to last-bit rounding in the kernels
    result = solve_all(SolverConfig(d, restarts=1000, seed=12345))
    assert [c.count for c in result.clusters] == counts


def test_d2_cluster_count_stable_under_doubling():
    base = solve_all(SolverConfig(2, restarts=200, seed=21))
    doubled = solve_all(SolverConfig(2, restarts=400, seed=21))
    assert len(base.nontrivial_clusters) == len(doubled.nontrivial_clusters) == 2


def test_solver_determinism_same_seed():
    a = solve_all(SolverConfig(2, restarts=150, seed=9))
    b = solve_all(SolverConfig(2, restarts=150, seed=9))
    assert len(a.clusters) == len(b.clusters)
    for ca, cb in zip(a.clusters, b.clusters):
        # identical discrete structure; coordinates to solver precision
        assert ca.count == cb.count
        assert ca.manifold_dim == cb.manifold_dim
        assert ca.trivial == cb.trivial
        assert ca.representative.distance(cb.representative) < 1e-9


def test_solver_report_interface():
    result = solve_all(SolverConfig(2, restarts=50, seed=5))
    payload = result.to_json()
    assert set(payload) == {"d", "seed", "restarts", "clusters", "nfev", "lm_status"}
    assert payload["nfev"] == result.nfev >= 50
    assert sum(payload["lm_status"].values()) == 50
    assert all(int(status) in range(-1, 5) for status in payload["lm_status"])
    for cluster in payload["clusters"]:
        assert set(cluster) == {"c", "count", "manifold_dim", "trivial"}
        assert set(cluster["c"]) == {"d", "re", "im"}


def _run_script(script):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_imported_on_first_solve():
    # only the descents need scipy, and of it only MINPACK's extension:
    # neither loading the package nor solving imports scipy.optimize
    _run_script(
        "import sys, parabraid, parabraid.cli\n"
        "assert 'scipy.optimize._minpack' not in sys.modules, 'MINPACK loaded at import'\n"
        "from parabraid.solver import SolverConfig, solve_all\n"
        "solve_all(SolverConfig(2, restarts=2, seed=1))\n"
        "assert 'scipy.optimize._minpack' in sys.modules\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported by a solve'\n"
    )


def test_algebra_and_solve_load_no_numpy_ma_or_fft():
    # np.unique imports numpy.ma and an FFT imports numpy.fft; the engine needs neither
    _run_script(
        "import sys\n"
        "from parabraid.cli import cmd_algebra\n"
        "from parabraid.solver import SolverConfig, solve_all\n"
        "cmd_algebra(3, 2)\n"
        "solve_all(SolverConfig(4, restarts=20, seed=1))\n"
        "loaded = sorted({'numpy.ma', 'numpy.fft'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )


def test_scipy_optimize_imported_after_a_solve_shares_minpack():
    # scipy.optimize imported after the solver loaded MINPACK uses the same
    # module: its least_squares(method="lm") gives the same descents, and a
    # patch of _lmder reaches solver.least_squares
    _run_script(
        "import sys\n"
        "import numpy as np\n"
        "from parabraid import solver\n"
        "from parabraid.solver import SolverConfig, solve_all\n"
        "solve_all(SolverConfig(2, restarts=2, seed=1))\n"
        "minpack = sys.modules['scipy.optimize._minpack']\n"
        "from scipy.optimize import _minpack, _minpack_py, least_squares\n"
        "lsq_module = sys.modules['scipy.optimize._lsq.least_squares']\n"
        "assert _minpack is minpack and _minpack_py._minpack is minpack\n"
        "assert lsq_module._minpack is minpack\n"
        "d = 2\n"
        "for start in solver._random_starts(SolverConfig(d, 40, seed=3)):\n"
        "    u = solver._split(start)\n"
        "    fit = solver.least_squares(solver.residual_stack, u, solver.residual_jacobian, (d,))\n"
        "    ref = least_squares(solver.residual_stack, u, jac=solver.residual_jacobian,\n"
        "                        args=(d,), method='lm', max_nfev=solver.MAX_ITERATIONS,\n"
        "                        xtol=1e-15, ftol=1e-15, gtol=1e-15)\n"
        "    assert np.array_equal(fit.x, ref.x)\n"
        "    assert (fit.nfev, fit.status) == (ref.nfev, ref.status)\n"
        "_minpack._lmder = lambda *args: (np.zeros(4), {'nfev': 3}, 7)\n"
        "try:\n"
        "    solver.least_squares(solver.residual_stack, np.zeros(4), solver.residual_jacobian, (2,))\n"
        "except RuntimeError as err:\n"
        "    assert 'exit code 7' in str(err)\n"
        "else:\n"
        "    raise AssertionError('lmder exit code 7 was not raised')\n"
    )


def test_missing_minpack_extension_raises_naming_the_scipy_version(tmp_path):
    # no other import path: a scipy without the extension is an ImportError
    _run_script(
        "import scipy\n"
        f"scipy.__file__ = {str(tmp_path / '__init__.py')!r}\n"
        "from parabraid import solver\n"
        "try:\n"
        "    solver._minpack()\n"
        "except ImportError as err:\n"
        "    assert f'scipy {scipy.__version__}' in str(err), err\n"
        "else:\n"
        "    raise AssertionError('no ImportError without the extension')\n"
    )


def test_solver_tables_lazy_and_read_only():
    # nothing is built at import (perfbench's setup_s); the per-d tables of
    # the solver and of the residuals are shared by every caller, so none of
    # them may be writable, and the solver's forms read the residuals' index tables
    _run_script(
        "import numpy as np, parabraid\n"
        "from parabraid import constraints, solver\n"
        "assert solver._tables.cache_info().currsize == 0, 'tables built at import'\n"
        "assert constraints._residual_tables.cache_info().currsize == 0, 'tables built at import'\n"
        "solver.residual_stack(np.ones(6), 3)\n"
        "assert solver._tables.cache_info().currsize == 1\n"
        "assert constraints._residual_tables.cache_info().currsize == 1\n"
        "assert all(not table.flags.writeable for table in solver._tables(3))\n"
        "solver.combined_residuals(np.ones((2, 3)))\n"
        "assert all(not table.flags.writeable for table in constraints._residual_tables(3))\n"
    )
