"""Stacked solves and certificates: against the per-program reference, and against stacks of one.

``solver_reference`` keeps the walk and certificate that ran one program per
call.  A stack must give each program what the reference gives it, and the
same bits whatever its stack-mates are.
"""

import numpy as np
import pytest

import solver_reference as ref
from blockrelax import solver, sweep
from blockrelax.cli import main
from blockrelax.generate import GenConfig, build_instance, derive_seed
from blockrelax.model import effective_matrix, solver_weights
from blockrelax.solver import (
    SolveOptions,
    certificate_for_instance,
    certificate_stack,
    check_stack,
    kkt_certificate,
    recovery_check,
    solve_instance,
    solve_stack,
    solve_weighted_bp,
    stack_programs,
)
from blockrelax.model import RelaxedInstance
from blockrelax.storage import load_instance
from blockrelax.sweep import _cell_stack, _chunks, _records, build_sweep_plan, parse_config, replay_trial

from test_golden import README_GEN, REPEATED_UNITARY_GEN, write_cfg
from test_solver import UNDERDETERMINED_CELLS
from test_sweep import PARTIAL_CHUNK_SWEEP

# the README walk-through sweep: 24 cells x 21 trials
README_SWEEP = "m = 16\nm = 32\ntheta = 2\ntheta = 4\ns = 4\ns = 8\nr = 2\nr = 4\nr = 8\nguess_density = s/n\n"
# the cells of acceptance test_09
COMPARE_CELLS = "m = 4\ns = 2\ntheta = 1\nr = 2\nr = 4\nguess_density = 0.5\n"


def assert_matches_reference(B, w, y, options=None):
    """Each program of the stack (B, w, y) solves as the per-program walk solves it alone."""
    opts = options or SolveOptions()
    for j, res in enumerate(solve_stack(B, w, y, opts)):
        want = ref.solve_weighted_bp(B[j], w[j], y[j], opts)
        assert (res.status, res.iterations, res.detected_support) == (want.status, want.iterations, want.detected_support)
        assert np.abs(res.z - want.z).max() <= 1e-12 * np.abs(want.z).max(initial=0.0)


def chunk_programs(text, seed, trials=None):
    """(B, w, y, planted columns) stacks of every chunk of the sweep of ``text``, its draw errors left out."""
    plan = build_sweep_plan(parse_config(text), seed=seed, trials=trials)
    for cell in plan.cells:
        for start, stop in _chunks(cell):
            stack = _cell_stack(cell, start, stop)
            drawn = [i for i in range(stop - start) if i not in stack.errors]
            if drawn:
                B, w, planted = stack_programs(stack.A[drawn], stack.X[drawn], stack.planted[drawn], cell.p)
                yield B, w, stack.y[drawn], planted


def test_stack_matches_reference_on_readme_sweep():
    for B, w, y, planted in chunk_programs(README_SWEEP, seed=1, trials=21):
        assert_matches_reference(B, w, y)
        for j, cert in enumerate(certificate_stack(B, w, planted)):
            want = ref.kkt_certificate(B[j], w[j], planted[j], np.ones(planted.shape[1]))
            assert (cert.holds, cert.injective) == (want.holds, want.injective)
            assert cert.margin == pytest.approx(want.margin, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("cell", UNDERDETERMINED_CELLS)
def test_stack_matches_reference_on_underdetermined_cells(cell):
    # m < r * theta: the walks leave columns and split the lockstep into groups
    m, theta, s, r = cell
    programs = []
    for t in range(8):
        inst = build_instance(GenConfig(m=m, n=m, theta=theta, r=r, s=s, guess_density=s / m, master_seed=derive_seed(5, "trial", t)))
        programs.append((effective_matrix(inst.A, inst.X), solver_weights(inst.X, 0.5), inst.y))
    assert_matches_reference(*map(np.stack, zip(*programs)))


def test_stack_matches_reference_on_comparison_cells(monkeypatch):
    stacks = []
    solve = sweep.solve_stack

    def spy(B, w, y, options):
        stacks.append((B, w, y))
        return solve(B, w, y, options)

    monkeypatch.setattr(sweep, "solve_stack", spy)
    sweep.run_comparison(sweep.build_comparison_plan(parse_config(COMPARE_CELLS), seed=3, trials=100))
    assert len(stacks) == 2 and all(len(B) > 1 for B, _, _ in stacks)
    for B, w, y in stacks:
        assert_matches_reference(B, w, y)


def test_stack_matches_reference_on_random_and_ill_conditioned_programs():
    # the fixtures of test_solver's reference tests, each shape as one stack
    rng = np.random.default_rng(7)
    by_shape = {}
    for _ in range(30):
        m = int(rng.integers(2, 6))
        R = int(rng.integers(m + 1, 11))
        B = rng.standard_normal((m, R))
        w = rng.uniform(0.5, 2.0, size=R)
        z0 = np.zeros(R)
        supp = rng.choice(R, size=int(rng.integers(1, m + 1)), replace=False)
        z0[supp] = rng.standard_normal(supp.size)
        by_shape.setdefault((m, R), []).append((B, w, B @ z0))
    assert max(map(len, by_shape.values())) > 1
    for seed in range(12):
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((8, 5)))[0]
        V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        B = U @ np.diag(np.geomspace(1.0, 1.0 / 3e9, 5)) @ V.T
        by_shape.setdefault((8, 5), []).append((B, rng.uniform(0.5, 2.0, size=5), B @ np.array([1.0, 0.0, 0.0, -2.0, 0.0])))
    for programs in by_shape.values():
        assert_matches_reference(*map(np.stack, zip(*programs)))


def test_stack_matches_reference_on_nan_entries():
    # a NaN in B or y compares false everywhere; the walk must skip a NaN
    # column and call a NaN y infeasible, as the per-program walk does
    rng = np.random.default_rng(3)
    B = rng.standard_normal((2, 3, 5))
    B[0, 1, 2] = np.nan
    y = np.array([[1.0, 2.0, 3.0], [1.0, np.nan, 3.0]])
    w = np.ones((2, 5))
    results = solve_stack(B, w, y)
    assert [r.status for r in results] == ["optimal", "infeasible"]
    for j, res in enumerate(results):
        want = ref.solve_weighted_bp(B[j], w[j], y[j])
        assert (res.status, res.iterations, res.detected_support) == (want.status, want.iterations, want.detected_support)
        assert np.array_equal(res.z, want.z, equal_nan=True)


def assert_same_solve(a, b):
    assert np.array_equal(a.z, b.z)
    assert (a.status, a.iterations, a.detected_support) == (b.status, b.iterations, b.detected_support)
    assert (a.objective, a.duality_gap, a.feas_residual) == (b.objective, b.duality_gap, b.feas_residual)


def assert_same_certificate(a, b):
    assert (a.holds, a.injective, a.margin) == (b.holds, b.injective, b.margin)
    assert np.array_equal(a.h, b.h)


@pytest.mark.parametrize("text, trials", [(README_SWEEP, 21), (PARTIAL_CHUNK_SWEEP, None)], ids=["readme", "partial-chunk"])
def test_sweep_chunk_equals_replayed_stacks_of_one(text, trials, monkeypatch):
    # a trial's solve and certificate in its sweep chunk are bit for bit those
    # of its replay, a chunk of one; the chunks of these non-oracle sweeps
    # build no RelaxedInstance, and each replay builds its trial's one
    built = []  # every RelaxedInstance constructed
    check = RelaxedInstance.__post_init__

    def counted(self):
        check(self)
        built.append(self)

    monkeypatch.setattr(RelaxedInstance, "__post_init__", counted)
    plan = build_sweep_plan(parse_config(text), seed=1, trials=trials)
    assert not any(cell.oracle for cell in plan.cells)
    sweep.run_sweep(plan)
    assert built == []
    solved = 0
    for cell in plan.cells:
        for start, stop in _chunks(cell):
            records = _records(cell, _cell_stack(cell, start, stop))
            assert len(built) == solved
            for t, record in enumerate(records, start):
                if record.error is not None:  # a draw that left a block empty
                    assert record.verdict == "error"
                    with pytest.raises(ValueError) as raised:
                        replay_trial(plan, cell.index, t)
                    assert str(raised.value) == str(record.error)
                    continue
                _, result, cert, verdict = replay_trial(plan, cell.index, t)
                assert_same_solve(record.result, result)
                assert_same_certificate(record.cert, cert)
                assert record.verdict == verdict
                solved += 1
                assert len(built) == solved
    assert solved == 504 if text == README_SWEEP else 0 < solved < 13


def single_instances(tmp_path):
    """The two golden containers, loaded, and trial 0 of each underdetermined cell (m < r * theta)."""
    for name, text in (("readme", README_GEN), ("repeated-unitary", REPEATED_UNITARY_GEN)):
        path = str(tmp_path / f"{name}.txt")
        assert main(["gen", "--config", write_cfg(tmp_path, text), "--out", path]) == 0
        yield load_instance(path)
    for m, theta, s, r in UNDERDETERMINED_CELLS:
        yield build_instance(GenConfig(m=m, n=m, theta=theta, r=r, s=s, guess_density=s / m, master_seed=derive_seed(5, "trial", 0)))


def test_record_of_a_stack_of_one_equals_the_single_instance_trio(tmp_path, capsys):
    # the CLI's solve takes its output from this record; the benchmark and the
    # tests call the trio, and both must see the same bits
    for inst in single_instances(tmp_path):
        arrays = (inst.A.blocks, inst.X.blocks, inst.x, inst.y, np.asarray(inst.X.planted_cols))
        (record,) = check_stack(*(a[None] for a in arrays), 0.5)
        assert record.error is None
        result = solve_instance(inst, 0.5)
        assert_same_solve(record.result, result)
        assert_same_certificate(record.cert, certificate_for_instance(inst, 0.5))
        assert record.verdict == recovery_check(inst, result)


def test_error_paths_inside_one_stack():
    # one stack mixes a finished solve, a step cap, y out of range, y = 0 and
    # bad weights; each entry equals the program's stack of one
    rng = np.random.default_rng(11)
    m, R = 4, 6
    B = rng.standard_normal((5, m, R))
    w = rng.uniform(0.5, 2.0, size=(5, R))
    y = np.empty((5, m))
    y[0] = B[0, :, 2] * 1.5  # one column: optimal after one step
    y[1] = B[1] @ rng.standard_normal(R)  # needs more than the cap of 3 steps
    B[2] = np.outer(rng.standard_normal(m), rng.standard_normal(R))  # rank 1: y is out of range
    y[2] = rng.standard_normal(m)
    y[3] = 0.0
    y[4] = B[4, :, 0]
    w[4, 1] = -1.0
    opts = SolveOptions(max_iter=3)
    results = solve_stack(B, w, y, opts)
    assert [getattr(r, "status", None) for r in results] == ["optimal", "max-iter", "infeasible", "optimal", None]
    assert results[1].iterations == 3 and results[2].iterations == 0 and results[3].iterations == 0
    assert np.array_equal(results[3].z, np.zeros(R))
    for j in range(4):
        assert_same_solve(results[j], solve_stack(B[j : j + 1], w[j : j + 1], y[j : j + 1], opts)[0])
        assert_same_solve(results[j], solve_weighted_bp(B[j], w[j], y[j], opts))
    assert isinstance(results[4], ValueError)
    with pytest.raises(ValueError, match="strictly positive") as raised:
        solve_weighted_bp(B[4], w[4], y[4], opts)
    assert str(raised.value) == str(results[4])

    # rank-deficient supports (B[2] has rank 1, B[3] a scaled column) beside injective ones
    support = np.array([[0, 3], [1, 4], [2, 5], [0, 1], [2, 3]])
    B[3, :, 1] = 2.0 * B[3, :, 0]
    w[4, 1] = 1.0
    certs = certificate_stack(B, w, support)
    assert [c.injective for c in certs] == [True, True, False, False, True]
    assert not certs[2].holds and not certs[3].holds
    for j, cert in enumerate(certs):
        assert_same_certificate(cert, certificate_stack(B[j : j + 1], w[j : j + 1], support[j : j + 1])[0])
        assert_same_certificate(cert, kkt_certificate(B[j], w[j], support[j]))


def test_check_stack_record_takes_the_solve_error_first(monkeypatch):
    # theta = 1, A = I_3, guess columns (e_3, x) with x planted at column 1.
    # Rows 1 and 2 zero column 0, so its weight is 0 and the solve raises; the
    # certificates of rows 0 and 1 are made to raise.  A record holds the
    # solve's error, else the certificate's, else the verdict
    x = np.array([1.0, -1.0, 0.0])
    X = np.tile(np.stack([[0.0, 0.0, 1.0], x], axis=-1), (4, 1, 1, 1))  # (4, 1, 3, 2)
    X[1:3, 0, :, 0] = 0.0
    certify = solver.certificate_stack
    monkeypatch.setattr(solver, "certificate_stack", lambda B, w, support: [
        np.linalg.LinAlgError("SVD did not converge") if j < 2 else cert for j, cert in enumerate(certify(B, w, support))
    ])
    xs = np.tile(x, (4, 1))
    records = check_stack(np.tile(np.eye(3), (4, 1, 1, 1)), X, xs, xs, np.ones((4, 1), dtype=int), 0.5)
    assert [record.verdict for record in records] == ["error", "error", "error", "exact"]
    assert [type(record.error) for record in records] == [np.linalg.LinAlgError, ValueError, ValueError, type(None)]
    assert "weights must be strictly positive" in str(records[1].error)


def test_empty_stack_and_shape_checks():
    assert solve_stack(np.zeros((0, 3, 4)), np.ones((0, 4)), np.zeros((0, 3))) == []
    with pytest.raises(ValueError, match="shape"):
        solve_stack(np.ones((2, 3, 4)), np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="distinct"):
        certificate_stack(np.ones((2, 3, 4)), np.ones((2, 4)), [[0, 1], [2, 2]])
