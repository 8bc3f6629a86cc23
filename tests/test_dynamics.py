import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from photonlink import device, dynamics, protocols, pulse
from photonlink.qops import destroy, embed, ket, mhz, partial_trace
from conftest import QUTRIT_LEVELS, cut_short, default_grid, populations, random_density, read_only
from oracles import check_density_matrix, two_level_oracle


@pytest.fixture(scope="module")
def table():
    return device.load_device()


def _static(d, t):
    """H = 0 on the grid t, a (d, d) matrix."""
    return device.TimeDependentOperator(np.zeros((d, d), complex), (), t)


def test_frozen_dynamics(rng):
    rho0 = random_density(3, rng)
    t = np.arange(0.0, 10.0, 0.5)
    [[(traj, final)]] = dynamics.integrate_me([(_static(3, t), [], [rho0], QUTRIT_LEVELS)])
    assert np.abs(final - rho0).max() < 1e-12
    assert np.allclose(populations(traj)[0], populations(traj)[-1])


def test_a_run_without_expect_records_no_series(rng):
    """Only the run's expect operators are recorded: a qutrit run with none
    records no series, not even its level populations."""
    t = np.arange(0.0, 10.0, 0.5)
    [[(traj, _)]] = dynamics.integrate_me([(_static(3, t), [], [random_density(3, rng)], None)])
    assert traj.expect == {}


def test_single_qutrit_exponential_decay(table):
    node_a, _, _ = table
    t = np.arange(0.0, 2000.0, 1.0)
    decay = dict(device.single_node_collapse_ops(node_a))["decay_ge"]
    rho0 = np.diag([0, 1.0, 0]).astype(complex)
    [[(traj, _)]] = dynamics.integrate_me([(_static(3, t), [("decay_ge", decay)], [rho0], QUTRIT_LEVELS)])
    expected = np.exp(-t / (node_a.T1ge * 1e3))
    err = np.abs(populations(traj)[:, 1] - expected) / expected
    assert err.max() < 1e-4


def test_integrator_rejects_bad_grids(rng):
    rho0 = random_density(3, rng)
    with pytest.raises(ValueError, match="uniform"):
        dynamics.integrate_me([(_static(3, np.array([0.0, 1.0, 1.5])), [], [rho0], None)])


def test_integrator_rejects_wrong_shape_operators(table):
    node_a, node_b, link = table
    t = default_grid(dt=0.5, span=100)
    env = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
    h = device.build_hamiltonian(node_a, node_b, link, None, env)
    psi = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 2), ket(2, 0)))
    rho0 = np.outer(psi, psi.conj())
    wide = np.zeros((len(psi) + 1,) * 2, dtype=complex)
    with pytest.raises(ValueError, match="no initial state"):
        dynamics.integrate_me([(h, [], [], None)])
    # the shape check is the one guard on an initial state: a (37, 37) array
    # and the 1-D ket are refused
    for bad in (wide, psi):
        with pytest.raises(ValueError, match="initial state shape"):
            dynamics.integrate_me([(h, [], [bad], None)])
    with pytest.raises(ValueError, match="expectation operator"):
        dynamics.integrate_me([(h, [], [rho0], {"wide": wide})])
    extra = dataclasses.replace(h, terms=h.terms + ((wide, np.ones(len(t), complex)),))
    with pytest.raises(ValueError, match="drive term"):
        dynamics.integrate_me([(extra, [], [rho0], None)])
    # d is the static part's: a (37, 37) one does not match the state, and a
    # (37, 36) one is refused as not square
    for static in (wide, wide[:, 1:]):
        with pytest.raises(ValueError, match="Hamiltonian"):
            dynamics.integrate_me([(dataclasses.replace(h, static=static), [], [rho0], None)])
    # the static H and every drive term must be Hermitian, the samples real
    b, a = embed(destroy(3), 2, device.DIMS), embed(destroy(2), 3, device.DIMS)
    bd = b.conj().T
    one_sided = dataclasses.replace(h, terms=((bd @ bd @ a, np.ones(len(t))),))
    with pytest.raises(ValueError, match="not Hermitian"):
        dynamics.integrate_me([(one_sided, [], [rho0], None)])
    op, samples = h.terms[0]
    complex_drive = dataclasses.replace(h, terms=((op, samples * np.exp(0.1j)),))
    with pytest.raises(ValueError, match="real"):
        dynamics.integrate_me([(complex_drive, [], [rho0], None)])
    skew = np.zeros_like(h.static)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        dynamics.integrate_me([(dataclasses.replace(h, static=h.static + skew), [], [rho0], None)])


def test_integrator_rejects_drive_samples_off_the_half_step_grid(table):
    """A drive term carries 2 nt - 1 samples: one at every grid point and one
    at every half step between them.  Samples on the grid points alone, or
    one sample too many, are refused."""
    node_a, node_b, link = table
    env = pulse.emission_drive(default_grid(dt=0.5, span=100), mhz(10.6), node_b.kappa_T_rad)
    h = device.build_hamiltonian(node_a, node_b, link, None, env)
    psi = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 2), ket(2, 0)))
    rho0 = np.outer(psi, psi.conj())
    [(op, samples)] = h.terms
    assert len(samples) == 2 * len(h.t) - 1
    for wrong in (samples[::2], np.append(samples, 0.0)):
        with pytest.raises(ValueError, match="half-step grid"):
            dynamics.integrate_me([(dataclasses.replace(h, terms=((op, wrong),)), [], [rho0], None)])


def test_reachable_block_is_exact_by_linearity(table, rng):
    """The entanglement preparation integrates a 7-state block and a
    full-rank state the whole space; the map they define stays linear."""
    node_a, node_b, link = table
    t = default_grid(dt=0.25, span=100)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.shift(
        pulse.absorption_drive(pulse.emission_drive(t, mhz(10.4), node_b.kappa_T_rad)),
        link.time_offset,
    )
    h = device.build_hamiltonian(node_a, node_b, link, env_a, env_b)
    cops = device.build_collapse_ops(node_a, node_b, link)
    qutrit = (ket(3, 1) + ket(3, 2)) / np.sqrt(2.0)
    psi = np.kron(np.kron(qutrit, ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    rho_a = np.outer(psi, psi.conj())
    rho_b = random_density(len(psi), rng)

    def final(rho):
        [[(traj, out)]] = dynamics.integrate_me([(h, cops, [rho], None)])
        return traj.dim, out

    dim_a, out_a = final(rho_a)
    dim_b, out_b = final(rho_b)
    dim_mix, out_mix = final(0.5 * (rho_a + rho_b))
    assert (dim_a, dim_b, dim_mix) == (7, 36, 36)
    assert np.abs(out_mix - 0.5 * (out_a + out_b)).max() <= 1e-12


def _anti_hermitian(rho):
    return np.abs(rho - rho.conj().T).max()


def test_dense_input_stays_hermitian(rng):
    """No step re-symmetrizes the state: a full-rank input of the
    entanglement preparation, which integrates all 36 states, stays
    Hermitian to round-off over the 460 steps of its run at dt 0.5."""
    h, cops, _, _ = protocols._link_problem(
        protocols.ProtocolSpec(dt=0.5), None, "A", [protocols.QUTRIT_PREPS["ef"]], absorb=True
    )
    [[(traj, rho)]] = dynamics.integrate_me([(h, cops, [random_density(36, rng)], None)])
    assert (traj.dim, len(h.t) - 1) == (36, 460)
    assert _anti_hermitian(rho) <= 1e-15


def test_a_near_hermitian_hamiltonian_integrates_as_its_hermitian_part():
    """A static H accepted with a 4e-13 anti-Hermitian part (within the
    1e-12 check) enters as its Hermitian part, so the state stays
    Hermitian; with the anti-Hermitian part kept, the transfer's final
    state would carry one of about 3e-11."""
    h, cops, rho0s, _ = protocols._transfer_problem(protocols.ProtocolSpec(), None, "e")
    static = h.static + 4e-13j * (h.terms[0][0] != 0)
    assert 0 < _anti_hermitian(static) <= 1e-12
    [[(_, rho)]] = dynamics.integrate_me([(dataclasses.replace(h, static=static), cops, rho0s, None)])
    assert _anti_hermitian(rho) <= 1e-15


def test_batch_matches_single_input_integrations(table, rng):
    """Inputs with different reachable blocks (1 state, the 7-state
    entanglement block, a random density on that block) integrated as one
    batch on the union block reproduce their own single-input runs."""
    node_a, node_b, link = table
    t = default_grid(dt=0.25, span=100)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.shift(
        pulse.absorption_drive(pulse.emission_drive(t, mhz(10.4), node_b.kappa_T_rad)),
        link.time_offset,
    )
    h = device.build_hamiltonian(node_a, node_b, link, env_a, env_b)
    cops = device.build_collapse_ops(node_a, node_b, link)
    out = device.output_field_op(node_a, node_b, link)
    expect = {**device.LEVEL_PROJECTORS, "a_out": out, "n_out": out.conj().T @ out}
    ground = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    qutrit = (ket(3, 1) + ket(3, 2)) / np.sqrt(2.0)
    ef = np.kron(np.kron(qutrit, ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    ef_rho = np.outer(ef, ef.conj())
    # the basis states ef populates at some grid point
    projectors = {n: np.diag(row) for n, row in enumerate(np.eye(len(ef)))}
    [[(ef_traj, _)]] = dynamics.integrate_me([(h, cops, [ef_rho], projectors)])
    block = [n for n, series in ef_traj.expect.items() if (series.real > 0).any()]
    assert len(block) == 7
    mixed = np.zeros((len(ef), len(ef)), complex)
    mixed[np.ix_(block, block)] = random_density(len(block), rng)
    rhos = [np.outer(ground, ground.conj()), ef_rho, mixed]

    def run(batch):
        [runs] = dynamics.integrate_me([(h, cops, batch, expect)])
        return runs

    batched = run(rhos)
    assert len(batched) == len(rhos)
    single_dims = []
    for rho0, (traj, final) in zip(rhos, batched):
        [(single, single_final)] = run([rho0])
        single_dims.append(single.dim)
        assert traj.dim == 7
        assert traj.trace_drift == pytest.approx(single.trace_drift, abs=1e-12)
        assert np.abs(final - single_final).max() <= 1e-12
        for node in ("_A", "_B"):
            assert np.abs(populations(traj, node) - populations(single, node)).max() <= 1e-12
        assert traj.expect.keys() == single.expect.keys()
        for name, series in traj.expect.items():
            assert np.abs(series - single.expect[name]).max() <= 1e-12
    assert single_dims == [1, 7, 7]


def test_recorded_observables_match_snapshots(table, rng):
    """Populations and expectation values come from one readout matrix on the
    integrated block; every 25th step they must equal what the full state
    gives, taken from the run cut short there."""
    node_a, node_b, link = table
    t = default_grid(dt=0.25, span=100)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.shift(
        pulse.absorption_drive(pulse.emission_drive(t, mhz(10.4), node_b.kappa_T_rad)),
        link.time_offset,
    )
    h = device.build_hamiltonian(node_a, node_b, link, env_a, env_b)
    cops = device.build_collapse_ops(node_a, node_b, link)
    qutrit = (ket(3, 1) + ket(3, 2)) / np.sqrt(2.0)
    psi = np.kron(np.kron(qutrit, ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    d = len(psi)
    expect = {
        **device.LEVEL_PROJECTORS,
        "a_out": device.output_field_op(node_a, node_b, link),
        "random": rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
    }
    problem = (h, cops, [np.outer(psi, psi.conj())], expect)
    [[(traj, _)]] = dynamics.integrate_me([problem])
    assert len(traj.t) == 401
    for k in range(25, len(traj.t), 25):
        [[(_, state)]] = dynamics.integrate_me([cut_short(problem, k)])
        rho = state
        for pops, slot in ((populations(traj, "_A"), 0), (populations(traj, "_B"), 2)):
            diag = np.diag(partial_trace(rho, device.DIMS, keep=(slot,))).real
            assert np.abs(pops[k] - diag).max() < 1e-12
        for name, op in expect.items():
            assert abs(traj.expect[name][k] - np.trace(op @ rho)) < 1e-12


def test_reachable_block_closes_under_jump_products():
    """L = |0><1| + |0><2| keeps the states {0, 1} among themselves, but L+L
    couples 1 to 2, so the block must take in state 2 as well."""
    jump = np.zeros((3, 3), complex)
    jump[0, 1] = jump[0, 2] = 1.0
    rho0 = np.diag([0, 1.0, 0]).astype(complex)
    t = np.arange(0.0, 2.0, 0.01)
    [[(traj, final)]] = dynamics.integrate_me([(_static(3, t), [("jump", jump)], [rho0], None)])
    ldl = jump.conj().T @ jump
    eye = np.eye(3)
    generator = np.kron(jump, jump.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    exact = (expm(generator * t[-1]) @ rho0.reshape(-1)).reshape(3, 3)
    assert traj.dim == 3
    assert np.abs(final - exact).max() < 1e-8


def test_trace_drift_aborts():
    # a decay rate far beyond the step stability limit blows up RK4
    t = np.arange(0.0, 20.0, 1.0)
    op = 10.0 * destroy(2)  # rate 100/ns at dt 1 ns
    rho0 = np.diag([0, 1.0]).astype(complex)
    with pytest.raises(dynamics.TraceDriftError):
        dynamics.integrate_me([(_static(2, t), [("decay", op)], [rho0], None)])


def test_trace_drift_of_one_input_aborts_the_batch():
    """A batch is checked input by input: one well-behaved input does not
    dilute the drift of the other."""
    t = np.arange(0.0, 20.0, 1.0)
    op = 10.0 * destroy(2)
    steady = np.diag([1.0, 0]).astype(complex)
    drifting = np.diag([0, 1.0]).astype(complex)
    [[(traj, _)]] = dynamics.integrate_me([(_static(2, t), [("decay", op)], [steady], None)])
    assert traj.trace_drift == 0.0
    with pytest.raises(dynamics.TraceDriftError, match="input 1"):
        dynamics.integrate_me([(_static(2, t), [("decay", op)], [steady, drifting], None)])
    with pytest.raises(dynamics.TraceDriftError, match="input 0"):
        dynamics.integrate_me([(_static(2, t), [("decay", op)], [drifting, steady], None)])


def test_trace_drift_names_the_run_of_a_batch():
    """In a batch of problems the drift error names the run (the group) and
    the input."""
    t = np.arange(0.0, 20.0, 1.0)
    op = 10.0 * destroy(2)
    steady = np.diag([1.0, 0]).astype(complex)
    drifting = np.diag([0, 1.0]).astype(complex)
    calm = [("decay", 0.1 * destroy(2))]
    batch = [
        (_static(2, t), calm, [drifting], None),
        (_static(2, t), [("decay", op)], [steady, drifting], None),
    ]
    with pytest.raises(dynamics.TraceDriftError, match="^run 1: trace of input 1 ") as caught:
        dynamics.integrate_me(batch)
    assert caught.value.run == 1
    [[(traj, _)]] = dynamics.integrate_me(batch[:1])
    assert traj.trace_drift < 1e-12


def _link_batch(table):
    """Two link problems on one 200-step grid that differ in generator,
    block size, input count and drive terms: the emission from B (5-state
    block, one drive term) and the entanglement preparation (7 states, two
    drive terms, two inputs), both recording the output field."""
    node_a, node_b, link = table
    t = default_grid(dt=0.5, span=100)
    env_a = pulse.emission_drive(t, mhz(10.4), node_a.kappa_T_rad)
    env_b = pulse.shift(
        pulse.absorption_drive(pulse.emission_drive(t, mhz(10.4), node_b.kappa_T_rad)),
        link.time_offset,
    )
    cops = device.build_collapse_ops(node_a, node_b, link)
    out = device.output_field_op(node_a, node_b, link)
    expect = {**device.LEVEL_PROJECTORS, "a_out": out, "n_out": out.conj().T @ out}
    ef = np.kron(np.kron((ket(3, 1) + ket(3, 2)) / np.sqrt(2.0), ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    f_b = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 2), ket(2, 0)))
    dims = device.DIMS
    entangle = np.outer(ef, ef.conj())
    mixed = 0.5 * (np.outer(ef, ef.conj()) + np.outer(f_b, f_b.conj()))
    return [
        (device.build_hamiltonian(node_a, node_b, link, None, env_b), cops,
         [np.outer(f_b, f_b.conj())], expect),
        (device.build_hamiltonian(node_a, node_b, link, env_a, env_b), cops, [entangle, mixed], expect),
    ]


def test_batch_of_problems_matches_each_problem_alone(table, rng):
    """Problems with different generators, block sizes, input counts and
    drive terms, integrated as one batch, are bit-identical to their own
    integrations: the two link problems of ``_link_batch`` and a static
    qutrit padded into their larger blocks."""
    problems = _link_batch(table)
    qutrit = device.TimeDependentOperator(np.zeros((3, 3), complex), (), problems[0][0].t)
    decay = dict(device.single_node_collapse_ops(table[0]))["decay_ge"]
    problems.append((qutrit, [("decay_ge", decay)], [random_density(3, rng)], QUTRIT_LEVELS))
    batch = dynamics.integrate_me(problems)
    for problem, runs in zip(problems, batch):
        [alone] = dynamics.integrate_me([problem])
        assert len(runs) == len(alone)
        for (traj, final), (ref, ref_final) in zip(runs, alone):
            assert traj.dim == ref.dim and traj.trace_drift == ref.trace_drift
            assert np.array_equal(final, ref_final)
            for name, series in traj.expect.items():
                assert np.array_equal(series, ref.expect[name]), name
    assert [runs[0][0].dim for runs in batch] == [5, 7, 3]


@pytest.mark.parametrize("picks", [[0], [1], [0, 1], [1, 0]])
def test_generator_arrays_are_scipys_block_stack(table, picks):
    """Row i of the padded rows the integrator assembles from the groups'
    dense Liouvillians lists, in order and bit for bit, the (column, value)
    pairs of row i of scipy's hstack([block_diag(L_0), block_diag(S_1),
    ...]) of the zero-padded blocks, empty where a group has fewer drive
    terms, and then zeros; the values repeat over the inputs.  On the groups
    of ``_link_batch`` (5 states, one drive term, one input; 7 states, two
    drive terms, two inputs) alone and together, in both orders."""
    problems = _link_batch(table)
    nt = len(problems[0][0].t)
    groups = [dynamics._group(*problems[i], nt) for i in picks]
    size = max(g.r * g.r for g in groups)
    n_blocks = max(len(g.liouvillians) for g in groups)
    m = max(len(g.rhos) for g in groups)

    def padded(op):
        out = sp.csr_matrix(op)
        out.resize((size, size))
        return out

    empty = sp.csr_matrix((size, size), dtype=complex)
    reference = sp.hstack(
        [
            sp.block_diag(
                [padded(g.liouvillians[j]) if j < len(g.liouvillians) else empty for g in groups],
                format="csr",
            )
            for j in range(n_blocks)
        ],
        format="csr",
    )
    columns, values = dynamics._generator([g.liouvillians for g in groups], size, m)
    widths = np.diff(reference.indptr)
    assert columns.shape == (widths.max(), reference.shape[0])
    assert values.shape == (*columns.shape, m) and values.dtype == reference.data.dtype
    assert (values == values[:, :, :1]).all()
    for i, width in enumerate(widths):
        row = slice(reference.indptr[i], reference.indptr[i + 1])
        assert np.array_equal(columns[:width, i], reference.indices[row])
        assert values[:width, i, 0].tobytes() == reference.data[row].tobytes()
        assert not columns[width:, i].any() and not values[width:, i].any()


def test_one_call_batches_problems_by_grid(table, monkeypatch):
    """Problems on two grids, interleaved in one call, integrate as one
    batch per grid in the order of its first problem, and come back in input
    order, each bit-identical to its run alone: the two groups of
    ``_link_batch`` on its grid and a qubit decay on a coarser one."""
    links = _link_batch(table)
    decay = (_static(2, np.arange(0.0, 20.0, 1.0)), [("decay", 0.1 * destroy(2))],
             [np.diag([0, 1.0]).astype(complex)], None)
    problems = [links[0], decay, links[1]]
    alone = [dynamics.integrate_me([problem]) for problem in problems]
    batches = []
    integrate = dynamics._integrate_batch

    def recording(batch, runs):
        batches.append(list(runs))
        return integrate(batch, runs)

    monkeypatch.setattr(dynamics, "_integrate_batch", recording)
    results = dynamics.integrate_me(problems)
    assert batches == [[0, 2], [1]]
    assert len(results) == len(problems)
    for runs, [single] in zip(results, alone):
        assert len(runs) == len(single)
        for (traj, final), (ref, ref_final) in zip(runs, single):
            assert np.array_equal(traj.t, ref.t)
            assert traj.dim == ref.dim and traj.trace_drift == ref.trace_drift
            assert np.array_equal(final, ref_final)
            assert traj.expect.keys() == ref.expect.keys()
            for name, series in traj.expect.items():
                assert np.array_equal(series, ref.expect[name]), name


def test_batch_cut_short_records_the_first_rows_of_the_full_record(table):
    """A batch cut after an interior step records, bit for bit, the first
    rows of the full batch's record: the trace, the populations and the
    expectation values of every input of every group.  Taking a mid-run
    state from the run cut short there rests on this."""
    problems = [
        (h, cops, rho0s, {**expect, "trace": np.eye(len(h.static))})
        for h, cops, rho0s, expect in _link_batch(table)
    ]
    k = 123
    full = dynamics.integrate_me(problems)
    cut = dynamics.integrate_me([cut_short(problem, k) for problem in problems])
    assert [len(runs) for runs in cut] == [len(runs) for runs in full] == [1, 2]
    for runs, cut_runs in zip(full, cut):
        for (traj, _), (cut_traj, _) in zip(runs, cut_runs):
            assert len(traj.t) > k + 1 and np.array_equal(cut_traj.t, traj.t[: k + 1])
            assert cut_traj.dim == traj.dim and cut_traj.trace_drift <= traj.trace_drift
            for node in ("_A", "_B"):
                assert np.array_equal(populations(cut_traj, node), populations(traj, node)[: k + 1])
            assert cut_traj.expect.keys() == traj.expect.keys()
            for name, series in traj.expect.items():
                assert np.array_equal(cut_traj.expect[name], series[: k + 1]), name


def test_two_level_oracle_zero_drive():
    t = default_grid(dt=0.1)
    env = pulse.DriveEnvelope(t, np.zeros_like(t))
    res = two_level_oracle(env, mhz(10))
    assert np.all(res.flux == 0)
    assert np.abs(res.c_f - 1.0).max() < 1e-12
    # an even sample count cannot be a half-step grid
    with pytest.raises(ValueError, match="odd number"):
        two_level_oracle(pulse.DriveEnvelope(t[:-1], np.zeros(len(t) - 1)), mhz(10))


def test_two_level_oracle_constant_drive_matches_matrix_exponential():
    # constant g >> kappa: damped Rabi oscillation, checked against the
    # closed-form propagator of the constant non-Hermitian matrix
    kappa = mhz(2.0)
    g = mhz(20.0)
    half = np.arange(7999) * 0.025
    env = pulse.DriveEnvelope(half, np.full_like(half, g))
    res = two_level_oracle(env, kappa)
    m = np.array([[0.0, -1j * g], [-1j * g, -kappa / 2]])
    for k in (500, 2000, 3999):
        exact = expm(m * res.t[k]) @ np.array([1.0, 0.0])
        assert abs(res.c_f[k] - exact[0]) < 1e-8
        assert abs(res.c_g1[k] - exact[1]) < 1e-8
    # eigenvalue analysis: decay kappa/2 shared between the hybridized modes
    eig = np.linalg.eigvals(m)
    assert np.allclose(eig.real, -kappa / 4)
    assert np.allclose(np.abs(eig.imag), np.sqrt(g**2 - (kappa / 4) ** 2))


def test_two_level_oracle_is_fourth_order():
    """Sampling the drive at the half steps makes the oracle's RK4 scheme
    fourth order: halving dt from 1 ns cuts the error against a dt 0.0125
    run about 16-fold (midpoint averages of the samples give about 4)."""

    def run(dt):
        env = pulse.emission_drive(default_grid(dt=dt / 2, span=150), mhz(10.4), mhz(13.5))
        return two_level_oracle(env, mhz(13.5))

    ref = run(0.0125)
    errors = []
    for dt in (1.0, 0.5, 0.25):
        res = run(dt)
        stride = round(dt / 0.0125)
        assert np.array_equal(res.t, ref.t[::stride])
        errors.append(np.abs(res.c_f - ref.c_f[::stride]).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders.min() >= 3.5, (errors, orders)


def test_oracle_equivalence_with_full_master_equation(table):
    """Noiseless matched-linewidth emission: the 36-dim cascaded model
    reproduces the two-level oracle populations within 1e-3."""
    node_a, node_b, _ = table
    clean_a = device.without_decoherence(node_a)
    clean_b = device.without_decoherence(
        # matched kappa_T
        device.scale_coherence(node_b, 1.0)
    )
    import dataclasses

    clean_b = dataclasses.replace(clean_b, kappa_T=clean_a.kappa_T)
    link = device.LinkParams(eta_c=1.0)
    t = default_grid(dt=0.05, span=150)
    env = pulse.emission_drive(t, mhz(10.4), clean_a.kappa_T_rad)
    h = device.build_hamiltonian(clean_a, clean_b, link, env, None)
    cops = device.build_collapse_ops(clean_a, clean_b, link)
    dims = device.DIMS
    psi = np.kron(np.kron(ket(3, 2), ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    rho0 = np.outer(psi, psi.conj())
    [[(traj, _)]] = dynamics.integrate_me([(h, cops, [rho0], device.LEVEL_PROJECTORS)])
    oracle = two_level_oracle(env, clean_a.kappa_T_rad)
    assert np.abs(populations(traj, "_A")[:, 2] - np.abs(oracle.c_f) ** 2).max() < 1e-3
    assert np.abs(populations(traj, "_A")[:, 0] - (1 - np.abs(oracle.c_f) ** 2)).max() < 1e-3


def _cascade_oracle(h, node_a, node_b, link):
    """Amplitudes of |f0,g0>, |g1,g0>, |g0,g1>, |g0,f0> (transmon and
    resonator of A, then of B) on the grid of ``h``, by RK4 on the same
    half-step drive samples.

    Without transmon decoherence a single excitation evolves in this sector
    under H_eff = H - (i/2) sum_k L_k+ L_k; every jump leads to |g0,g0>,
    which is stationary.  For the cascade (Gardiner, PRL 70, 2269 (1993);
    Carmichael, PRL 70, 2273 (1993)) H_eff is built here from the node
    parameters alone: the drives g_A, g_B on the f0-g1 transitions, each
    resonator's decay kappa_T + kappa_int, and the one-way coupling
    -i sqrt(eta_c kappa_T^A kappa_T^B) from A's resonator into B's.
    """
    (_, g_a), (_, g_b) = h.terms
    kappa_a = node_a.kappa_T_rad + node_a.kappa_int_rad
    kappa_b = node_b.kappa_T_rad + node_b.kappa_int_rad
    cascade = np.sqrt(link.eta_c * node_a.kappa_T_rad * node_b.kappa_T_rad)

    def deriv(psi, j):
        h_eff = np.array([
            [0, g_a[j], 0, 0],
            [g_a[j], -0.5j * kappa_a, 0, 0],
            [0, -1j * cascade, -0.5j * kappa_b, g_b[j]],
            [0, 0, g_b[j], 0],
        ])
        return -1j * (h_eff @ psi)

    dt = float(h.t[1] - h.t[0])
    amps = np.empty((len(h.t), 4), dtype=complex)
    psi = amps[0] = np.array([1, 0, 0, 0], dtype=complex)
    for k in range(len(h.t) - 1):
        k1 = deriv(psi, 2 * k)
        k2 = deriv(psi + 0.5 * dt * k1, 2 * k + 1)
        k3 = deriv(psi + 0.5 * dt * k2, 2 * k + 1)
        k4 = deriv(psi + dt * k3, 2 * k + 2)
        psi = amps[k + 1] = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return amps


def test_cascade_matches_the_one_excitation_oracle(table):
    """With transmon decoherence switched off, the master equation's f
    populations of a transfer (A emits, B absorbs) follow |c_1|^2 and
    |c_4|^2 of the one-excitation oracle, channel loss and internal
    resonator loss included: within 1e-8 at dt 0.5, and the gap falls about
    16-fold per halving of dt, since both schemes are fourth order."""
    node_a, node_b, link = table
    device_link = (
        dataclasses.replace(node_a, kappa_int=0.2),
        dataclasses.replace(node_b, kappa_int=0.3),
        link,
    )
    gaps = []
    for dt in (1.0, 0.5, 0.25):
        spec = protocols.ProtocolSpec(dt=dt)
        h, cops, rho0s, expect = protocols._link_problem(
            spec, device_link, "A", [ket(3, 2)], absorb=True
        )
        lossless = [(name, op) for name, op in cops if not name.startswith(("decay", "dephase"))]
        assert {name for name, _ in lossless} == {"channel_loss", "cascade_out", "internal_A", "internal_B"}
        [[(traj, _)]] = dynamics.integrate_me([(h, lossless, rho0s, expect)])
        amps = _cascade_oracle(h, *device_link)
        gaps.append(max(
            np.abs(populations(traj, "_A")[:, 2] - np.abs(amps[:, 0]) ** 2).max(),
            np.abs(populations(traj, "_B")[:, 2] - np.abs(amps[:, 3]) ** 2).max(),
        ))
    assert gaps[1] <= 1e-8, gaps
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert orders.min() >= 3.5, (gaps, orders)


def test_decoherence_free_bell_fidelity_matches_the_oracle():
    """For the entangled preparation (|e> + |f>)/sqrt 2 at A without
    decoherence, the |e> branch is static and the f branch follows the
    oracle, so the final pi_ef pulse leaves a Bell fidelity of
    (1 + |c_4|^2 + 2 Re c_4) / 4 with (|eg> + |ge>)/sqrt 2."""
    spec = protocols.ProtocolSpec(decoherence=False)
    rho9 = protocols.run_entanglement(spec).extras["rho9_direct"]
    node_a, node_b, link = protocols.resolve_device(None, spec)
    h, *_ = protocols._link_problem(spec, None, "A", [ket(3, 2)], absorb=True)
    c4 = _cascade_oracle(h, node_a, node_b, link)[-1, 3]
    bell = np.zeros(9)
    bell[[3, 1]] = 1 / np.sqrt(2.0)  # |e g> and |g e>, A-major
    fidelity = (bell @ rho9 @ bell).real
    assert fidelity == pytest.approx((1 + abs(c4) ** 2 + 2 * c4.real) / 4, abs=1e-8)
    assert 0.85 < fidelity < 0.9


def test_excitation_bookkeeping(table):
    """With only emission channels, qutrit weight + photons + integrated
    emitted and lost flux is conserved."""
    node_a, node_b, _ = table
    clean_a = device.without_decoherence(node_a)
    clean_b = device.without_decoherence(node_b)
    link = device.LinkParams(eta_c=0.77)
    t = default_grid(dt=0.05, span=150)
    env = pulse.emission_drive(t, mhz(10.4), clean_a.kappa_T_rad)
    h = device.build_hamiltonian(clean_a, clean_b, link, env, None)
    cops = device.build_collapse_ops(clean_a, clean_b, link)
    dims = device.DIMS
    a_a = embed(destroy(2), 1, dims)
    a_b = embed(destroy(2), 3, dims)
    out = device.output_field_op(clean_a, clean_b, link)
    expect = {
        **device.LEVEL_PROJECTORS,
        "n_A": a_a.conj().T @ a_a,
        "n_B": a_b.conj().T @ a_b,
        "a_out": out,
        "n_out": out.conj().T @ out,
    }
    psi = np.kron(np.kron(ket(3, 2), ket(2, 0)), np.kron(ket(3, 0), ket(2, 0)))
    rho0 = np.outer(psi, psi.conj())
    [[(traj, _)]] = dynamics.integrate_me([(h, cops, [rho0], expect)])
    dynamics.output_observables(traj)
    from scipy.integrate import cumulative_trapezoid

    # the f0g1 process trades two transmon quanta for one photon, so the
    # conserved count is ladder weight + 2*(photons + integrated flux)
    ladder = np.array([0.0, 1.0, 2.0])
    photons = traj.expect["n_A"].real + traj.expect["n_B"].real
    loss_flux = clean_a.kappa_T_rad * (1 - link.eta_c) * traj.expect["n_A"].real
    emitted = np.concatenate(
        [[0.0], cumulative_trapezoid(traj.flux_out + loss_flux, traj.t)]
    )
    total = populations(traj, "_A") @ ladder + populations(traj, "_B") @ ladder + 2 * photons + 2 * emitted
    assert np.abs(total - total[0]).max() < 1e-4


def test_drive_off_photon_handoff(table):
    """A lone photon in resonator A decays monotonically; with a lossless
    channel and matched linewidths it is fully emitted into B's input."""
    import dataclasses

    node_a, node_b, _ = table
    clean_a = device.without_decoherence(node_a)
    clean_b = dataclasses.replace(device.without_decoherence(node_b), kappa_T=node_a.kappa_T)
    link = device.LinkParams(eta_c=1.0)
    t = np.arange(7999) * 0.05
    zero = pulse.DriveEnvelope(t, np.zeros_like(t))
    h = device.build_hamiltonian(clean_a, clean_b, link, zero, None)
    cops = device.build_collapse_ops(clean_a, clean_b, link)
    dims = device.DIMS
    a_a = embed(destroy(2), 1, dims)
    a_b = embed(destroy(2), 3, dims)
    out = device.output_field_op(clean_a, clean_b, link)
    expect = {
        "n_A": a_a.conj().T @ a_a,
        "n_B": a_b.conj().T @ a_b,
        "a_out": out,
        "n_out": out.conj().T @ out,
    }
    psi = np.kron(np.kron(ket(3, 0), ket(2, 1)), np.kron(ket(3, 0), ket(2, 0)))
    rho0 = np.outer(psi, psi.conj())
    [[(traj, _)]] = dynamics.integrate_me([(h, cops, [rho0], expect)])
    dynamics.output_observables(traj)
    photons = traj.expect["n_A"].real + traj.expect["n_B"].real
    assert np.all(np.diff(photons) < 1e-12)
    assert traj.photon_integral == pytest.approx(1.0, abs=1e-4)


def _f_emission(table, dt):
    """Node B emitting its f state on RK4 step ``dt`` over +-120 ns: one
    ``integrate_me`` group."""
    node_a, node_b, link = table
    t = default_grid(dt=dt / 2, span=120)
    env = pulse.emission_drive(t, mhz(10.6), node_b.kappa_T_rad)
    h = device.build_hamiltonian(node_a, node_b, link, None, env)
    cops = device.build_collapse_ops(node_a, node_b, link)
    psi = np.kron(np.kron(ket(3, 0), ket(2, 0)), np.kron(ket(3, 2), ket(2, 0)))
    return h, cops, [np.outer(psi, psi.conj())], None


@pytest.fixture(scope="module")
def f_emission_run(table):
    """(problem, final state) of ``_f_emission`` at dt 0.1, integrated once
    for the tests that read it, read-only."""
    problem = _f_emission(table, 0.1)
    [[(_, final)]] = dynamics.integrate_me([problem])
    return read_only((problem, final))


def test_trace_preservation_and_positivity(f_emission_run):
    problem, final = f_emission_run
    h, cops, [state], expect = problem
    # the state every 400th step, from consecutive 400-step segments, each
    # started from the state the one before it ended in
    ends = range(400, len(h.t), 400)
    assert ends[-1] == len(h.t) - 1
    start = 0
    for k in ends:
        terms = tuple((op, samples[2 * start : 2 * k + 1]) for op, samples in h.terms)
        segment = dataclasses.replace(h, t=h.t[start : k + 1], terms=terms)
        [[(_, state)]] = dynamics.integrate_me([(segment, cops, [state], expect)])
        start = k
        assert abs(np.trace(state).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(state).min() > -1e-7
    # the segments take the full run's steps, to round-off in their grids
    assert np.abs(state - final).max() < 1e-12
    check_density_matrix(state)


@pytest.mark.parametrize("m", [1, 6])
def test_stage_product_is_the_sparse_product(table, m):
    """The product every RK4 stage makes on the padded rows equals scipy's
    CSR ``generator @ x`` bit for bit, for one input column and for six, on
    the generator of a driven link run, [L_0 S_1], and on a random 200×600
    one whose stored entries are each real or imaginary, about 30 per row:
    both sum each row from zero in column order, and their complex products
    agree when one factor is real or imaginary.  Rows wider than 8 show that
    the sum is not numpy's pairwise one.  On a random generator with general
    complex entries the sums agree only to round-off, because numpy's
    complex multiply may fuse a multiply and an add (FMA), where scipy's
    kernel rounds each of the two products."""
    problem = _f_emission(table, 0.1)
    group = dynamics._group(*problem, len(problem[0].t))
    rng = np.random.default_rng(m)
    one_part = sp.random(200, 600, density=0.05, rng=rng, format="csr").astype(complex)
    one_part.data *= np.where(rng.random(one_part.nnz) < 0.5, 1.0, 1.0j)
    # real and imaginary parts both drawn, for every stored entry
    general = sp.random(200, 600, density=0.05, rng=rng, format="csr", dtype=complex)
    link = sp.hstack([sp.csr_matrix(op) for op in group.liouvillians], format="csr")
    for generator, exact in ((link, True), (one_part, True), (general, False)):
        rows, cols = generator.shape
        dense = generator.toarray()
        blocks = [dense[:, c : c + rows] for c in range(0, cols, rows)]
        arrays = dynamics._generator([blocks], rows, m)
        if generator is not link:
            assert len(arrays[0]) > 8
        x = rng.standard_normal((cols, m)) + 1j * rng.standard_normal((cols, m))
        buf = np.empty(arrays[1].shape, dtype=complex)
        out = np.full((rows, m), np.nan, dtype=complex)  # the product overwrites it
        assert dynamics._product(arrays, x, buf, out) is out
        if exact:
            assert out.tobytes() == (generator @ x).tobytes()
        else:
            assert np.abs(out - generator @ x).max() <= 1e-13


def test_step_halving_convergence(table, f_emission_run):
    finals = [f_emission_run[1]]
    [[(_, final)]] = dynamics.integrate_me([_f_emission(table, 0.05)])
    finals.append(final)
    assert np.abs(finals[0] - finals[1]).max() < 1e-6


def test_output_observables_requirements(rng):
    traj = dynamics.Trajectory(t=np.arange(3.0))
    with pytest.raises(ValueError):
        dynamics.output_observables(traj)
    with pytest.raises(ValueError):
        traj.photon_integral
    with pytest.raises(ValueError):
        traj.mean_field_power
    zeros = np.zeros(3, dtype=complex)
    traj.expect = {"a_out": zeros, "n_out": zeros}
    mean, flux = dynamics.output_observables(traj)
    assert np.all(mean == 0) and np.all(flux == 0)
    assert traj.photon_integral == 0.0
    assert traj.mean_field_power == 0.0


@pytest.mark.parametrize("n_intervals", [1, 2, 3, 6, 7])
def test_field_integrals_use_simpsons_rule(n_intervals):
    """Simpson's rule, with the 3/8 rule on the last three intervals of an
    odd count, integrates a cubic exactly; one interval is a trapezoid."""
    t = np.linspace(-1.0, 2.0, n_intervals + 1)
    cubic = 5.0 + t - 2.0 * t**2 + t**3
    if n_intervals == 1:
        exact = 1.5 * (cubic[0] + cubic[-1])
    else:
        exact = 15.0 + 1.5 - 6.0 + 3.75  # integral of the cubic over [-1, 2]
    traj = dynamics.Trajectory(t=t)
    traj.flux_out = cubic
    traj.a_mean_out = np.sqrt(cubic) * np.exp(0.3j)
    assert traj.photon_integral == pytest.approx(exact, abs=1e-12)
    assert traj.mean_field_power == pytest.approx(exact, abs=1e-12)


def test_efficiencies_guard_against_empty_reference():
    t = np.arange(4.0)
    empty = dynamics.Trajectory(t=t)
    empty.flux_out = np.zeros(4)
    empty.a_mean_out = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError):
        dynamics.efficiencies(empty, empty, empty, empty)
