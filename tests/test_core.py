import math

import numpy as np
import pytest

from thermoflow import core, maps
from thermoflow.core import (
    DensityOperator,
    HamiltonianMatrix,
    Temperature,
    ValidationError,
    check_density_matrices,
    free_energy,
    gibbs_state,
    partial_thermalize,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)

from conftest import random_density, random_diagonal_density, random_hermitian

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Types and validation
# ---------------------------------------------------------------------------

def test_gibbs_populations_weigh_the_ground_level_1_at_zero_temperature():
    # beta = inf times a zero shifted energy was NaN, with a RuntimeWarning
    p = core.gibbs_populations(np.array([[0.0, 1.0], [2.0, 2.0]]), Temperature(5e-324))
    assert np.array_equal(p, [[1.0, 0.0], [0.5, 0.5]])


def test_temperature_caches_beta():
    t = Temperature(2.5)
    assert abs(t.beta * t.T - 1.0) < 1e-14


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_temperature_rejects_nonpositive(bad):
    with pytest.raises(ValidationError):
        Temperature(bad)


def test_density_operator_validation():
    with pytest.raises(ValidationError):  # not Hermitian
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValidationError):  # trace != 1
        DensityOperator(np.eye(2))
    with pytest.raises(ValidationError):  # negative eigenvalue
        DensityOperator(np.diag([1.5, -0.5]))
    with pytest.raises(ValidationError, match="not a stack"):  # dim is read from one matrix
        DensityOperator(np.array([np.eye(2) / 2] * 3))
    assert DensityOperator(np.eye(3) / 3).dim == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_operator_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        DensityOperator(np.full((2, 2), bad))
    stack = np.array([np.eye(2) / 2] * 5, dtype=complex)
    stack[3, 0, 1] = stack[3, 1, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        check_density_matrices(stack)


def test_density_operator_is_immutable():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.7


@pytest.mark.parametrize("cls", [DensityOperator, HamiltonianMatrix])
def test_validated_matrix_freezes_a_copy(cls):
    m = np.diag([1.0, 0.0]).astype(complex)
    wrapped = cls(m)
    m[0, 0] = 0.5
    assert wrapped.matrix[0, 0] == 1.0
    assert not wrapped.matrix.flags.writeable


def _breach(kind: str) -> np.ndarray:
    """A 3x3 state that fails exactly one check, by 1e-11 or more."""
    if kind == "trace":
        return np.diag([0.5 + 1e-11, 0.3, 0.2]).astype(complex)
    if kind == "eigenvalue":
        return np.diag([0.6 + 1e-11, 0.4, -1e-11]).astype(complex)
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    m[0, 1] = 1e-11j  # m[1, 0] stays 0
    return m


@pytest.mark.parametrize(
    "kind,tolerance", [("trace", "TRACE_TOL"), ("eigenvalue", "PSD_FLOOR"), ("hermiticity", "HERMITICITY_TOL")]
)
def test_stacked_validator_rejects_one_bad_state(kind, tolerance, monkeypatch):
    rng = np.random.default_rng(7)
    stack = np.array([random_density(rng, 3).matrix for _ in range(1000)])
    check_density_matrices(stack)
    stack[617] = _breach(kind)
    with pytest.raises(ValidationError) as stacked:
        check_density_matrices(stack)
    with pytest.raises(ValidationError) as single:
        DensityOperator(_breach(kind))
    assert str(stacked.value) == str(single.value)
    # the verdict follows core's tolerance: widened past the breach, the stack passes
    monkeypatch.setattr(core, tolerance, -1e-10 if tolerance == "PSD_FLOOR" else 1e-10)
    check_density_matrices(stack)
    DensityOperator(_breach(kind))


def test_hamiltonian_requires_hermitian():
    with pytest.raises(ValidationError):
        HamiltonianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Gibbs states
# ---------------------------------------------------------------------------

def test_gibbs_zero_hamiltonian_is_maximally_mixed():
    tau = gibbs_state(HamiltonianMatrix.diagonal([0.0, 0.0]), Temperature(3.7))
    np.testing.assert_allclose(tau.populations, [0.5, 0.5], atol=1e-14)


@pytest.mark.parametrize("q", [0.1, 0.25, 0.45])
def test_gibbs_qubit_parametrization(q, fig_temp):
    # gap E = T ln((1-q)/q) puts exactly q of the weight on the excited level
    E = fig_temp.T * math.log((1.0 - q) / q)
    tau = gibbs_state(HamiltonianMatrix.qubit(E), fig_temp)
    np.testing.assert_allclose(tau.populations, [1.0 - q, q], atol=1e-13)


def test_gibbs_matches_independent_eigensolve():
    rng = np.random.default_rng(42)
    H = HamiltonianMatrix(random_hermitian(rng, 4))
    temp = Temperature(1.0)
    tau = gibbs_state(H, temp)
    # independent oracle: plain Boltzmann weights from the eigenvalues
    lam, vecs = np.linalg.eigh(H.matrix)
    weights = np.exp(-temp.beta * lam)
    expected = (vecs * (weights / weights.sum())) @ vecs.conj().T
    assert np.abs(tau.matrix - expected).max() < 1e-10


def test_gibbs_commutes_with_hamiltonian():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 8):
        H = HamiltonianMatrix(random_hermitian(rng, dim))
        tau = gibbs_state(H, Temperature(0.7))
        comm = tau.matrix @ H.matrix - H.matrix @ tau.matrix
        assert np.abs(comm).max() < 1e-10


def test_gibbs_never_overflows():
    # beta * ||H|| ~ 1e8: naive exponentiation would overflow
    tau = gibbs_state(HamiltonianMatrix.diagonal([0.0, 1e5]), Temperature(1e-3))
    assert np.isfinite(tau.matrix).all()
    np.testing.assert_allclose(tau.populations, [1.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# Entropy and free energy
# ---------------------------------------------------------------------------

def test_entropy_pure_state_is_zero():
    assert von_neumann_entropy(DensityOperator.pure(0, 2)) == 0.0


def test_entropy_maximally_mixed():
    assert abs(von_neumann_entropy(DensityOperator.maximally_mixed(2)) - LN2) < 1e-14


def test_entropy_direct_scalar_value():
    rho = DensityOperator.diagonal([0.75, 0.25])
    expected = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)
    assert abs(von_neumann_entropy(rho) - expected) < 1e-14


def test_entropy_bounds_random_states():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4, 8):
        for _ in range(20):
            s = von_neumann_entropy(random_density(rng, dim))
            assert -1e-12 <= s <= math.log(dim) + 1e-12


def test_free_energy_of_gibbs_is_minus_t_log_z():
    rng = np.random.default_rng(3)
    H = HamiltonianMatrix(random_hermitian(rng, 3))
    temp = Temperature(0.9)
    lam = np.linalg.eigvalsh(H.matrix)
    expected = -temp.T * math.log(np.exp(-temp.beta * lam).sum())
    assert abs(free_energy(gibbs_state(H, temp), H, temp) - expected) < 1e-12


def test_free_energy_pure_ground_state_is_zero():
    H = HamiltonianMatrix.qubit(1.3)
    assert abs(free_energy(DensityOperator.pure(0, 2), H, Temperature(1.0))) < 1e-14


def test_erasure_gap_is_t_ln2(fig_temp):
    # one sharp bit is worth T ln 2 of free energy over the mixed bit
    H = HamiltonianMatrix.diagonal([0.0, 0.0])
    gap = free_energy(DensityOperator.pure(0, 2), H, fig_temp) - free_energy(
        DensityOperator.maximally_mixed(2), H, fig_temp
    )
    assert abs(gap - fig_temp.T * LN2) < 1e-13


def test_gibbs_minimizes_free_energy():
    rng = np.random.default_rng(19)
    temp = Temperature(0.8)
    for dim in (2, 3, 4, 8):
        H = HamiltonianMatrix(random_hermitian(rng, dim))
        f_gibbs = free_energy(gibbs_state(H, temp), H, temp)
        for _ in range(100):
            rho = random_density(rng, dim)
            assert free_energy(rho, H, temp) >= f_gibbs - 1e-10


def test_free_energy_dimension_mismatch():
    with pytest.raises(ValidationError):
        free_energy(DensityOperator.maximally_mixed(2), HamiltonianMatrix.diagonal([0.0] * 3), Temperature(1.0))


# ---------------------------------------------------------------------------
# Relative entropy and trace distance
# ---------------------------------------------------------------------------

def test_relative_entropy_of_identical_states():
    rng = np.random.default_rng(23)
    rho = random_density(rng, 3)
    assert abs(relative_entropy(rho, rho)) < 1e-12


def test_relative_entropy_binary_kl():
    p, q = 0.3, 0.6
    rho = DensityOperator.diagonal([p, 1.0 - p])
    sigma = DensityOperator.diagonal([q, 1.0 - q])
    kl = p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    assert abs(relative_entropy(rho, sigma) - kl) < 1e-12


def test_relative_entropy_free_energy_identity():
    # F(rho, H) - F(tau, H) = T S(rho || tau), both sides computed independently
    rng = np.random.default_rng(31)
    temp = Temperature(1.3)
    for dim in (2, 4):
        H = HamiltonianMatrix(random_hermitian(rng, dim))
        tau = gibbs_state(H, temp)
        for _ in range(10):
            rho = random_density(rng, dim)
            lhs = free_energy(rho, H, temp) - free_energy(tau, H, temp)
            assert abs(lhs - temp.T * relative_entropy(rho, tau)) < 1e-9


def test_relative_entropy_support_violation_returns_inf():
    rho = DensityOperator.maximally_mixed(2)
    sigma = DensityOperator.pure(0, 2)
    with pytest.warns(RuntimeWarning):
        assert relative_entropy(rho, sigma) == math.inf


def test_relative_entropy_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(25):
        assert relative_entropy(random_density(rng, 3), random_density(rng, 3)) >= 0.0


def test_trace_distance_basics():
    rho = DensityOperator.pure(0, 2)
    sigma = DensityOperator.pure(1, 2)
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(rho, sigma) - 2.0) < 1e-14


def test_trace_distance_diagonal_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p, q = rng.random(2)
        d = trace_distance(DensityOperator.diagonal([p, 1 - p]), DensityOperator.diagonal([q, 1 - q]))
        assert abs(d - 2.0 * abs(p - q)) < 1e-12


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValidationError):
        trace_distance(DensityOperator.maximally_mixed(2), DensityOperator.maximally_mixed(3))


def test_pinsker_inequality_on_diagonal_pairs():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rho = random_diagonal_density(rng, 4)
        sigma = random_diagonal_density(rng, 4)
        assert trace_distance(rho, sigma) <= math.sqrt(2.0 * relative_entropy(rho, sigma)) + 1e-8


# ---------------------------------------------------------------------------
# Partial thermalization
# ---------------------------------------------------------------------------

def test_partial_thermalize_endpoints():
    rng = np.random.default_rng(29)
    rho, tau = random_density(rng, 3), random_density(rng, 3)
    assert np.abs(partial_thermalize(rho, tau, 0.0).matrix - tau.matrix).max() < 1e-15
    assert np.abs(partial_thermalize(rho, tau, 1.0).matrix - rho.matrix).max() < 1e-15


def test_partial_thermalize_halfway_qubit():
    rho = DensityOperator.diagonal([1.0, 0.0])
    tau = DensityOperator.maximally_mixed(2)
    np.testing.assert_allclose(partial_thermalize(rho, tau, 0.5).populations, [0.75, 0.25], atol=1e-15)


def test_partial_thermalize_contracts_exactly():
    rng = np.random.default_rng(37)
    rho, tau = random_density(rng, 4), random_density(rng, 4)
    base = trace_distance(rho, tau)
    for alpha in np.linspace(0.0, 1.0, 11):
        mixed = partial_thermalize(rho, tau, float(alpha))
        assert abs(trace_distance(mixed, tau) - alpha * base) < 1e-12


def test_partial_thermalize_rejects_bad_alpha():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValidationError):
        partial_thermalize(rho, rho, 1.5)
    with pytest.raises(ValidationError):
        partial_thermalize(rho, rho, -0.1)


@pytest.mark.parametrize("targets", [np.diag([0.7, 0.3]), np.full(2, 0.5)], ids=["one-target", "vector"])
def test_contact_chain_refuses_targets_that_are_not_a_stack_of_the_states_shape(targets):
    # a one-target channel would run d contacts, each against a row of its single target: refused at construction
    with pytest.raises(ValidationError, match=r"\(n, d, d\) targets"):
        core.ThermalizingChannel(0.5, targets)
    channel = core.ThermalizingChannel(0.5, np.diag([0.7, 0.2, 0.1])[None])  # a stack, but of 3 x 3 targets
    with pytest.raises(ValidationError, match=r"\(n, d, d\) targets"):
        core.contact_chain(np.diag([1.0, 0.0]), channel)


CHAIN_MODES = ("plain", "pinch", "partial-unitary", "pinch-unitary")


def _chain_inputs(mode, dim, start, n=7):
    """(rho0, channel, unitaries) for n contacts: Gibbs targets of random Hermitian (or, for the signed-zeros start,
    real diagonal) Hamiltonians, their eigenbases for a pinch, and random unitaries in the unitary modes."""
    rng = np.random.default_rng(61 + dim)
    if start == "signed-zeros":
        hams = np.array([np.diag(rng.normal(size=dim)) for _ in range(n)]).astype(complex)
        rho0 = np.full((dim, dim), complex(-0.0, -0.0))
        rho0.real[np.diag_indices(dim)] = np.arange(1, dim + 1) / (dim * (dim + 1) / 2)  # the imaginary parts stay -0.0
    else:
        hams = np.array([random_hermitian(rng, dim) for _ in range(n)])
        rho0 = random_density(rng, dim).matrix.copy()
    bases = np.linalg.eigh(hams)[1] if mode.startswith("pinch") else None
    channel = core.ThermalizingChannel(0.35, core.gibbs_matrices(hams, Temperature(0.8)), bases)
    g = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    return rho0, channel, np.linalg.qr(g)[0] if mode.endswith("unitary") else None


@pytest.mark.parametrize("start", ["dense", "signed-zeros"])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("mode", CHAIN_MODES)
def test_contact_chain_is_byte_identical_to_row_by_row_apply(mode, dim, start):
    rho0, channel, unitaries = _chain_inputs(mode, dim, start)
    reference = [rho0]
    for i in range(len(channel.targets)):
        m = reference[-1] if unitaries is None else unitaries[i] @ reference[-1] @ unitaries[i].conj().T
        reference.append(channel.apply(m, i))
    states = core.contact_chain(rho0, channel, unitaries)
    # tobytes, not array_equal: -0.0 and +0.0 compare equal
    assert states.tobytes() == np.array(reference).tobytes()
    check_density_matrices(states)
    if channel.bases is not None:
        # a pinched contact and its Gibbs target are both diagonal in the contact's eigenbasis
        in_basis = channel.bases.conj().swapaxes(1, 2) @ states[1:] @ channel.bases
        assert np.abs(in_basis - in_basis * np.eye(dim)).max() < 1e-12


@pytest.mark.parametrize("start", ["dense", "signed-zeros"])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("mode", ["plain", "pinch"])
def test_apply_into_out_returns_out_with_the_bytes_of_the_allocating_call(mode, dim, start):
    rho0, channel, _ = _chain_inputs(mode, dim, start)
    rhos = core.contact_chain(rho0, channel)[:-1]
    one = core.ThermalizingChannel(channel.lam, channel.targets[:1], None if channel.bases is None else channel.bases[:1])
    cases = [
        (channel, rho0, 3, core._pinch_work(rho0.shape)),  # one state by one contact, the pinch through a work set
        (channel, rhos, slice(None), None),  # each row of a stack by its own contact
        (one, rho0, slice(None), None),  # a lone state through a one-contact channel
    ]
    for ch, rho, i, work in cases:
        expected = ch.apply(rho, i)
        out = np.empty_like(expected)
        assert ch.apply(rho, i, out, work) is out
        assert out.tobytes() == expected.tobytes()
    # the lone state comes back as a stack of one, which an allocating call adding pull[i] in place could not give
    assert expected.shape == (1, dim, dim)


@pytest.mark.parametrize("mode", CHAIN_MODES)
def test_contact_chain_leaves_its_inputs_alone_and_owns_its_result(mode):
    rho0, channel, unitaries = _chain_inputs(mode, 3, "dense")
    inputs = [rho0, channel.targets, channel.bases, unitaries]
    before = [None if x is None else x.tobytes() for x in inputs]
    states = core.contact_chain(rho0, channel, unitaries)
    assert [None if x is None else x.tobytes() for x in inputs] == before
    assert not np.shares_memory(states, rho0)
    assert states[0].tobytes() == rho0.tobytes()


@pytest.mark.parametrize(
    "n_targets, bases",
    [(1, np.eye(2)), (1, np.tile(np.eye(2), (3, 1, 1))), (3, np.eye(2)[None]), (1, np.eye(3)[None])],
    ids=["one-matrix", "three-for-one", "one-for-three", "wrong-dim"],
)
def test_thermalizing_channel_refuses_bases_not_of_the_targets_shape(n_targets, bases):
    targets = np.tile(np.diag([0.7, 0.3]), (n_targets, 1, 1)).astype(complex)
    with pytest.raises(ValidationError, match="bases of the targets' shape"):
        core.ThermalizingChannel(0.5, targets, bases)


@pytest.mark.parametrize(
    "basis",
    [2 * np.eye(2), np.array([[1.0, 0.5**0.5], [0.0, 0.5**0.5]]), np.full((2, 2), np.nan)],
    ids=["twice-identity", "unit-columns-not-orthogonal", "nan"],
)
def test_thermalizing_channel_refuses_bases_that_are_not_unitary(basis):
    # 2 I used to pass: contact_chain then returned a last state of trace 8.5 from diag(1, 0), with no error
    bases = np.stack([np.eye(2), basis, np.eye(2)]).astype(complex)
    with pytest.raises(ValidationError, match="unitary bases"):
        core.ThermalizingChannel(0.5, np.tile(np.diag([0.7, 0.3]), (3, 1, 1)).astype(complex), bases)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_pinch_channels_accept_the_eigh_bases_of_maps(dim):
    rng = np.random.default_rng(17 + dim)
    hams = np.array([random_hermitian(rng, dim) for _ in range(64)])
    channel = maps._channel("pinch", 0.4, hams, core.gibbs_matrices(hams, Temperature(0.7)))
    assert channel.bases.shape == hams.shape


@pytest.mark.parametrize(
    "n_contacts, unitaries",
    [(2, np.eye(2)), (3, np.tile(np.eye(2), (5, 1, 1))), (3, np.eye(2)[None]), (2, np.tile(np.eye(3), (2, 1, 1)))],
    ids=["one-matrix", "five-for-three", "one-for-three", "wrong-dim"],
)
def test_contact_chain_refuses_unitaries_not_of_the_targets_shape(n_contacts, unitaries):
    # a (d, d) matrix would be read row by row, each row a vector, and fill the off-diagonals; a longer stack be cut
    channel = core.ThermalizingChannel(0.5, np.tile(np.diag([0.7, 0.3]), (n_contacts, 1, 1)).astype(complex))
    with pytest.raises(ValidationError, match="unitaries of the targets' shape"):
        core.contact_chain(np.diag([1.0, 0.0]).astype(complex), channel, unitaries.astype(complex))


COUNT_SITES = (
    "make_linear_schedule-N",
    "epsilon_upper_bound-N",
    "sample_work_values-runs",
    "thermal_op-ancilla_dim",
    "thermal_op-trials",
    "estimate_contraction-probes",
    "CyclicProtocol-N",
    "CyclicProtocol-substeps",
    "evolve_unitary-substeps",
    "QuditProtocolConfig-N",
)


def _count_sites():
    """name -> (least, call(value)) for every step or trial count the library refuses through core._check_count."""
    from thermoflow import collision, maps, qudit

    schedule = collision.make_linear_schedule(4, Temperature(1.0))
    erasure = collision.QubitProtocolConfig(0.0, 0.0, schedule, collision.FixedAlpha(0.5))
    loop = maps.cyclic_qubit_gap_path(Temperature(1.0))
    channel = maps.make_channel("partial", 0.5, HamiltonianMatrix.qubit(1.0), Temperature(1.0))
    return dict(zip(COUNT_SITES, [
        (1, lambda v: collision.make_linear_schedule(v, Temperature(1.0))),
        (1, lambda v: collision.epsilon_upper_bound(v, 0.5, Temperature(1.0))),
        (1, lambda v: collision.sample_work_values(erasure, v, seed=1)),
        (2, lambda v: collision.thermal_op_reduction_check(0.42, 0.12, v, 1, seed=1)),
        (1, lambda v: collision.thermal_op_reduction_check(0.42, 0.12, 3, v, seed=1)),
        (1, lambda v: maps.estimate_contraction(channel, probes=v)),
        (1, lambda v: maps.CyclicProtocol(loop, v, 0.5)),
        (1, lambda v: maps.CyclicProtocol(loop, 4, 0.5, substeps=v)),
        (1, lambda v: maps.evolve_unitary(loop, 0.0, 0.5, v)),
        (1, lambda v: qudit.QuditProtocolConfig(loop, loop.gibbs(0.0), v, 0.5)),
    ]))


@pytest.mark.parametrize("bad", [2.5, True, 0], ids=["float", "bool", "zero"])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_counts_refuse_floats_bools_and_values_below_the_least(site, bad):
    # make_linear_schedule(2.5, T) built the ladder [0, .2, .4, .6], which ends at q = 0.6, not 1/2
    least, call = _count_sites()[site]
    with pytest.raises(ValidationError, match=f"must be >= {least}"):
        call(bad)
    call(np.int64(least))  # a numpy integer at the least is a count


# ---------------------------------------------------------------------------
# Stacks and raw arrays
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3, 5, 7])
def test_measures_on_a_stack_equal_their_row_by_row_calls(dim):
    rng = np.random.default_rng(dim)
    states = [random_density(rng, dim) for _ in range(30)]
    pops = rng.random(dim - 1)
    states += [DensityOperator.pure(1, dim), DensityOperator.diagonal(np.append(pops / pops.sum(), 0.0))]  # rank-deficient
    rhos = np.array([rho.matrix for rho in states])
    sigmas = np.array([random_density(rng, dim).matrix for _ in rhos])
    hams = np.array([random_hermitian(rng, dim) for _ in rhos])
    temp = Temperature(0.9)
    assert (von_neumann_entropy(rhos) == [von_neumann_entropy(rho) for rho in states]).all()
    assert (free_energy(rhos, hams[0], temp) == [free_energy(rho, hams[0], temp) for rho in states]).all()
    assert (free_energy(rhos, hams, temp) == [free_energy(r, h, temp) for r, h in zip(states, hams)]).all()
    assert (trace_distance(rhos, sigmas) == [trace_distance(r, s) for r, s in zip(states, sigmas)]).all()
    assert (trace_distance(rhos, sigmas[0]) == [trace_distance(rho, sigmas[0]) for rho in states]).all()


@pytest.mark.parametrize("kind", ["hermiticity", "trace", "eigenvalue", "non-finite"])
def test_measures_reject_raw_arrays_with_density_operator_messages(kind):
    bad = np.full((3, 3), np.nan) if kind == "non-finite" else _breach(kind)
    with pytest.raises(ValidationError) as expected:
        DensityOperator(bad)
    good = DensityOperator.maximally_mixed(3).matrix
    H, temp = np.diag([0.0, 0.4, 1.1]), Temperature(1.0)
    calls = [
        von_neumann_entropy,
        lambda m: free_energy(m, H, temp),
        lambda m: trace_distance(m, good),
        lambda m: trace_distance(good, m),
    ]
    for call in calls:
        for arg in (bad, np.array([good, bad, good])):
            with pytest.raises(ValidationError) as raised:
                call(arg)
            assert str(raised.value) == str(expected.value)
    for pair in ((bad, good), (good, bad)):
        with pytest.raises(ValidationError) as raised:
            relative_entropy(*pair)
        assert str(raised.value) == str(expected.value)


def test_free_energy_rejects_a_raw_non_hermitian_hamiltonian():
    H = np.array([[0.0, 1.0], [0.0, 0.0]])
    rho = DensityOperator.maximally_mixed(2)
    for states, hams in ((rho, H), (np.array([rho.matrix] * 3), H), (rho, np.array([np.eye(2), H]))):
        with pytest.raises(ValidationError, match="Hamiltonian is not Hermitian"):
            free_energy(states, hams, Temperature(1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hamiltonian_rejects_non_finite_entries(bad):
    # a NaN deviation passed the Hermiticity tolerance, and free_energy returned nan
    H = np.full((2, 2), bad)
    with pytest.raises(ValidationError, match="Hamiltonian has non-finite entries"):
        HamiltonianMatrix(H)
    with pytest.raises(ValidationError, match="Hamiltonian has non-finite entries"):
        free_energy(DensityOperator.maximally_mixed(2), H, Temperature(1.0))
