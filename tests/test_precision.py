"""How many digits the exact core's float64 numbers hold.

The core takes its float type from its inputs, so an attack's unitaries and
probe upcast to ``np.clongdouble`` run every branch pass, condition sum,
outcome tally and probe state in numpy's extended precision (80-bit on
x86-64 Linux, eps 1.1e-19).  The constants stay float64 values (1/sqrt(2),
the Hadamard, the loss amplitudes), which the wider type holds exactly, so
the extended run repeats the float64 computation with less rounding and
their difference bounds the rounding of the arithmetic (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, on checking a
computation against a run in higher precision).  ``np.linalg`` has no
extended eigensolver, so the extended trace distances come from a cyclic
Jacobi routine here, checked against ``np.linalg.eigvalsh``.

Every pinned value must agree to 1e-14 relative where the extended value
exceeds 1e-6; below that each test pins a measured absolute bound.  Where
``longdouble`` is float64 the two runs would agree exactly and prove
nothing, so every test skips.
"""
import numpy as np
import pytest

from extra_attacks import blocked_attack
from sqkdsim.adversary import _random_attacks, attack_space, measure_resend_attack
from sqkdsim.protocol import (ProtocolConfig, Variant, _branch_stack, _eve_conditionals,
                              _outcome_sums, _probe_states, _PrunedApart)
from sqkdsim.robustness import _conditions

WIDE = np.clongdouble
pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is float64 on this platform: an extended run would "
           "repeat float64 exactly, and an error of 0 proves nothing")

RELATIVE = 1e-14  # where the extended value exceeds LARGE
LARGE = 1e-6
# Parts of a whole of size 1: a branch's probability within its (operation,
# basis) block, a probe state's amplitudes, a density matrix's entries.
NORMALIZED = ("probability", "eve_probe", "rho")


def _jacobi_eigvalsh(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a stack of Hermitian matrices in their own
    float type: cyclic Jacobi sweeps, each rotation a phase that makes the
    (p, q) entry real, then the real rotation that zeroes it.  Sweeps stop
    once the off-diagonal part's norm is at most eps times the matrix's
    norm, which by Weyl's inequality bounds each eigenvalue's error there."""
    a = np.array(mats, dtype=np.result_type(mats, np.complex64))
    n, eps = a.shape[-1], np.finfo(a.real.dtype).eps
    scale = np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))
    for _ in range(60):
        off = np.sqrt((np.abs(np.triu(a, 1)) ** 2).sum(axis=(-2, -1)) * 2)
        if (off <= eps * scale).all():
            return np.sort(np.diagonal(a, axis1=-2, axis2=-1).real, axis=-1)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[..., p, q]
                mag = np.abs(apq)
                nonzero = mag > 0
                mag1 = np.where(nonzero, mag, 1)
                phase = np.where(nonzero, apq / mag1, 1)[..., None]  # e^{i phi}
                theta = (a[..., q, q].real - a[..., p, p].real) / (2 * mag1)
                t = np.where(nonzero, np.copysign(1, theta)
                             / (np.abs(theta) + np.sqrt(theta * theta + 1)), 0)
                c = (1 / np.sqrt(t * t + 1))[..., None]
                s = t[..., None] * c
                # A J, then J^H (A J), with J = diag(1, .., e^{-i phi} at q) times
                # the real rotation [[c, s], [-s, c]] on (p, q).
                col_p, col_q = a[..., :, p].copy(), a[..., :, q] * phase.conj()
                a[..., :, p], a[..., :, q] = c * col_p - s * col_q, s * col_p + c * col_q
                row_p, row_q = a[..., p, :].copy(), a[..., q, :] * phase
                a[..., p, :], a[..., q, :] = c * row_p - s * row_q, s * row_p + c * row_q
                a[..., p, q] = a[..., q, p] = 0
    raise AssertionError("Jacobi sweeps did not converge")


def _trace_distances(differences: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(_jacobi_eigvalsh(differences)).sum(axis=-1)


def _hermitian(rng, shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (g + np.conjugate(g).swapaxes(-1, -2)) / 2


@pytest.mark.parametrize("size", range(1, 9))
def test_jacobi_matches_eigvalsh_in_float64(size):
    mats = _hermitian(np.random.default_rng(size), (20, size, size))
    found, expected = _jacobi_eigvalsh(mats), np.linalg.eigvalsh(mats)
    assert found.dtype == np.float64
    assert np.abs(found - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("size", range(1, 9))
def test_jacobi_holds_extended_digits(size):
    """A Householder reflection built in extended precision conjugates known
    eigenvalues, which come back far below float64's rounding."""
    rng = np.random.default_rng(100 + size)
    values = np.sort(rng.standard_normal((10, size)), axis=-1).astype(np.longdouble)
    v = (rng.standard_normal((10, size, 1))
         + 1j * rng.standard_normal((10, size, 1))).astype(WIDE)
    reflect = np.eye(size, dtype=WIDE) - 2 * (v @ v.conj().swapaxes(-1, -2)) / (
        np.abs(v) ** 2).sum(axis=(-2, -1))[:, None, None]
    mats = (reflect * values[:, None, :]) @ reflect.conj().swapaxes(-1, -2)
    found = _jacobi_eigvalsh(mats)
    assert found.dtype == np.longdouble
    assert np.abs(found - values).max() <= 1e-17 * np.abs(values).max()


def _passes(config, system, unitaries, probes) -> list:
    """The float64 pass of a stack of attacks and the same pass upcast, or,
    where the attacks prune apart, each attack's own two passes."""
    try:
        return [tuple(_branch_stack(config, system, *(m.astype(dtype) for m in (
            unitaries[:, 0], unitaries[:, 1], probes))) for dtype in (np.complex128, WIDE))]
    except _PrunedApart:
        return [pair for u, p in zip(unitaries, probes)
                for pair in _passes(config, system, u[None], p[None])]


def _values(config, found) -> dict:
    """Every exact value of a pass by name, with a leading attack axis: its
    columns and cell weights, the basis-weighted outcome tallies, and Eve's
    two probe states with their masses and trace distance (mirror: by Bob's
    key bit, with the conditions and p_shared; legacy: CTRL against SIFT).
    An extended pass takes its distances from :func:`_jacobi_eigvalsh`."""
    ops, cells = config.variant.operations, found.cells
    basis_weight = cells.basis_weight(config.bob_hadamard_prob)
    values = {name: getattr(found, name) for name in ("probability", "eve_probe", "weights")}
    values["outcome_sums"] = np.array([_outcome_sums(ops, cells, basis_weight * w)
                                       for w in found.weights])
    if config.variant is Variant.MIRROR:
        values["conditions"] = _conditions(config, found.weights)
        p, rho, dist = _eve_conditionals(config, found)
    else:
        p, rho, dist = _probe_states(found, (cells.op == np.arange(2)[:, None]) * basis_weight)
    if rho.dtype == WIDE:  # np.linalg rounds to float64
        dist = np.where(np.isnan(dist), np.nan, _trace_distances(rho[:, 0] - rho[:, 1]))
    values.update(p_state=p, p_shared=p.sum(axis=1), rho=rho, trace_distance=dist)
    return values


def _errors(config, passes) -> dict:
    """Per name, over the pairs of passes: (worst relative error where the
    extended value exceeds LARGE, worst absolute error elsewhere).  A part
    of a normalized whole has its error relative to that whole, which is its
    absolute error.  Checks that the extended values kept their type."""
    worst = {}
    for narrow, wide in passes:
        wide_values = _values(config, wide)
        for name, value in _values(config, narrow).items():
            extended = wide_values[name]
            assert value.real.dtype == np.float64 and extended.real.dtype == np.longdouble
            assert np.array_equal(np.isnan(value), np.isnan(extended)), name
            error = np.nan_to_num(np.abs(value - extended))  # a NaN pair agrees
            size = np.ones(error.shape) if name in NORMALIZED else np.abs(extended)
            large = size > LARGE  # False where NaN
            pair = ((error[large] / size[large]).max(initial=0), error[~large].max(initial=0))
            worst[name] = tuple(float(max(a, b)) for a, b in zip(worst.get(name, (0, 0)), pair))
    return worst


def _assert_within(worst: dict, absolute: float, probe_states: float = RELATIVE):
    """Every relative error within RELATIVE, except Eve's normalized probe
    states within ``probe_states``, and every absolute one within ``absolute``."""
    for name, (relative, small) in worst.items():
        bound = probe_states if name == "eve_probe" else RELATIVE
        assert relative <= bound and small <= absolute, (name, relative, small)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("survival", [1.0, 0.9, 0.8])
@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_float64_holds_its_digits_on_the_grid(n_max, survival, variant):
    """Two random attacks per probe size 1-4, at the sweep's strength.
    Measured: relative errors at most 4.1e-15 (a normalized probe state),
    3.7e-15 for the cell weights; the one absolute error, 5.6e-17, is the
    trace distance of two equal 1x1 states at probe size 1."""
    config = ProtocolConfig(variant=variant, n_max=n_max, channel_loss=survival)
    passes = []
    for probe_dim in range(1, 5):
        system = attack_space(n_max=n_max, probe_dim=probe_dim)
        passes += _passes(config, system, *_random_attacks(
            [10 * n_max + probe_dim, 99], system, 0.3))
    _assert_within(_errors(config, passes), 1e-16)


@pytest.mark.parametrize("strength, absolute, probe_states", [
    (1e-4, 2e-19, 3e-12),  # measured: 4.9e-20 (a cell weight), 7.3e-13
    (1e-6, 2e-21, 3e-10),  # measured: 4.8e-22 (a trace distance), 8.9e-11
])
def test_quiet_random_attacks_keep_absolute_digits(strength, absolute, probe_states):
    """Near the quiet set the conditions shrink as strength squared (to
    8.7e-8 and 8.7e-12 here), so their relative error grows while their
    absolute error shrinks.  Eve's probe state of a branch of weight p is
    its amplitude over sqrt(p), so the faintest branches' states hold the
    fewest digits; they enter her mixed states weighted by p."""
    config = ProtocolConfig(n_max=2)
    system = attack_space(n_max=2, probe_dim=2)
    worst = _errors(config, _passes(config, system, *_random_attacks(
        list(range(1, 9)), system, strength)))
    _assert_within(worst, absolute, probe_states)


def test_blocked_attack_keeps_its_digits_at_one_in_a_billion():
    """Blocking all but 1e-9 of the returning light leaves conditions of
    2.5e-10 and a trace distance of 1.  Measured: absolute errors at most
    6.1e-26 (a cell weight)."""
    config = ProtocolConfig(n_max=1)
    attack = blocked_attack(measure_resend_attack("computational", n_max=1), 1e-9)
    worst = _errors(config, _passes(config, attack.system, np.array(
        [(attack.u_forward, attack.v_backward)]), attack.initial_probe[None]))
    _assert_within(worst, 2e-25)
