"""Attacks, and the builders they compose, made only for tests.

Import as ``from extra_attacks import probe_rotation_attack``; pytest puts
this directory on ``sys.path`` for the test modules beside it.
"""
from typing import Sequence

import numpy as np

from sqkdsim.adversary import Attack, attack_space, basis_permutation
from sqkdsim.fock import ModeSystem


def probe_unitary(system: ModeSystem, u_probe: np.ndarray) -> np.ndarray:
    """Act with ``u_probe`` on the probe factor alone."""
    u_probe = np.asarray(u_probe, dtype=np.complex128)
    if u_probe.shape != (system.probe_dim, system.probe_dim):
        raise ValueError("probe unitary has the wrong dimension")
    n_occ = len(system.occupations())
    return np.kron(np.eye(n_occ), u_probe)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random ``dim`` x ``dim`` unitary drawn from ``rng``."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def number_sector_phases(system: ModeSystem, phases: Sequence[float]) -> np.ndarray:
    """Diagonal phase per total photon number; needs one phase per 0..n_max."""
    if len(phases) != system.n_max + 1:
        raise ValueError(f"need {system.n_max + 1} phases")
    return np.diag(np.exp(1j * np.asarray(phases))[system.basis_table[0].sum(axis=1)])


def probe_rotation_attack(seed: int, probe_dim: int = 4, tag_dim: int = 1,
                          n_max: int = 2) -> Attack:
    """Eve only stirs her own probe (plus photon-number-sector phases).

    Such an attack commutes with everything the parties can observe, so it
    causes no errors and, by the protocol's robustness, gains no key
    information.  Useful as a non-trivial member of the zero-violation
    family in tests and sweeps.
    """
    system = attack_space(tag_dim=tag_dim, n_max=n_max, probe_dim=probe_dim)
    rng = np.random.default_rng(seed)

    def dressed() -> np.ndarray:
        phases = rng.uniform(0.0, 2 * np.pi, size=n_max + 1)
        return number_sector_phases(system, phases) @ probe_unitary(
            system, haar_unitary(rng, probe_dim))

    u_forward, v_backward = dressed(), dressed()
    probe = np.zeros(probe_dim)
    probe[0] = 1.0
    return Attack(f"probe-rotation-{seed}", system, u_forward, v_backward, probe,
                  photon_preserving=True)


def blocked_attack(inner: Attack, t: float) -> Attack:
    """``inner``, then a beam splitter of transmission ``t`` on the way back
    whose reflected light Eve keeps, with its occupation, in fresh probe levels.

    The probe grows from P = ``inner``'s probe size to P + K * P levels,
    where K is the number of photon-bearing occupations.  U is ``inner``'s U
    on the levels below P.  V is ``inner``'s V on those levels, followed by
    a real Givens rotation that sends each photon-bearing |occ, r> (k-th
    such occupation, r < P) to sqrt(t) |occ, r> + sqrt(1 - t) |vacuum,
    P + k * P + r>.  As t falls, every detectable disturbance falls with
    it, but the rounds that still pass keep ``inner``'s information.
    """
    old = inner.system
    p, k_occ = old.probe_dim, len(old.occupations()) - 1
    system = attack_space(old.tag_dim, old.n_max, probe_dim=p + k_occ * p)
    occs, levels = old.basis_table
    embed = system.index_of(occs, levels)  # inner index -> the same state, level < P

    def lifted(mat: np.ndarray) -> np.ndarray:
        out = np.eye(system.dim, dtype=np.complex128)
        out[np.ix_(embed, embed)] = mat
        return out

    # Inner index i = (k + 1) * P + r is the photon-bearing |occ, r> (the
    # vacuum comes first), so its vacuum partner sits at probe level i.
    kept = embed[p:]
    held = system.index_of(np.zeros_like(occs[p:]), np.arange(p, old.dim))
    givens = np.eye(system.dim)
    givens[kept, kept] = givens[held, held] = np.sqrt(t)
    givens[held, kept] = np.sqrt(1.0 - t)
    givens[kept, held] = -np.sqrt(1.0 - t)
    probe = np.zeros(system.probe_dim, dtype=np.complex128)
    probe[:p] = inner.initial_probe
    return Attack(f"blocked-{inner.name}", system, lifted(inner.u_forward),
                  givens @ lifted(inner.v_backward), probe)


def conjugated(attack: Attack) -> Attack:
    """``attack`` with U, V and the initial probe complex-conjugated.

    The launch state, the measurements and the loss maps are real, so every
    amplitude of a round is conjugated with them and no probability moves."""
    return Attack(f"conjugated-{attack.name}", attack.system, attack.u_forward.conj(),
                  attack.v_backward.conj(), attack.initial_probe.conj(),
                  attack.photon_preserving)


def mode_exchange(system: ModeSystem) -> np.ndarray:
    """The permutation X that swaps the pair's two modes in every tag."""
    columns = np.arange(system.n_slots).reshape(2, system.tag_dim)  # mode by tag
    occs, probes = system.basis_table
    return basis_permutation(system, occs[:, columns[::-1].ravel()], probes)


def mode_exchanged(attack: Attack) -> Attack:
    """``attack`` seen with the pair's two modes swapped: U -> XUX, V -> XVX."""
    x = mode_exchange(attack.system)
    return Attack(f"mode-exchanged-{attack.name}", attack.system,
                  x @ attack.u_forward @ x, x @ attack.v_backward @ x,
                  attack.initial_probe, attack.photon_preserving)


def tags_relabelled(attack: Attack) -> Attack:
    """``attack`` seen with tags 1 and 2 of every photon swapped and tag 0
    fixed: U -> TUT, V -> TVT."""
    columns = np.arange(attack.system.n_slots).reshape(-1, attack.system.tag_dim)  # mode by tag
    columns[:, [1, 2]] = columns[:, [2, 1]]
    occs, probes = attack.system.basis_table
    t = basis_permutation(attack.system, occs[:, columns.ravel()], probes)
    return Attack(f"tags-relabelled-{attack.name}", attack.system, t @ attack.u_forward @ t,
                  t @ attack.v_backward @ t, attack.initial_probe, attack.photon_preserving)


def probe_gauged(attack: Attack, w: np.ndarray, forward: bool) -> Attack:
    """``attack`` with the unitary ``w`` on Eve's probe: after U and undone
    by V if ``forward`` (U -> (I x W)U, V -> V(I x W^dagger)), else after V
    (V -> (I x W)V).  Neither changes what the parties observe or what Eve
    can learn."""
    lifted = probe_unitary(attack.system, w)
    u, v = attack.u_forward, attack.v_backward
    u, v = (lifted @ u, v @ lifted.conj().T) if forward else (u, lifted @ v)
    return Attack(f"probe-gauged-{attack.name}", attack.system, u, v, attack.initial_probe)
