"""Attacks built only for tests.

Import as ``from extra_attacks import probe_rotation_attack``; pytest puts
this directory on ``sys.path`` for the test modules beside it.
"""
import numpy as np

from sqkdsim.adversary import Attack, attack_space, number_sector_phases, probe_unitary


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

    def haar_probe() -> np.ndarray:
        a = rng.standard_normal((probe_dim, probe_dim)) \
            + 1j * rng.standard_normal((probe_dim, probe_dim))
        q, r = np.linalg.qr(a)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def dressed() -> np.ndarray:
        phases = rng.uniform(0.0, 2 * np.pi, size=n_max + 1)
        return number_sector_phases(system, phases) @ probe_unitary(system, haar_probe())

    u_forward, v_backward = dressed(), dressed()
    probe = np.zeros(probe_dim)
    probe[0] = 1.0
    return Attack(f"probe-rotation-{seed}", system, u_forward, v_backward, probe,
                  photon_preserving=True)
