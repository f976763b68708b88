"""Eavesdropper models: a forward unitary, a backward unitary, and a probe.

An attack acts on the transmitted pair (with its tags) joined to Eve's
private probe.  ``u_forward`` dresses the state on its way from Bob to
Alice, ``v_backward`` on the way back.  Both are arbitrary unitaries on the
truncated space, so Eve may inject or absorb photons unless she declares
herself photon-preserving.  This one-pair-plus-probe space is also the
space every protocol round runs on: Alice's storage is empty whenever Eve
acts, so the matrices apply as they are, through
:func:`sqkdsim.fock.apply_truncating_unitary`.

A small builder vocabulary (basis permutations, pair-mode mixers, probe
unitaries, photon-number sector phases) composes the named attacks and is
exported for constructing new ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fock import ModeSystem, hadamard_matrix

__all__ = [
    "Attack",
    "attack_space",
    "basis_permutation",
    "probe_unitary",
    "tag_swap_unitary",
    "number_sector_phases",
    "identity_attack",
    "tagging_attack",
    "measure_resend_attack",
    "random_attack",
    "save_attack",
    "load_attack",
    "attack_to_document",
    "attack_from_document",
]

UNITARY_ATOL = 1e-10

PROBE_IDLE = 0
# tagging_attack probe values
PROBE_SAW_SIFT = 1
PROBE_SAW_CTRL = 2


def attack_space(tag_dim: int = 1, n_max: int = 2, probe_dim: int = 1) -> ModeSystem:
    """The one-pair-plus-probe system an attack is defined over."""
    if probe_dim < 1:
        raise ValueError("probe_dim must be at least 1")
    return ModeSystem(num_pairs=1, tag_dim=tag_dim, n_max=n_max, probe_dim=probe_dim)


@dataclass(eq=False)
class Attack:
    """Immutable once validated; do not mutate the matrices after creation."""

    name: str
    system: ModeSystem
    u_forward: np.ndarray
    v_backward: np.ndarray
    initial_probe: np.ndarray
    photon_preserving: bool = False

    def __post_init__(self) -> None:
        self.u_forward = np.array(self.u_forward, dtype=np.complex128)
        self.v_backward = np.array(self.v_backward, dtype=np.complex128)
        self.initial_probe = np.array(self.initial_probe, dtype=np.complex128)
        for arr in (self.u_forward, self.v_backward, self.initial_probe):
            arr.setflags(write=False)
        self.validate()

    def validate(self) -> None:
        if self.system.num_pairs != 1:
            raise ValueError("attacks are defined over a single transmitted pair")
        if self.system.probe_dim < 1:
            raise ValueError("attacks need a probe factor (probe_dim >= 1)")
        d = self.system.dim
        number = self.system.basis_table[0].sum(axis=1) if self.photon_preserving else None
        # Every check reads "not defect <= tol", so NaN and inf fail too.
        for label, mat in (("u_forward", self.u_forward), ("v_backward", self.v_backward)):
            if mat.shape != (d, d):
                raise ValueError(f"{label} must be {d}x{d} for {self.system}")
            if self.photon_preserving and not (
                    np.abs(mat * (number[None, :] - number[:, None])).max() <= UNITARY_ATOL):
                raise ValueError(f"{label} declared photon-preserving but is not")
            _check_unitary(mat[None], (label,))
        _check_probes(self.system, self.initial_probe[None])


def _check_unitary(mats: np.ndarray, labels=("u_forward", "v_backward")) -> None:
    """:meth:`Attack.validate`'s unitarity check on an (attack, matrix, d, d)
    stack whose matrices are named by ``labels``, raising for the first
    failing matrix in attack order."""
    d = mats.shape[-1]
    gram = (np.conjugate(mats).swapaxes(-1, -2) @ mats).reshape(-1, d * d)
    gram[:, ::d + 1] -= 1.0  # each Gram matrix minus the identity
    unitary = np.abs(gram).max(axis=1) <= UNITARY_ATOL
    if not unitary.all():
        k = unitary.argmin()
        raise ValueError(f"{labels[k % len(labels)]} is not unitary "
                         f"(defect {np.abs(gram[k]).max():.3e})")


def _check_probes(system: ModeSystem, probes: np.ndarray) -> None:
    """:meth:`Attack.validate`'s initial-probe checks on an (attack, level) stack."""
    if probes.shape[1:] != (system.probe_dim,):
        raise ValueError("initial_probe has the wrong dimension")
    if not (np.abs(np.linalg.norm(probes.view(np.float64), axis=-1) - 1.0)
            <= UNITARY_ATOL).all():
        raise ValueError("initial_probe must be a unit vector")


# -- builders -----------------------------------------------------------------


def basis_permutation(system: ModeSystem,
                      image: Callable[[tuple[int, ...], int], tuple[Sequence[int], int]]
                      ) -> np.ndarray:
    """Unitary permutation matrix from a bijection on (occupation, probe) labels."""
    seen = set()
    mat = np.zeros((system.dim, system.dim), dtype=np.complex128)
    for i in range(system.dim):
        occ, probe = system.basis_state(i)
        occ2, probe2 = image(occ, probe)
        j = system.basis_index(occ2, probe2)
        if j in seen:
            raise ValueError("image function is not a bijection on the basis")
        seen.add(j)
        mat[j, i] = 1.0
    return mat


def probe_unitary(system: ModeSystem, u_probe: np.ndarray) -> np.ndarray:
    """Act with ``u_probe`` on the probe factor alone."""
    u_probe = np.asarray(u_probe, dtype=np.complex128)
    if u_probe.shape != (system.probe_levels, system.probe_levels):
        raise ValueError("probe unitary has the wrong dimension")
    n_occ = len(system.occupations())
    return np.kron(np.eye(n_occ), u_probe)


def _swap_tags(system: ModeSystem, occ: Sequence[int]) -> tuple[int, ...]:
    """``occ`` with the counts of tags 0 and 1 exchanged in every mode."""
    out = list(occ)
    for pair in range(system.num_pairs):
        for mode in (0, 1):
            sa, sb = system.slot(pair, mode, 0), system.slot(pair, mode, 1)
            out[sa], out[sb] = out[sb], out[sa]
    return tuple(out)


def tag_swap_unitary(system: ModeSystem) -> np.ndarray:
    """Exchange tags 0 and 1 on every photon (a relabeling, hence unitary)."""
    return basis_permutation(system, lambda occ, probe: (_swap_tags(system, occ), probe))


def number_sector_phases(system: ModeSystem, phases: Sequence[float]) -> np.ndarray:
    """Diagonal phase per total photon number; needs one phase per 0..n_max."""
    if len(phases) != system.n_max + 1:
        raise ValueError(f"need {system.n_max + 1} phases")
    return np.diag(np.exp(1j * np.asarray(phases))[system.basis_table[0].sum(axis=1)])


# -- named attacks ------------------------------------------------------------


def identity_attack(tag_dim: int = 1, n_max: int = 2, probe_dim: int = 1) -> Attack:
    """Eve does nothing; the reference point for every no-attack statistic."""
    system = attack_space(tag_dim, n_max, probe_dim)
    eye = np.eye(system.dim)
    probe = np.zeros(probe_dim)
    probe[0] = 1.0
    return Attack("identity", system, eye, eye, probe, photon_preserving=True)


def _pure_tag(system: ModeSystem, occ: Sequence[int], tag: int) -> bool:
    total = sum(occ)
    if total == 0:
        return False
    on_tag = sum(occ[system.slot(0, mode, tag)] for mode in (0, 1))
    return on_tag == total


def tagging_attack(n_max: int = 2) -> Attack:
    """Mark outgoing photons in a second tag bin and read the tag coming back.

    Forward, every photon is shifted from tag 0 to tag 1.  Backward, a
    returning photon still in tag 1 was reflected: Eve's probe records
    "saw CTRL" and the tag is shifted back.  A photon in tag 0 must have
    been freshly produced by a measure-and-resend party: the probe records
    "saw SIFT" and the light passes untouched.  Nothing returning leaves
    the probe idle.  Against the legacy protocol this reads Alice's choice
    perfectly; against the mirror protocol the tag never betrays which mode
    was swapped.
    """
    system = attack_space(tag_dim=2, n_max=n_max, probe_dim=3)
    u_forward = tag_swap_unitary(system)

    def v_image(occ: tuple[int, ...], probe: int):
        if _pure_tag(system, occ, 0):
            if probe == PROBE_IDLE:
                return occ, PROBE_SAW_SIFT
            if probe == PROBE_SAW_SIFT:
                return occ, PROBE_IDLE
            return _swap_tags(system, occ), PROBE_IDLE
        if _pure_tag(system, occ, 1) and probe == PROBE_IDLE:
            return _swap_tags(system, occ), PROBE_SAW_CTRL
        return occ, probe

    v_backward = basis_permutation(system, v_image)
    probe = np.zeros(3)
    probe[PROBE_IDLE] = 1.0
    return Attack("tagging", system, u_forward, v_backward, probe,
                  photon_preserving=True)


def measure_resend_attack(basis: str = "computational", tag_dim: int = 1,
                          n_max: int = 2) -> Attack:
    """Intercept on the way to Alice, record the click pattern, pass the
    collapsed light along.

    Modeled unitarily: the probe is a von Neumann pointer entangled with the
    pattern class ("01", "10", "11"), which reproduces the statistics of
    measuring with threshold detectors and resending the detected state.
    ``basis`` picks the measurement frame.  The return pass is untouched.
    """
    if basis not in ("computational", "hadamard"):
        raise ValueError(f"unknown basis {basis!r}")
    system = attack_space(tag_dim=tag_dim, n_max=n_max, probe_dim=4)

    def record_of(occ: tuple[int, ...]) -> int:
        mode0 = sum(occ[system.slot(0, 0, t)] for t in range(tag_dim))
        mode1 = sum(occ[system.slot(0, 1, t)] for t in range(tag_dim))
        if mode1 and mode0:
            return 3
        return 2 if mode1 else 1

    def image(occ: tuple[int, ...], probe: int):
        if sum(occ) == 0:
            return occ, probe
        rec = record_of(occ)
        if probe == PROBE_IDLE:
            return occ, rec
        if probe == rec:
            return occ, PROBE_IDLE
        return occ, probe

    u_forward = basis_permutation(system, image)
    if basis == "hadamard":
        had = hadamard_matrix(system, 0)
        u_forward = had @ u_forward @ had
    probe = np.zeros(4)
    probe[PROBE_IDLE] = 1.0
    return Attack(f"measure-resend-{basis}", system, u_forward,
                  np.eye(system.dim), probe, photon_preserving=True)


def random_attack(seed: int, probe_dim: int = 4, strength: float = 0.3,
                  n_max: int = 2) -> Attack:
    """Seeded random unitaries U = exp(i * strength * H) with H drawn GUE-like.

    U is W diag(exp(i * strength * w)) W^H from the eigendecomposition of H.
    strength 0 gives exactly the identity attack; strength about 1 scrambles
    the transmitted pair and the probe thoroughly.  Tagless by construction
    (a generic Hermitian generator would superpose tag sectors).
    ``default_rng(seed)`` draws U's real and imaginary normal blocks A, B,
    then V's, and H = (G + G^H) / 2 with G = A + iB.  This is the one-seed
    case of :func:`_random_attacks`, which a sweep runs on a chunk of
    seeds: every step is per slice, so a seed's U and V have the same bits
    in a stack of any size.
    """
    system = attack_space(tag_dim=1, n_max=n_max, probe_dim=probe_dim)
    (unitaries,), (probe,) = _random_attacks((seed,), system, strength)
    return Attack(f"random-{seed}", system, *unitaries, probe)


def _random_attacks(seeds: Sequence[int], system: ModeSystem,
                    strength: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`random_attack`'s (seed, U/V, d, d) unitaries and (seed, level)
    initial probes for a chunk of seeds on ``system``, unchecked: each
    seed's normals fill its slice of one buffer, then one Hermitian build,
    one ``eigh`` over every generator and one product.  Strength 0 gives a
    read-only broadcast identity."""
    if not 0.0 <= strength <= 1.0:
        raise ValueError("strength must lie in [0, 1]")
    k, d = len(seeds), system.dim
    if strength == 0.0:
        unitaries = np.broadcast_to(np.eye(d, dtype=np.complex128), (k, 2, d, d))
    else:
        # Peak memory: steps run in place where they round the same, stacks freed once used.
        draws = np.empty((k, 2, 2, d, d))
        for slot, seed in zip(draws, seeds):
            np.random.default_rng(seed).standard_normal(out=slot)  # the same stream
        h = 1j * draws[:, :, 1]
        h += draws[:, :, 0]  # G = A + iB
        del draws
        h += h.conj().swapaxes(-1, -2)
        h /= 2.0
        w, vecs = np.linalg.eigh(h)
        del h
        phased = vecs * np.exp(1j * strength * w)[..., None, :]
        unitaries = phased @ np.conjugate(vecs, out=vecs).swapaxes(-1, -2)
        del phased, vecs
    probes = np.zeros((k, system.probe_dim), dtype=np.complex128)
    probes[:, 0] = 1.0
    return unitaries, probes


# -- fixture import/export ----------------------------------------------------

_DOC_KIND = "sqkdsim-attack"


def _to_pairs(values: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _from_pairs(data, ndim: int) -> np.ndarray:
    """The complex array of rank ``ndim`` that :func:`_to_pairs` wrote;
    anything else (strings, booleans and nulls too) is a ValueError."""
    pairs = np.array(data)
    if (pairs.dtype.kind not in "iuf" or pairs.shape[ndim:] != (2,)
            or not np.isfinite(pairs).all()):
        raise ValueError(f"expected finite [re, im] pairs nested {ndim} deep")
    return pairs.astype(np.float64).view(np.complex128)[..., 0]


def _basis_order(system: ModeSystem) -> list:
    """The basis layout as an attack document states it, index by index."""
    return [{"occupation": list(occ), "probe": probe}
            for occ, probe in map(system.basis_state, range(system.dim))]


def attack_to_document(attack: Attack) -> dict:
    system = attack.system
    return {
        "kind": _DOC_KIND,
        "format_version": 1,
        "name": attack.name,
        "tag_dim": system.tag_dim,
        "n_max": system.n_max,
        "probe_dim": system.probe_dim,
        "photon_preserving": attack.photon_preserving,
        "basis_order": _basis_order(system),
        "initial_probe": _to_pairs(attack.initial_probe),
        "u_forward": _to_pairs(attack.u_forward),
        "v_backward": _to_pairs(attack.v_backward),
    }


def attack_from_document(doc: dict) -> Attack:
    """Rebuild an attack; a malformed document raises ValueError."""
    try:
        if doc.get("kind") != _DOC_KIND:
            raise ValueError("not an attack document")
        system = attack_space(int(doc["tag_dim"]), int(doc["n_max"]),
                              int(doc["probe_dim"]))
        declared = doc.get("basis_order")
        if declared is not None and declared != _basis_order(system):
            raise ValueError("declared basis order does not match the reconstructed space")
        probe = _from_pairs(doc["initial_probe"], 1)
        u_forward = _from_pairs(doc["u_forward"], 2)
        v_backward = _from_pairs(doc["v_backward"], 2)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            "malformed attack document: expected a JSON object with tag_dim, "
            "n_max, probe_dim, and [re, im] pairs in initial_probe, u_forward "
            f"and v_backward ({type(exc).__name__}: {exc})") from exc
    return Attack(str(doc.get("name", "imported")), system, u_forward, v_backward,
                  probe, bool(doc.get("photon_preserving", False)))


def save_attack(attack: Attack, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(attack_to_document(attack), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_attack(path) -> Attack:
    with open(path, "r", encoding="utf-8") as fh:
        return attack_from_document(json.load(fh))
