"""Eavesdropper models: a forward unitary, a backward unitary, and a probe.

An attack acts on the transmitted pair (with its tags) joined to Eve's
private probe.  ``u_forward`` dresses the state on its way from Bob to
Alice, ``v_backward`` on the way back.  Both are arbitrary unitaries on the
truncated space, so Eve may inject or absorb photons unless she declares
herself photon-preserving.  This one-pair-plus-probe space is also the
space every protocol round runs on: Alice's storage is empty whenever Eve
acts, so the matrices apply as they are, by one function: a round's
branch pass multiplies its stacked rows by them (``sqkdsim.fock._evolve``),
and the measurement cross-check's single state goes through its one-row
case, :func:`sqkdsim.fock.apply_truncating_unitary`.

Two exported builders compose the named attacks and serve for new ones:
:func:`basis_permutation` takes the image of every basis index as
basis-table arrays (occupation rows and probe levels), and
:func:`tag_swap_unitary` exchanges the occupation columns of tags 0 and 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .fock import ModeSystem, _integer, _real, hadamard_matrix

__all__ = [
    "Attack",
    "attack_space",
    "basis_permutation",
    "tag_swap_unitary",
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


@dataclass(frozen=True, eq=False)
class Attack:
    """Frozen and validated: its fields and matrices are read-only, so an
    enumerator always holds the attack it was built from."""

    name: str
    system: ModeSystem
    u_forward: np.ndarray
    v_backward: np.ndarray
    initial_probe: np.ndarray
    photon_preserving: bool = False

    def __post_init__(self) -> None:
        for name in ("u_forward", "v_backward", "initial_probe"):  # the one write of each
            arr = np.array(getattr(self, name), dtype=np.complex128)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        self.validate()

    def __reduce__(self):  # an unpickled array is writable: rebuild, which validates
        return Attack, tuple(getattr(self, f.name) for f in fields(self))

    def validate(self) -> None:
        if self.system.num_pairs != 1:
            raise ValueError("attacks are defined over a single transmitted pair")
        if self.system.probe_dim < 1:
            raise ValueError("attacks need a probe factor (probe_dim >= 1)")
        d = self.system.dim
        mats = {"u_forward": self.u_forward, "v_backward": self.v_backward}
        for label, mat in mats.items():  # before the basis is listed: it may not fit
            if mat.shape != (d, d):
                raise ValueError(f"{label} must be {d}x{d} for {self.system}")
        number = self.system.basis_table[0].sum(axis=1) if self.photon_preserving else None
        # Every check reads "not defect <= tol", so NaN and inf fail too.
        for label, mat in mats.items():
            if self.photon_preserving and not (
                    np.abs(mat * (number[None, :] - number[:, None])).max() <= UNITARY_ATOL):
                raise ValueError(f"{label} declared photon-preserving but is not")
            _check_unitary(mat[None], (label,))
        _check_probes(self.system, self.initial_probe[None])


def _check_unitary(mats: np.ndarray, labels=("u_forward", "v_backward")) -> None:
    """:meth:`Attack.validate`'s unitarity check on an (attack, matrix, d, d)
    stack whose matrices are named by ``labels``, raising for the first
    failing matrix in attack order.  The defect, the largest absolute row sum
    of M^dagger M - I, bounds how much M changes any state's squared norm."""
    d = mats.shape[-1]
    gram = (np.conjugate(mats).swapaxes(-1, -2) @ mats).reshape(-1, d * d)
    gram[:, ::d + 1] -= 1.0  # each Gram matrix minus the identity
    defect = np.abs(gram).reshape(-1, d, d).sum(axis=2).max(axis=1)
    unitary = defect <= UNITARY_ATOL
    if not unitary.all():
        k = unitary.argmin()
        raise ValueError(f"{labels[k % len(labels)]} is not unitary (defect {defect[k]:.3e})")


def _check_probes(system: ModeSystem, probes: np.ndarray) -> None:
    """:meth:`Attack.validate`'s initial-probe checks on an (attack, level) stack."""
    if probes.shape[1:] != (system.probe_dim,):
        raise ValueError("initial_probe has the wrong dimension")
    if not (np.abs(np.linalg.norm(probes.view(np.float64), axis=-1) - 1.0)
            <= UNITARY_ATOL).all():
        raise ValueError("initial_probe must be a unit vector")


# -- builders -----------------------------------------------------------------


def basis_permutation(system: ModeSystem, occupations, probes) -> np.ndarray:
    """Unitary permutation matrix taking each basis index i to the index of
    occupation row i and probe level i of the image arrays."""
    image = system.index_of(occupations, probes)
    if image.shape != (system.dim,) or np.bincount(image, minlength=system.dim).max() > 1:
        raise ValueError("image is not a bijection on the basis")
    mat = np.zeros((system.dim, system.dim), dtype=np.complex128)
    mat[image, np.arange(system.dim)] = 1.0
    return mat


def tag_swap_unitary(system: ModeSystem) -> np.ndarray:
    """Exchange tags 0 and 1 on every photon (a relabeling, hence unitary)."""
    if system.tag_dim < 2:
        raise ValueError("the tag swap needs tag_dim >= 2")
    columns = np.arange(system.n_slots).reshape(-1, system.tag_dim)  # (pair, mode) by tag
    columns[:, [0, 1]] = columns[:, [1, 0]]
    occs, probes = system.basis_table
    return basis_permutation(system, occs[:, columns.ravel()], probes)


# -- named attacks ------------------------------------------------------------


def identity_attack(tag_dim: int = 1, n_max: int = 2, probe_dim: int = 1) -> Attack:
    """Eve does nothing; the reference point for every no-attack statistic."""
    system = attack_space(tag_dim, n_max, probe_dim)
    eye = np.eye(system.dim)
    return Attack("identity", system, eye, eye, np.eye(probe_dim)[PROBE_IDLE],
                  photon_preserving=True)


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
    occs, probes = system.basis_table
    by_tag = occs.reshape(-1, 2, 2)  # (index, mode, tag)
    on_tag = by_tag.sum(axis=1) > 0
    sift, ctrl = (on_tag & ~on_tag[:, ::-1]).T  # light on tag 0 only, on tag 1 only
    idle = probes == PROBE_IDLE
    swap = sift & (probes == PROBE_SAW_CTRL) | ctrl & idle
    v_backward = basis_permutation(
        system, np.where(swap[:, None], by_tag[:, :, ::-1].reshape(occs.shape), occs),
        np.select([sift & idle, sift, ctrl & idle],
                  [PROBE_SAW_SIFT, PROBE_IDLE, PROBE_SAW_CTRL], probes))
    return Attack("tagging", system, u_forward, v_backward, np.eye(3)[PROBE_IDLE],
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
    occs, probes = system.basis_table
    # The click class as a pattern code: 1 mode 0 only, 2 mode 1 only, 3 both;
    # 0 (idle) for the vacuum, which the pointer therefore leaves alone.
    clicks = occs.reshape(len(occs), 2, tag_dim).sum(axis=2) > 0
    record = clicks[:, 0] + 2 * clicks[:, 1]
    u_forward = basis_permutation(system, occs, np.select(
        [probes == PROBE_IDLE, probes == record], [record, PROBE_IDLE], probes))
    if basis == "hadamard":
        had = hadamard_matrix(system, 0)
        u_forward = had @ u_forward @ had
    return Attack(f"measure-resend-{basis}", system, u_forward,
                  np.eye(system.dim), np.eye(4)[PROBE_IDLE], photon_preserving=True)


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
    seed, strength = _integer("seed", seed), _real("strength", strength)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
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
        # G + G^H with G = A + iB, written part by part into one buffer.
        h = np.empty((k, 2, d, d), dtype=np.complex128)
        np.add(draws[:, :, 0], draws[:, :, 0].swapaxes(-1, -2), out=h.real)
        np.subtract(draws[:, :, 1], draws[:, :, 1].swapaxes(-1, -2), out=h.imag)
        del draws
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


def _json_field(doc: dict, key: str, kind: type, default=None):
    """``doc[key]`` (``default`` if absent), exactly a JSON ``kind``: no bool is an int."""
    value = doc.get(key, default)
    if type(value) is not kind:
        raise ValueError(f"{key} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _basis_order(system: ModeSystem) -> list:
    """The basis layout as an attack document states it, index by index."""
    occs, probes = system.basis_table
    return [{"occupation": occ, "probe": probe}
            for occ, probe in zip(occs.tolist(), probes.tolist())]


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
        system = attack_space(*(_json_field(doc, key, int)
                                for key in ("tag_dim", "n_max", "probe_dim")))
        photon_preserving = _json_field(doc, "photon_preserving", bool, False)
        declared = doc.get("basis_order")
        if declared is not None and not (  # its length first: the basis may not fit
                isinstance(declared, list) and len(declared) == system.dim
                and declared == _basis_order(system)):
            raise ValueError("declared basis order does not match the reconstructed space")
        probe = _from_pairs(doc["initial_probe"], 1)
        u_forward = _from_pairs(doc["u_forward"], 2)
        v_backward = _from_pairs(doc["v_backward"], 2)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            "malformed attack document: expected a JSON object with integer "
            "tag_dim, n_max and probe_dim, and [re, im] pairs in initial_probe, "
            f"u_forward and v_backward ({type(exc).__name__}: {exc})") from exc
    return Attack(str(doc.get("name", "imported")), system, u_forward, v_backward,
                  probe, photon_preserving)


def save_attack(attack: Attack, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(attack_to_document(attack), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _unique_keys(pairs: list) -> dict:
    """A JSON object, as ``json``'s ``object_pairs_hook``: a repeated key is
    a ValueError, where ``json`` would keep its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError(f"repeated key among {[key for key, _ in pairs]}")
    return doc


def load_attack(path) -> Attack:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # not JSON, or a repeated key
        raise ValueError(f"malformed attack document {path}: {exc}") from exc
    return attack_from_document(doc)
