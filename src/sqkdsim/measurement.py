"""Threshold detection and the protocol's outcome bookkeeping.

A threshold detector on one mode fires when at least one photon is present,
regardless of how many or which tags they carry.  Measuring a pair therefore
yields one of four click patterns, written with the mode-1 digit first:
"00", "01", "10", "11".  After a Hadamard basis change the same positions
read as (minus, plus) clicks, so "01" is the plus detector alone.

Although only the click pattern is announced, the detector physically
absorbs the photons, which destroys coherence between configurations that
differ in photon number or tag.  So a measurement is loss at survival 0 on
the measured modes (a pair, or one rail of it): one branch per exact
occupation of those modes, emptied in its sub-normalized residual.  Rounds
apply it by the loss maps of :mod:`sqkdsim.protocol`.  The outcome
interpretation tables follow.
"""

from __future__ import annotations

import enum

from .fock import ContractViolation

__all__ = [
    "Basis",
    "ClickPattern",
    "AliceOp",
    "Interpretation",
    "interpret_ctrl",
    "interpret_swap_x",
    "interpret_swap_all",
    "interpret_legacy_sift",
    "shared_bit",
]


class Basis(enum.Enum):
    COMPUTATIONAL = "computational"
    HADAMARD = "hadamard"


class ClickPattern(enum.Enum):
    """Which of a pair's two detectors fired, mode-1 (or minus) digit first."""

    P00 = "00"
    P01 = "01"
    P10 = "10"
    P11 = "11"

    @property
    def mode1_click(self) -> bool:
        return self.value[0] == "1"

    @property
    def mode0_click(self) -> bool:
        return self.value[1] == "1"

    @property
    def code(self) -> int:
        """The pattern read as a binary number: mode-1 click is bit 1."""
        return int(self.value, 2)

    @property
    def n_clicks(self) -> int:
        """Number of detectors that fired; the value the parties announce."""
        return int(self.mode1_click) + int(self.mode0_click)

    @staticmethod
    def from_clicks(mode1: bool, mode0: bool) -> "ClickPattern":
        return ClickPattern(f"{int(mode1)}{int(mode0)}")

    def __str__(self) -> str:
        return self.value


class AliceOp(enum.Enum):
    """Alice's per-round choice.

    The mirror protocol uses CTRL and the three SWAP variants.  The legacy
    protocol (single reflecting element) uses CTRL and SIFT, where SIFT means
    measure in the computational basis and resend a fresh photon.
    """

    CTRL = "CTRL"
    SWAP_10 = "SWAP-10"
    SWAP_01 = "SWAP-01"
    SWAP_ALL = "SWAP-ALL"
    SIFT = "SIFT"


class Interpretation(enum.Enum):
    LOSS = "Loss"
    LEGAL = "Legal"
    ERROR = "Error"
    SHARED_BIT = "SharedBit"
    NO_SHARED_BIT = "NoSharedBit"


PRUNE = 1e-24  # branch weights at most this are numerical dust, not outcomes


# -- interpretation tables ----------------------------------------------------
#
# Applied after sifting: CTRL rounds are interpreted only when Bob measured in
# the Hadamard basis, SWAP rounds only in the computational basis.


def interpret_ctrl(bob_pattern: ClickPattern) -> Interpretation:
    """CTRL round, Bob's Hadamard-basis pattern (minus digit first)."""
    return {
        ClickPattern.P00: Interpretation.LOSS,
        ClickPattern.P01: Interpretation.LEGAL,
        ClickPattern.P10: Interpretation.ERROR,
        ClickPattern.P11: Interpretation.ERROR,
    }[bob_pattern]


def interpret_swap_x(alice_sum: int, bob_sum: int) -> Interpretation:
    """SWAP-10 or SWAP-01 round, by the announced click sums.

    Alice's sum can never reach 2 on these rounds: a single-mode swap puts
    photons in exactly one of her modes.  Seeing it is a simulator bug.
    """
    if alice_sum == 2:
        raise ContractViolation("alice sum 2 on a single-mode swap round")
    if (alice_sum, bob_sum) == (0, 0):
        return Interpretation.LOSS
    if bob_sum == 2:
        return Interpretation.ERROR
    if (alice_sum, bob_sum) == (0, 1):
        return Interpretation.SHARED_BIT
    if (alice_sum, bob_sum) == (1, 0):
        return Interpretation.NO_SHARED_BIT
    return Interpretation.ERROR  # (1, 1): both held a photon


def interpret_swap_all(alice_pattern: ClickPattern,
                       bob_pattern: ClickPattern) -> Interpretation:
    """SWAP-ALL round: everything Bob sent now sits on Alice's detectors."""
    if bob_pattern is not ClickPattern.P00:
        return Interpretation.ERROR
    if alice_pattern is ClickPattern.P00:
        return Interpretation.LOSS
    if alice_pattern is ClickPattern.P11:
        return Interpretation.ERROR
    return Interpretation.LEGAL


def interpret_legacy_sift(alice_pattern: ClickPattern,
                          bob_pattern: ClickPattern) -> Interpretation:
    """SIFT round of the legacy protocol, both patterns computational."""
    if alice_pattern is ClickPattern.P11 or bob_pattern is ClickPattern.P11:
        return Interpretation.ERROR
    if alice_pattern is ClickPattern.P00 or bob_pattern is ClickPattern.P00:
        return Interpretation.LOSS
    return Interpretation.SHARED_BIT


def shared_bit(alice_op: AliceOp, bob_pattern: ClickPattern) -> tuple[int, int]:
    """Key bits of a SharedBit round on the mirror protocol.

    Alice's bit is fixed by which mode she did NOT swap out; Bob's by which
    mode clicked.  The two coincide unless an attack disturbed the round.
    """
    if alice_op is AliceOp.SWAP_10:
        alice_bit = 0
    elif alice_op is AliceOp.SWAP_01:
        alice_bit = 1
    else:
        raise ValueError(f"no shared bit is defined for {alice_op}")
    if bob_pattern is ClickPattern.P01:
        bob_bit = 0
    elif bob_pattern is ClickPattern.P10:
        bob_bit = 1
    else:
        raise ValueError(f"no shared bit for Bob pattern {bob_pattern}")
    return alice_bit, bob_bit
