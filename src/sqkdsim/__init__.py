"""Exact simulator for mirror-based semiquantum key distribution.

A fully classical party (Alice) holds a controllable mirror: she either
reflects Bob's photon or swaps chosen modes into her own detectors.  This
package models the optical state exactly on a truncated Fock space, runs the
protocol round by round, and checks the detection guarantees that make the
mirror variant robust where its SIFT-based ancestor was not.
"""

from .adversary import (Attack, attack_from_document, attack_to_document,
                        identity_attack, load_attack, measure_resend_attack,
                        random_attack, save_attack, tagging_attack)
from .alice import ALICE_PAIR, TRANSMIT_PAIR, apply_alice_op
from .fock import (ContractViolation, DensityOperator, FockVector, ModeSystem,
                   basis_vector, hadamard_change, plus_state, single_photon,
                   tensor, trace_distance, vacuum)
from .measurement import (AliceOp, Basis, ClickPattern, Interpretation,
                          MeasurementBranch, interpret_ctrl,
                          interpret_legacy_sift, interpret_swap_all,
                          interpret_swap_x, measure_pair, shared_bit)
from .protocol import (EveConditionals, ExactStatistics, ProtocolConfig,
                       RoundEnumerator, RunStats, SiftCtrlIdentification,
                       Variant, eve_conditional_states, exact_statistics,
                       legacy_identification, run_protocol, simulate_records)
from .robustness import (ConditionReport, LemmaInput, LemmaVerdict,
                         SweepRecord, SweepReport, check_conditions,
                         lemma_state, measurement_cross_check,
                         random_lemma_input, robustness_sweep, verify_lemma1)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # state space
    "ContractViolation", "ModeSystem", "FockVector", "DensityOperator",
    "vacuum", "basis_vector", "single_photon", "plus_state", "tensor",
    "hadamard_change", "trace_distance",
    # parties
    "ALICE_PAIR", "TRANSMIT_PAIR", "AliceOp", "Basis", "ClickPattern",
    "Interpretation", "MeasurementBranch", "apply_alice_op", "measure_pair",
    "interpret_ctrl", "interpret_swap_x", "interpret_swap_all",
    "interpret_legacy_sift", "shared_bit",
    # adversary
    "Attack", "identity_attack", "tagging_attack", "measure_resend_attack",
    "random_attack", "attack_to_document",
    "attack_from_document", "save_attack", "load_attack",
    # protocol
    "Variant", "ProtocolConfig", "RoundEnumerator", "RunStats", "run_protocol",
    "simulate_records",
    "ExactStatistics", "exact_statistics", "EveConditionals",
    "eve_conditional_states", "SiftCtrlIdentification",
    "legacy_identification",
    # robustness
    "ConditionReport", "check_conditions", "measurement_cross_check",
    "LemmaInput", "LemmaVerdict", "lemma_state", "verify_lemma1",
    "random_lemma_input", "SweepRecord", "SweepReport", "robustness_sweep",
]
