"""Multipath nonlinear quantum-optical circuits and their linear duals."""

from .errors import (
    CircuitFormatError,
    DimensionOverflowError,
    PtrsimError,
    SingularCavityError,
    TruncationLeakError,
)
from .fock import FockSpace, enumerate_basis
from .gaussian import GaussianState, SymplecticMap, q_duality_residual, symplectic_from_transfer
from .harness import VerificationReport, random_circuit, run_reference_examples, teleportation_demo
from .linamp import DualityReport, permanent, ptr_postselection_amplitude, verify_duality
from .ptr import Circuit, LinearI, LinearS, Pdc, PhaseI, PhaseS, PtrSetup, build_ptr
from .scatter import ScatteringMatrix, TransferMatrix, star

__all__ = [
    "Circuit",
    "CircuitFormatError",
    "DimensionOverflowError",
    "DualityReport",
    "FockSpace",
    "GaussianState",
    "LinearI",
    "LinearS",
    "Pdc",
    "PhaseI",
    "PhaseS",
    "PtrsimError",
    "PtrSetup",
    "ScatteringMatrix",
    "SingularCavityError",
    "SymplecticMap",
    "TransferMatrix",
    "TruncationLeakError",
    "VerificationReport",
    "build_ptr",
    "enumerate_basis",
    "permanent",
    "ptr_postselection_amplitude",
    "q_duality_residual",
    "random_circuit",
    "run_reference_examples",
    "star",
    "symplectic_from_transfer",
    "teleportation_demo",
    "verify_duality",
]

__version__ = "0.1.0"
