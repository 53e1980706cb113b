"""Circuit description and its linear partial-time-reversal setup.

A circuit is an ordered list of elements acting on a fixed set of signal
and idler paths: nondegenerate parametric pair sources (``Pdc``), linear
networks confined to one side, and single-path phase plates, which a circuit
stores as diagonal networks of their side.  Substituting
every pair source by its hypothetical beamsplitter and folding the chain
with the Redheffer star product yields the scattering matrix of the dual
linear setup together with the normalization coefficient that relates
postselected amplitudes of the two pictures.  Only a pair source closes a
cavity: a one-sided network folds in by plain multiplication, and the star
product runs only at the beamsplitters of nonzero-gain sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from . import scatter
from .scatter import ScatteringMatrix, TransferMatrix

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Pdc:
    """Nondegenerate parametric pair source coupling one signal and one idler path.

    The gain ``r`` is real and nonnegative; complex pump phases are expressed
    with explicit phase plates around the element.
    """

    s_path: int
    i_path: int
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError(f"pair-source gain must be finite and nonnegative, got {self.r!r}")


_SIDE_NAMES = {"s": "signal", "i": "idler"}


@dataclass(frozen=True)
class _Linear:
    """Unitary linear network confined to the paths of one side."""

    side: ClassVar[str]
    matrix: np.ndarray

    def __post_init__(self):
        name = _SIDE_NAMES[self.side]
        matrix = np.array(self.matrix, dtype=np.complex128)
        if not np.all(np.isfinite(matrix)):
            raise ValueError(f"{name}-side matrix has non-finite entries")
        defect = scatter.unitarity_defect(matrix)
        if defect > UNITARITY_TOL:
            raise ValueError(f"{name}-side matrix is not unitary: defect {defect:.3e} exceeds 1e-10")
        matrix.setflags(write=False)  # :attr:`angles` is cached from it
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def angles(self) -> np.ndarray | None:
        """Read-only phase angles of the diagonal when the network is diagonal (phase plates), else None."""
        phases = np.diagonal(self.matrix)
        if np.count_nonzero(self.matrix) != np.count_nonzero(phases):
            return None
        angles = np.angle(phases)
        angles.setflags(write=False)
        return angles


@dataclass(frozen=True)
class LinearS(_Linear):
    """Unitary linear network on the signal paths."""

    side = "s"


@dataclass(frozen=True)
class LinearI(_Linear):
    """Unitary linear network on the idler paths."""

    side = "i"


def phase_matrix(path: int, phase: float, n_paths: int) -> np.ndarray:
    matrix = np.eye(n_paths, dtype=np.complex128)
    matrix[path, path] = np.exp(1j * phase)
    return matrix


@dataclass(frozen=True)
class _PhasePlate:
    linear: ClassVar[type[_Linear]]
    path: int
    phase: float

    def __post_init__(self):
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase!r}")


@dataclass(frozen=True)
class PhaseS(_PhasePlate):
    """Phase plate on one signal path; a circuit stores it as a diagonal ``LinearS``."""

    linear = LinearS


@dataclass(frozen=True)
class PhaseI(_PhasePlate):
    """Phase plate on one idler path; a circuit stores it as a diagonal ``LinearI``."""

    linear = LinearI


Element = Union[Pdc, LinearS, LinearI]


@dataclass(frozen=True)
class Circuit:
    """Ordered multipath circuit; elements act first-to-last.

    Phase plates are stored as the diagonal linear networks they are, so
    ``elements`` holds only ``Pdc``, ``LinearS`` and ``LinearI``.
    """

    n_s_paths: int
    n_i_paths: int
    elements: tuple[Element, ...]

    def __post_init__(self):
        if self.n_s_paths < 1 or self.n_i_paths < 1:
            raise ValueError("need at least one signal and one idler path")
        paths = {"s": self.n_s_paths, "i": self.n_i_paths}

        def check_path(pos: int, side: str, path: int) -> None:
            if not 0 <= path < paths[side]:
                raise ValueError(f"element {pos}: {_SIDE_NAMES[side]} path {path} out of range")

        elements = []
        for pos, element in enumerate(self.elements):
            if isinstance(element, Pdc):
                check_path(pos, "s", element.s_path)
                check_path(pos, "i", element.i_path)
            elif isinstance(element, _PhasePlate):
                side = element.linear.side
                check_path(pos, side, element.path)
                element = element.linear(phase_matrix(element.path, element.phase, paths[side]))
            elif isinstance(element, _Linear):
                n = paths[element.side]
                if element.matrix.shape != (n, n):
                    raise ValueError(f"element {pos}: {_SIDE_NAMES[element.side]} matrix shape mismatch")
            else:
                raise TypeError(f"element {pos}: unknown element {element!r}")
            elements.append(element)
        object.__setattr__(self, "elements", tuple(elements))

    @property
    def total_gain(self) -> float:
        return sum(el.r for el in self.elements if isinstance(el, Pdc))

    @property
    def pdc_count(self) -> int:
        return sum(1 for el in self.elements if isinstance(el, Pdc))


@dataclass(frozen=True)
class PtrSetup:
    """Linear setup dual to a nonlinear circuit.

    ``nc`` is the normalization coefficient multiplying every dual
    amplitude; it factors into the product of the beamsplitter
    transmittances and one cavity determinant per pair source.
    """

    scattering: ScatteringMatrix
    nc: complex
    beta_factors: tuple[complex, ...]
    t_product: float


def build_ptr(circuit: Circuit) -> PtrSetup:
    """Fold the substituted circuit into its dual setup and coefficient.

    Elements fold in circuit order.  A one-sided network closes no loop,
    so its star product with the folded prefix is a plain multiplication:
    a signal unitary U takes the signal rows to U @ rows and an idler
    unitary V the idler columns to columns @ V.T.  Each nonzero-gain pair
    source joins as its hypothetical beamsplitter through the star product
    (which skips the leading source's loop, empty before any coupling) and
    contributes sech(r) to the transmittance product and one cavity
    factor, the inverse determinant of the feedback loop between the
    folded prefix and its beamsplitter.  That loop has rank one, so the
    determinant is 1 + tanh(r) * prefix.si[s_path, i_path] (the
    matrix-determinant lemma, the looping-photon factor of
    :func:`looping_series_defect`); for the leading pair source it is one.
    """
    n_s, n_i = circuit.n_s_paths, circuit.n_i_paths
    full = np.eye(n_s + n_i, dtype=np.complex128)
    t_product = 1.0
    betas: list[complex] = []
    for element in circuit.elements:
        if isinstance(element, LinearS):
            full[:n_s] = element.matrix @ full[:n_s]
        elif isinstance(element, LinearI):
            full[:, n_s:] = full[:, n_s:] @ element.matrix.T
        elif element.r != 0:
            source = scatter.hypothetical_bs(element.r, element.s_path, element.i_path, n_s, n_i)
            # a singular loop raises here, before its factor divides by zero
            folded = scatter.star(ScatteringMatrix._wrap(full, n_s, n_i), source)
            loop_value = math.tanh(element.r) * complex(full[element.s_path, n_s + element.i_path])
            betas.append(1.0 / (1.0 + loop_value))
            t_product *= 1.0 / math.cosh(element.r)
            full = folded.full.copy()
    nc = complex(t_product * np.prod(betas) if betas else t_product)
    return PtrSetup(ScatteringMatrix._wrap(full, n_s, n_i), nc, tuple(betas), t_product)


def circuit_transfer(circuit: Circuit) -> TransferMatrix:
    """Transfer matrix of the substituted circuit: the elements' transfer matrices, last on the left.

    Each element folds into one array in place.  A signal network U takes
    the signal rows to U @ rows, an idler network V the idler rows to
    conj(V) @ rows, and a pair source of gain r mixes its signal and idler
    rows by [[cosh r, sinh r], [sinh r, cosh r]]; a zero-gain source is the
    identity.  A gain whose cosh passes the float range raises
    ``OverflowError``, and a product that does raises ``ValueError`` as a
    non-finite two-port.
    """
    n_s, n_i = circuit.n_s_paths, circuit.n_i_paths
    full = np.eye(n_s + n_i, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as non-finite
        for element in circuit.elements:
            if isinstance(element, LinearS):
                full[:n_s] = element.matrix @ full[:n_s]
            elif isinstance(element, LinearI):
                full[n_s:] = element.matrix.conj() @ full[n_s:]
            elif element.r != 0:
                rows = [element.s_path, n_s + element.i_path]
                c, s = math.cosh(element.r), math.sinh(element.r)
                full[rows] = np.array([[c, s], [s, c]]) @ full[rows]
    return TransferMatrix.from_full(full, n_s, n_i)


def nc_determinant_defect(setup: PtrSetup, block: str = "ss") -> float:
    """| |nc| - |det of one diagonal block| | (zero in exact arithmetic).

    Both diagonal blocks work: the transfer matrix underlying the setup has
    unit-modulus determinant, which forces |det ss block| = |det ii block|.
    """
    if block == "ss":
        mat = setup.scattering.ss
    elif block == "ii":
        mat = setup.scattering.ii
    else:
        raise ValueError("block must be 'ss' or 'ii'")
    return float(abs(abs(setup.nc) - abs(np.linalg.det(mat))))


def looping_series_defect(loop_value: complex, terms: int = 60) -> float:
    """Defect of the geometric looping-photon expansion of one cavity factor.

    ``loop_value`` is the product of reflectance and the folded prefix's
    signal-to-idler entry for the coupled path pair; the cavity factor
    1/(1+loop_value) is compared against its truncated alternating series.
    """
    partial = sum((-loop_value) ** n for n in range(terms))
    return float(abs(partial - 1.0 / (1.0 + loop_value)))


# ---------------------------------------------------------------------------
# closed-form reference setups
# ---------------------------------------------------------------------------


def su11_circuit(r: float, phi_s: float, phi_i: float) -> Circuit:
    """Two equal-gain pair sources with one phase plate per arm in between."""
    return Circuit(
        1,
        1,
        (
            Pdc(0, 0, r),
            PhaseS(0, phi_s),
            PhaseI(0, phi_i),
            Pdc(0, 0, r),
        ),
    )


def su11_expected(r: float, phi_s: float, phi_i: float) -> tuple[np.ndarray, complex]:
    """Closed-form dual matrix and coefficient of :func:`su11_circuit`."""
    t = 1.0 / math.cosh(r)
    refl = math.tanh(r)
    phi = phi_s + phi_i
    beta = 1.0 / (1.0 + refl**2 * np.exp(1j * phi))
    cross = 2.0 * beta * refl * math.cos(phi / 2.0) * np.exp(1j * phi / 2.0)
    matrix = np.array(
        [
            [beta * t**2 * np.exp(1j * phi_s), cross],
            [-cross, beta * t**2 * np.exp(1j * phi_i)],
        ]
    )
    return matrix, complex(beta * t**2)


def special_cancellation_circuit(r1: float, r2: float) -> Circuit:
    """Three pair sources on two signal paths tuned to empty the first one.

    The middle gain is fixed by cosh(r) tanh(r2) = tanh(r1), which requires
    r1 > r2 > 0; a pi plate after the first source sets up the destructive
    interference that decouples signal path 0 from the idler.
    """
    if not r1 > r2 > 0:
        raise ValueError("cancellation needs r1 > r2 > 0")
    r_mid = math.acosh(math.tanh(r1) / math.tanh(r2))
    return Circuit(
        2,
        1,
        (
            Pdc(0, 0, r1),
            PhaseS(0, math.pi),
            Pdc(1, 0, r_mid),
            Pdc(0, 0, r2),
        ),
    )


def special_cancellation_expected(r1: float, r2: float) -> tuple[np.ndarray, complex]:
    """Closed-form dual matrix (paths s0, s1, i) and coefficient."""
    r_mid = math.acosh(math.tanh(r1) / math.tanh(r2))
    t, refl = 1.0 / math.cosh(r_mid), math.tanh(r_mid)
    t1, refl1 = 1.0 / math.cosh(r1), math.tanh(r1)
    t2, refl2 = 1.0 / math.cosh(r2), math.tanh(r2)
    matrix = (
        np.array(
            [
                [-t1 * t2, refl * refl1 * t2, 0.0],
                [refl * refl2 * t1, t * t1**2, refl * t2],
                [-(refl**2) * refl1, -refl * t1, t * t1 * t2],
            ]
        )
        / t2**2
    )
    return matrix.astype(np.complex128), complex(t1 * t / t2)


def verify_special_cancellation(r1: float, r2: float) -> dict:
    """Compare the folded dual setup against its closed form.

    Returns the entrywise matrix defect, the coefficient defect, and the
    magnitude of the decoupled signal-to-idler entry.
    """
    setup = build_ptr(special_cancellation_circuit(r1, r2))
    expected_matrix, expected_nc = special_cancellation_expected(r1, r2)
    matrix_defect = float(np.abs(setup.scattering.full - expected_matrix).max())
    return {
        "matrix_defect": matrix_defect,
        "nc_defect": float(abs(setup.nc - expected_nc)),
        "decoupled_entry": float(abs(setup.scattering.si[0, 0])),
        "setup": setup,
    }
