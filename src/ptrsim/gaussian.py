"""Gaussian-state arm of the nonlinear/linear duality.

Everything here works in a doubled complex phase space: a circuit on N =
n_s + n_i paths acts on vectors ordered as (mode amplitudes, their
conjugates).  Circuit evolution becomes a 2N x 2N symplectic matrix built
from the transfer matrix, covariances propagate by congruence, and Husimi
Q-functions come out as explicit Gaussians.  That gives an independent,
truncation-free arm for checking the duality on coherent and squeezed
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ptr import Circuit, PtrSetup, build_ptr, circuit_transfer
from .scatter import TransferMatrix

HERMITICITY_TOL = 1e-9
EIGENVALUE_FLOOR = 1e-12


def _half_swap(n_modes: int) -> np.ndarray:
    """Permutation exchanging the amplitude and conjugate halves."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [eye, zero]])


@dataclass(frozen=True)
class GaussianState:
    """Displacement vector and covariance matrix in (amplitudes, conjugates) order.

    The covariance is the symmetrized second-moment matrix of the doubled
    operator vector; the vacuum has covariance I/2.  Construction validates
    the conjugation structure (lower half mirrors the upper half) and
    Hermiticity, to ``HERMITICITY_TOL`` relative to the largest entry.
    """

    displacement: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        disp = np.asarray(self.displacement, dtype=np.complex128)
        cov = np.asarray(self.covariance, dtype=np.complex128)
        if disp.ndim != 1 or disp.size % 2:
            raise ValueError("displacement must be a vector of even length")
        n = disp.size // 2
        if cov.shape != (2 * n, 2 * n):
            raise ValueError("covariance shape does not match the displacement")
        # relative checks: high-gain covariances grow like e^(2 total gain)
        disp_tol = HERMITICITY_TOL * max(1.0, np.abs(disp).max(initial=0.0))
        cov_tol = HERMITICITY_TOL * max(1.0, np.abs(cov).max(initial=0.0))
        if np.abs(disp[n:] - disp[:n].conj()).max(initial=0.0) > disp_tol:
            raise ValueError("displacement lower half must conjugate the upper half")
        if np.abs(cov - cov.conj().T).max(initial=0.0) > cov_tol:
            raise ValueError("covariance must be Hermitian")
        swap = _half_swap(n)
        if np.abs(cov - swap @ cov.conj() @ swap).max(initial=0.0) > cov_tol:
            raise ValueError("covariance must commute with conjugation of the doubled basis")
        object.__setattr__(self, "displacement", disp)
        object.__setattr__(self, "covariance", cov)

    @property
    def n_modes(self) -> int:
        return self.displacement.size // 2

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        return cls(np.zeros(2 * n_modes, dtype=np.complex128), np.eye(2 * n_modes) / 2)

    @classmethod
    def coherent(cls, alphas) -> "GaussianState":
        alphas = np.asarray(alphas, dtype=np.complex128).ravel()
        disp = np.concatenate([alphas, alphas.conj()])
        return cls(disp, np.eye(2 * alphas.size) / 2)


@dataclass(frozen=True)
class SymplecticMap:
    """Doubled-space matrix of a circuit acting on (amplitudes, conjugates)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise ValueError("symplectic map must be square with even size")
        object.__setattr__(self, "matrix", mat)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def __matmul__(self, other: "SymplecticMap") -> "SymplecticMap":
        return SymplecticMap(self.matrix @ other.matrix)


def conjugation_defect(f: SymplecticMap) -> float:
    """Max deviation from F X = X F* with X the half-swap permutation."""
    swap = _half_swap(f.n_modes)
    return float(np.abs(f.matrix @ swap - swap @ f.matrix.conj()).max())


def metric_preservation_defect(f: SymplecticMap) -> float:
    """Max deviation from F K F+ = K with K = diag(I, -I) on the doubled basis."""
    n = f.n_modes
    metric = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return float(np.abs(f.matrix @ metric @ f.matrix.conj().T - metric).max())


def symplectic_from_transfer(transfer: TransferMatrix) -> SymplecticMap:
    """Doubled-space map of a circuit, assembled from its transfer matrix.

    Internally the map is block-diagonal, diag(T, T*), in the permuted basis
    (signal amplitudes, idler conjugates, signal conjugates, idler
    amplitudes); the public matrix is that object carried back to the plain
    (amplitudes, conjugates) ordering.  Because the transfer matrix never
    couples a mode to its own conjugate, the result has the characteristic
    zero pattern of a circuit with no single-mode squeezing.
    """
    n_s, n_i = transfer.n_s, transfer.n_i
    n = n_s + n_i
    full = transfer.full
    block = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    block[:n, :n] = full
    block[n:, n:] = full.conj()
    perm = (
        list(range(n_s))
        + list(range(n + n_s, 2 * n))
        + list(range(n, n + n_s))
        + list(range(n_s, n))
    )
    matrix = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    matrix[np.ix_(perm, perm)] = block
    return SymplecticMap(matrix)


def single_mode_squeezer_map(r: float) -> SymplecticMap:
    """Doubled-space map of exp[(r/2)(a+a+ - aa)] on one mode."""
    c, s = math.cosh(r), math.sinh(r)
    return SymplecticMap(np.array([[c, s], [s, c]], dtype=np.complex128))


def evolve(f: SymplecticMap, state: GaussianState) -> GaussianState:
    """Propagate displacement and covariance through a doubled-space map."""
    if f.n_modes != state.n_modes:
        raise ValueError("map and state mode counts differ")
    mean = f.matrix @ state.displacement
    cov = f.matrix @ state.covariance @ f.matrix.conj().T
    return GaussianState(mean, cov)


def _q_covariance(state: GaussianState) -> np.ndarray:
    sigma_q = state.covariance + np.eye(2 * state.n_modes) / 2
    floor = np.linalg.eigvalsh(sigma_q).min()
    if floor < EIGENVALUE_FLOOR:
        raise ValueError(f"Q covariance is not positive definite (min eigenvalue {floor:.3e})")
    return sigma_q


def q_function(state: GaussianState, beta_s, beta_i) -> float | np.ndarray:
    """Normalized Husimi Q at one point or a batch of points.

    ``beta_s`` and ``beta_i`` hold the coherent amplitudes probed on each
    side; stack points along a leading axis to evaluate a batch.  The
    1/pi^N factor is included, so Q integrates to one.
    """
    beta_s = np.atleast_1d(np.asarray(beta_s, dtype=np.complex128))
    beta_i = np.atleast_1d(np.asarray(beta_i, dtype=np.complex128))
    single = beta_s.ndim == 1 and beta_i.ndim == 1
    points = np.concatenate(
        [np.atleast_2d(beta_s), np.atleast_2d(beta_i)], axis=1
    )
    n = state.n_modes
    if points.shape[1] != n:
        raise ValueError("probe point does not match the mode count")
    sigma_q = _q_covariance(state)
    doubled = np.concatenate([points, points.conj()], axis=1)
    delta = doubled - state.displacement
    quad = np.einsum("pj,pj->p", delta.conj(), np.linalg.solve(sigma_q, delta.T).T).real
    det = np.linalg.det(sigma_q).real
    values = np.exp(-quad / 2) / (math.pi**n * math.sqrt(det))
    return float(values[0]) if single else values


def coherent_overlap(bra, ket) -> complex:
    """<bra|ket> for products of coherent states with the listed amplitudes."""
    bra = np.asarray(bra, dtype=np.complex128).ravel()
    ket = np.asarray(ket, dtype=np.complex128).ravel()
    return complex(
        np.exp(-(np.abs(bra) ** 2).sum() / 2 - (np.abs(ket) ** 2).sum() / 2 + np.vdot(bra, ket))
    )


def _as_points(values, width: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.shape[1] != width:
        raise ValueError("coherent point does not match the path count")
    return arr


def q_duality_residual(circuit: Circuit, alpha_s, alpha_i, beta_s, beta_i) -> float:
    """Relative defect of the Q-function duality at the given probe points.

    The left side propagates the coherent input (alpha_s, alpha_i) as a
    Gaussian state through the circuit and evaluates Q at (beta_s, beta_i).
    The right side sends the swapped coherent vector (alpha_s, beta_i*)
    classically through the hypothetical-beamsplitter network and takes
    |nc|^2 times the coherent-state Q at (beta_s, alpha_i*).  The returned
    value also folds in the modulus identity between nc and the determinant
    of the network's idler-idler block, so a failure of either shows up.
    """
    setup = build_ptr(circuit)
    n_s, n_i = circuit.n_s_paths, circuit.n_i_paths
    alpha_s = np.asarray(alpha_s, dtype=np.complex128).ravel()
    alpha_i = np.asarray(alpha_i, dtype=np.complex128).ravel()
    if alpha_s.size != n_s or alpha_i.size != n_i:
        raise ValueError("coherent input does not match the path counts")
    probes_s = _as_points(beta_s, n_s)
    probes_i = _as_points(beta_i, n_i)
    if probes_s.shape[0] != probes_i.shape[0]:
        raise ValueError("signal and idler probe batches differ in length")

    f = symplectic_from_transfer(circuit_transfer(circuit))
    out_state = evolve(f, GaussianState.coherent(np.concatenate([alpha_s, alpha_i])))
    lhs = np.atleast_1d(q_function(out_state, probes_s, probes_i))

    network = setup.scattering.full
    n = n_s + n_i
    swapped_in = np.concatenate(
        [np.tile(alpha_s, (probes_i.shape[0], 1)), probes_i.conj()], axis=1
    )
    images = swapped_in @ network.T
    targets = np.concatenate(
        [probes_s, np.tile(alpha_i.conj(), (probes_s.shape[0], 1))], axis=1
    )
    exponents = -np.sum(np.abs(targets - images) ** 2, axis=1)
    rhs = abs(setup.nc) ** 2 * np.exp(exponents) / math.pi**n

    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
    residual = float(np.abs(lhs - rhs).max() / scale)
    det_defect = float(abs(abs(setup.nc) - abs(np.linalg.det(setup.scattering.ii))))
    return max(residual, det_defect)


def sms_coherent_duality_residual(r: float, alpha: complex, beta: complex) -> float:
    """Relative defect of the single-mode-squeezer coherent duality.

    |<beta| exp[(r/2)(a+a+ - aa)] |alpha>|^2 is evaluated on the Gaussian
    side (pi times the output Q at beta) and compared against the
    beamsplitter form: sech r times the squared coherent amplitude of the
    network [[T, R], [-R, T]] taken between the sqrt(2)-scaled swapped
    arguments.
    """
    if r < 0:
        raise ValueError("gain must be nonnegative")
    alpha = complex(alpha)
    beta = complex(beta)
    out_state = evolve(single_mode_squeezer_map(r), GaussianState.coherent([alpha]))
    lhs = math.pi * q_function(out_state, [beta], np.zeros(0))
    t, refl = 1 / math.cosh(r), math.tanh(r)
    network = np.array([[t, refl], [-refl, t]])
    ket = network @ np.array([alpha, np.conj(beta)]) / math.sqrt(2)
    bra = np.array([beta, np.conj(alpha)]) / math.sqrt(2)
    rhs = t * abs(coherent_overlap(bra, ket)) ** 2
    return float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))


def vacuum_q_determinant_defect(circuit: Circuit) -> float:
    """Defect of det(sigma_Q')^(-1/2) = |det ii block|^2 for vacuum input.

    Both sides equal the vacuum-to-vacuum probability of the circuit, one
    computed from the propagated Gaussian covariance and one from the
    hypothetical-beamsplitter network, so this ties the two arms together
    with no Fock truncation anywhere.
    """
    f = symplectic_from_transfer(circuit_transfer(circuit))
    out_state = evolve(f, GaussianState.vacuum(f.n_modes))
    det = np.linalg.det(_q_covariance(out_state)).real
    setup = build_ptr(circuit)
    det_ii = abs(np.linalg.det(setup.scattering.ii))
    return float(abs(det ** (-0.5) - det_ii**2))


def squeezed_vacuum_q_closed_form(r: float, beta: complex) -> float:
    """Closed-form single-mode squeezed-vacuum Q: T exp(-|b|^2 + R Re b^2)/pi."""
    t, refl = 1 / math.cosh(r), math.tanh(r)
    b = complex(beta)
    return t * math.exp(-abs(b) ** 2 + refl * (b * b).real) / math.pi
