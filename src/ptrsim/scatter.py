"""Scattering and transfer matrices for two-sided (signal/idler) networks.

A scattering matrix maps the pair of input amplitude vectors (signal,
idler) to outputs through four blocks; `is_` carries the trailing
underscore only because ``is`` is a Python keyword.  The Redheffer star
product composes two such devices including the feedback loop between the
first device's idler-to-signal path and the second device's signal-to-idler
path; the transfer-matrix picture turns that composition into a plain
matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularCavityError

#: condition-number bound on cavity feedback inverses.
COND_LIMIT = 1e12


def _block(matrix) -> np.ndarray:
    out = np.array(matrix, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError("blocks must be two-dimensional")
    out.setflags(write=False)  # instances are frozen and cache `full` from their blocks
    return out


def _solve(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularCavityError(f"{what} has condition number {cond:.3e}")
    return np.linalg.solve(matrix, rhs)


@dataclass(frozen=True)
class ScatteringMatrix:
    """Blocks mapping (signal, idler) inputs to (signal, idler) outputs."""

    ss: np.ndarray
    si: np.ndarray
    is_: np.ndarray
    ii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ss", _block(self.ss))
        object.__setattr__(self, "si", _block(self.si))
        object.__setattr__(self, "is_", _block(self.is_))
        object.__setattr__(self, "ii", _block(self.ii))
        n_s, n_i = self.n_s, self.n_i
        if self.si.shape != (n_s, n_i) or self.is_.shape != (n_i, n_s) or self.ii.shape != (n_i, n_i):
            raise ValueError("inconsistent block shapes")

    @property
    def n_s(self) -> int:
        return self.ss.shape[0]

    @property
    def n_i(self) -> int:
        return self.ii.shape[0]

    @cached_property
    def full(self) -> np.ndarray:
        top, bottom = np.concatenate((self.ss, self.si), 1), np.concatenate((self.is_, self.ii), 1)
        return _block(np.concatenate((top, bottom)))  # np.block costs 4x as much here

    @staticmethod
    def from_full(matrix, n_s: int, n_i: int) -> "ScatteringMatrix":
        matrix = _block(matrix)
        if matrix.shape != (n_s + n_i, n_s + n_i):
            raise ValueError("full matrix shape does not match path counts")
        return ScatteringMatrix(
            matrix[:n_s, :n_s], matrix[:n_s, n_s:], matrix[n_s:, :n_s], matrix[n_s:, n_s:]
        )

    @staticmethod
    def identity(n_s: int, n_i: int) -> "ScatteringMatrix":
        return ScatteringMatrix.from_full(np.eye(n_s + n_i), n_s, n_i)


def unitarity_defect(matrix: ScatteringMatrix | np.ndarray) -> float:
    full = matrix.full if isinstance(matrix, ScatteringMatrix) else np.asarray(matrix)
    eye = np.eye(full.shape[0])
    return float(np.abs(full.conj().T @ full - eye).max())


def star(first: ScatteringMatrix, second: ScatteringMatrix) -> ScatteringMatrix:
    """Redheffer composition: signal light traverses ``first`` then ``second``.

    The feedback loop between ``first.si`` and ``second.is_`` is resolved by
    the two cavity inverses; a singular or hopelessly ill-conditioned loop
    raises :class:`SingularCavityError`.
    """
    if first.n_s != second.n_s or first.n_i != second.n_i:
        raise ValueError("path counts disagree")
    eye_s = np.eye(first.n_s, dtype=np.complex128)
    eye_i = np.eye(first.n_i, dtype=np.complex128)
    loop_s = eye_s - first.si @ second.is_
    loop_i = eye_i - second.is_ @ first.si
    ss = second.ss @ _solve(loop_s, first.ss, "signal-side cavity loop")
    si = second.si + second.ss @ _solve(loop_s, first.si @ second.ii, "signal-side cavity loop")
    is_ = first.is_ + first.ii @ _solve(loop_i, second.is_ @ first.ss, "idler-side cavity loop")
    ii = first.ii @ _solve(loop_i, second.ii, "idler-side cavity loop")
    return ScatteringMatrix(ss, si, is_, ii)


def hypothetical_bs(r: float, s_path: int, i_path: int, n_s: int, n_i: int) -> ScatteringMatrix:
    """Beamsplitter standing in for one pair source of gain r.

    Transmittance sech(r) on the coupled signal and idler paths,
    reflectance tanh(r) from idler to signal, minus tanh(r) back.
    """
    t = 1.0 / math.cosh(r)
    refl = math.tanh(r)
    ss = np.eye(n_s, dtype=np.complex128)
    ii = np.eye(n_i, dtype=np.complex128)
    si = np.zeros((n_s, n_i), dtype=np.complex128)
    is_ = np.zeros((n_i, n_s), dtype=np.complex128)
    ss[s_path, s_path] = t
    ii[i_path, i_path] = t
    si[s_path, i_path] = refl
    is_[i_path, s_path] = -refl
    return ScatteringMatrix(ss, si, is_, ii)


def embed_linear(unitary: np.ndarray, side: str, n_s: int, n_i: int) -> ScatteringMatrix:
    """Embed a one-sided linear network; idler-side networks enter transposed."""
    unitary = _block(unitary)
    if side == "s":
        if unitary.shape != (n_s, n_s):
            raise ValueError("signal-side unitary has the wrong shape")
        return ScatteringMatrix(
            unitary,
            np.zeros((n_s, n_i)),
            np.zeros((n_i, n_s)),
            np.eye(n_i),
        )
    if side == "i":
        if unitary.shape != (n_i, n_i):
            raise ValueError("idler-side unitary has the wrong shape")
        return ScatteringMatrix(
            np.eye(n_s),
            np.zeros((n_s, n_i)),
            np.zeros((n_i, n_s)),
            unitary.T,
        )
    raise ValueError("side must be 's' or 'i'")


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferMatrix:
    """Blocks mapping (signal in, idler out) to (signal out, idler in)."""

    ss: np.ndarray
    si: np.ndarray
    is_: np.ndarray
    ii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ss", _block(self.ss))
        object.__setattr__(self, "si", _block(self.si))
        object.__setattr__(self, "is_", _block(self.is_))
        object.__setattr__(self, "ii", _block(self.ii))
        n_s, n_i = self.n_s, self.n_i
        if self.si.shape != (n_s, n_i) or self.is_.shape != (n_i, n_s) or self.ii.shape != (n_i, n_i):
            raise ValueError("inconsistent block shapes")

    @property
    def n_s(self) -> int:
        return self.ss.shape[0]

    @property
    def n_i(self) -> int:
        return self.ii.shape[0]

    @cached_property
    def full(self) -> np.ndarray:
        top, bottom = np.concatenate((self.ss, self.si), 1), np.concatenate((self.is_, self.ii), 1)
        return _block(np.concatenate((top, bottom)))  # np.block costs 4x as much here

    @staticmethod
    def identity(n_s: int, n_i: int) -> "TransferMatrix":
        eye = np.eye(n_s + n_i, dtype=np.complex128)
        return TransferMatrix(eye[:n_s, :n_s], eye[:n_s, n_s:], eye[n_s:, :n_s], eye[n_s:, n_s:])

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        if self.n_s != other.n_s or self.n_i != other.n_i:
            raise ValueError("path counts disagree")
        prod = self.full @ other.full
        n_s = self.n_s
        return TransferMatrix(prod[:n_s, :n_s], prod[:n_s, n_s:], prod[n_s:, :n_s], prod[n_s:, n_s:])


def _swap_blocks(ss, si, is_, ii, what: str):
    """Shared Moebius-style reblocking used by both conversion directions."""
    ii_inv = _solve(ii, np.eye(ii.shape[0], dtype=np.complex128), what)
    return (ss - si @ ii_inv @ is_, si @ ii_inv, -ii_inv @ is_, ii_inv)


def scattering_to_transfer(matrix: ScatteringMatrix) -> TransferMatrix:
    return TransferMatrix(*_swap_blocks(matrix.ss, matrix.si, matrix.is_, matrix.ii, "scattering ii block"))


def transfer_to_scattering(matrix: TransferMatrix) -> ScatteringMatrix:
    return ScatteringMatrix(*_swap_blocks(matrix.ss, matrix.si, matrix.is_, matrix.ii, "transfer ii block"))


def bs_transfer(r: float, s_path: int, i_path: int, n_s: int, n_i: int) -> TransferMatrix:
    """Transfer matrix of one pair source: cosh on the diagonal, sinh across."""
    ss = np.eye(n_s, dtype=np.complex128)
    ii = np.eye(n_i, dtype=np.complex128)
    si = np.zeros((n_s, n_i), dtype=np.complex128)
    is_ = np.zeros((n_i, n_s), dtype=np.complex128)
    ss[s_path, s_path] = math.cosh(r)
    ii[i_path, i_path] = math.cosh(r)
    si[s_path, i_path] = math.sinh(r)
    is_[i_path, s_path] = math.sinh(r)
    return TransferMatrix(ss, si, is_, ii)


def linear_transfer(unitary: np.ndarray, side: str, n_s: int, n_i: int) -> TransferMatrix:
    """Transfer matrix of a one-sided linear network (idler side conjugated)."""
    unitary = _block(unitary)
    ss = np.eye(n_s, dtype=np.complex128)
    ii = np.eye(n_i, dtype=np.complex128)
    if side == "s":
        ss = unitary
    elif side == "i":
        ii = unitary.conj()
    else:
        raise ValueError("side must be 's' or 'i'")
    return TransferMatrix(ss, np.zeros((n_s, n_i)), np.zeros((n_i, n_s)), ii)


def symplectic_defect(matrix: TransferMatrix) -> float:
    """Residual of T Z T+ = Z and T+ Z T = Z with Z = diag(I, -I)."""
    full = matrix.full
    z = np.diag(np.concatenate([np.ones(matrix.n_s), -np.ones(matrix.n_i)])).astype(np.complex128)
    lhs = full @ z @ full.conj().T - z
    rhs = full.conj().T @ z @ full - z
    return float(max(np.abs(lhs).max(), np.abs(rhs).max()))


def block_relation_defect(matrix: TransferMatrix) -> float:
    """Largest residual over the eight pseudo-unitarity block relations."""
    ss, si, is_, ii = matrix.ss, matrix.si, matrix.is_, matrix.ii
    eye_s = np.eye(matrix.n_s)
    eye_i = np.eye(matrix.n_i)
    dag = lambda m: m.conj().T
    residuals = [
        ss @ dag(ss) - si @ dag(si) - eye_s,
        ii @ dag(ii) - is_ @ dag(is_) - eye_i,
        ss @ dag(is_) - si @ dag(ii),
        is_ @ dag(ss) - ii @ dag(si),
        dag(ss) @ ss - dag(is_) @ is_ - eye_s,
        dag(ii) @ ii - dag(si) @ si - eye_i,
        dag(ss) @ si - dag(is_) @ ii,
        dag(si) @ ss - dag(ii) @ is_,
    ]
    return float(max(np.abs(res).max() for res in residuals))


def v_matrix(matrix: TransferMatrix) -> np.ndarray:
    """Upper-triangular factor [[I, -T_si T_ii^-1], [0, -T_ii^-1]]."""
    ii_inv = _solve(matrix.ii, np.eye(matrix.n_i, dtype=np.complex128), "transfer ii block")
    top = np.hstack([np.eye(matrix.n_s, dtype=np.complex128), -matrix.si @ ii_inv])
    bottom = np.hstack([np.zeros((matrix.n_i, matrix.n_s), dtype=np.complex128), -ii_inv])
    return np.vstack([top, bottom])


def gram_inverse_defect(matrix: TransferMatrix) -> float:
    """Residual of ((T T+ + I)/2)^-1 = V+ V with V from :func:`v_matrix`."""
    full = matrix.full
    gram = (full @ full.conj().T + np.eye(full.shape[0])) / 2
    v = v_matrix(matrix)
    lhs = np.linalg.inv(gram)
    return float(np.abs(lhs - v.conj().T @ v).max())
