"""Scattering and transfer matrices for two-sided (signal/idler) networks.

A scattering matrix maps the pair of input amplitude vectors (signal,
idler) to outputs through four blocks; `is_` carries the trailing
underscore only because ``is`` is a Python keyword.  Both kinds of matrix
hold one read-only (n_s+n_i)² complex matrix, ``full``, and the four
blocks are views of it, never copies.  The Redheffer star product
composes two such devices including the feedback loop between the first
device's idler-to-signal path and the second device's signal-to-idler
path; the transfer-matrix picture turns that composition into a plain
matrix product of the full matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularCavityError

#: bound on the 1-norm condition number ||M||_1 ||M^-1||_1 of cavity feedback
#: inverses; for n x n matrices it lies within a factor n of the 2-norm one
#: (Higham, ACM Trans. Math. Softw. 14, 381 (1988)).
COND_LIMIT = 1e12


def _inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    """Inverse of ``matrix``; a singular or hopelessly ill-conditioned one raises :class:`SingularCavityError`."""
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        raise SingularCavityError(f"{what} is singular") from None
    # column-sum norms, multiplied as Python floats so an overflow gives inf without a RuntimeWarning
    cond = float(np.abs(matrix).sum(axis=0).max()) * float(np.abs(inverse).sum(axis=0).max())
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise SingularCavityError(f"{what} has condition number {cond:.3e}")
    return inverse


def _finite(full: np.ndarray) -> np.ndarray:
    if not np.isfinite(full).all():
        raise ValueError("two-port matrix has non-finite entries")
    return full


class _TwoPort:
    """Read-only full matrix over (signal, idler) paths with views ``ss``, ``si``, ``is_``, ``ii``."""

    def __init__(self, ss, si, is_, ii):
        blocks = [np.asarray(block) for block in (ss, si, is_, ii)]
        if any(block.ndim != 2 for block in blocks):
            raise ValueError("blocks must be two-dimensional")
        n_s, n_i = len(blocks[0]), len(blocks[3])
        if [block.shape for block in blocks] != [(n_s, n_s), (n_s, n_i), (n_i, n_s), (n_i, n_i)]:
            raise ValueError("inconsistent block shapes")
        full = np.empty((n_s + n_i, n_s + n_i), dtype=np.complex128)
        full[:n_s, :n_s], full[:n_s, n_s:], full[n_s:, :n_s], full[n_s:, n_s:] = blocks
        self._hold(_finite(full), n_s, n_i)

    def _hold(self, full: np.ndarray, n_s: int, n_i: int) -> None:
        if n_s < 1 or n_i < 1:
            raise ValueError("need at least one signal and one idler path")
        full.setflags(write=False)
        vars(self).update(
            full=full, n_s=n_s, n_i=n_i,
            ss=full[:n_s, :n_s], si=full[:n_s, n_s:], is_=full[n_s:, :n_s], ii=full[n_s:, n_s:],
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):  # copies and pickles rebuild the read-only full matrix and its views
        return type(self).from_full, (self.full, self.n_s, self.n_i)

    @classmethod
    def _wrap(cls, full: np.ndarray, n_s: int, n_i: int):
        """Adopt a freshly computed complex ``full`` without copying or checking it."""
        out = cls.__new__(cls)
        out._hold(full, n_s, n_i)
        return out

    @classmethod
    def from_full(cls, matrix, n_s: int, n_i: int):
        full = np.array(matrix, dtype=np.complex128)  # a copy: the caller's array is never frozen
        if full.shape != (n_s + n_i, n_s + n_i):
            raise ValueError("full matrix shape does not match path counts")
        return cls._wrap(_finite(full), n_s, n_i)

    @classmethod
    def identity(cls, n_s: int, n_i: int):
        return cls._wrap(np.eye(n_s + n_i, dtype=np.complex128), n_s, n_i)


class ScatteringMatrix(_TwoPort):
    """Blocks mapping (signal, idler) inputs to (signal, idler) outputs."""


def unitarity_defect(matrix: ScatteringMatrix | np.ndarray) -> float:
    full = matrix.full if isinstance(matrix, ScatteringMatrix) else np.asarray(matrix)
    eye = np.eye(full.shape[0])
    return float(np.abs(full.conj().T @ full - eye).max())


def star(first: ScatteringMatrix, second: ScatteringMatrix) -> ScatteringMatrix:
    """Redheffer composition: signal light traverses ``first`` then ``second``.

    The feedback loop between ``first.si`` and ``second.is_`` is resolved by
    the two cavity inverses; a singular or hopelessly ill-conditioned loop
    raises :class:`SingularCavityError`.  A loop whose coupling product is
    all zero, as for the first pair source folded onto a prefix of
    one-sided networks, is exactly the identity and is skipped.
    """
    if first.n_s != second.n_s or first.n_i != second.n_i:
        raise ValueError("path counts disagree")
    n_s = first.n_s
    # each loop acts once, on both right-hand sides side by side
    through_s = np.concatenate((first.ss, first.si @ second.ii), 1)
    coupling_s = first.si @ second.is_
    if coupling_s.any():
        loop_s = np.eye(n_s, dtype=np.complex128) - coupling_s
        through_s = _inverse(loop_s, "signal-side cavity loop") @ through_s
    through_i = np.concatenate((second.is_ @ first.ss, second.ii), 1)
    coupling_i = second.is_ @ first.si
    if coupling_i.any():
        loop_i = np.eye(first.n_i, dtype=np.complex128) - coupling_i
        through_i = _inverse(loop_i, "idler-side cavity loop") @ through_i
    full = np.concatenate((second.ss @ through_s, first.ii @ through_i))
    full[:n_s, n_s:] += second.si
    full[n_s:, :n_s] += first.is_
    return ScatteringMatrix._wrap(full, n_s, first.n_i)


def hypothetical_bs(r: float, s_path: int, i_path: int, n_s: int, n_i: int) -> ScatteringMatrix:
    """Beamsplitter standing in for one pair source of gain r.

    Transmittance sech(r) on the coupled signal and idler paths,
    reflectance tanh(r) from idler to signal, minus tanh(r) back; the
    identity on every other path.
    """
    if not (0 <= s_path < n_s and 0 <= i_path < n_i):
        raise ValueError(f"paths ({s_path}, {i_path}) are outside {n_s} signal and {n_i} idler paths")
    full = np.eye(n_s + n_i, dtype=np.complex128)
    idler, refl = n_s + i_path, math.tanh(r)
    full[s_path, s_path] = full[idler, idler] = 1.0 / math.cosh(r)
    full[s_path, idler] = refl
    full[idler, s_path] = -refl
    return ScatteringMatrix._wrap(_finite(full), n_s, n_i)


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------


class TransferMatrix(_TwoPort):
    """Blocks mapping (signal in, idler out) to (signal out, idler in)."""

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        if self.n_s != other.n_s or self.n_i != other.n_i:
            raise ValueError("path counts disagree")
        return TransferMatrix._wrap(self.full @ other.full, self.n_s, self.n_i)


def scattering_to_transfer(matrix: ScatteringMatrix) -> TransferMatrix:
    """Reblock (signal, idler) in -> out as (signal in, idler out) -> (signal out, idler in)."""
    ii_inv = _inverse(matrix.ii, "scattering ii block")
    return TransferMatrix(
        matrix.ss - matrix.si @ ii_inv @ matrix.is_, matrix.si @ ii_inv, -ii_inv @ matrix.is_, ii_inv
    )


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
    ii_inv = _inverse(matrix.ii, "transfer ii block")
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
