"""Independent reference implementations used only by the test suite.

Everything here is built directly on dense Kronecker-product ladder
operators and brute-force enumeration, deliberately sharing no code with
the package under test.  The sparse-generator oracles borrow only the
package's basis order, so their matrices can be compared with its evolved
columns entry by entry; the scattering helpers borrow only its block
containers.  The package-side defects and the entry at the end are the
exception: the defects measure identities on the package's own symplectic
maps and scattering factors, and the entry reaches the package's
single-pair permanent kernel on a plain linear network.
"""

from __future__ import annotations

import functools
import itertools
import math

import mpmath
import numpy as np
import scipy.linalg
import scipy.sparse


def lowering(cutoff: int) -> np.ndarray:
    """Dense single-mode annihilation operator on the first `cutoff+1` levels."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1).astype(np.complex128)


def lift_one_body(coefficients: np.ndarray, cutoff: int) -> np.ndarray:
    """Sum_jk coefficients[j, k] a+_j a_k as a dense matrix on the product space.

    Each term is one Kronecker product of single-mode factors: a+ on mode j
    and a on mode k, or a+ a on mode j when j == k.
    """
    coefficients = np.asarray(coefficients, dtype=np.complex128)
    n_modes = coefficients.shape[0]
    a = lowering(cutoff)
    eye = np.eye(cutoff + 1, dtype=np.complex128)
    dim = (cutoff + 1) ** n_modes
    out = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(n_modes):
        for k in range(n_modes):
            if coefficients[j, k] != 0:
                factors = [eye] * n_modes
                factors[j] = a.conj().T
                factors[k] = a.conj().T @ a if j == k else a
                out += coefficients[j, k] * functools.reduce(np.kron, factors)
    return out


def product_index(occupation: tuple[int, ...], cutoff: int) -> int:
    index = 0
    for count in occupation:
        if count > cutoff:
            raise ValueError("occupation outside the oracle cutoff")
        index = index * (cutoff + 1) + count
    return index


@functools.lru_cache(maxsize=8)
def _two_mode_squeeze_matrix(r: float, cutoff: int) -> np.ndarray:
    a = lowering(cutoff)
    pair = np.kron(a.conj().T, a.conj().T) - np.kron(a, a)
    return scipy.linalg.expm(r * pair)


def ladder_exp(diff: int, length: int, r: float) -> np.ndarray:
    """exp[r(a+_s a+_i - a_s a_i)] on one pair-source ladder of ``length`` rungs, cut at the top.

    Rung j holds (diff + j, j) photons on the pair, so the step up from rung
    j - 1 has matrix element sqrt(j (j + diff)).  The dense generator is
    exponentiated as a complex matrix: against a 40-digit exponential,
    scipy's ``expm`` was measured 1.6e-12 off on the real matrix and 6e-15
    off on the complex one (diff 1, 53 rungs, r = 2.8).
    """
    rung = np.arange(1, length)
    up = r * np.sqrt(rung * (rung + diff))
    return scipy.linalg.expm((np.diag(up, -1) - np.diag(up, 1)).astype(np.complex128))


def two_mode_squeeze_amplitude(
    r: float, out_s: int, out_i: int, in_s: int, in_i: int, cutoff: int = 40
) -> complex:
    """<out_s, out_i| exp[r(a+b+ - ab)] |in_s, in_i> via dense exponentiation."""
    unitary = _two_mode_squeeze_matrix(r, cutoff)
    row = product_index((out_s, out_i), cutoff)
    col = product_index((in_s, in_i), cutoff)
    return complex(unitary[row, col])


def lifted_unitary(unitary: np.ndarray, cutoff: int) -> np.ndarray:
    """A passive network on the product space of ``cutoff + 1`` levels per mode.

    The exponential of the lifted matrix log; exact on every occupation
    whose total photon number is at most ``cutoff``.
    """
    generator = scipy.linalg.logm(np.asarray(unitary, dtype=np.complex128))
    return scipy.linalg.expm(lift_one_body(generator, cutoff))


def linear_network_amplitude(
    unitary: np.ndarray,
    input_occ: tuple[int, ...],
    output_occ: tuple[int, ...],
    cutoff: int | None = None,
) -> complex:
    """<output| U |input> for a passive network, via the lifted matrix log."""
    if cutoff is None:
        cutoff = max(sum(input_occ), sum(output_occ), 1)
    evolved = lifted_unitary(unitary, cutoff)
    row = product_index(tuple(output_occ), cutoff)
    col = product_index(tuple(input_occ), cutoff)
    return complex(evolved[row, col])


def permanent_by_expansion(matrix: np.ndarray) -> complex:
    """Permanent as an explicit sum over permutations."""
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for row, col in enumerate(sigma):
            term *= matrix[row, col]
        total += term
    return total


def permanent_glynn(matrix: np.ndarray) -> complex:
    """Permanent by Glynn's formula, 2^(n-1) sign vectors in chunks of 2^16."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return complex(matrix[0, 0])
    half = 1 << (n - 1)
    total = 0.0 + 0.0j
    chunk = 1 << 16
    for start in range(0, half, chunk):
        codes = np.arange(start, min(start + chunk, half), dtype=np.uint64)
        bits = (codes[None, :] >> np.arange(n - 1, dtype=np.uint64)[:, None]) & 1
        deltas = np.vstack([np.ones((1, codes.size)), 1.0 - 2.0 * bits]).astype(np.complex128)
        prods = np.prod(matrix.T @ deltas, axis=0)
        parities = 1.0 - 2.0 * (np.sum(bits, axis=0) % 2)
        total += np.sum(parities * prods)
    return complex(total / half)


def permanent_ryser_mp(matrix: np.ndarray, digits: int = 40) -> complex:
    """Permanent by Ryser's formula over all 2^n column subsets in ``digits``-digit arithmetic.

    No multiplicity grouping and no choice of side: every subset's row sums
    are formed and multiplied out one row at a time, then rounded to a
    complex double only at the end.
    """
    rows = [[mpmath.mpc(complex(x)) for x in row] for row in np.asarray(matrix)]
    n = len(rows)
    with mpmath.workdps(digits):
        total = mpmath.mpc(0)
        for mask in range(1 << n):
            cols = [j for j in range(n) if mask >> j & 1]
            term = mpmath.mpc(1)
            for row in rows:
                term *= mpmath.fsum(row[j] for j in cols)
            total += (-1) ** (n - len(cols)) * term
        return complex(total)


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent-state column (exact weights, no renormalization)."""
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = 1.0
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps * math.exp(-0.5 * abs(alpha) ** 2)


def single_mode_squeeze_q(r: float, beta: complex, cutoff: int = 120) -> float:
    """Husimi Q of a squeezed vacuum by brute Fock series, Q = |<beta|S|0>|^2 / pi.

    S = exp[(r/2)(a+a+ - aa)] acting on vacuum.
    """
    a = lowering(cutoff)
    gen = 0.5 * r * (a.conj().T @ a.conj().T - a @ a)
    state = scipy.linalg.expm(gen)[:, 0]
    bra = coherent_vector(beta, cutoff)
    return float(abs(np.vdot(bra, state)) ** 2 / math.pi)


def grid_quadrature_2d(values: np.ndarray, step: float) -> float:
    """Riemann sum over a complex-plane grid: sum * dx * dy."""
    return float(np.sum(values) * step * step)


# ---------------------------------------------------------------------------
# sparse generators in a package basis
#
# These reproduce the package's former evolution route: whole-space sparse
# anti-Hermitian generators built state by state, exponentiated densely.
# They share only the basis order (``space.counts``) with the package.
# ---------------------------------------------------------------------------


def state_vector(space, amplitudes, normalize: bool = False) -> np.ndarray:
    """Vector in the package basis from (signal counts, idler counts) -> amplitude entries."""
    lookup = _basis_lookup(space)
    vec = np.zeros(space.dimension, dtype=np.complex128)
    for (s_counts, i_counts), amp in amplitudes.items():
        vec[lookup[(*s_counts, *i_counts)]] = amp
    if normalize:
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        vec /= norm
    return vec


def _basis_lookup(space) -> dict[tuple[int, ...], int]:
    return {tuple(row): j for j, row in enumerate(space.counts.tolist())}


def one_hot(space, rows) -> np.ndarray:
    """One basis column of ``space`` per count row of ``rows`` (signal paths first), placed by ``space.indices``."""
    found = space.indices(rows)
    assert np.all(found >= 0), "a row lies outside the space"
    block = np.zeros((space.dimension, len(found)), dtype=np.complex128)
    block[found, np.arange(len(found))] = 1.0
    return block


def pdc_generator(space, s_path: int, i_path: int, r: float) -> scipy.sparse.csr_matrix:
    """Anti-Hermitian generator r(a+_s a+_i - a_s a_i) in the truncated basis."""
    lookup = _basis_lookup(space)
    a, b = s_path, space.n_s_paths + i_path
    rows, cols, vals = [], [], []
    for j, key in enumerate(lookup):
        raised = list(key)
        raised[a] += 1
        raised[b] += 1
        target = lookup.get(tuple(raised))
        if target is None:
            continue
        amp = r * math.sqrt(raised[a] * raised[b])
        rows += [target, j]
        cols += [j, target]
        vals += [amp, -amp]
    dim = space.dimension
    return scipy.sparse.csr_matrix(
        (np.asarray(vals, dtype=np.complex128), (rows, cols)), shape=(dim, dim)
    )


def number_generator(space, coeff: np.ndarray) -> scipy.sparse.csr_matrix:
    """Generator sum_kj coeff[k, j] a+_k a_j over the concatenated path index.

    Entries that move photons between the signal and idler sides are
    rejected on sector-restricted spaces because they leave the sector.
    """
    n_s = space.n_s_paths
    n_modes = n_s + space.n_i_paths
    coeff = np.asarray(coeff, dtype=np.complex128)
    if coeff.shape != (n_modes, n_modes):
        raise ValueError(f"coefficient matrix must be {n_modes}x{n_modes}")
    if space.delta is not None and (np.any(coeff[:n_s, n_s:]) or np.any(coeff[n_s:, :n_s])):
        raise ValueError("side-mixing generator is not closed on a difference sector")
    lookup = _basis_lookup(space)
    rows, cols, vals = [], [], []
    for j, key in enumerate(lookup):
        for a in range(n_modes):
            for b in range(n_modes):
                if coeff[a, b] == 0 or key[b] == 0:
                    continue
                hopped = list(key)
                hopped[b] -= 1
                hopped[a] += 1
                rows.append(lookup[tuple(hopped)])
                cols.append(j)
                vals.append(coeff[a, b] * math.sqrt(key[b] * hopped[a]))
    dim = space.dimension
    return scipy.sparse.csr_matrix(
        (np.asarray(vals, dtype=np.complex128), (rows, cols)), shape=(dim, dim)
    )


def skew_log(unitary: np.ndarray) -> np.ndarray:
    """Anti-Hermitian part of the principal matrix logarithm.

    A diagonal unitary (a phase plate) takes i times its phase angles
    exactly; scipy's ``logm`` overflows on a subnormal angle such as 2.2e-313.
    """
    unitary = np.asarray(unitary, dtype=np.complex128)
    phases = np.diagonal(unitary)
    if np.array_equal(unitary, np.diag(phases)):
        return np.diag(1j * np.angle(phases))
    gen = scipy.linalg.logm(unitary)
    return (gen - gen.conj().T) / 2


def nonlinear_operator(circuit, space) -> np.ndarray:
    """Dense truncated circuit operator: one dense expm per element generator."""
    from ptrsim.ptr import LinearI, LinearS, Pdc

    n_s = space.n_s_paths
    n_modes = n_s + space.n_i_paths
    op = np.eye(space.dimension, dtype=np.complex128)
    for element in circuit.elements:
        coeff = np.zeros((n_modes, n_modes), dtype=np.complex128)
        if isinstance(element, Pdc):
            gen = pdc_generator(space, element.s_path, element.i_path, element.r)
        elif isinstance(element, LinearS):
            coeff[:n_s, :n_s] = skew_log(element.matrix)
            gen = number_generator(space, coeff)
        else:
            assert isinstance(element, LinearI)
            coeff[n_s:, n_s:] = skew_log(element.matrix)
            gen = number_generator(space, coeff)
        op = scipy.linalg.expm(gen.toarray()) @ op
    return op


# ---------------------------------------------------------------------------
# scattering helpers
#
# Test-only constructions around the package's scattering and transfer
# matrices: they share the block containers (``ScatteringMatrix``,
# ``TransferMatrix``) and nothing else.
# ---------------------------------------------------------------------------


def embed_linear(unitary: np.ndarray, side: str, n_s: int, n_i: int):
    """Scattering matrix of a one-sided linear network; idler-side networks enter transposed."""
    from ptrsim.scatter import ScatteringMatrix

    unitary = np.asarray(unitary, dtype=np.complex128)
    ss, ii = np.eye(n_s), np.eye(n_i)
    if side == "s":
        ss = unitary
    elif side == "i":
        ii = unitary.T
    else:
        raise ValueError("side must be 's' or 'i'")
    return ScatteringMatrix(ss, np.zeros((n_s, n_i)), np.zeros((n_i, n_s)), ii)


def transfer_to_scattering(matrix):
    """Scattering matrix of a transfer matrix: the inverse reblocking, by explicit inverse."""
    from ptrsim.scatter import ScatteringMatrix

    ii_inv = np.linalg.inv(matrix.ii)
    return ScatteringMatrix(
        matrix.ss - matrix.si @ ii_inv @ matrix.is_, matrix.si @ ii_inv, -ii_inv @ matrix.is_, ii_inv
    )


def bs_transfer(r: float, s_path: int, i_path: int, n_s: int, n_i: int):
    """Transfer matrix of one pair source: cosh on the diagonal, sinh across."""
    from ptrsim.scatter import TransferMatrix

    if not (0 <= s_path < n_s and 0 <= i_path < n_i):
        raise ValueError(f"paths ({s_path}, {i_path}) are outside {n_s} signal and {n_i} idler paths")
    full = np.eye(n_s + n_i, dtype=np.complex128)
    idler = n_s + i_path
    full[s_path, s_path] = full[idler, idler] = math.cosh(r)
    full[s_path, idler] = full[idler, s_path] = math.sinh(r)
    return TransferMatrix.from_full(full, n_s, n_i)


def linear_transfer(unitary: np.ndarray, side: str, n_s: int, n_i: int):
    """Transfer matrix of a one-sided linear network (idler side conjugated)."""
    from ptrsim.scatter import TransferMatrix

    if side not in ("s", "i"):
        raise ValueError("side must be 's' or 'i'")
    unitary = np.asarray(unitary)
    full = np.eye(n_s + n_i, dtype=np.complex128)
    block = full[:n_s, :n_s] if side == "s" else full[n_s:, n_s:]
    if unitary.shape != block.shape:
        raise ValueError(f"unitary of shape {unitary.shape} does not fit side {side!r}")
    block[...] = unitary if side == "s" else unitary.conj()
    return TransferMatrix.from_full(full, n_s, n_i)


def transfer_product(circuit):
    """Transfer matrix of the substituted circuit as the product of one matrix per element, last on the left."""
    from ptrsim.ptr import Pdc
    from ptrsim.scatter import TransferMatrix

    n_s, n_i = circuit.n_s_paths, circuit.n_i_paths
    total = TransferMatrix.identity(n_s, n_i)
    for element in circuit.elements:
        if isinstance(element, Pdc):
            total = bs_transfer(element.r, element.s_path, element.i_path, n_s, n_i) @ total
        else:
            total = linear_transfer(element.matrix, element.side, n_s, n_i) @ total
    return total


# ---------------------------------------------------------------------------
# package-side defects
#
# Identities the tests measure on the package's own objects.  Unlike the
# oracles above they call into the package: each checks what it returns.
# ---------------------------------------------------------------------------


def conjugation_defect(f) -> float:
    """Max deviation from F X = X F* with X the half-swap permutation, for a ``SymplecticMap``."""
    n = f.n_modes
    return float(np.abs(np.roll(f.matrix, n, axis=1) - np.roll(f.matrix.conj(), n, axis=0)).max())


def metric_preservation_defect(f) -> float:
    """Max deviation from F K F+ = K with K = diag(I, -I) on the doubled basis, for a ``SymplecticMap``."""
    n = f.n_modes
    metric = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return float(np.abs(f.matrix @ metric @ f.matrix.conj().T - metric).max())


def vacuum_q_determinant_defect(circuit) -> float:
    """Defect of det(sigma_Q')^(-1/2) = |det ii block|^2 for vacuum input.

    Both sides equal the vacuum-to-vacuum probability of the circuit, one
    computed from the propagated Gaussian covariance and one from the
    hypothetical-beamsplitter network, so this ties the two arms together
    with no Fock truncation anywhere.
    """
    from ptrsim import gaussian
    from ptrsim.ptr import build_ptr, circuit_transfer

    f = gaussian.symplectic_from_transfer(circuit_transfer(circuit))
    out_state = gaussian.evolve(f, gaussian.GaussianState.vacuum(f.n_modes))
    det = np.linalg.det(gaussian._q_covariance(out_state)).real
    det_ii = abs(np.linalg.det(build_ptr(circuit).scattering.ii))
    return float(abs(det ** (-0.5) - det_ii**2))


def substituted_factors(circuit) -> list:
    """One star-product factor per element of the substituted circuit, in circuit order.

    A pair source becomes its hypothetical beamsplitter, written out here:
    sech r on its two paths, tanh r from idler to signal and minus tanh r
    back (a zero-gain source is the identity).  A one-sided network enters
    through :func:`embed_linear`.
    """
    from ptrsim.ptr import LinearS, Pdc
    from ptrsim.scatter import ScatteringMatrix

    n_s, n_i = circuit.n_s_paths, circuit.n_i_paths
    factors = []
    for element in circuit.elements:
        if isinstance(element, Pdc):
            full = np.eye(n_s + n_i, dtype=np.complex128)
            s, i = element.s_path, n_s + element.i_path
            full[s, s] = full[i, i] = 1 / math.cosh(element.r)
            full[s, i], full[i, s] = math.tanh(element.r), -math.tanh(element.r)
            factors.append(ScatteringMatrix.from_full(full, n_s, n_i))
        else:
            side = "s" if isinstance(element, LinearS) else "i"
            factors.append(embed_linear(element.matrix, side, n_s, n_i))
    return factors


# ---------------------------------------------------------------------------
# package-side entry
#
# The dual arm's single-pair kernel on a plain linear network, which no
# caller in the package needs: the tests check that kernel through it.
# ---------------------------------------------------------------------------


def linear_fock_amplitude(network, input_occ, output_occ) -> complex:
    """<output| L |input> for a photon-number-conserving linear network, from the package's kernel.

    ``network.full`` scatters creation operators over the concatenated
    (signal, idler) path index; occupations are (signal counts, idler
    counts) pairs, checked as ``ptr_postselection_amplitude`` checks them,
    and repeat its columns (input) and rows (output).  Zero when the total
    photon number changes.
    """
    from ptrsim import linamp

    in_s, in_i = linamp._occupation_counts(input_occ, network.n_s, network.n_i)
    out_s, out_i = linamp._occupation_counts(output_occ, network.n_s, network.n_i)
    return linamp._counts_amplitude(network.full, in_s + in_i, out_s + out_i)
