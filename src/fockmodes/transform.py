"""Unitary redefinitions of the mode basis and their Fock-space action.

A redefinition introduces new creation operators b†_k = sum_j U[k, j] a†_j.
Rewriting a state in the new basis therefore substitutes each old operator
by its expansion in the new ones,

    a†_j  ->  sum_k conj(U[k, j]) b†_k,

and re-collects the resulting creation polynomial in the occupation basis.
``apply_redefinition`` performs that multinomial expansion directly; the
permanent-based ``fock_matrix_element`` gives the same amplitudes through an
independent formula and is kept as a cross-check, not as the production path.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotUnitaryError, SizeLimitError
from .fock import Occupation, PureState

# Default unitarity acceptance for user-supplied matrices.
UNITARY_TOLERANCE = 1e-10
# Matrices produced by exp_map must be unitary to this tighter tolerance.
EXP_MAP_TOLERANCE = 1e-12
# Ryser's formula costs O(2^n * n); past this size it is not worth running.
PERMANENT_MAX_DIM = 16


class ModeUnitary:
    """Validated M x M unitary acting on mode labels.

    The wrapped array is marked read-only; compose with ``@`` and invert
    with ``adjoint()``.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, entries, tol: float = UNITARY_TOLERANCE):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionError("unitary must have at least one mode")
        residual = float(
            np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        )
        if not (residual <= tol):
            raise NotUnitaryError(
                f"matrix is not unitary: max |U†U - I| = {residual:.3e} > {tol:.1e}",
                residual=residual,
            )
        m.setflags(write=False)
        self.dim = int(m.shape[0])
        self.matrix = m

    @classmethod
    def identity(cls, dim: int) -> "ModeUnitary":
        return cls(np.eye(dim, dtype=complex))

    def adjoint(self) -> "ModeUnitary":
        return ModeUnitary(self.matrix.conj().T)

    def __matmul__(self, other: "ModeUnitary") -> "ModeUnitary":
        if not isinstance(other, ModeUnitary):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return ModeUnitary(self.matrix @ other.matrix)

    def __repr__(self) -> str:
        return f"ModeUnitary(dim={self.dim})"


def validate_unitary(entries, tol: float = UNITARY_TOLERANCE) -> ModeUnitary:
    """Wrap `entries` as a ModeUnitary, rejecting non-unitary input."""
    return ModeUnitary(entries, tol=tol)


def _square_dim(theta: np.ndarray) -> int:
    """M for a parameter vector of length M^2 with M >= 1."""
    dim = math.isqrt(theta.size)
    if dim * dim != theta.size or dim < 1:
        raise DimensionError(
            f"parameter vector length {theta.size} is not a positive square"
        )
    return dim


@dataclass(frozen=True)
class HermitianParams:
    """Real coordinates of an M x M Hermitian matrix, length M^2.

    Layout: M diagonal entries, then the M(M-1)/2 real parts and then the
    M(M-1)/2 imaginary parts of the strict upper triangle, both in row-major
    order.
    """

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).ravel().copy()
        _square_dim(theta)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return math.isqrt(self.theta.size)


@functools.cache
def _hermitian_layout(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions in a dim x dim matrix of the diagonal, the strict upper
    triangle and its mirror below, in the order of the parameter layout."""
    upper = np.triu_indices(dim, k=1)
    layout = (
        np.arange(dim) * (dim + 1),
        upper[0] * dim + upper[1],
        upper[1] * dim + upper[0],
    )
    for positions in layout:
        positions.setflags(write=False)
    return layout


def hermitian_from_params(theta) -> np.ndarray:
    """Assemble the Hermitian matrix encoded by a length-M^2 real vector."""
    theta = np.asarray(theta, dtype=float).ravel()
    dim = _square_dim(theta)
    diagonal, upper, lower = _hermitian_layout(dim)
    pairs = upper.size
    values = theta[dim : dim + pairs] + 1j * theta[dim + pairs :]
    herm = np.zeros(dim * dim, dtype=complex)
    herm[diagonal] = theta[:dim]
    herm[upper] = values
    herm[lower] = values.conj()
    return herm.reshape(dim, dim)


def exp_i_hermitian(herm: np.ndarray) -> np.ndarray:
    """exp(iH) through the eigendecomposition of H, as a plain array.

    The shared core of ``exp_map``, which validates the result as a
    ModeUnitary, and of the optimizer's objective, which does not.
    """
    eigvals, eigvecs = np.linalg.eigh(herm)
    return (eigvecs * np.exp(1j * eigvals)) @ eigvecs.conj().T


def exp_map(params) -> ModeUnitary:
    """U = exp(iH) for the Hermitian matrix encoded by `params`.

    Accepts a HermitianParams record or any real vector of square length.
    Surjective onto U(M), so it serves as unconstrained coordinates for
    optimization over all mode redefinitions.
    """
    theta = params.theta if isinstance(params, HermitianParams) else params
    return ModeUnitary(
        exp_i_hermitian(hermitian_from_params(theta)), tol=EXP_MAP_TOLERANCE
    )


def beam_splitter(
    mode_count: int, i: int, j: int, theta: float, phi: float = 0.0
) -> ModeUnitary:
    """Two-mode mixer embedded in an M-mode identity.

    The (i, j) block is [[cos t, e^{i phi} sin t], [-e^{-i phi} sin t, cos t]].
    """
    mode_count = operator.index(mode_count)
    i = operator.index(i)
    j = operator.index(j)
    if not (0 <= i < j < mode_count):
        raise IndexError(
            f"mode indices must satisfy 0 <= i < j < {mode_count}, got ({i}, {j})"
        )
    m = np.eye(mode_count, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    m[i, i] = c
    m[i, j] = np.exp(1j * phi) * s
    m[j, i] = -np.exp(-1j * phi) * s
    m[j, j] = c
    return ModeUnitary(m, tol=EXP_MAP_TOLERANCE)


def permanent(matrix) -> complex:
    """Permanent of a square matrix by Ryser's formula with Gray-code subsets.

    Exact up to double rounding; cost O(2^n * n), capped at n = 16.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise DimensionError("permanent requires at least a 1x1 matrix")
    if n > PERMANENT_MAX_DIM:
        raise SizeLimitError(
            f"permanent capped at {PERMANENT_MAX_DIM}x{PERMANENT_MAX_DIM}, got n={n}"
        )
    if n == 1:
        return complex(a[0, 0])
    row_sums = np.zeros(n, dtype=complex)
    total = 0j
    parity = 1  # (-1)^{|S|} for the current column subset S
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        if (k ^ (k >> 1)) & (1 << bit):
            row_sums += a[:, bit]
        else:
            row_sums -= a[:, bit]
        parity = -parity
        total += parity * np.prod(row_sums)
    if n % 2:
        total = -total
    return complex(total)


def _factorial_product(occ: Occupation) -> int:
    return math.prod(math.factorial(c) for c in occ)


def fock_matrix_element(unitary: ModeUnitary, m, n) -> complex:
    """Amplitude <m| of the redefinition of basis ket |n>.

    Equals permanent(W[m; n]) / sqrt(prod m_i! prod n_j!) where W = conj(U)
    and W[m; n] repeats row i m_i times and column j n_j times.  The
    conjugation matches the creation-operator substitution performed by
    ``apply_redefinition``; the two paths are developed independently and
    cross-checked in the test suite.  Exactly zero when the totals differ.
    """
    m = tuple(operator.index(c) for c in m)
    n = tuple(operator.index(c) for c in n)
    if len(m) != unitary.dim or len(n) != unitary.dim:
        raise DimensionError(
            f"occupations must have length {unitary.dim}, got {len(m)} and {len(n)}"
        )
    if any(c < 0 for c in m + n):
        raise ValueError("occupations must be non-negative")
    if sum(m) != sum(n):
        return 0j
    if sum(m) == 0:
        return 1 + 0j
    w = unitary.matrix.conj()
    rows = np.repeat(np.arange(unitary.dim), m)
    cols = np.repeat(np.arange(unitary.dim), n)
    sub = w[np.ix_(rows, cols)]
    return permanent(sub) / math.sqrt(_factorial_product(m) * _factorial_product(n))


def apply_redefinition(state: PureState, unitary: ModeUnitary) -> PureState:
    """Rewrite `state` in the mode basis defined by b†_k = sum_j U[k,j] a†_j.

    Each occupation's creation monomial is expanded after substituting
    a†_j -> sum_k conj(U[k,j]) b†_k, and like monomials are merged.  The
    transform is passive: the total-photon-number distribution and the norm
    are preserved exactly up to rounding.
    """
    if unitary.dim != state.mode_count:
        raise DimensionError(
            f"unitary dimension {unitary.dim} != state mode count {state.mode_count}"
        )
    mode_count = state.mode_count
    subst = unitary.matrix.conj().T  # row j: expansion of old a†_j in new operators
    rows = [
        [(k, subst[j, k]) for k in range(mode_count) if subst[j, k] != 0]
        for j in range(mode_count)
    ]
    vacuum = (0,) * mode_count
    out: dict[Occupation, complex] = defaultdict(complex)
    for occ, amp in state.amplitudes.items():
        terms: dict[Occupation, complex] = {
            vacuum: amp / math.sqrt(_factorial_product(occ))
        }
        for j, count in enumerate(occ):
            row = rows[j]
            for _ in range(count):
                expanded: dict[Occupation, complex] = defaultdict(complex)
                for mono, coeff in terms.items():
                    for k, weight in row:
                        key = mono[:k] + (mono[k] + 1,) + mono[k + 1 :]
                        expanded[key] += coeff * weight
                terms = expanded
        for mono, coeff in terms.items():
            out[mono] += coeff * math.sqrt(_factorial_product(mono))
    return PureState(mode_count, out)
