"""Dense symmetric tensors viewed as homogeneous polynomials.

An order-d symmetric tensor over m variables is stored as the vector of its
coefficients T_alpha, one per monomial of degree d, enumerated in graded
lexicographic order.  The polynomial it represents is

    T(x) = sum_{|alpha|=d} T_alpha * multinom(d, alpha) * x^alpha.

The apolar inner product weights coefficient pairs by the same multinomial
coefficients, which makes powers of linear forms act as point evaluations.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, json_int


@lru_cache(maxsize=None)
def index_tuples(dim: int, degree: int) -> np.ndarray:
    """s_d x d table, the one monomial enumeration: row a lists the variables
    i_1 <= ... <= i_d of the a-th graded-lex monomial, so X1^2 X3 is (0, 0, 2).
    Sorted tuples in lexicographic order are exponent vectors in descending
    lexicographic order, which is graded-lex within one degree."""
    if dim < 1:
        raise InputError("dim must be >= 1")
    rows = list(itertools.combinations_with_replacement(range(dim), degree))
    table = np.array(rows, dtype=np.intp).reshape(len(rows), degree)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def monomials(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree `degree` in `dim` variables, in
    the order of `index_tuples`: how often each variable occurs in a row."""
    counts = (index_tuples(dim, degree)[:, :, None] == np.arange(dim)).sum(axis=1)
    return tuple(map(tuple, counts.tolist()))


@lru_cache(maxsize=None)
def monomial_index(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    return {alpha: i for i, alpha in enumerate(monomials(dim, degree))}


def num_coeffs(dim: int, degree: int) -> int:
    """s_d = C(dim + degree - 1, degree), the number of degree-d monomials."""
    return math.comb(dim + degree - 1, degree)


def multinomial(degree: int, alpha: tuple[int, ...]) -> int:
    """Exact integer multinomial coefficient degree! / prod(alpha_j!)."""
    num = math.factorial(degree)
    for a in alpha:
        num //= math.factorial(a)
    return num


@lru_cache(maxsize=None)
def multinomial_weights(dim: int, degree: int) -> np.ndarray:
    """Vector of multinomial coefficients aligned with monomials(dim, degree)."""
    w = np.array([multinomial(degree, a) for a in monomials(dim, degree)], dtype=float)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def sum_index(dim: int, k: int, l: int) -> np.ndarray:
    """s_k x s_l table: entry (a, b) is the position of alpha_a + beta_b among
    the degree-(k+l) monomials.  The l = 1 table maps (beta, i) to beta + e_i.
    A sorted index tuple is found by its C-order position in the dim^(k+l)
    array, which grows with the tuple's lexicographic rank."""
    rows, cols = index_tuples(dim, k), index_tuples(dim, l)
    sums = np.hstack([np.repeat(rows, len(cols), axis=0), np.tile(cols, (len(rows), 1))])
    sums.sort(axis=1)

    def position(tuples):
        return np.atleast_1d(np.ravel_multi_index(tuples.T, (dim,) * (k + l)))

    table = np.searchsorted(position(index_tuples(dim, k + l)), position(sums))
    table = table.reshape(len(rows), len(cols))
    table.setflags(write=False)
    return table


def _real_array(x, what: str) -> np.ndarray:
    """x as a float array; complex input is rejected rather than cast."""
    if np.iscomplexobj(x):
        raise InputError(f"{what} must be real")
    return np.asarray(x, dtype=float)


def evaluation_matrix(points, k: int) -> np.ndarray:
    """r x s_k matrix; row i holds the degree-k monomials evaluated at point i,
    in graded-lex order: x^alpha = x_(i_1) * ... * x_(i_k), multiplied left to
    right along alpha's row of `index_tuples`.  k = 0 gives a column of ones."""
    points = _real_array(points, "points")
    if points.ndim != 2:
        raise InputError("points must be an r x m array")
    if k < 0:
        raise InputError("k must be >= 0")
    table = index_tuples(points.shape[1], k)
    out = np.ones((len(table), points.shape[0]))
    for column in table.T:
        out *= np.take(points.T, column, axis=0)
    return out.T


@dataclass
class SymmetricTensor:
    """Order-`order` symmetric tensor over `dim` variables; `coeffs` holds
    T_alpha in graded-lex order.  Treated as immutable."""

    dim: int
    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.dim < 1 or self.order < 1:
            raise InputError("dim and order must be >= 1")
        self.coeffs = _real_array(self.coeffs, "coefficients").copy()
        expected = num_coeffs(self.dim, self.order)
        if self.coeffs.shape != (expected,):
            raise InputError(
                f"coefficient vector has shape {self.coeffs.shape}, "
                f"expected ({expected},) for dim={self.dim}, order={self.order}"
            )

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "order": self.order, "coeffs": list(self.coeffs)}
        )

    @classmethod
    def from_json(cls, text: str) -> "SymmetricTensor":
        """Parse a tensor JSON object, rejecting non-finite coefficients (JSON
        NaN or Infinity).  The constructor accepts them: on data near overflow
        init_moments forms a non-finite M3 and falls back on decompose's
        LinAlgError."""
        try:
            obj = json.loads(text)
            dim, order = (json_int(obj[key], key) for key in ("dim", "order"))
            t = cls(dim, order, np.array(obj["coeffs"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed tensor JSON: {exc}") from exc
        if not np.isfinite(t.coeffs).all():
            raise InputError("tensor coefficients must be finite")
        return t


def evaluate(t: SymmetricTensor, x) -> float:
    """Polynomial value T(x) = sum T_alpha * multinom(d, alpha) * x^alpha."""
    x = _real_array(x, "point")
    if x.shape != (t.dim,):
        raise InputError(f"point has shape {x.shape}, expected ({t.dim},)")
    mono = evaluation_matrix(x[None, :], t.order)[0]
    return float(np.sum(t.coeffs * multinomial_weights(t.dim, t.order) * mono))


def pow_linear(v, d: int) -> SymmetricTensor:
    """The d-th power of the linear form (v . X), as a symmetric tensor:
    coefficients are v^alpha."""
    v = _real_array(v, "v")
    if v.ndim != 1:
        raise InputError("v must be a vector")
    if d < 1:
        raise InputError("d must be >= 1")
    if not np.any(v):
        raise InputError("v must be nonzero")
    return SymmetricTensor(len(v), d, evaluation_matrix(v[None, :], d)[0])


def apolar(p: SymmetricTensor, q: SymmetricTensor) -> float:
    """Apolar inner product <p, q>_d = sum multinom(d, alpha) p_a q_a."""
    if p.dim != q.dim or p.order != q.order:
        raise InputError(
            f"apolar product needs matching shapes, got "
            f"({p.dim},{p.order}) vs ({q.dim},{q.order})"
        )
    return float(np.sum(multinomial_weights(p.dim, p.order) * p.coeffs * q.coeffs))


def apolar_norm(p: SymmetricTensor) -> float:
    return math.sqrt(apolar(p, p))


def partial_derivative(t: SymmetricTensor, i: int) -> SymmetricTensor:
    """d/dX_i of the polynomial, as an order-(d-1) tensor.

    In coefficient form this is an index shift: (dT/dX_i)_beta = d * T_{beta+e_i}.
    """
    if not 0 <= i < t.dim:
        raise InputError(f"variable index {i} out of range for dim {t.dim}")
    if t.order == 1:
        # degree-0 result: represent as a 1-long "tensor" is not supported;
        # callers only need d >= 2 here.
        raise InputError("cannot take the derivative of an order-1 tensor")
    shift = sum_index(t.dim, t.order - 1, 1)
    return SymmetricTensor(t.dim, t.order - 1, t.order * t.coeffs[shift[:, i]])


@dataclass
class WaringDecomposition:
    """T = sum_i weights[i] * (points[i] . X)^order."""

    weights: np.ndarray
    points: np.ndarray
    order: int
    # the sweeps of decompose's joint diagonalization, and refine's accepted steps
    sweeps: int = 0
    refine_steps: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.weights.shape != (self.points.shape[0],):
            raise InputError("weights must be length-r, points r x m")
        norms = np.linalg.norm(self.points, axis=1)
        if np.any(norms == 0.0):
            raise InputError("decomposition points must be nonzero")

    @property
    def rank(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_json(self, residual: float) -> str:
        return json.dumps({
            "weights": list(self.weights),
            "points": [list(p) for p in self.points],
            "residual": residual,
        })


def reconstruct(w: WaringDecomposition) -> SymmetricTensor:
    """Coefficientwise sum of weighted powers of the linear forms."""
    return SymmetricTensor(w.dim, w.order, w.weights @ evaluation_matrix(w.points, w.order))
