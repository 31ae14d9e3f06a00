"""Dense symmetric tensors viewed as homogeneous polynomials.

An order-d symmetric tensor over m variables is stored as the vector of its
coefficients T_alpha, one per monomial of degree d, enumerated in graded
lexicographic order.  The polynomial it represents is

    T(x) = sum_{|alpha|=d} T_alpha * multinom(d, alpha) * x^alpha.

The apolar inner product weights coefficient pairs by the same multinomial
coefficients, which makes powers of linear forms act as point evaluations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError


@lru_cache(maxsize=None)
def monomials(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree `degree` in `dim` variables,
    in graded-lex order (lexicographically descending)."""
    if dim < 1:
        raise InputError("dim must be >= 1")
    if dim == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials(dim - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


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
def exponent_matrix(dim: int, degree: int) -> np.ndarray:
    """s x m integer matrix whose rows are the graded-lex exponent vectors."""
    e = np.array(monomials(dim, degree), dtype=np.int64)
    e.setflags(write=False)
    return e


@lru_cache(maxsize=None)
def sum_index(dim: int, k: int, l: int) -> np.ndarray:
    """s_k x s_l table: entry (a, b) is the position of alpha_a + beta_b among
    the degree-(k+l) monomials.  The l = 1 table maps (beta, i) to beta + e_i."""
    idx = monomial_index(dim, k + l)
    table = np.array(
        [
            [idx[tuple(a + b for a, b in zip(alpha, beta))] for beta in monomials(dim, l)]
            for alpha in monomials(dim, k)
        ],
        dtype=np.intp,
    )
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _lift_index(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(beta, i) with gamma = beta + e_i for each degree-`degree` monomial
    gamma: its first entry in the shift table."""
    _, first = np.unique(sum_index(dim, degree - 1, 1), return_index=True)
    return np.divmod(first, dim)


def evaluation_matrix(points, k: int) -> np.ndarray:
    """r x s_k matrix; row i holds the degree-k monomials evaluated at point i,
    in graded-lex order, each degree built from the one below it with one
    multiply per monomial: x^(beta + e_i) = x^beta * x_i."""
    points = np.asarray(points, dtype=complex if np.iscomplexobj(points) else float)
    if points.ndim != 2:
        raise InputError("points must be an r x m array")
    if k < 1:
        raise InputError("k must be >= 1")
    out = np.ones((points.shape[0], 1), dtype=points.dtype)
    for degree in range(1, k + 1):
        beta, var = _lift_index(points.shape[1], degree)
        out = out[:, beta] * points[:, var]
    return out


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
        self.coeffs = np.asarray(self.coeffs)
        if not np.iscomplexobj(self.coeffs):
            self.coeffs = self.coeffs.astype(float)
        expected = num_coeffs(self.dim, self.order)
        if self.coeffs.shape != (expected,):
            raise InputError(
                f"coefficient vector has shape {self.coeffs.shape}, "
                f"expected ({expected},) for dim={self.dim}, order={self.order}"
            )

    def __call__(self, x) -> float:
        return evaluate(self, x)

    def coefficient(self, alpha: tuple[int, ...]) -> float:
        return self.coeffs[monomial_index(self.dim, self.order)[alpha]]

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "order": self.order, "coeffs": list(self.coeffs)}
        )

    @classmethod
    def from_json(cls, text: str) -> "SymmetricTensor":
        obj = json.loads(text)
        try:
            return cls(int(obj["dim"]), int(obj["order"]), np.array(obj["coeffs"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed tensor JSON: {exc}") from exc

    @classmethod
    def zero(cls, dim: int, order: int) -> "SymmetricTensor":
        return cls(dim, order, np.zeros(num_coeffs(dim, order)))


def evaluate(t: SymmetricTensor, x) -> float:
    """Polynomial value T(x) = sum T_alpha * multinom(d, alpha) * x^alpha."""
    x = np.asarray(x, dtype=float)
    if x.shape != (t.dim,):
        raise InputError(f"point has shape {x.shape}, expected ({t.dim},)")
    mono = evaluation_matrix(x[None, :], t.order)[0]
    return float(np.sum(t.coeffs * multinomial_weights(t.dim, t.order) * mono))


def pow_linear(v, d: int) -> SymmetricTensor:
    """The d-th power of the linear form (v . X), as a symmetric tensor:
    coefficients are v^alpha."""
    v = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
    if v.ndim != 1:
        raise InputError("v must be a vector")
    if d < 1:
        raise InputError("d must be >= 1")
    if not np.any(v):
        raise InputError("v must be nonzero")
    return SymmetricTensor(len(v), d, evaluation_matrix(v[None, :], d)[0])


def apolar(p: SymmetricTensor, q: SymmetricTensor) -> float:
    """Apolar inner product <p, q>_d = sum multinom(d, alpha) conj(p_a) q_a."""
    if p.dim != q.dim or p.order != q.order:
        raise InputError(
            f"apolar product needs matching shapes, got "
            f"({p.dim},{p.order}) vs ({q.dim},{q.order})"
        )
    val = np.sum(multinomial_weights(p.dim, p.order) * np.conj(p.coeffs) * q.coeffs)
    if not (np.iscomplexobj(p.coeffs) or np.iscomplexobj(q.coeffs)):
        return float(val.real)
    return complex(val)


def apolar_norm(p: SymmetricTensor) -> float:
    return math.sqrt(abs(apolar(p, p)))


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
    # set by decompose when it dropped the points' imaginary parts
    complex_leak: bool = False

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

    def reconstruct(self) -> SymmetricTensor:
        return reconstruct(self)

    def to_json(self, residual: float | None = None) -> str:
        obj = {
            "weights": list(self.weights),
            "points": [list(p) for p in self.points],
        }
        if residual is not None:
            obj["residual"] = residual
        return json.dumps(obj)


def reconstruct(w: WaringDecomposition) -> SymmetricTensor:
    """Coefficientwise sum of weighted powers of the linear forms."""
    return SymmetricTensor(w.dim, w.order, w.weights @ evaluation_matrix(w.points, w.order))
