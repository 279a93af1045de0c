"""Exact arithmetic over prime fields F_p and binary fields GF(2^m),
plus dense row reduction (rank, rref, nullspace) used by every other module.

Field elements are plain Python ints in a canonical encoding: residues in
[0, p) for prime fields, bit-vectors of polynomial coefficients (degree < m)
for binary fields.  Matrices are numpy int64 arrays of encodings.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError

#: bit-vectors of the lexicographically least irreducible polynomial per degree
BUILTIN_BINARY_MODULUS = {1: 0b11, 2: 0b111, 3: 0b1011, 5: 0b100101}

#: exclusive bound on a prime characteristic: every product-sum of at most 60
#: terms below p^2 (the algebra dimension cap is 60) then fits in int64
CHARACTERISTIC_BOUND = 1 << 28


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_2 (bit-vector encoding, bit i = coeff of x^i)
# ---------------------------------------------------------------------------

def poly_degree(a: int) -> int:
    return a.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    db = poly_degree(b)
    while poly_degree(a) >= db and a:
        a ^= b << (poly_degree(a) - db)
    return a


def poly_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_str(a: int) -> str:
    if a == 0:
        return "0"
    terms = []
    for i in range(poly_degree(a), -1, -1):
        if a >> i & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return "+".join(terms)


def _irreducible_or_divisor(modulus: int, m: int):
    """Return None when irreducible, else a nontrivial divisor (trial division
    by every polynomial of degree 1..m//2)."""
    for d in range(1, m // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(modulus, q) == 0:
                return q
    return None


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class PrimeField:
    """Arithmetic context for F_p, elements encoded as ints in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if p >= CHARACTERISTIC_BOUND:
            raise InputError(f"characteristic {p} is not below the supported bound 2^28")
        if not is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise InputError("division by zero")
        return pow(a, -1, self.p)

    def pow_(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def elements(self):
        return range(self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


class BinaryField:
    """Arithmetic context for GF(2^m), elements encoded as coefficient bit-vectors."""

    kind = "binary"

    def __init__(self, m: int, modulus_poly: int | None = None):
        if m < 1:
            raise InputError("extension degree must be >= 1")
        if modulus_poly is None:
            if m not in BUILTIN_BINARY_MODULUS:
                raise InputError(
                    f"no built-in modulus for degree {m}; pass modulus_poly explicitly"
                )
            modulus_poly = BUILTIN_BINARY_MODULUS[m]
        if poly_degree(modulus_poly) != m:
            raise InputError(
                f"modulus {poly_str(modulus_poly)} has degree {poly_degree(modulus_poly)}, expected {m}"
            )
        divisor = _irreducible_or_divisor(modulus_poly, m)
        if divisor is not None:
            raise InputError(
                f"modulus {poly_str(modulus_poly)} is reducible: divisible by {poly_str(divisor)}"
            )
        self.m = m
        self.modulus = modulus_poly
        self.char = 2
        self.order = 1 << m
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        return poly_mod(poly_mul(a, b), self.modulus)

    def inv(self, a):
        if a == 0:
            raise InputError("division by zero")
        return self.pow_(a, self.order - 2)

    def pow_(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"BinaryField(2^{self.m}, {poly_str(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, BinaryField)
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("binary", self.m, self.modulus))


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def binary_field(m: int, modulus_poly: int | None = None) -> BinaryField:
    return BinaryField(m, modulus_poly)


# ---------------------------------------------------------------------------
# dense linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussResult:
    rref: np.ndarray
    rank: int
    nullspace: np.ndarray  # rows are basis vectors of {v : Mv = 0}


def _as_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.int64)
    if a.ndim != 2:
        raise InputError("matrix must be two-dimensional")
    return a


def _rref_generic(a: np.ndarray, field):
    rows = [list(map(int, row)) for row in a]
    nrows, ncols = len(rows), a.shape[1]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i == r or rows[i][c] == 0:
                continue
            f = rows[i][c]
            rows[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(rows[i], rows[r])]
        r += 1
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols), r


def _nullspace_from_rref(rref: np.ndarray, rank: int, field) -> np.ndarray:
    cols = rref.shape[1]
    pivots = []
    for i in range(rank):
        nz = np.nonzero(rref[i])[0]
        pivots.append(int(nz[0]))
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = field.neg(int(rref[i, f]))
    return basis


def mat_gauss(matrix, field) -> GaussResult:
    """Reduced row-echelon form, rank, and a nullspace basis over the field."""
    a = _as_matrix(matrix)
    if a.size == 0:
        null = np.eye(a.shape[1], dtype=np.int64) if a.shape[1] else np.zeros((0, 0), np.int64)
        return GaussResult(a.copy(), 0, null)
    if field.kind == "prime":
        rref, rank = _kernels.rref_mod_p(a, field.p)
    else:
        a = np.vectorize(lambda v: poly_mod(int(v), field.modulus))(a).astype(np.int64)
        rref, rank = _rref_generic(a, field)
    return GaussResult(rref, rank, _nullspace_from_rref(rref, rank, field))


def mat_rank(matrix, field) -> int:
    a = _as_matrix(matrix)
    if a.size == 0:
        return 0
    if field.kind == "prime":
        return _kernels.rank_mod_p(a, field.p)
    return mat_gauss(a, field).rank


def nullspace_mod_p(matrix, p: int) -> np.ndarray:
    """Fast path: nullspace basis rows of an integer matrix over F_p."""
    return mat_gauss(matrix, PrimeField(p)).nullspace
