"""Exact arithmetic over prime fields F_p and binary fields GF(2^m).

A prime field validates the characteristic; every rank, rref
and nullspace over F_p comes from the elimination in _kernels.  A binary
field gives the products and inverses of the PSL(2, 2^m) constructions.
Field elements are plain Python ints in a canonical encoding: residues in
[0, p) for prime fields, bit-vectors of polynomial coefficients (degree < m)
for binary fields.
"""

from .errors import InputError

#: bit-vectors of the lexicographically least irreducible polynomial of each
#: degree the catalog's GF(4), GF(8) and GF(32) need; the tests prove each
#: irreducible by trial division
BUILTIN_BINARY_MODULUS = {2: 0b111, 3: 0b1011, 5: 0b100101}

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


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class PrimeField:
    """The prime field F_p, elements encoded as ints in [0, p).  Constructing
    one validates the characteristic."""

    def __init__(self, p: int):
        if p >= CHARACTERISTIC_BOUND:
            raise InputError(f"characteristic {p} is not below the supported bound 2^28")
        if not is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        self.p = p


class BinaryField:
    """Arithmetic context for GF(2^m), elements encoded as coefficient bit-vectors."""

    def __init__(self, m: int):
        if m not in BUILTIN_BINARY_MODULUS:
            raise InputError(f"no built-in modulus for GF(2^{m}); the degrees are "
                             f"{sorted(BUILTIN_BINARY_MODULUS)}")
        self.modulus = BUILTIN_BINARY_MODULUS[m]
        self.order = 1 << m

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        return poly_mod(poly_mul(a, b), self.modulus)

    def inv(self, a):
        """a^(order - 2), by square-and-multiply."""
        if a == 0:
            raise InputError("division by zero")
        r, e = 1, self.order - 2
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r
