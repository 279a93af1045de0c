import numpy as np
import pytest

from permsym import _kernels
from permsym.errors import InputError
from permsym.exactlin import (
    BUILTIN_BINARY_MODULUS,
    binary_field,
    poly_mod,
    poly_mul,
    prime_field,
)

PRIMES_TO_101 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]


def test_prime_field_basics():
    F = prime_field(3)
    assert F.p == 3
    assert F.inv(2) == 2


def test_binary_field_cube_of_x():
    # GF(8) with modulus x^3 + x + 1: x * x * x = x + 1
    F = binary_field(3)
    x = 0b010
    assert F.mul(F.mul(x, x), x) == 0b011


def test_non_prime_rejected():
    with pytest.raises(InputError, match="not prime"):
        prime_field(4)


def test_characteristic_bound():
    assert prime_field(268435399).p == 268435399  # largest prime below 2^28
    for p in (268435459, 2147483647, 4294967311):  # primes above the bound
        with pytest.raises(InputError, match="2\\^28"):
            prime_field(p)


def test_reducible_modulus_names_divisor():
    # x^4 + 1 = (x+1)^4 over F_2
    with pytest.raises(InputError, match="reducible.*x\\+1"):
        binary_field(4, 0b10001)


def test_inverse_examples():
    assert prime_field(5).inv(2) == 3
    assert prime_field(7).inv(1) == 1
    with pytest.raises(InputError, match="zero"):
        prime_field(5).inv(0)


def test_gf8_inverse_of_x_against_table_oracle():
    # independent oracle: full multiplication table from raw polynomial ops
    mod = BUILTIN_BINARY_MODULUS[3]
    table = {(a, b): poly_mod(poly_mul(a, b), mod) for a in range(8) for b in range(8)}
    inverses = {a: b for (a, b), v in table.items() if v == 1}
    assert inverses[0b010] == 0b101  # x -> x^2 + 1
    F = binary_field(3)
    for a in range(1, 8):
        assert F.inv(a) == inverses[a]


def test_inverse_property_all_elements():
    for p in PRIMES_TO_101:
        F = prime_field(p)
        for a in range(1, p):
            assert a * F.inv(a) % p == 1
    for m in (1, 2, 3, 4, 5):
        F = binary_field(m, 0b10011 if m == 4 else None)
        for a in range(1, F.order):
            assert F.mul(a, F.inv(a)) == 1


def test_gauss_identity_and_zero():
    assert _kernels.rank_mod_p(np.eye(3, dtype=np.int64), 2) == 3
    assert _kernels.nullspace_mod_p(np.eye(3, dtype=np.int64), 2).shape == (0, 3)
    zero = np.zeros((2, 2), dtype=np.int64)
    assert _kernels.rank_mod_p(zero, 3) == 0
    assert np.array_equal(_kernels.nullspace_mod_p(zero, 3), np.eye(2))


def test_gauss_all_ones_hand_oracle():
    # 3x3 all-ones over F_3 row-reduces by hand to a single nonzero row
    rref, rank = _kernels.rref_mod_p(np.ones((3, 3), dtype=np.int64), 3)
    assert rank == 1
    assert np.array_equal(rref[0], [1, 1, 1])
    assert not rref[1:].any()
    null = _kernels.nullspace_mod_p(np.ones((3, 3), dtype=np.int64), 3)
    assert null.tolist() == [[2, 1, 0], [2, 0, 1]]


@pytest.mark.parametrize("seed", range(8))
def test_gauss_properties_random(seed):
    rng = np.random.default_rng(seed)
    p = [2, 3, 5, 7][seed % 4]
    a = rng.integers(0, p, size=(rng.integers(1, 10), rng.integers(1, 10))).astype(np.int64)
    rank = _kernels.rank_mod_p(a, p)
    null = _kernels.nullspace_mod_p(a, p)
    assert rank + null.shape[0] == a.shape[1]
    assert rank == _kernels.rank_mod_p(a.T, p)
    for v in null:
        assert not (a @ v % p).any()


def test_empty_matrix_allowed():
    # no rows: every column is free; no columns: an empty basis
    null = _kernels.nullspace_mod_p(np.zeros((0, 4), dtype=np.int64), 5)
    assert np.array_equal(null, np.eye(4))
    assert _kernels.nullspace_mod_p(np.zeros((2, 0), dtype=np.int64), 5).shape == (0, 0)
