import numpy as np
import pytest

from permsym import _kernels
from permsym.errors import InputError
from permsym.exactlin import (
    BUILTIN_BINARY_MODULUS,
    BinaryField,
    PrimeField,
    poly_degree,
    poly_mod,
    poly_mul,
)

PRIMES_TO_101 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]


def test_prime_field_basics():
    assert PrimeField(3).p == 3


def test_binary_field_cube_of_x():
    # GF(8) with modulus x^3 + x + 1: x * x * x = x + 1
    F = BinaryField(3)
    x = 0b010
    assert F.mul(F.mul(x, x), x) == 0b011


def test_non_prime_rejected():
    with pytest.raises(InputError, match="not prime"):
        PrimeField(4)


def test_prime_fields_to_101():
    for n in range(102):
        if n in PRIMES_TO_101:
            assert PrimeField(n).p == n
        else:
            with pytest.raises(InputError, match="not prime"):
                PrimeField(n)


def test_characteristic_bound():
    assert PrimeField(268435399).p == 268435399  # largest prime below 2^28
    for p in (268435459, 2147483647, 4294967311):  # primes above the bound
        with pytest.raises(InputError, match="2\\^28"):
            PrimeField(p)


def trial_divisor(a: int):
    """The least divisor of a over F_2 of degree 1..deg(a)//2, or None; a of
    degree >= 1 is irreducible iff there is none."""
    for d in range(1, poly_degree(a) // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(a, q) == 0:
                return q
    return None


@pytest.mark.parametrize("m", sorted(BUILTIN_BINARY_MODULUS))
def test_builtin_modulus_is_irreducible_of_its_degree(m):
    modulus = BUILTIN_BINARY_MODULUS[m]
    assert poly_degree(modulus) == m
    assert trial_divisor(modulus) is None


def test_trial_division_finds_a_divisor_of_a_reducible_polynomial():
    # x^4 + 1 = (x+1)^4 over F_2
    assert trial_divisor(0b10001) == 0b11
    assert trial_divisor(0b10011) is None  # x^4 + x + 1


@pytest.mark.parametrize("m", [0, 1, 4])
def test_degree_outside_the_table_is_refused(m):
    with pytest.raises(InputError, match=f"no built-in modulus for GF\\(2\\^{m}\\)"):
        BinaryField(m)


def test_gf8_inverse_of_x_against_table_oracle():
    # independent oracle: full multiplication table from raw polynomial ops
    mod = BUILTIN_BINARY_MODULUS[3]
    table = {(a, b): poly_mod(poly_mul(a, b), mod) for a in range(8) for b in range(8)}
    inverses = {a: b for (a, b), v in table.items() if v == 1}
    assert inverses[0b010] == 0b101  # x -> x^2 + 1
    F = BinaryField(3)
    for a in range(1, 8):
        assert F.inv(a) == inverses[a]


def test_inverse_property_all_elements():
    for m in BUILTIN_BINARY_MODULUS:
        F = BinaryField(m)
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
