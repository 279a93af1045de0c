"""The numpy kernels against exact references: a Python-int Gauss-Jordan
elimination for rank, rref and nullspace."""

import numpy as np
import pytest

from permsym import _kernels

#: primes from F_2 up to just below the characteristic bound 2^28
PRIMES = (2, 3, 7, 73, 268435399)


# ---------------------------------------------------------------------------
# mod-p elimination against a Python-int reference
# ---------------------------------------------------------------------------

def _reference_rref(a, p):
    """Gauss-Jordan elimination over F_p on Python ints; returns (rref, rank)."""
    rows = [[int(v) % p for v in row] for row in a]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
        r += 1
    return rows, r


def _reference_nullspace(rref, rank, ncols, p):
    pivots = [next(c for c in range(ncols) if rref[i][c]) for i in range(rank)]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -rref[i][f] % p
        basis.append(v)
    return basis


def _random_system(rng, p, shape=None):
    """A matrix over F_p of the given or a random shape and of random
    (usually deficient) rank, with some zero columns and entries spread over
    the whole of [0, p)."""
    rows, cols = shape or (int(v) for v in rng.integers(1, 13, size=2))
    k = int(rng.integers(0, min(rows, cols) + 1))
    left = rng.integers(0, p, size=(rows, k)).tolist()
    right = rng.integers(0, p, size=(k, cols)).tolist()
    a = [[sum(left[i][t] * right[t][j] for t in range(k)) % p for j in range(cols)]
         for i in range(rows)]
    for j in np.nonzero(rng.random(cols) < 0.2)[0]:
        for row in a:
            row[j] = 0
    return np.array(a, dtype=np.int64).reshape(rows, cols)


def _tall_systems(rng, p):
    """Inputs on both sides of the tall path's boundary rows > 2 * cols, up
    to 8 * cols rows: random rank, rank 0, full rank, full rank reached only
    by the last rows, and a matrix with no columns."""
    for cols in (1, 3, 7):
        for rows in (2 * cols, 2 * cols + 1, 5 * cols, 8 * cols):
            yield _random_system(rng, p, (rows, cols))
            yield np.zeros((rows, cols), dtype=np.int64)
            full = rng.integers(0, p, size=(rows, cols))
            full[rng.permutation(rows)[:cols]] = np.eye(cols, dtype=np.int64)
            yield full
            late = full.copy()
            late[:rows - cols] = late[0]
            late[rows - cols:] = np.eye(cols, dtype=np.int64)
            yield late
    yield np.zeros((9, 0), dtype=np.int64)


@pytest.mark.parametrize("p", PRIMES)
def test_elimination_matches_python_int_reference(p):
    rng = np.random.default_rng(p)
    randoms = [_random_system(rng, p) for _ in range(40)]
    for a in randoms + list(_tall_systems(rng, p)):
        ref_rref, ref_rank = _reference_rref(a, p)
        before = a.copy()
        assert _kernels.rank_mod_p(a, p) == ref_rank
        rref, rank = _kernels.rref_mod_p(a, p)
        assert rank == ref_rank
        assert rref.tolist() == ref_rref
        assert np.array_equal(a, before)  # inputs are not modified
        null = _kernels.nullspace_mod_p(a, p)
        assert null.tolist() == _reference_nullspace(ref_rref, ref_rank, a.shape[1], p)
        for v in null.tolist():
            assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in a.tolist())


@pytest.mark.parametrize("p", PRIMES)
def test_elimination_with_entries_near_p(p):
    # every entry p-1 (or p-2): the largest products the int64 path ever forms
    a = np.full((6, 5), p - 1, dtype=np.int64)
    a[::2, ::2] = max(p - 2, 0)
    ref_rref, ref_rank = _reference_rref(a, p)
    rref, rank = _kernels.rref_mod_p(a, p)
    assert rank == ref_rank == _kernels.rank_mod_p(a, p)
    assert rref.tolist() == ref_rref


@pytest.mark.parametrize("seed", range(6))
def test_rref_and_rank_paths_agree(seed):
    # rank clears below the pivot only, rref clears every other row; both
    # must see the same pivots
    rng = np.random.default_rng(seed)
    p = [2, 3, 5, 7, 11][seed % 5]
    a = rng.integers(0, p, size=(rng.integers(1, 12), rng.integers(1, 12))).astype(np.int64)
    rref, rank = _kernels.rref_mod_p(a, p)
    assert _kernels.rank_mod_p(a, p) == rank
    assert _kernels.rank_mod_p(rref, p) == rank
    assert (rref.tolist(), rank) == _reference_rref(a, p)


def test_rref_is_reduced_echelon():
    rng = np.random.default_rng(3)
    p = 5
    a = rng.integers(0, p, size=(8, 6)).astype(np.int64)
    rref, rank = _kernels.rref_mod_p(a, p)
    pivots = []
    for i in range(rank):
        nz = np.nonzero(rref[i])[0]
        assert nz.size > 0
        c = nz[0]
        assert rref[i, c] == 1
        assert np.count_nonzero(rref[:, c]) == 1  # pivot column cleared
        pivots.append(c)
    assert pivots == sorted(pivots)
    assert not rref[rank:].any()


def test_empty_matrices():
    assert _kernels.rank_mod_p(np.zeros((0, 3), dtype=np.int64), 5) == 0
    rref, rank = _kernels.rref_mod_p(np.zeros((2, 0), dtype=np.int64), 5)
    assert rank == 0 and rref.shape == (2, 0)


# ---------------------------------------------------------------------------
# stacks of matrices: the stacked loop against the reference
# ---------------------------------------------------------------------------

def _zero_padded(matrices, rows, cols):
    stack = np.zeros((len(matrices), rows, cols), dtype=np.int64)
    for level, a in zip(stack, matrices):
        level[:a.shape[0], :a.shape[1]] = a
    return stack


def _stacks(rng, p):
    """Stacks of random systems zero-padded to one shape, a stack of one,
    stacks with all-zero matrices and with no rows or no columns, and a stack
    whose every entry is p-1 (or p-2)."""
    for count in (2, 3, 9):
        matrices = [_random_system(rng, p) for _ in range(count)]
        yield _zero_padded(matrices, max(a.shape[0] for a in matrices),
                           max(a.shape[1] for a in matrices))
    yield _zero_padded([_random_system(rng, p, (7, 5))], 7, 5)
    yield _zero_padded([_random_system(rng, p, (6, 4)), np.zeros((6, 4), dtype=np.int64),
                        _random_system(rng, p, (3, 4))], 6, 4)
    yield np.zeros((4, 5, 3), dtype=np.int64)
    yield np.zeros((3, 0, 4), dtype=np.int64)
    yield np.zeros((3, 4, 0), dtype=np.int64)
    yield np.zeros((0, 4, 4), dtype=np.int64)
    near = np.full((5, 6, 5), p - 1, dtype=np.int64)
    near[1, ::2, ::2] = near[3, 1::2] = max(p - 2, 0)
    yield near


@pytest.mark.parametrize("p", PRIMES)
def test_stacked_ranks_match_python_int_reference(p):
    rng = np.random.default_rng(p + 1)
    for stack in _stacks(rng, p):
        before = stack.copy()
        ranks = _kernels.rank_mod_p(stack, p)
        assert ranks.dtype == np.int64
        assert ranks.tolist() == [_reference_rref(a, p)[1] for a in stack]
        assert np.array_equal(stack, before)  # inputs are not modified


def test_stacked_ranks_at_sixty_columns_near_the_characteristic_bound():
    # the widest stack the package forms (cols = ALGEBRA_DIM_CAP = 60) at the
    # largest prime below 2^28: entries grow to about 60 * p^2 ~ 2^62
    p = PRIMES[-1]
    rng = np.random.default_rng(60)
    matrices = [_random_system(rng, p, (rows, 60)) for rows in (60, 45, 60, 12)]
    matrices.append(rng.integers(p - 3, p, size=(60, 60)))
    stack = _zero_padded(matrices, 60, 60)
    assert _kernels.rank_mod_p(stack, p).tolist() == [_reference_rref(a, p)[1] for a in stack]


def test_stacked_ranks_refuse_a_stack_past_the_int64_bound():
    # 60 columns of entries up to 2^31: 60 * (2^31 - 1)^2 is above 2^63
    stack = np.ones((2, 3, 60), dtype=np.int64)
    with pytest.raises(OverflowError):
        _kernels.rank_mod_p(stack, (1 << 31) - 1)
    # a stack of one takes the row loop, which reduces every step
    assert _kernels.rank_mod_p(stack[:1], (1 << 31) - 1).tolist() == [1]


# ---------------------------------------------------------------------------
# the exact product
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("top", [1000, 268435398], ids=["float64", "int64"])
def test_contract_is_exact_on_both_sides_of_the_float64_bound(top):
    # 60 * 1000^2 is far below 2^53; 60 * (2^28)^2 is far above it
    rng = np.random.default_rng(11)
    a = rng.integers(top - 50, top + 1, size=(40, 60), dtype=np.int64)
    b = rng.integers(top - 50, top + 1, size=(60, 30), dtype=np.int64)
    exact = a.astype(object) @ b.astype(object)
    assert (_kernels._contract(a, b).astype(object) == exact).all()
    # mod a modulus just above every entry, on the same side of the bound
    modulus = top + 1
    reduced = _kernels._contract(a, b, modulus)
    assert reduced.dtype == np.int64
    assert (reduced.astype(object) == exact % modulus).all()
    # a stack of row vectors against a stack of matrices, as SCAlgebra.power forms
    mats = np.stack([b, b[::-1], b])
    stacked = _kernels._contract(a[:3, None, :], mats, modulus)
    for i in range(3):
        expected = a[i].astype(object) @ mats[i].astype(object) % modulus
        assert stacked[i, 0].tolist() == expected.tolist()


def test_contract_refuses_a_product_that_can_overflow_int64():
    # 4 * (2^31 - 1)^2 is above 2^63 - 1
    a = np.ones((2, 4), dtype=np.int64)
    with pytest.raises(OverflowError):
        _kernels._contract(a, a.T, 1 << 31)
