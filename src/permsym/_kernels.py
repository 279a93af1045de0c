"""numpy kernels: the one exact integer product, and the one mod-p
elimination behind every rank, reduced row-echelon form and nullspace in the
package.  The elimination is vectorized over whole rows.

The exact product ``_contract`` multiplies integer matrices on float64 BLAS
whenever every partial sum is below 2^53, the range in which float64 holds
integers exactly (the method of FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM
TOMS 35(3), 2008).  Mod p the partial sums are at most k * (p-1)^2 for inner
dimension k, so for every p below about 2^53 / k the product runs on BLAS;
above that bound it runs in int64, where k * (p-1)^2 < 2^63 holds for every
characteristic that exactlin.PrimeField accepts and every inner dimension
the package forms.  Products too small for BLAS to pay for the conversions
also run in int64.

The elimination works in int64: every intermediate is below p^2.  A tall
input, with more than twice as many rows as columns, has rank at most
``cols``, so most of its rows are linear combinations of a few.  It is
eliminated against a running basis: the rref of the basis and the next
``cols`` rows comes from the row loop, every remaining row is reduced
against that rref by one exact product, and the rows that reduce to zero
are dropped.  Elementary row operations keep the row space, and a row space
has exactly one reduced row-echelon form, so the result equals the row
loop's on the whole input.

``rank_mod_p`` also takes a (B, rows, cols) stack and returns its B ranks.
The loop is chosen by the input's shape, and each wins on its own inputs.
A matrix, or a stack of one, takes the row loop (and the tall path) above.
A stack of two or more takes the stacked loop: one pass over the columns
for the whole stack, with the row loop's first-nonzero pivot in each
matrix, so every matrix gets the row loop's pivots.  The stacked loop
delays the modular reduction, as FFLAS-FFPACK does over blocks: each step
reduces only the pivot column and the pivot rows, and every other entry
changes by at most (p-1)^2, so after at most ``cols`` steps every entry is
below cols * (p-1)^2 + p in absolute value.  That is below 2^63 for every
stack the package forms (cols <= 60 and p < 2^28), and a stack above the
bound is refused with OverflowError.  On 37 random 35 x 37 matrices at p =
73 the stacked loop takes about 7 ms and the row loop, one matrix at a
time, about 25 ms; replaying every single matrix that the benchmark's
psl2-496 and crosscheck workloads eliminate as a stack of one took 2.4 and
3.6 times as long as the row loop (numpy 2.4 on a shared 2-vCPU x86 VM).
"""

import numpy as np


#: Products with fewer multiply-adds than this run in int64 even below 2^53:
#: converting to float64 and back costs more than BLAS saves on them (about
#: 3 us against 7 us per 5x5 by 5x25 product, and the reverse from about 4,096
#: multiply-adds up, numpy 2.4 with OpenBLAS 0.3 on a 2-vCPU x86 VM).
BLAS_MIN_WORK = 4096


def _contract(a: np.ndarray, b: np.ndarray, modulus: int | None = None) -> np.ndarray:
    """The exact product a @ b of two integer arrays (stacks of matrices and
    vectors as for ``@``), reduced mod ``modulus`` when one is given.

    With a modulus, the entries of a and b must lie in [0, modulus), and the
    result is int64 in the same range.  Without one, every partial sum is at
    most (inner dimension) * max|entry|^2 with the bound read from the input,
    and the result is the integer-valued float64 product on the float64 path,
    int64 otherwise.  Below 2^53 one BLAS matmul in float64 is exact; above
    it, and for products smaller than BLAS_MIN_WORK, the product is formed in
    int64, and an OverflowError is raised when the partial sums can reach
    2^63."""
    if modulus is None:
        bound = max(int(np.abs(a).max(initial=0)), int(np.abs(b).max(initial=0)))
    else:
        bound = modulus - 1
    worst = a.shape[-1] * bound * bound
    if worst >= 1 << 63:
        raise OverflowError(f"an int64 product of inner dimension {a.shape[-1]} "
                            f"with entries up to {bound} can overflow")
    if worst >= 1 << 53 or a.size * (b.shape[-1] if b.ndim > 1 else 1) < BLAS_MIN_WORK:
        out = a @ b
    elif modulus is None:
        return a.astype(np.float64) @ b.astype(np.float64)
    else:
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return out if modulus is None else _mod(out, modulus)


def _mod(a: np.ndarray, modulus: int) -> np.ndarray:
    """a % modulus for an int64 array.  From about a thousand entries up numpy
    divides an array by a scalar faster than it takes the remainder (95 us
    against 200 us at 50,000 entries, same machine as BLAS_MIN_WORK)."""
    return a % modulus if a.size < 1024 else a - a // modulus * modulus


def _row_loop(a: np.ndarray, p: int, reduced: bool):
    """Gauss-Jordan elimination over F_p with first-nonzero pivots, in place
    on the reduced int64 matrix `a`; returns (matrix, rank).  Each pivot row
    is scaled to a leading 1 and its column is cleared below the pivot, or in
    every other row when `reduced` (giving the reduced row-echelon form)."""
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, c:] = a[r, c:] * inv % p
        start = 0 if reduced else r + 1
        targets = start + np.nonzero(a[start:, c])[0]
        targets = targets[targets != r]
        if targets.size:
            a[targets, c:] = (a[targets, c:] - np.outer(a[targets, c], a[r, c:])) % p
        r += 1
    return a, r


def _reduce(vs: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    """The rows vs[..., :], entries in [0, p), modulo the span of an rref
    basis: its rows carry the identity on their pivot columns, so one product
    clears those columns."""
    pivots = (basis != 0).argmax(axis=1)
    return _mod(vs - _contract(vs[..., pivots], basis, p), p)


def _eliminate(a: np.ndarray, p: int, reduced: bool):
    """Elimination over F_p on a copy of `a`; returns (matrix, rank).  A tall
    input (rows > 2 * cols >= 2) whose reduction product fits int64 is
    reduced against a running basis and returns its reduced row-echelon form
    whatever `reduced` says; every other input takes the row loop."""
    a = _mod(np.ascontiguousarray(a, dtype=np.int64), p)
    rows, cols = a.shape
    if not (cols >= 1 and rows > 2 * cols and cols * (p - 1) ** 2 < 1 << 63):
        return _row_loop(a, p, reduced)
    basis = a[:0]
    rest = a[a.any(axis=1)]
    while rest.shape[0]:
        basis, rank = _row_loop(np.vstack([basis, rest[:cols]]), p, reduced=True)
        basis, rest = basis[:rank], rest[cols:]
        if rank == cols:
            break
        rest = _reduce(rest, basis, p)
        rest = rest[rest.any(axis=1)]
    out = np.zeros_like(a)
    out[:basis.shape[0]] = basis
    return out, basis.shape[0]


def _stack_loop(a: np.ndarray, p: int) -> np.ndarray:
    """The ranks over F_p of a (B, rows, cols) int64 stack with entries in
    [0, p), eliminated in place below first-nonzero pivots, one column at a
    time for the whole stack.  Only the pivot column and the pivot rows are
    reduced mod p; a matrix with no pivot in a column gets zero factors."""
    count, rows, cols = a.shape
    if cols * (p - 1) ** 2 + p >= 1 << 63:
        raise OverflowError(f"a delayed-reduction elimination of {cols} columns "
                            f"with entries up to {p - 1} can overflow")
    rank = np.zeros(count, dtype=np.int64)
    if rows == 0:
        return rank
    at = np.arange(count)
    row_ids = np.arange(rows)
    for c in range(cols):
        col = a[:, :, c] % p
        candidates = (col != 0) & (row_ids >= rank[:, None])
        found = candidates.any(axis=1)
        if not found.any():
            continue
        top = np.minimum(rank, rows - 1)
        piv = np.where(found, candidates.argmax(axis=1), top)
        # the row at the pivot's place moves to the pivot's row, and is zero
        # in column c, as the pivot is the first nonzero entry at or below
        # it; a rank never reads the pivot row again, so it is not stored
        pivot_rows = a[at, piv] % p
        a[at, piv] = a[at, top]
        values = np.where(found, pivot_rows[:, c], 1).tolist()
        inverses = np.array([pow(v, -1, p) for v in values], dtype=np.int64)
        pivot_rows = pivot_rows[:, c + 1:] * inverses[:, None] % p
        factors = np.where((row_ids > piv[:, None]) & found[:, None], col, 0)
        a[:, :, c + 1:] -= factors[:, :, None] * pivot_rows[:, None, :]
        rank += found
        if (rank == rows).all():
            break
    return rank


def rank_mod_p(a: np.ndarray, p: int):
    """Rank of a matrix over F_p, or the int64 array of the ranks of a
    (B, rows, cols) stack of matrices."""
    if a.ndim == 2:
        return _eliminate(a, p, reduced=False)[1]
    if a.shape[0] == 1:
        return np.array([_eliminate(a[0], p, reduced=False)[1]], dtype=np.int64)
    return _stack_loop(_mod(np.ascontiguousarray(a, dtype=np.int64), p), p)


def rref_mod_p(a: np.ndarray, p: int):
    """Reduced row-echelon form over F_p; returns (rref, rank)."""
    return _eliminate(a, p, reduced=True)


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Basis rows of {v : a v = 0} over F_p, read off the reduced row-echelon
    form: one row per free column f, with a 1 at f and minus column f of the
    rref at the pivot columns.  With no rows, every column is free."""
    rref, rank = rref_mod_p(a, p)
    cols = rref.shape[1]
    # argmax refuses a matrix without columns, which has rank 0 and no pivots
    pivots = (rref[:rank] != 0).argmax(axis=1) if rank else np.zeros(0, dtype=np.intp)
    free = sorted(set(range(cols)) - set(pivots.tolist()))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rref[:rank, free].T % p
    return basis
