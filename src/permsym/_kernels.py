"""numpy kernels: pair-orbit labels, and the one mod-p elimination behind
every rank, reduced row-echelon form and nullspace in the package.

Partitioning the n*n pair set into orbitals is vectorized over the whole
pair set, and the elimination over whole rows.  The elimination works in
int64: every intermediate is below p^2, which fits for every characteristic
that exactlin.PrimeField accepts.
"""

import numpy as np


def pair_orbit_labels(gen_images: np.ndarray) -> np.ndarray:
    """Minimum pair index per orbit of the diagonal action on ordered pairs.

    Iterate min-label propagation along each generator's pair permutation
    (both directions) until a fixpoint.  Stability under the generator maps
    alone makes the labels constant on orbits (and equal to the orbit
    minimum); squared copies of the maps are propagated as well so that long
    single-generator cycles converge in logarithmic rounds rather than linear
    ones.
    """
    gen_images = np.asarray(gen_images, dtype=np.int64)
    k, n = gen_images.shape
    size = n * n
    labels = np.arange(size, dtype=np.int64)
    maps = []
    for g in gen_images:
        maps.append((g[:, None] * n + g[None, :]).reshape(size))
        inv = np.empty(n, dtype=np.int64)
        inv[g] = np.arange(n, dtype=np.int64)
        maps.append((inv[:, None] * n + inv[None, :]).reshape(size))
    accel = [mp.copy() for mp in maps]
    changed = True
    while changed:
        changed = False
        for mp in maps:
            new = np.minimum(labels, labels[mp])
            if not np.array_equal(new, labels):
                labels = new
                changed = True
        for i, mp in enumerate(accel):
            new = np.minimum(labels, labels[mp])
            if not np.array_equal(new, labels):
                labels = new
                changed = True
            accel[i] = mp[mp]
    return labels


def _eliminate(a: np.ndarray, p: int, reduced: bool):
    """Gauss-Jordan elimination over F_p with first-nonzero pivots on a copy
    of `a`; returns (matrix, rank).  Each pivot row is scaled to a leading 1
    and its column is cleared below the pivot, or in every other row when
    `reduced` (giving the reduced row-echelon form)."""
    a = np.ascontiguousarray(a, dtype=np.int64) % p
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


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of a matrix over F_p."""
    return _eliminate(a, p, reduced=False)[1]


def rref_mod_p(a: np.ndarray, p: int):
    """Reduced row-echelon form over F_p; returns (rref, rank)."""
    return _eliminate(a, p, reduced=True)


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Basis rows of {v : a v = 0} over F_p, read off the reduced row-echelon
    form: one row per free column f, with a 1 at f and minus column f of the
    rref at the pivot columns.  With no rows, every column is free."""
    rref, rank = rref_mod_p(a, p)
    cols = rref.shape[1]
    pivots = [int(np.flatnonzero(row)[0]) for row in rref[:rank]]
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rref[:rank, free].T % p
    return basis
