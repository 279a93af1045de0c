"""Permutations, generated groups with stabilizer chains, orbit/stabilizer
and block machinery, transitivity classification, derived actions on
k-subsets and on cosets, and the point-stabilizer checks, which are read
off orbit lengths by the theorems of Sylow and Wielandt.

Conventions: points are 0-indexed internally and 1-indexed in all text I/O;
actions are on the right, and ``p * q`` means "apply p, then q", so that
``alpha . (p*q) == (alpha . p) . q``.

Validation happens once, where images enter the layer: ``Permutation(images)``
checks for a bijection, and the parsers, the catalog constructors and
``PermutationGroup`` given raw images go through it.  Products are
bijections by construction and are built unchecked.

The stabilizer chain works on int32 image arrays: each level stores its
transversal as an (orbit length, degree) array of rows and one of their
inverses, which sifting, whole-group enumeration (``StabilizerChain.elements``,
one int32 array) and the canonical coset representatives read directly.  A
level's transversal grows in place as strong generators are stored: its rows
are kept, and each orbit point gets its row once.  The derived actions on
k-subsets and on cosets are homomorphic images of the acting group, so its
order bounds theirs; their chains stop as soon as the product of the orbit
lengths reaches that bound, which proves them complete.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

import numpy as np

from .errors import InputError, VerificationError
from .exactlin import PrimeField

# the pair-table cap on every degree, checked where each degree is first known
# and in PermutationGroup, so that no larger group exists
DEGREE_CAP = 1000
ENUMERATION_ORDER_CAP = 100_000


class Permutation:
    """Immutable bijection on {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        n = len(images)
        seen = [False] * n
        for i in images:
            if not 0 <= i < n or seen[i]:
                raise InputError(f"images {images!r} are not a bijection on 0..{n - 1}")
            seen[i] = True
        object.__setattr__(self, "images", images)

    @classmethod
    def _unchecked(cls, images: tuple) -> "Permutation":
        """A permutation on images already known to be a bijection."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._unchecked(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        if other.degree != self.degree:
            raise InputError("degree mismatch")
        if self.degree < 2:  # the identity; itemgetter of one index is no tuple
            return other
        return Permutation._unchecked(itemgetter(*self.images)(other.images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and other.images == self.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse disjoint cycles of 1-indexed points, e.g. "(1 2 3)(4 5)"; "()" is
    the identity.  Raises InputError naming the character position on bad input."""
    images = list(range(degree))
    used = set()
    pos = 0
    n = len(text)
    saw_cycle = False
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise InputError(f"expected '(' at position {pos} in {text!r}")
        end = text.find(")", pos)
        if end < 0:
            raise InputError(f"unclosed '(' at position {pos} in {text!r}")
        body = text[pos + 1 : end].replace(",", " ").split()
        cycle = []
        for tok in body:
            if not tok.isdecimal():
                raise InputError(f"bad token {tok!r} at position {pos} in {text!r}")
            v = int(tok)
            if not 1 <= v <= degree:
                raise InputError(f"point {v} out of range 1..{degree}")
            v -= 1
            if v in used:
                raise InputError(f"repeated point {v + 1}")
            used.add(v)
            cycle.append(v)
        if cycle:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            images[cycle[-1]] = cycle[0]
        saw_cycle = True
        pos = end + 1
    if not saw_cycle:
        raise InputError(f"no cycles found in {text!r}")
    return Permutation(images)


def parse_generator_text(text: str):
    """Parse the generator-file format: line 1 is "degree n"; each following
    non-empty, non-comment line is one generator in 1-indexed cycle notation."""
    lines = text.splitlines()
    degree = None
    gens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdecimal():
                raise InputError(f"line {lineno}: expected 'degree n', got {raw!r}")
            degree = int(parts[1])
            if not 1 <= degree <= DEGREE_CAP:
                raise InputError(f"line {lineno}: degree must be in 1..{DEGREE_CAP}, got {degree}")
            continue
        try:
            gens.append(parse_permutation(line, degree))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if degree is None:
        raise InputError("missing 'degree n' header line")
    return degree, gens


def breadth_first(start, gens, step):
    """Everything reachable from ``start`` by moves ``step(x, g)`` with g in
    ``gens``: the list in breadth-first order, trying the generators in their
    given order, and the set of the items found."""
    found = [start]
    seen = {start}
    for x in found:  # the list grows while it is walked
        for g in gens:
            y = step(x, g)
            if y not in seen:
                seen.add(y)
                found.append(y)
    return found, seen


def _image(point: int, g: Permutation) -> int:
    return g.images[point]


def orbits(gens, n: int):
    """Partition of range(n) into connected components under generator moves.
    Components are listed by least element, each in BFS discovery order.
    """
    seen = set()
    out = []
    for start in range(n):
        if start not in seen:
            comp, _ = breadth_first(start, gens, _image)
            seen.update(comp)
            out.append(comp)
    return out


def _seed(base: int, n: int):
    """The transversal of the trivial group at ``base`` on n points, in the
    form ``_transversal_rows`` grows: the orbit [base], its position map and
    the identity row as the one row and its inverse."""
    position = np.full(n, -1, dtype=np.intp)
    position[base] = 0
    rows = np.arange(n, dtype=np.int32)[None]
    return [base], position, rows, rows


def _transversal_rows(images, stack, fresh, orbit, position, rows, inverse_rows):
    """Grow a transversal to the group generated by the image tuples
    ``images``, given again as the (k, n) int32 array ``stack``.  The
    transversal of the base orbit[0] comes as the orbit list, its point ->
    position map as an intp array with -1 off the orbit, and two
    (len(orbit), n) int32 arrays: row k carries the base to orbit[k], and the
    second array holds the inverses.  It must be closed under every generator
    but those at the indices ``fresh``; ``_seed`` with every index fresh
    starts one.

    The search scans the old points with the fresh generators and every point
    it adds with all of them, point-major and generator-minor.  Returns the
    grown orbit, map and arrays; the old entries are kept as their prefix, and
    the arrays are new only when the orbit grew.  A new point's row is its
    parent's row followed by one generator, gathered for a whole search layer
    at once; the new inverses are one scatter."""
    n = stack.shape[1]
    old = len(orbit)
    index = position.tolist()
    orbit = list(orbit)
    parent, via = [], []  # for orbit[old:]: the parent's position and the generator
    layers = [old]
    every = list(enumerate(images))
    start, gens = 0, [every[j] for j in fresh]
    while start < len(orbit):
        stop = len(orbit)
        for k in range(start, stop):
            x = orbit[k]
            for j, img in gens:
                y = img[x]
                if index[y] < 0:
                    index[y] = len(orbit)
                    orbit.append(y)
                    parent.append(k)
                    via.append(j)
        start, gens = stop, every
        layers.append(len(orbit))
    size = len(orbit)
    if size == old:
        return orbit, position, rows, inverse_rows
    grown = np.empty((size, n), dtype=np.int32)
    grown[:old] = rows
    # flat indices gather from stack and scatter into the inverse rows faster
    # than two-dimensional fancy indexing does
    flat = stack.ravel()
    parent = np.array(parent, dtype=np.intp)
    offset = np.array(via, dtype=np.intp)[:, None] * n
    for a, b in zip(layers, layers[1:-1]):
        # (u_parent * g)[x] = g[u_parent[x]]
        grown[a:b] = flat[grown[parent[a - old:b - old]] + offset[a - old:b - old]]
    inverse = np.empty_like(grown)
    inverse[:old] = inverse_rows
    inverse.reshape(-1)[grown[old:] + np.arange(old * n, size * n, n)[:, None]] = np.arange(n)
    return orbit, np.array(index, dtype=np.intp), grown, inverse


# ---------------------------------------------------------------------------
# stabilizer chain (deterministic Schreier-Sims, natural point order)
# ---------------------------------------------------------------------------

class _Level:
    __slots__ = ("base", "gens", "arrays", "serials", "orbit", "position", "rows",
                 "inverse_rows", "processed", "seen", "stale")

    def __init__(self, base, degree):
        self.base = base
        self.gens = []          # strong generators whose first moved point is `base`
        self.arrays = []        # the same as int32 image arrays
        self.serials = []       # and their numbers in the chain's storing order
        self.processed = set()  # (orbit point, generator serial) pairs already sifted
        self.seen = 0           # strong generators stored when the transversal last grew
        self.stale = False      # a strong generator was stored here or deeper since then
        self.orbit, self.position, self.rows, self.inverse_rows = _seed(base, degree)


class StabilizerChain:
    """Deterministic Schreier-Sims with base points in natural point order.

    Strong generators are stored on the level of their first moved point, so
    level i's group A_i is generated by the union of the generator lists at
    levels i and deeper, and it fixes every point below its base.  That
    property (and the strictly increasing bases) is what the canonical coset
    representative walk relies on.  Each level keeps its transversal as
    arrays: the orbit, a point -> position map, ``rows`` (row k carries the
    base to orbit[k]) and ``inverse_rows``.  A level goes stale when a
    strong generator is stored at it or deeper, and its transversal grows in
    place (``_transversal_rows``) when a sift next reads it or when a round of
    completion starts, whichever comes first: the old points keep their
    positions and rows and are scanned with the generators stored since, and
    only the points this adds get rows.  Completion sifts the Schreier
    generators u_b * s * u_{b.s}^-1, deepest level first, in orbit order and
    then generator order, until none adds a strong generator.

    Growing in place keeps the completion sound.  A stored row is an element
    of A_i carrying the base to its point, and A_i only grows, so the row
    stays valid and is never replaced.  So each (b, serial) pair in
    ``processed`` is a Schreier generator of the final transversal, and at
    completion every one of them has sifted into A_{i+1}: by Schreier's
    lemma, A_{i+1} is the stabilizer of the base in A_i at every level.

    With an ``order_bound`` B >= |A|, where A is the group generated, the
    completion also stops as soon as the product P of the orbit lengths
    equals B, and raises VerificationError if P exceeds B.  Proof that the
    stopped chain is complete: let D_i be the orbit of level i.  A_{i+1}
    fixes the base of level i, so |A_i| = |D_i| |(A_i)_{base}| >= |D_i|
    |A_{i+1}|, and |A| = |A_0| >= P.  So P = B forces |A| = P, and then
    (A_i)_{base} = A_{i+1} at every level: the chain is complete.  Up to that
    point a full run makes the same calls, since every round grows the stale
    levels with or without a bound.  After it, the full run sifts every
    Schreier generator to the identity, so it stores nothing more and no
    transversal grows: the stopped chain is the one a full run builds, with
    the same bases, strong generators, orbit order and elements.  A bound
    that |A| does not reach only costs the full run.

    ``sifted`` counts the Schreier generators sifted, and
    ``stopped_at_bound`` says whether the bound ended the build.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self.sifted = 0
        self.stopped_at_bound = False
        self._stored = 0  # strong generators stored so far
        self._identity = np.arange(degree, dtype=np.int32)
        self._identity_bytes = self._identity.tobytes()

    @classmethod
    def build(cls, degree, generators, order_bound: int | None = None):
        chain = cls(degree)
        for g in generators:
            chain._add(np.array(g.images, dtype=np.int32))
        chain._complete(order_bound)
        return chain

    def _extend(self, idx: int):
        """Grow level idx's transversal by the strong generators stored at it
        or deeper since it last grew."""
        lv = self.levels[idx]
        deeper = self.levels[idx:]
        serials = [serial for d in deeper for serial in d.serials]
        lv.orbit, lv.position, lv.rows, lv.inverse_rows = _transversal_rows(
            [g.images for d in deeper for g in d.gens],
            np.array([a for d in deeper for a in d.arrays]),
            [j for j, serial in enumerate(serials) if serial >= lv.seen],
            lv.orbit, lv.position, lv.rows, lv.inverse_rows)
        lv.seen = self._stored
        lv.stale = False

    def _sift(self, h: np.ndarray) -> np.ndarray:
        for idx, lv in enumerate(self.levels):
            beta = h[lv.base]
            if beta != lv.base:
                if lv.stale:
                    self._extend(idx)
                k = lv.position[beta]
                if k < 0:
                    return h
                h = lv.inverse_rows[k][h]
        return h

    def _add(self, h: np.ndarray) -> bool:
        """Sift the image array h and, when a residue other than the identity
        remains, store it on the level of its first moved point and grow the
        transversals of that level and the ones above it; returns True when
        the chain grew.  The residue is never stored already: it moves a base
        point out of that level's orbit, or its first moved point is no base
        yet."""
        r = self._sift(h)
        if r.tobytes() == self._identity_bytes:
            return False
        c = int(np.flatnonzero(r != self._identity)[0])
        idx = 0
        while idx < len(self.levels) and self.levels[idx].base < c:
            idx += 1
        if idx == len(self.levels) or self.levels[idx].base > c:
            self.levels.insert(idx, _Level(c, self.degree))
        lv = self.levels[idx]
        lv.gens.append(Permutation._unchecked(tuple(r.tolist())))
        lv.arrays.append(r)
        lv.serials.append(self._stored)
        self._stored += 1
        for j in range(idx + 1):
            self.levels[j].stale = True
        return True

    def _complete(self, order_bound):
        while True:
            for idx, lv in enumerate(self.levels):
                if lv.stale:
                    self._extend(idx)
            if order_bound is not None:
                reached = self.order()
                if reached > order_bound:
                    raise VerificationError(
                        f"stabilizer chain reached order {reached} above the bound {order_bound}")
                if reached == order_bound:
                    self.stopped_at_bound = True
                    return
            if not self._grow():
                return

    def _grow(self) -> bool:
        """Sift the Schreier generators not sifted yet, in completion order,
        until one adds a strong generator; False when none does."""
        for idx in range(len(self.levels) - 1, -1, -1):
            lv = self.levels[idx]
            gens = [(serial, g.images, a) for d in self.levels[idx:]
                    for serial, g, a in zip(d.serials, d.gens, d.arrays)]
            for k, b in enumerate(lv.orbit):
                u = lv.rows[k]
                for serial, s, s_array in gens:
                    if (b, serial) in lv.processed:
                        continue
                    lv.processed.add((b, serial))
                    self.sifted += 1
                    # u_b * s * u_{b.s}^-1
                    if self._add(lv.inverse_rows[lv.position[s[b]]][s_array[u]]):
                        return True
        return False

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.orbit)
        return n

    def base(self):
        return [lv.base for lv in self.levels]

    def contains(self, g: Permutation) -> bool:
        return self._sift(np.array(g.images, dtype=np.int32)).tobytes() == self._identity_bytes

    def elements(self) -> np.ndarray:
        """All group elements as an (order, degree) int32 image array, one row
        per transversal-product word in a fixed order: with E the rows of the
        deeper levels' group and u_0, u_1, ... this level's transversal in
        orbit order, row i * len(orbit) + j is E[i] * u_j."""
        elems = self._identity[None]
        for lv in reversed(self.levels):
            # (h * u)[x] = u[h[x]], so rows[:, elems] is indexed [j, i, x]
            elems = lv.rows[:, elems].transpose(1, 0, 2).reshape(-1, self.degree)
        return elems

    def canonical_coset_reps(self, xs: np.ndarray) -> np.ndarray:
        """For each row x of the (m, degree) image array ``xs``, the
        lexicographically least element of the right coset H*x, where H is the
        group of this chain.  Computed greedily level by level, as u * x with
        u the transversal row whose image of x is least on the orbit; within a
        level the minimizing orbit point is unique because x is a bijection."""
        for lv in self.levels:
            best = xs[:, lv.orbit].argmin(axis=1)
            # (u * x)[y] = x[u[y]]
            xs = np.take_along_axis(xs, lv.rows[best], axis=1)
        return xs


class PermutationGroup:
    """Group generated by permutations of a common degree; the stabilizer chain
    is built lazily on first use and frozen afterwards.  ``order_bound``, when
    given, must be at least the group's order; the chain stops once it proves
    that order (see ``StabilizerChain``).  Only the derived actions set it."""

    def __init__(self, degree: int, generators=(), order_bound: int | None = None):
        if degree > DEGREE_CAP:
            raise InputError(f"degree {degree} exceeds the pair-table cap {DEGREE_CAP}")
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise InputError("generator degree mismatch")
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._order_bound = order_bound
        self._chain = None

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain.build(self.degree, self.generators, self._order_bound)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise InputError("degree mismatch")
        return self.chain.contains(g)

    __contains__ = contains

    def _check_point(self, point: int):
        if not 0 <= point < self.degree:
            raise InputError(f"point {point} is outside 0..{self.degree - 1}")

    def orbit(self, point: int):
        self._check_point(point)
        return next(o for o in self.orbits() if point in o)

    def orbits(self):
        return orbits(self.generators, self.degree)

    def transversal(self, alpha: int):
        """The orbit of alpha in breadth-first order; the transversal rows,
        int32, row k a product of generators carrying alpha to orbit[k] (row
        0 the identity); and the Schreier rows u_b * g * u_{b.g}^-1, b-major,
        which generate the stabilizer of alpha by Schreier's lemma."""
        self._check_point(alpha)
        images = [g.images for g in self.generators]
        stack = np.array(images, dtype=np.int32).reshape(len(images), self.degree)
        orbit, index, rows, inverse_rows = _transversal_rows(
            images, stack, range(len(images)), *_seed(alpha, self.degree))
        # words[b, j] = u_b * g_j, indexed [b, j, x]
        words = stack[np.arange(len(images))[:, None], rows[:, None, :]]
        ends = index[stack[:, orbit].T.ravel()]
        return orbit, rows, inverse_rows[ends[:, None], words.reshape(-1, self.degree)]

    def point_stabilizer(self, alpha: int) -> "PermutationGroup":
        """Stabilizer of a point, generated by the Schreier generators
        u_b * g * u_{b.g}^-1 of the orbit of alpha, b-major."""
        schreier = self.transversal(alpha)[2]
        # the group constructor drops the identity and repeated generators
        return PermutationGroup(self.degree, [
            Permutation._unchecked(tuple(row)) for row in schreier.tolist()
        ])

    def elements(self, cap: int | None = ENUMERATION_ORDER_CAP):
        """All elements as Permutations, in the order of ``chain.elements()``."""
        if cap is not None and self.order() > cap:
            raise InputError(f"group order {self.order()} exceeds enumeration cap {cap}")
        return [Permutation._unchecked(tuple(row)) for row in self.chain.elements().tolist()]

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, ngens={len(self.generators)})"


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionClassification:
    transitive: bool
    orbit_sizes: tuple[int, ...]
    subdegrees: tuple[int, ...]
    rank: int
    half_transitive: bool
    three_halves_transitive: bool
    primitive: bool
    faithful: bool


def minimal_block(G: PermutationGroup, alpha: int, beta: int):
    """Smallest block of imprimitivity containing {alpha, beta} (union-find
    closure under the generators)."""
    n = G.degree
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ra, rb = find(alpha), find(beta)
    if ra != rb:
        parent[rb] = ra
    queue = [(alpha, beta)]
    while queue:
        a, b = queue.pop()
        for g in G.generators:
            ga, gb = g.images[a], g.images[b]
            r1, r2 = find(ga), find(gb)
            if r1 != r2:
                parent[r2] = r1
                queue.append((ga, gb))
    root = find(alpha)
    return sorted(x for x in range(n) if find(x) == root)


def classify_action(cc, tensor: np.ndarray) -> ActionClassification:
    """Read the classification off the orbital configuration ``cc`` of a
    transitive group (``coherent.two_orbits`` refuses any other) and its
    proven intersection tensor C: the rank is the orbital count and the
    subdegrees are the valencies.  By Higman's criterion the group is
    primitive iff every non-diagonal orbital graph Gamma_s is connected, that
    is (G finite), iff s-steps from the point 0 reach every point; the reached
    set is G_0-invariant, a union of suborbits.  By axiom (3), C[t, r, s] > 0
    iff an s-step from some point of suborbit r lands in suborbit t, so one
    closure decides every s: reached[s, t] grows from the suborbit {0}, of
    the diagonal orbital 0, until it is stable.  Each step is one batched
    float64 matmul over s, exact because its entries are 0 or 1 and every sum
    is at most m.

    Faithfulness is a theorem (Dixon and Mortimer, *Permutation Groups*,
    1996): a group given on its own domain acts faithfully there, A_n and
    S_n act faithfully on pairs for n >= 3, and the coset actions are of
    simple groups, A_(n+2) for n >= 3 and PSL(2, q) for q >= 4, which act
    non-trivially and so have a trivial kernel."""
    subdegrees = tuple(sorted(int(v) for v in cc.valency))
    rest = list(subdegrees)
    rest.remove(1)  # the fixed point {alpha}
    # a regular group (every subdegree 1) is not 3/2-transitive
    three_halves = len(set(rest)) == 1 and rest[0] > 1
    # steps[s, r, t] = 1.0 iff C[t, r, s] > 0
    steps = (tensor > 0).transpose(2, 1, 0).astype(np.float64, order="C")
    reached, last = np.broadcast_to(np.arange(cc.m) == 0, (cc.m, cc.m)), None
    while not np.array_equal(reached, last):
        last, reached = reached, reached | (reached[:, None, :] @ steps > 0)[:, 0, :]
    return ActionClassification(
        transitive=True,
        faithful=True,
        orbit_sizes=(cc.n,),
        subdegrees=subdegrees,
        rank=cc.m,
        half_transitive=True,
        three_halves_transitive=three_halves,
        primitive=bool(reached[1:].all()),
    )


# ---------------------------------------------------------------------------
# derived actions
# ---------------------------------------------------------------------------

def action_on_ksubsets(G: PermutationGroup, k: int) -> PermutationGroup:
    """Induced action on k-subsets of the domain, ordered lexicographically.
    It is a homomorphic image of G, so |G| bounds its order."""
    n = G.degree
    if not 0 <= k <= n:
        raise InputError(f"k must be in 0..{n}, got {k}")
    if math.comb(n, k) > DEGREE_CAP:
        raise InputError(f"induced degree {math.comb(n, k)} exceeds cap {DEGREE_CAP}")
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    gens = []
    for g in G.generators:
        gens.append(Permutation(tuple(index[tuple(sorted(g.images[x] for x in s))] for s in subsets)))
    return PermutationGroup(len(subsets), gens, order_bound=G.order())


def action_on_cosets(G: PermutationGroup, H: PermutationGroup) -> PermutationGroup:
    """Transitive action of G on the right cosets of H by right multiplication.

    Coset 0 is H itself.  Cosets are discovered breadth-first; each coset is
    keyed by its canonical representative, computed with H's stabilizer chain
    (Hx = Hy iff x*y^-1 in H iff the canonical representatives agree).  The
    action is a homomorphic image of G, so |G| bounds its order.
    """
    if H.degree != G.degree:
        raise InputError("degree mismatch between group and subgroup")
    for h in H.generators:
        if not G.contains(h):
            raise InputError("H is not a subgroup of G (generator fails membership)")
    n = G.degree
    canon = H.chain.canonical_coset_reps
    stack = np.array([g.images for g in G.generators], dtype=np.int32).reshape(-1, n)
    layer = canon(np.arange(n, dtype=np.int32)[None])
    index = {layer.tobytes(): 0}
    targets = []  # the coset of r * g, for r by coset number and then g
    while len(layer):
        # (r * g)[x] = g[r[x]]; stack[:, layer] is indexed [g, r, x].  The
        # byte keys need contiguous rows, which a trivial H passes through as
        # the gather left them
        found = np.ascontiguousarray(canon(stack[:, layer].transpose(1, 0, 2).reshape(-1, n)))
        new = []
        for k, key in enumerate(found.view(f"V{4 * n}").ravel().tolist()):
            j = index.get(key)
            if j is None:
                j = len(index)
                if j >= DEGREE_CAP:
                    raise InputError(f"coset index exceeds cap {DEGREE_CAP}")
                index[key] = j
                new.append(k)
            targets.append(j)
        layer = found[new]
    n_cosets = len(index)
    images = np.array(targets, dtype=np.int32).reshape(n_cosets, len(stack)).T.tolist()
    order = G.order()
    if order != n_cosets * H.order():
        raise VerificationError("coset enumeration inconsistent with group orders")
    return PermutationGroup(n_cosets, [Permutation(img) for img in images], order_bound=order)


# ---------------------------------------------------------------------------
# normalizer / conjugate-intersection checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupChecks:
    normalizer_in_stabilizer: bool
    max_conjugate_intersection: int


def group_theoretic_checks(G: PermutationGroup, alpha: int, p: int) -> GroupChecks:
    """With H the stabilizer of alpha and P a Sylow p-subgroup of H, decide
    whether the normalizer of P in G lies inside H, and compute the maximum of
    |H meet H^x| over x outside H.  Both are read off the orbits of H on the
    G-orbit O of alpha (the only points that G moves alpha to), and |H| is
    |G| / |O| by orbit-stabilizer; nothing is enumerated:

    - H meet H^x is the two-point stabilizer G_{alpha, alpha.x}, of order
      |H| / |(alpha.x)^H|, and alpha.x runs over O minus {alpha}; so the
      maximum is |H| over the smallest H-orbit in O other than {alpha}, and 0
      when O = {alpha}.  The H-orbits come from H's generators, not from the
      orbital configuration.
    - N_G(P) is transitive on the fixed points of P in O (Wielandt, *Finite
      Permutation Groups*, 1964, Thm 3.6, for G acting on O).  So if P fixes
      some beta != alpha in O, some x in N_G(P) takes alpha to beta and lies
      outside H; if P fixes only alpha in O, N_G(P) permutes that one point
      and lies inside H.
    - P fixes a point of an H-orbit beta^H iff p does not divide
      |beta^H| = |H : H_beta|.  If p does not divide it, H_beta contains a
      Sylow p-subgroup of H, which is H-conjugate to P, so P fixes a point
      of beta^H.  If P fixes gamma in beta^H, then P <= H_gamma, so
      |beta^H| = |H : H_gamma| divides |H : P|, which is prime to p.  So P
      fixes only alpha in O, and N_G(P) lies inside H, iff every H-orbit in
      O other than {alpha} has length divisible by p."""
    PrimeField(p)  # refuses a p that is not a prime below the bound
    orbit = G.orbit(alpha)
    h_order = G.order() // len(orbit)
    if h_order % p != 0:
        raise InputError("Sylow subgroup trivial: p does not divide the stabilizer order")
    in_orbit = set(orbit)
    # each H-orbit lies inside O or outside it, since H <= G
    sizes = [len(o) for o in G.point_stabilizer(alpha).orbits()
             if o[0] in in_orbit and o != [alpha]]
    max_intersection = h_order // min(sizes) if sizes else 0
    return GroupChecks(all(s % p == 0 for s in sizes), max_intersection)
