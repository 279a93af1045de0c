"""Permutations, generated groups with stabilizer chains, orbit/stabilizer
and block machinery, transitivity classification, derived actions on
k-subsets and on cosets, and the point-stabilizer checks, which are read
off orbit lengths by the theorems of Sylow and Wielandt.

Conventions: points are 0-indexed internally and 1-indexed in all text I/O;
actions are on the right, and ``p * q`` means "apply p, then q", so that
``alpha . (p*q) == (alpha . p) . q``.

Validation happens once, where images enter the layer: ``Permutation(images)``
checks for a bijection, and the parsers, the catalog constructors and
``PermutationGroup`` given raw images go through it.  Products, inverses,
powers and conjugates are bijections by construction and are built unchecked.
Whole-group enumeration (``StabilizerChain.elements``) is one int32 array.
"""

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import itemgetter

import numpy as np

from .errors import InputError, VerificationError
from .exactlin import prime_field

DEGREE_CAP = 10_000  # largest degree read from a file or induced on subsets or cosets
KSUBSET_DEGREE_CAP = COSET_INDEX_CAP = DEGREE_CAP
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

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        if other.degree != self.degree:
            raise InputError("degree mismatch")
        if self.degree < 2:  # the identity; itemgetter of one index is no tuple
            return other
        return Permutation._unchecked(itemgetter(*self.images)(other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._unchecked(tuple(inv))

    def __pow__(self, e: int) -> "Permutation":
        if e < 0:
            return self.inverse() ** (-e)
        r = Permutation.identity(self.degree)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def conjugate(self, h: "Permutation") -> "Permutation":
        """h^-1 * self * h."""
        return (h.inverse() * self) * h

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def first_moved(self) -> int | None:
        return None if self.is_identity() else next(i for i, j in enumerate(self.images) if i != j)

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

    def order(self) -> int:
        return reduce(math.lcm, (len(c) for c in self.cycles()), 1)

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
            if not tok.isdigit():
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
            if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdigit():
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
    given order, and a dict mapping each item found after ``start`` to the
    (item, generator) pair it was first reached from."""
    found = [start]
    parent = {start: None}
    for x in found:  # the list grows while it is walked
        for g in gens:
            y = step(x, g)
            if y not in parent:
                parent[y] = (x, g)
                found.append(y)
    return found, parent


def _image(point: int, g: Permutation) -> int:
    return g.images[point]


def orbits(gens, domain):
    """Partition of the domain into connected components under generator moves.

    ``domain`` is an iterable of points or an int n meaning range(n).
    Components are listed by least element, each in BFS discovery order.
    """
    points = range(domain) if isinstance(domain, int) else sorted(set(domain))
    seen = set()
    out = []
    for start in points:
        if start not in seen:
            comp, _ = breadth_first(start, gens, _image)
            seen.update(comp)
            out.append(comp)
    return out


def _transversal(gens, base: int, degree: int):
    """The breadth-first orbit of ``base`` and two dicts on it: the word u_c in
    ``gens`` along the search tree carrying base to c, and its inverse."""
    orbit, parent = breadth_first(base, gens, _image)
    words = {base: Permutation.identity(degree)}
    inverses = dict(words)
    for c in orbit[1:]:
        b, g = parent[c]
        words[c] = words[b] * g
        inverses[c] = words[c].inverse()
    return orbit, words, inverses


# ---------------------------------------------------------------------------
# stabilizer chain (deterministic Schreier-Sims, natural point order)
# ---------------------------------------------------------------------------

class _Level:
    __slots__ = ("base", "gens", "gen_keys", "orbit", "transversal", "inverse", "processed", "stale")

    def __init__(self, base):
        self.base = base
        self.gens = []          # strong generators whose first moved point is `base`
        self.gen_keys = set()
        self.processed = set()  # (orbit point, generator images) pairs already sifted
        self.stale = True       # orbit, transversal and inverse are set on refresh


class StabilizerChain:
    """Deterministic Schreier-Sims with base points in natural point order.

    Strong generators are stored on the level of their first moved point, so
    level i's group is generated by the union of the generator lists at levels
    i and deeper, and it fixes every point below its base.  That property (and
    the strictly increasing bases) is what the canonical coset representative
    walk relies on.  Completion iterates Schreier-generator sifting to a
    fixpoint; orbits are recomputed whenever a union changes.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []

    @classmethod
    def build(cls, degree, generators):
        chain = cls(degree)
        for g in generators:
            chain._add_generator(g)
        chain._complete()
        return chain

    def _gens_from(self, idx: int):
        return [g for lv in self.levels[idx:] for g in lv.gens]

    def _refresh(self):
        for idx, lv in enumerate(self.levels):
            if lv.stale:
                lv.orbit, lv.transversal, lv.inverse = _transversal(
                    self._gens_from(idx), lv.base, self.degree)
                lv.stale = False

    def _add_generator(self, g: Permutation) -> bool:
        """Sift g and, when a nonzero residue remains, store it on the level of
        its first moved point; returns True when the chain grew."""
        self._refresh()
        r = self.sift(g)
        c = r.first_moved()
        if c is None:
            return False
        idx = 0
        while idx < len(self.levels) and self.levels[idx].base < c:
            idx += 1
        if idx == len(self.levels) or self.levels[idx].base > c:
            self.levels.insert(idx, _Level(c))
        lv = self.levels[idx]
        if r.images in lv.gen_keys:
            return False
        lv.gens.append(r)
        lv.gen_keys.add(r.images)
        for j in range(idx + 1):
            self.levels[j].stale = True
        return True

    def _complete(self):
        while True:
            self._refresh()
            grew = False
            for idx in range(len(self.levels) - 1, -1, -1):
                lv = self.levels[idx]
                gens = self._gens_from(idx)
                for b in list(lv.orbit):
                    u = lv.transversal[b]
                    for s in gens:
                        key = (b, s.images)
                        if key in lv.processed:
                            continue
                        lv.processed.add(key)
                        schreier = (u * s) * lv.inverse[s.images[b]]
                        if self._add_generator(schreier):
                            grew = True
                            break
                    if grew:
                        break
                if grew:
                    break
            if not grew:
                return

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.orbit)
        return n

    def base(self):
        return [lv.base for lv in self.levels]

    def sift(self, g: Permutation) -> Permutation:
        h = g
        for lv in self.levels:
            beta = h.images[lv.base]
            if beta == lv.base:
                continue
            u_inv = lv.inverse.get(beta)
            if u_inv is None:
                return h
            h = h * u_inv
        return h

    def contains(self, g: Permutation) -> bool:
        return self.sift(g).is_identity()

    def elements(self) -> np.ndarray:
        """All group elements as an (order, degree) int32 image array, one row
        per transversal-product word in a fixed order: with E the rows of the
        deeper levels' group and u_0, u_1, ... this level's transversal in
        orbit order, row i * len(orbit) + j is E[i] * u_j."""
        elems = np.arange(self.degree, dtype=np.int32)[None]
        for lv in reversed(self.levels):
            us = np.array([lv.transversal[b].images for b in lv.orbit], dtype=np.int32)
            # (h * u)[x] = u[h[x]], so us[:, elems] is indexed [j, i, x]
            elems = us[:, elems].transpose(1, 0, 2).reshape(-1, self.degree)
        return elems

    def canonical_coset_rep(self, x: Permutation) -> Permutation:
        """The lexicographically least element of the right coset H*x, where H
        is the group of this chain.  Computed greedily level by level; within a
        level the minimizing orbit point is unique because x is a bijection."""
        cur = x
        for lv in self.levels:
            imgs = cur.images
            best = min(lv.orbit, key=imgs.__getitem__)
            if best != lv.base:
                cur = lv.transversal[best] * cur
        return cur


class PermutationGroup:
    """Group generated by permutations of a common degree; the stabilizer chain
    is built lazily on first use and frozen afterwards."""

    def __init__(self, degree: int, generators=()):
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
        self._chain = None

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain.build(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise InputError("degree mismatch")
        return self.chain.contains(g)

    __contains__ = contains

    def orbit(self, point: int):
        return next(o for o in self.orbits() if point in o)

    def orbits(self):
        return orbits(self.generators, self.degree)

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def is_trivial(self) -> bool:
        return not self.generators

    def point_stabilizer(self, alpha: int) -> "PermutationGroup":
        """Stabilizer of a point, generated by the Schreier generators of the
        orbit of alpha."""
        orbit, words, inverses = _transversal(self.generators, alpha, self.degree)
        # the group constructor drops the identity and repeated generators
        return PermutationGroup(self.degree, [
            (words[b] * g) * inverses[g.images[b]] for b in orbit for g in self.generators
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
    subdegrees: tuple[int, ...] | None  # transitive case only
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


def classify_action(G: PermutationGroup, cc, faithful: bool = True) -> ActionClassification:
    """Read the classification off the orbital configuration ``cc`` of G (see
    ``coherent.two_orbits``): the rank is the orbital count, the subdegrees are
    the valencies, and by Higman's criterion a transitive group is primitive
    iff every non-reflexive orbital graph is connected, which one
    ``minimal_block`` per orbital representative decides."""
    n = G.degree
    orbit_sizes = tuple(sorted(cc.point_orbit_sizes))
    transitive = len(orbit_sizes) == 1
    half_transitive = len(set(orbit_sizes)) == 1
    subdegrees = tuple(sorted(int(v) for v in cc.valency)) if transitive else None
    three_halves = False
    if transitive:
        rest = list(subdegrees)
        rest.remove(1)  # the fixed point {alpha}
        # a regular group (every subdegree 1) is not 3/2-transitive
        three_halves = len(set(rest)) == 1 and rest[0] > 1
    primitive = transitive and all(
        len(minimal_block(G, int(a), int(b))) == n
        for (a, b), refl in zip(cc.rep, cc.reflexive) if not refl
    )
    return ActionClassification(
        transitive=transitive,
        orbit_sizes=orbit_sizes,
        subdegrees=subdegrees,
        rank=cc.m,
        half_transitive=half_transitive,
        three_halves_transitive=three_halves,
        primitive=primitive,
        faithful=faithful,
    )


# ---------------------------------------------------------------------------
# derived actions
# ---------------------------------------------------------------------------

def action_on_ksubsets(G: PermutationGroup, k: int, cap: int = KSUBSET_DEGREE_CAP) -> PermutationGroup:
    """Induced action on k-subsets of the domain, ordered lexicographically."""
    n = G.degree
    if k > n:
        raise InputError("k exceeds the degree")
    subsets = list(combinations(range(n), k))
    if len(subsets) > cap:
        raise InputError(f"induced degree {len(subsets)} exceeds cap {cap}")
    index = {s: i for i, s in enumerate(subsets)}
    gens = []
    for g in G.generators:
        gens.append(Permutation(tuple(index[tuple(sorted(g.images[x] for x in s))] for s in subsets)))
    return PermutationGroup(len(subsets), gens)


def action_on_cosets(G: PermutationGroup, H: PermutationGroup, cap: int = COSET_INDEX_CAP) -> PermutationGroup:
    """Transitive action of G on the right cosets of H by right multiplication.

    Coset 0 is H itself.  Cosets are discovered breadth-first; each coset is
    keyed by its canonical representative, computed with H's stabilizer chain
    (Hx = Hy iff x*y^-1 in H iff the canonical representatives agree).
    """
    if H.degree != G.degree:
        raise InputError("degree mismatch between group and subgroup")
    for h in H.generators:
        if not G.contains(h):
            raise InputError("H is not a subgroup of G (generator fails membership)")
    canon = H.chain.canonical_coset_rep
    start = canon(Permutation.identity(G.degree))
    reps = [start]
    index = {start.images: 0}
    images = [[] for _ in G.generators]
    qpos = 0
    while qpos < len(reps):
        r = reps[qpos]
        qpos += 1
        for gi, g in enumerate(G.generators):
            z = canon(r * g)
            j = index.get(z.images)
            if j is None:
                j = len(reps)
                if j >= cap:
                    raise InputError(f"coset index exceeds cap {cap}")
                index[z.images] = j
                reps.append(z)
            images[gi].append(j)
    n_cosets = len(reps)
    if G.order() != n_cosets * H.order():
        raise VerificationError("coset enumeration inconsistent with group orders")
    return PermutationGroup(n_cosets, [Permutation(img) for img in images])


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
    prime_field(p)  # refuses a p that is not a prime below the bound
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
