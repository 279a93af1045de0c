"""Span tracer for the pipeline benchmark.

The tracer wraps public functions of the permsym layers from outside the
package.  Each wrapped function is replaced under every name a permsym
module holds it by (``analysis`` imports ``classify_action`` by name, for
example), and methods are replaced on their class.  A span records its
parent; on exit its duration is added to its parent's child time, so the
self time of a span is its duration minus the time of its child spans.
Recursive calls of one span add to its self time and call count but only
the outermost call adds to its inclusive time.

A wrapped name that no longer exists is skipped and listed in ``absent``,
so the benchmark keeps running when a later version merges or renames it.
"""

import functools
import sys
import time

# (span, module, attribute path); module-level functions are replaced in every
# permsym namespace that holds them, methods on their class
SPANS = (
    ("catalog.build", "permsym.catalog", "build_instance"),
    ("perm.order", "permsym.perm", "PermutationGroup.order"),
    ("perm.point_stabilizer", "permsym.perm", "PermutationGroup.point_stabilizer"),
    ("perm.elements", "permsym.perm", "PermutationGroup.elements"),
    ("perm.action_on_cosets", "permsym.perm", "action_on_cosets"),
    ("perm.classify_action", "permsym.perm", "classify_action"),
    ("perm.minimal_block", "permsym.perm", "minimal_block"),
    ("perm.group_theoretic_checks", "permsym.perm", "group_theoretic_checks"),
    ("coherent.two_orbits", "permsym.coherent", "two_orbits"),
    ("coherent.intersection_tensor", "permsym.coherent", "intersection_tensor"),
    ("coherent.verify_cc_axioms", "permsym.coherent", "verify_cc_axioms"),
    ("coherent.adjacency_product_check", "permsym.coherent", "adjacency_product_check"),
    ("endo.centralizer_algebra", "permsym.endo", "centralizer_algebra"),
    ("endo.natural_form", "permsym.endo", "natural_form"),
    ("endo.radical_chain", "permsym.endo", "radical_chain"),
    ("endo.multiply", "permsym.endo", "SCAlgebra.multiply"),
    ("endo.structure_report", "permsym.endo", "structure_report"),
    ("endo.is_symmetric", "permsym.endo", "is_symmetric"),
    ("endo.schur_vs_centralizer", "permsym.endo", "schur_vs_centralizer"),
    ("endo.centralizer_oracle", "permsym.endo", "centralizer_oracle"),
    ("endo.hecke_check", "permsym.endo", "hecke_check"),
    ("kernels.rank_mod_p", "permsym._kernels", "rank_mod_p"),
    ("kernels.rref_mod_p", "permsym._kernels", "rref_mod_p"),
    ("analysis.run_analysis", "permsym.analysis", "run_analysis"),
)

# spans whose first argument is a matrix to eliminate; each call adds
# rows * cols * min(rows, cols) to the elimination-operation count
ELIMINATIONS = {"kernels.rank_mod_p", "kernels.rref_mod_p"}


def _elimination_ops(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) != 2:
        return 0
    rows, cols = shape
    return rows * cols * min(rows, cols)


class Tracer:
    def __init__(self):
        self.calls = {}      # span -> call count
        self.inclusive = {}  # span -> seconds in outermost calls
        self.own = {}        # span -> self seconds
        self.parents = {}    # (parent span or None, span) -> call count
        self.elim_ops = 0
        self.absent = []
        self._stack = []     # open spans: [name, child seconds]
        self._open = {}      # span -> number of open calls

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "permsym" or n.startswith("permsym.")]
        for name, modname, path in SPANS:
            *scope, attr = path.split(".")
            owner = sys.modules.get(modname)
            try:
                for part in scope:
                    owner = getattr(owner, part)
                original = vars(owner)[attr] if scope else getattr(owner, attr)
            except (AttributeError, KeyError, TypeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if scope:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for name, _, _ in SPANS:
            if name not in self.absent:
                self.calls[name] = 0
                self.inclusive[name] = 0.0
                self.own[name] = 0.0

    def _wrap(self, name, fn):
        stack = self._stack
        opened = self._open
        count_ops = name in ELIMINATIONS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_ops:
                self.elim_ops += _elimination_ops(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            opened[name] = opened.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                opened[name] -= 1
                self.calls[name] += 1
                if not opened[name]:
                    self.inclusive[name] += dt
                self.own[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                key = (parent, name)
                self.parents[key] = self.parents.get(key, 0) + 1

        return wrapper

    def summary(self):
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.own),
            "parents": sorted([p or "", c, n] for (p, c), n in self.parents.items()),
            "elim_ops": self.elim_ops,
            "absent": list(self.absent),
        }
