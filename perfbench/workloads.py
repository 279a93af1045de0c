"""Workload definitions and the expected invariants of every job.

A job is either an analysis, a (spec, p) pair sent to ``run_analysis``, or
a call to ``group_theoretic_checks(G, 0, p)``.  The job set of a workload is
fixed; the seed only shuffles the job order and is passed on as the
``seed`` argument of ``run_analysis``.

The expected values are facts about the groups and algebras, not about the
code: degree, group order, subdegrees, primitivity, radical power
dimensions, socle/top structure and the verdict status.  The radical series
of ``example3_2`` over F_3 is the independently verified ``[5, 4, 1, 0]``.
"""

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    kind: str  # "analysis" or "group_checks"
    spec: str
    p: int
    oracle: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[str, ...]  # built, in this order, during set-up
    jobs: tuple[Job, ...]


def _analyses(spec, primes, oracle=False):
    return tuple(Job("analysis", spec, p, oracle) for p in primes)


# The acceptance suite's catalog specs; all have degree <= 40.
CROSSCHECK_SPECS = (
    "sym:5", "alt:5", "altpairs:7", "signtwist:3", "signtwist:4",
    "signtwist:5", "frobenius:7,3", "frobenius:7,6", "frobenius:5,2",
    "example3_2", "psl2line:4", "psl2line:8", "psl2line:32", "psl2cosets:8",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "psl2-496",
            "one degree-496 group at six primes: the group layer (coset and "
            "element enumeration, classify_action) dominates",
            ("psl2cosets:32",),
            _analyses("psl2cosets:32", (2, 3, 5, 7, 11, 13)),
        ),
        Workload(
            "frobenius-modular",
            "dimension-37 and -27 algebras in their own and a coprime "
            "characteristic: the radical chain and tiny eliminations dominate",
            ("frobenius:73,2", "frobenius:53,2", "example3_2"),
            _analyses("frobenius:73,2", (73, 2))
            + _analyses("frobenius:53,2", (53, 2))
            + _analyses("example3_2", (3,)),
        ),
        Workload(
            "crosscheck",
            "about 60 small jobs with oracle and Hecke checks plus two group "
            "checks: large sparse eliminations and per-call overhead",
            CROSSCHECK_SPECS,
            tuple(j for s in CROSSCHECK_SPECS for j in _analyses(s, (2, 3, 5, 7), oracle=True))
            + (Job("group_checks", "altpairs:7", 3), Job("group_checks", "psl2cosets:8", 3)),
        ),
    )
}

# spec -> (degree, group order, sorted subdegrees, primitive)
GROUPS = {
    "psl2cosets:32": (496, 32736, (1,) + (33,) * 15, True),
    "frobenius:73,2": (73, 146, (1,) + (2,) * 36, True),
    "frobenius:53,2": (53, 106, (1,) + (2,) * 26, True),
    "example3_2": (9, 27, (1, 1, 1, 3, 3), False),
    "sym:5": (5, 120, (1, 4), True),
    "alt:5": (5, 60, (1, 4), True),
    "altpairs:7": (21, 2520, (1, 10, 10), True),
    "signtwist:3": (10, 60, (1, 3, 6), True),
    "signtwist:4": (15, 360, (1, 6, 8), True),
    "signtwist:5": (21, 2520, (1, 10, 10), True),
    "frobenius:7,3": (7, 21, (1, 3, 3), True),
    "frobenius:7,6": (7, 42, (1, 6), True),
    "frobenius:5,2": (5, 10, (1, 2, 2), True),
    "psl2line:4": (5, 60, (1, 4), True),
    "psl2line:8": (9, 504, (1, 8), True),
    "psl2line:32": (33, 32736, (1, 32), True),
    "psl2cosets:8": (28, 504, (1, 9, 9, 9), True),
}

WITH_WITNESS = "symmetric_with_witness"
SEMISIMPLE = "symmetric_semisimple"
NOT_SYMMETRIC = "not_symmetric"


def _semisimple(m, status):
    return (m, 0), (m, m, m, False, True), status


def _local(dims, status=WITH_WITNESS):
    return tuple(dims), (1, 1, 1, True, True), status


def _split(m):
    # radical of dimension 1, top of dimension m - 1
    return (m, 1, 0), (m - 1, m - 1, m - 1, False, True), WITH_WITNESS


# (spec, p) -> (radical power dimensions, (top, left socle, right socle,
# local, commutative), verdict status)
ALGEBRAS = {
    ("psl2cosets:32", 2): _local((16, 15, 11, 5, 1, 0)),
    ("psl2cosets:32", 3): _semisimple(16, SEMISIMPLE),
    ("psl2cosets:32", 5): _semisimple(16, WITH_WITNESS),
    ("psl2cosets:32", 7): _semisimple(16, WITH_WITNESS),
    ("psl2cosets:32", 11): _semisimple(16, SEMISIMPLE),
    ("psl2cosets:32", 13): _semisimple(16, WITH_WITNESS),
    ("frobenius:73,2", 73): _local(range(37, -1, -1)),
    ("frobenius:73,2", 2): _semisimple(37, SEMISIMPLE),
    ("frobenius:53,2", 53): _local(range(27, -1, -1)),
    ("frobenius:53,2", 2): _semisimple(27, SEMISIMPLE),
    ("example3_2", 2): _semisimple(5, WITH_WITNESS),
    ("example3_2", 3): ((5, 4, 1, 0), (1, 3, 3, True, True), NOT_SYMMETRIC),
    ("example3_2", 5): _semisimple(5, WITH_WITNESS),
    ("example3_2", 7): _semisimple(5, WITH_WITNESS),
    ("sym:5", 2): _semisimple(2, SEMISIMPLE),
    ("sym:5", 3): _semisimple(2, WITH_WITNESS),
    ("sym:5", 5): _local((2, 1, 0)),
    ("sym:5", 7): _semisimple(2, WITH_WITNESS),
    ("alt:5", 2): _semisimple(2, SEMISIMPLE),
    ("alt:5", 3): _semisimple(2, WITH_WITNESS),
    ("alt:5", 5): _local((2, 1, 0)),
    ("alt:5", 7): _semisimple(2, WITH_WITNESS),
    ("altpairs:7", 2): _semisimple(3, SEMISIMPLE),
    ("altpairs:7", 3): _split(3),
    ("altpairs:7", 5): _split(3),
    ("altpairs:7", 7): _split(3),
    ("signtwist:3", 2): _split(3),
    ("signtwist:3", 3): _split(3),
    ("signtwist:3", 5): _split(3),
    ("signtwist:3", 7): _semisimple(3, WITH_WITNESS),
    ("signtwist:4", 2): _split(3),
    ("signtwist:4", 3): _split(3),
    ("signtwist:4", 5): _split(3),
    ("signtwist:4", 7): _semisimple(3, WITH_WITNESS),
    ("signtwist:5", 2): _semisimple(3, SEMISIMPLE),
    ("signtwist:5", 3): _split(3),
    ("signtwist:5", 5): _split(3),
    ("signtwist:5", 7): _split(3),
    ("frobenius:7,3", 2): _semisimple(3, WITH_WITNESS),
    ("frobenius:7,3", 3): _semisimple(3, SEMISIMPLE),
    ("frobenius:7,3", 5): _semisimple(3, WITH_WITNESS),
    ("frobenius:7,3", 7): _local((3, 2, 1, 0)),
    ("frobenius:7,6", 2): _semisimple(2, SEMISIMPLE),
    ("frobenius:7,6", 3): _semisimple(2, SEMISIMPLE),
    ("frobenius:7,6", 5): _semisimple(2, WITH_WITNESS),
    ("frobenius:7,6", 7): _local((2, 1, 0)),
    ("frobenius:5,2", 2): _semisimple(3, SEMISIMPLE),
    ("frobenius:5,2", 3): _semisimple(3, WITH_WITNESS),
    ("frobenius:5,2", 5): _local((3, 2, 1, 0)),
    ("frobenius:5,2", 7): _semisimple(3, WITH_WITNESS),
    ("psl2line:4", 2): _semisimple(2, SEMISIMPLE),
    ("psl2line:4", 3): _semisimple(2, WITH_WITNESS),
    ("psl2line:4", 5): _local((2, 1, 0)),
    ("psl2line:4", 7): _semisimple(2, WITH_WITNESS),
    ("psl2line:8", 2): _semisimple(2, SEMISIMPLE),
    ("psl2line:8", 3): _local((2, 1, 0)),
    ("psl2line:8", 5): _semisimple(2, WITH_WITNESS),
    ("psl2line:8", 7): _semisimple(2, WITH_WITNESS),
    ("psl2line:32", 2): _semisimple(2, SEMISIMPLE),
    ("psl2line:32", 3): _local((2, 1, 0)),
    ("psl2line:32", 5): _semisimple(2, WITH_WITNESS),
    ("psl2line:32", 7): _semisimple(2, WITH_WITNESS),
    ("psl2cosets:8", 2): _local((4, 3, 1, 0)),
    ("psl2cosets:8", 3): _semisimple(4, SEMISIMPLE),
    ("psl2cosets:8", 5): _semisimple(4, WITH_WITNESS),
    ("psl2cosets:8", 7): _local((4, 3, 2, 1, 0)),
}

# (spec, p) -> (normalizer of the Sylow p-subgroup inside the stabilizer,
# maximum |H meet H^x| over x outside H)
GROUP_CHECKS = {
    ("altpairs:7", 3): (False, 12),
    ("psl2cosets:8", 3): (True, 2),
}
