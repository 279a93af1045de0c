"""Exit criteria for the build, mirroring the CLI verification suite
(`permsym suite`) one test per criterion, each printing its pass/fail line.

The `affine-shear` criterion's expected radical series [5, 4, 1, 0] is derived
in the comment above its last sub-check in `suite.crit_affine_shear`.
"""

import pytest

from permsym import suite


@pytest.fixture(scope="session")
def suite_results():
    results = suite.run_all(seed=0)
    return {r.key: r for r in results}


@pytest.mark.parametrize("key", [key for key, _ in suite.CRITERIA])
def test_criterion(key, suite_results):
    result = suite_results[key]
    print(result.line())
    failed = [d for d in result.details if d.startswith("FAIL")]
    assert result.passed, "\n".join(failed)


def test_affine_shear_sub_checks(suite_results):
    # the negative verdict is read off the socle criterion: top 1 and socle
    # 3, derived in the comment of `suite.crit_affine_shear`
    sums = "['1', 'a', 'a2', 'b+ab+a2b', 'b2+ab2+a2b2']"
    assert suite_results["affine-shear"].details == [
        "ok: subdegrees: got [1, 1, 1, 3, 3], want [1, 1, 1, 3, 3]",
        "ok: algebra dimension: got 5, want 5",
        f"ok: basic-set sums: got {sums}, want {sums}",
        "ok: verdict: got 'not_symmetric', want 'not_symmetric'",
        "ok: socle criterion: top 1, socle 3",
        "ok: runtime < 1s",
        "ok: derived radical power dimensions dim J^k: got [5, 4, 1, 0], want [5, 4, 1, 0]",
    ]
