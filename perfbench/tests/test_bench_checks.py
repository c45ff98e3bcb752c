"""The CLI outcome classifier and the row checks."""

import math
from types import SimpleNamespace

import checks

TRACEBACK = """Traceback (most recent call last):
  File "launcher.py", line 30, in <module>
ValueError: cannot convert float NaN to integer
"""


def test_traceback_exit_1_is_a_failure():
    outcome, reason = checks.classify(1, "", TRACEBACK)
    assert outcome == "failed"
    assert "NaN" in reason


def test_documented_validation_error_exit_1_is_a_rejection():
    stderr = "validation error: learning.lf: must lie in (0, 1)\n"
    assert checks.classify(1, "", stderr) == ("rejected", stderr.strip())


def test_documented_infeasible_exit_2_is_a_rejection():
    assert checks.classify(2, "", "infeasible model: price floor inf exceeds ceiling 900\n")[0] \
        == "rejected"


def test_undocumented_exit_is_a_failure():
    assert checks.classify(2, "", "usage: fscontract ...\n")[0] == "failed"
    assert checks.classify(1, "", "")[0] == "failed"


def test_non_finite_kpi_with_exit_0_is_a_failure():
    stdout = "variant = full\nprice = 189.664996\nupper_bound = nan\n"
    assert checks.classify(0, stdout, "") == ("failed", "non-finite upper_bound with exit 0")
    assert checks.classify(0, "variant = full\nprice = 189.664996\n", "") == ("ok", "")


def _row(feasible=True, price=1.0, share=0.5, variant="full"):
    nan = math.nan
    if not feasible:
        return SimpleNamespace(variant=variant, swept_param="lf", swept_value=0.9,
                               price=nan, cost=nan, profit=nan, fs_share=nan, feasible=False)
    return SimpleNamespace(variant=variant, swept_param="lf", swept_value=0.1, price=price,
                           cost=1.0, profit=1.0, fs_share=share, feasible=True)


def test_row_checks():
    assert checks.check_rows([_row(), _row(feasible=False)]) == []
    assert checks.check_rows([_row(variant="os", share=math.nan)]) == []
    assert checks.check_rows([_row(price=math.inf)])
    assert checks.check_rows([_row(share=1.5)])
    bad = _row(feasible=False)
    bad.price = 3.0
    assert checks.check_rows([bad])
