"""Print the smallest accuracy margin each test reaches on this machine.

The accuracy tests hold a floor on ``helpers.margin(error, bound)``, which
is bound / error. The script runs the named tests under pytest with a
plugin that rebinds ``margin`` in each test module for the length of each
test and records every value it returns under the test's id. It then
prints, per test id, the smallest value, which is what the docstrings of
``identities``, ``parametrizations`` and the accuracy tests quote. A
backward-error test calls ``margin(ratio, 1)``, so its row is 1 / ratio.

The figures hold for the BLAS kernel the process runs: to get another
OpenBLAS kernel's, set ``OPENBLAS_CORETYPE`` (SkylakeX, Haswell,
Sandybridge, Prescott); the table, printed after pytest's report, names
the one set first. Tests that never call ``margin`` print no row. The
exit code is pytest's.

Run from the root of a checkout; with no arguments it runs
``tests/test_identities.py`` and ``tests/test_parametrizations.py``:

    python3 tools/margins.py [PYTEST_ARGS]
"""

from __future__ import annotations

import math
import os
import sys

import pytest

DEFAULT = ["tests/test_identities.py", "tests/test_parametrizations.py"]


class MarginRecorder:
    """pytest plugin: ``smallest`` maps a test id to the least value its
    test module's ``margin`` returned while the test ran."""

    def __init__(self):
        self.smallest: dict[str, float] = {}

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        module = getattr(item, "module", None)
        original = getattr(module, "margin", None)
        if original is None:
            yield
            return

        def recorded(error, bound):
            value = original(error, bound)
            self.smallest[item.nodeid] = min(self.smallest.get(item.nodeid, math.inf), value)
            return value

        module.margin = recorded
        try:
            yield
        finally:
            module.margin = original


def main(argv: list[str]) -> int:
    recorder = MarginRecorder()
    code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or DEFAULT)],
                       plugins=[recorder])
    print(f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', '(unset)')}")
    print("smallest_margin  test_id")
    for test_id in sorted(recorder.smallest):
        print(f"{recorder.smallest[test_id]:15.4g}  {test_id}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
