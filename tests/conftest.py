"""Test-session setup.

The whole suite works on desk-scale matrices where multithreaded BLAS is
pure overhead; pin the pools to one thread so timings are stable.  The pin
is set through ``KREIN_THREADS`` before numpy loads, which needs no extra
package; ``threadpoolctl`` also caps the pools when it is installed.  The
acceptance module's per-criterion verdict lines are echoed in the terminal
summary.
"""

import os
import sys

# numpy is not loaded yet: importing kreinspace now turns the cap into the
# BLAS thread variables before OpenBLAS reads them
os.environ.setdefault("KREIN_THREADS", "1")

import kreinspace  # noqa: E402, F401
import pytest  # noqa: E402

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover
    threadpool_limits = None


@pytest.fixture(scope="session", autouse=True)
def _single_threaded_blas():
    if threadpool_limits is None:
        yield
        return
    with threadpool_limits(limits=1):
        yield


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, module in list(sys.modules.items()):
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(module, "SUMMARY_LINES", [])
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
