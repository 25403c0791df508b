import faulthandler
import os

import pytest

# A test still running after this many seconds gets every thread's stack
# dumped to the terminal's stderr (and keeps running): a hung Ray task
# then shows where the driver waits.
HANG_DUMP_S = 600
_stderr_fd = None


def pytest_configure(config):
    # Output captured during a test is shown only if the test fails, so
    # the dump goes to a copy of stderr taken before capture starts.
    global _stderr_fd
    _stderr_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(_stderr_fd)


@pytest.fixture(autouse=True)
def dump_stacks_if_hung():
    """Arms ``faulthandler.dump_traceback_later`` around each test and
    cancels it after; it neither fails, skips nor stops the test."""
    faulthandler.dump_traceback_later(HANG_DUMP_S, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per the driver contract)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()
