"""Suite-wide fixtures."""
import pytest

from support import SUITE_EVENT_BUDGET, event_budget


@pytest.fixture(scope="session", autouse=True)
def bounded_suite():
    """Every in-process run of the suite raises once it has scheduled more
    events than ``support.SUITE_EVENT_BUDGET``, so a run that loops fails
    in seconds instead of hanging the suite.  Runs in subprocesses are not
    covered."""
    with event_budget(SUITE_EVENT_BUDGET):
        yield
