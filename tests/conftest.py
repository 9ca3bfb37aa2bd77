import os

import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=deep runs the property tests (tests/test_properties.py)
# on 4,000 fresh random examples each instead of the 200 fixed ones that
# tier-1 checks; CI runs it on a schedule.
settings.register_profile("deep", max_examples=4000, derandomize=False)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

# Under -W error, a failing @given test would show up as an INTERNALERROR
# instead of its assertion: hypothesis's pytest_runtest_makereport hook
# touches mypy_extensions.TypedDict (when that package is installed), and
# the DeprecationWarning it raises escapes the hook. Command-line -W filters
# are applied after ini filterwarnings, so only a per-test mark can ignore
# this one message.
_HYPOTHESIS_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(_HYPOTHESIS_REPORT_WARNING))
