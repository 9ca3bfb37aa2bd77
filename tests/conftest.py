import pytest

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
