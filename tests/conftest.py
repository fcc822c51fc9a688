import contextlib
import io
import json

import pytest

from triality import cli
from triality.exact_series import eisenstein, eta_delta
from triality.invariant_ring import klmn

# q^24 must lie inside the compared window, so the suite runs one order higher
ORDER = 25


@pytest.fixture(scope="session")
def verify_report():
    """Exit code and JSON report of `triality verify all` at ORDER, run once."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--order", str(ORDER), "--format", "json"])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="session")
def order():
    return ORDER


@pytest.fixture(scope="session")
def E4():
    return eisenstein(4, ORDER)


@pytest.fixture(scope="session")
def E6():
    return eisenstein(6, ORDER)


@pytest.fixture(scope="session")
def eta():
    return eta_delta(ORDER)[0]


@pytest.fixture(scope="session")
def delta():
    return eta_delta(ORDER)[1]


@pytest.fixture(scope="session")
def KLMN():
    return klmn(ORDER).images
