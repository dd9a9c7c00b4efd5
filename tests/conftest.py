import pytest

from branchalg.finra import enumerate_integral, make_proper_ra

_cache: dict[str, list] = {}


@pytest.fixture(scope="session")
def enumerated():
    """Session-cached enumeration per signature, as a list: the classes are
    built once, so they keep their cached tables across tests."""

    def get(signature):
        if signature not in _cache:
            _cache[signature] = list(enumerate_integral(signature))
        return _cache[signature]

    return get


@pytest.fixture(scope="session")
def re2():
    return make_proper_ra(2)


@pytest.fixture(scope="session")
def suite_runs():
    """Records of suite executions, shared so the acceptance checks can
    check every composition the suites asked for against the oracle."""
    return {"reports": {}, "compose_inputs": set()}
