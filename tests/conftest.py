"""Shared fixtures, Hypothesis profiles, and marker enforcement."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO
from repro.obs.export import canonical_json
from repro.transport.simnet import SimFabric

GOLDEN_DIR = Path(__file__).parent / "golden"

try:
    from hypothesis import HealthCheck, settings

    # ``ci``: fully derandomized so a red build is reproducible from the
    # log alone, with an explicit generous deadline (shared CI runners
    # stall unpredictably; flaky deadline failures teach people to rerun
    # instead of read). ``dev`` keeps the library defaults, including the
    # random seed, so local runs keep exploring new inputs.
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=2000,
        print_blob=True,
        suppress_health_check=(HealthCheck.too_slow,),
    )
    settings.register_profile("dev")
    # ``fuzz``: CI's three fuzz steps (the endpoint fuzz, the queue
    # exactness property and the feasibility exactness property, each
    # selected by name) at twenty times the default budget; tier-1 keeps
    # the default.
    settings.register_profile(
        "fuzz",
        derandomize=True,
        deadline=None,
        max_examples=2000,
        print_blob=True,
        suppress_health_check=(HealthCheck.too_slow,),
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    pass

# Module name prefix -> marker that every test in it must carry. The
# check fails collection loudly instead of letting an unmarked test dodge
# ``-m`` selections in CI.
_REQUIRED_MARKERS = {
    "test_chaos": "chaos",
    "test_simtest": "simtest",
}


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/*.json scorecards (workload, chaos, "
        "failover) instead of comparing against them",
    )


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite golden scorecards, not compare."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def check_golden(update_golden):
    """``check_golden(name, card)``: the scorecard must equal
    ``tests/golden/<name>.json`` under the one canonical encoder, or is
    written there when the run was started with ``--update-golden``."""

    def check(name, card):
        path = GOLDEN_DIR / f"{name}.json"
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(card, sort_keys=True, indent=2) + "\n")
            return
        assert path.exists(), (
            f"missing golden {path}; regenerate with "
            "PYTHONPATH=src python -m pytest --update-golden"
        )
        assert canonical_json(json.loads(path.read_text())) == \
            canonical_json(card), (
                f"scorecard drifted from {path}; if intentional, rerun "
                "with --update-golden"
            )

    return check


def pytest_collection_modifyitems(config, items):
    unmarked = []
    for item in items:
        required = _REQUIRED_MARKERS.get(item.module.__name__)
        if required and not any(m.name == required for m in item.iter_markers()):
            unmarked.append(f"{item.nodeid} (missing @pytest.mark.{required})")
    if unmarked:
        raise pytest.UsageError(
            "marker enforcement: " + "; ".join(unmarked)
        )


@pytest.fixture
def star():
    """A 6-leaf star network and its fabric (lossy 802.11 profile)."""
    network = topology.star(6, radius=40)
    return network, SimFabric(network)


@pytest.fixture
def ideal_star():
    """A 6-leaf star over an ideal (lossless, instant) radio."""
    network = topology.star(6, radius=40, radio_profile=IDEAL_RADIO)
    return network, SimFabric(network)


@pytest.fixture
def chain():
    """A 5-node multi-hop chain (only adjacent nodes in range)."""
    network = topology.linear_chain(5, spacing=60)
    return network, SimFabric(network)
