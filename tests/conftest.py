import json

import pytest

from vdsagent import dsl
from vdsagent.env import default_network
from vdsagent.instances import generate_instances
from vdsagent.knowledge import load_seed_kb


@pytest.fixture(autouse=True)
def empty_parse_memo():
    """Every test starts with `dsl.parse` remembering no text."""
    dsl._parse.cache_clear()


@pytest.fixture(scope="session")
def grid_lengths():
    return default_network().lengths()


@pytest.fixture(scope="session")
def closure_instance():
    """First seeded road-closure benchmark instance (env, spec)."""
    return generate_instances(42, "road_closure", 1)[0]


@pytest.fixture(scope="session")
def route_instance():
    return generate_instances(42, "designated_route", 1)[0]


@pytest.fixture(scope="session")
def forbidden_instance():
    return generate_instances(42, "forbidden_edge_vehicle", 1)[0]


@pytest.fixture()
def seed_kb():
    """Fresh in-memory copy of the packaged knowledge base."""
    return load_seed_kb().snapshot()


@pytest.fixture()
def script_file(tmp_path):
    """Writes a mock script dict to disk, returns the path as str."""
    def write(script, name="script.json"):
        path = tmp_path / name
        path.write_text(json.dumps(script), encoding="utf-8")
        return str(path)
    return write
