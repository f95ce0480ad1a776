from __future__ import annotations

import contextlib
import dataclasses
import os
from pathlib import Path

import pytest

import oracles
from walktimes import config


def data_dir() -> Path:
    env = os.environ.get("WALKTIMES_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data"


def dataset_path(name: str) -> Path:
    p = data_dir() / name
    if not p.exists():
        pytest.skip(f"dataset {name} not present under {data_dir()} "
                    "(run scripts/fetch_datasets.py)")
    return p


@pytest.fixture
def bounds():
    """``with bounds(field=value, ...):`` runs its block with those fields
    of ``config.TOL`` replaced; every check reads ``config.TOL`` when it
    runs."""
    @contextlib.contextmanager
    def swap(**fields):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(config, "TOL", dataclasses.replace(config.TOL, **fields))
            yield
    return swap


@pytest.fixture(scope="session")
def c3():
    return oracles.cycle_graph(3)


@pytest.fixture(scope="session")
def c4():
    return oracles.cycle_graph(4)


@pytest.fixture(scope="session")
def k4():
    return oracles.complete_graph(4)


@pytest.fixture(scope="session")
def k33():
    return oracles.complete_bipartite(3, 3)


@pytest.fixture(scope="session")
def petersen():
    return oracles.petersen_graph()


@pytest.fixture(scope="session")
def path3():
    return oracles.path_graph(3)
