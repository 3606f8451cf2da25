"""The package's public surface resolves.

Every name a module lists in `__all__` must exist, since tooling that
wraps the package (such as a tracer that times each public function)
looks each one up with getattr. The hooked methods and parameters below
are looked up by name the same way, and some by position.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import analogdist
from analogdist.catalog import Catalog, apply_exclusion
from analogdist.neighbors import NeighborIndex

MODULES = sorted(info.name for info in pkgutil.iter_modules(analogdist.__path__))
# `errors` only defines exception classes and `__main__` only runs the CLI;
# neither exports a list.
WITHOUT_ALL = {"errors", "__main__"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"analogdist.{name}")
    if name in WITHOUT_ALL:
        return
    exported = module.__all__
    assert exported, f"analogdist.{name}.__all__ is empty"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_neighbor_index_methods_are_defined_on_the_class():
    assert {"__init__", "query", "query_radius"} <= set(vars(NeighborIndex))


@pytest.mark.parametrize(
    "module,function,parameters",
    [
        ("lorenz", "generate_trajectory", ("n_steps", "burn_in", "stride")),
        ("catalog", "load_catalog", ("path",)),
        ("catalog", "apply_exclusion", ("indices",)),
        ("manifest", "file_sha256", ("path",)),
        ("clustering", "gmm_fit", ("covariance",)),
        ("dimred", "criterion_scan", ("data",)),
    ],
)
def test_public_functions_keep_their_parameter_names(module, function, parameters):
    fn = getattr(importlib.import_module(f"analogdist.{module}"), function)
    assert set(parameters) <= set(inspect.signature(fn).parameters)


def test_traced_positions_and_attributes_stay():
    # A tracer reads query's policy as args[3] (after self), the candidate
    # indices of apply_exclusion as args[0], and the backend an index picked.
    query = list(inspect.signature(NeighborIndex.query).parameters)
    assert query[:5] == ["self", "target", "n_analogs", "policy", "target_time"]
    assert list(inspect.signature(apply_exclusion).parameters)[0] == "indices"
    assert NeighborIndex(Catalog(np.zeros((4, 2)))).backend == "exhaustive"
