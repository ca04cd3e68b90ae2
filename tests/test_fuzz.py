"""Fuzz gate for the failure boundary: bad input raises a KreinError.

Each example changes one value of a valid problem document, or deletes it,
and reads the result as ``kreinspace solve`` does.  Reading must return or
raise a :class:`KreinError`, and warn about nothing.
"""

import copy
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kreinspace.errors import KreinError
from kreinspace.harness import InstanceSpec, random_dissipative
from kreinspace.serialize import config_from_overrides, problem_from_dict, problem_to_dict

# a 2+1 problem with every solver override set
SOLVER = {
    "mu": [0.0, 3.0],
    "eps_schedule": [0.01, 0.0001],
    "galerkin_dims": [1, 2],
    "polish": False,
}
DOCUMENT = problem_to_dict(random_dissipative(InstanceSpec(p=2, m=1, margin=0.1)), SOLVER)
DELETE = object()
# types, the float range's edges, ints beyond it, and two declared sizes
# numpy refuses without allocating
VALUES = [
    None,
    True,
    False,
    "x",
    [],
    [[]],
    {},
    0,
    -1,
    1e308,
    -1e308,
    1e-320,
    math.nan,
    math.inf,
    -math.inf,
    10**400,
    -(10**400),
    2**62,
    DELETE,
]


def paths(node, prefix=()):
    """The key path of every value in ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


PATHS = list(paths(DOCUMENT))


def mutated(path, value):
    doc = copy.deepcopy(DOCUMENT)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(PATHS), st.sampled_from(VALUES))
@example(("structure", "m"), 10**400)
@example(("structure", "m"), 2**62)
def test_reading_a_mutated_problem_returns_or_raises_krein_error(path, value):
    doc = mutated(path, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _, overrides = problem_from_dict(doc)
            config_from_overrides(overrides)
        except KreinError:
            pass
    assert not caught, [str(w.message) for w in caught]
