"""Every value object of the package is a frozen, slotted dataclass.

Slots keep graphs, schedules and classifications small when a sweep holds
tens of thousands of them; these tests fail when a dataclass is added or
changed without them, and check that slotted instances still pickle, copy
and replace as plain values.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import weakref

import pytest

import alcuin
from alcuin import generators as gen
from alcuin.classify import (
    Classification,
    ConditionHolds,
    Degenerate,
    MultipleCovers,
    PairWitness,
    classify,
)
from alcuin.cover import CoverReport, min_covers
from alcuin.ferry import (
    LEFT_TO_RIGHT,
    Move,
    Schedule,
    StructureWitness,
    Violation,
    structure_search,
    verify_schedule,
)
from alcuin.graph import Graph
from alcuin.oracle import SearchResult, feasible


def package_dataclasses():
    """Every dataclass defined in a module of the package, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(alcuin.__path__, "alcuin."):
        if info.name == "alcuin.__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def samples():
    """One instance of each value type, taken from real calls where one is cheap."""
    g = gen.star(3)
    search = feasible(g, 2)
    sched = search.schedule
    claw = classify(g)
    return [
        g,
        sched.moves[0],
        sched,
        verify_schedule(g, Schedule(1, (Move(LEFT_TO_RIGHT, 0b11),))),
        structure_search(gen.path(3), 1),
        min_covers(g),
        classify(gen.cycle(4)).reason,
        classify(gen.star(2)).reason,
        claw.reason,
        classify(Graph(0, ())).reason,
        claw,
        search,
    ]


VALUE_TYPES = {
    Graph,
    Move,
    Schedule,
    Violation,
    StructureWitness,
    CoverReport,
    MultipleCovers,
    PairWitness,
    ConditionHolds,
    Degenerate,
    Classification,
    SearchResult,
}


def test_every_dataclass_is_a_listed_value_type():
    assert set(package_dataclasses().values()) == VALUE_TYPES
    assert {type(x) for x in samples()} == VALUE_TYPES


@pytest.mark.parametrize("name", sorted(package_dataclasses()))
def test_frozen_and_slotted(name):
    cls = package_dataclasses()[name]
    assert cls.__dataclass_params__.frozen
    assert "__slots__" in cls.__dict__
    assert set(cls.__slots__) == {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("value", samples(), ids=lambda x: type(x).__name__)
def test_instances_are_plain_values(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(value)
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, None)
    # no slot to hold it; CPython 3.11's frozen __setattr__ for a slotted
    # class raises TypeError here rather than FrozenInstanceError
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value
        assert hash(back) == hash(value)
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value
    assert dataclasses.replace(value) == value


def test_class_constant_survives_slots():
    # CoverReport.complete is a ClassVar, so it is no slot and no field
    report = min_covers(gen.star(3))
    assert report.complete is True and CoverReport.complete is True
    assert [f.name for f in dataclasses.fields(report)] == ["beta", "covers"]
