"""The package API is the union of its modules' ``__all__`` lists."""

import inspect

import busterfixer
from busterfixer import adjudicator, cli, engine, errors, graph, reconnect, scenario, transcript

MODULES = (adjudicator, cli, engine, errors, graph, reconnect, scenario, transcript)


def test_package_exports_61_distinct_names_that_resolve():
    names = busterfixer.__all__
    assert len(names) == len(set(names)) == 61
    for name in names:
        assert hasattr(busterfixer, name), name


def test_each_module_exports_only_what_it_defines():
    values = []
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)
            else:
                # a value counts as defined here when its type is
                assert type(obj).__module__ == module.__name__, (module.__name__, name)
                values.append(name)
            assert getattr(busterfixer, name) is obj
    assert sorted(values) == ["DEFAULT_CAPS", "QUIT"]
    assert busterfixer.DEFAULT_CAPS is graph.DEFAULT_CAPS and busterfixer.QUIT is engine._QuitToken.QUIT


def test_module_lists_together_equal_the_package_list():
    combined = [name for module in MODULES for name in module.__all__]
    assert len(combined) == len(set(combined))
    assert sorted(combined) == sorted(busterfixer.__all__)
