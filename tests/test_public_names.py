"""Public names of the package: one name per object."""

import importlib
import pkgutil

import nvk


def test_no_two_public_names_bind_the_same_callable():
    # nvk re-exports names of its modules under the same name; anything
    # else bound twice is an alias, a second public name for one job.
    names = {}
    modules = [nvk] + [importlib.import_module(f"nvk.{m.name}")
                       for m in pkgutil.iter_modules(nvk.__path__)]
    for module in modules:
        public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        for name in public:
            obj = getattr(module, name)
            if callable(obj):
                names.setdefault(id(obj), set()).add(name)
    aliases = sorted(sorted(group) for group in names.values() if len(group) > 1)
    assert aliases == []
