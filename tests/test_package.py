"""The package's star import binds its public names and no module."""

import types

import stochfeas


def test_star_import_binds_every_public_name_and_no_module():
    namespace = {}
    exec("from stochfeas import *", namespace)
    del namespace["__builtins__"]
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert set(namespace) == {name for name in dir(stochfeas) if not name.startswith("_")
                              and not isinstance(getattr(stochfeas, name), types.ModuleType)}
