import inspect

import monoconv


def test_every_exported_name_resolves():
    assert len(set(monoconv.__all__)) == len(monoconv.__all__)
    missing = [name for name in monoconv.__all__ if not hasattr(monoconv, name)]
    assert missing == []


def test_every_public_import_is_exported():
    public = {
        name
        for name, obj in vars(monoconv).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert public - set(monoconv.__all__) == set()
