import importlib
import pkgutil

import sockdetect


def test_submodules_are_not_shadowed_by_exports():
    # `import sockdetect.simhash as m` binds the package attribute, so an
    # exported function of the same name would hide the module
    names = [info.name for info in pkgutil.iter_modules(sockdetect.__path__)]
    assert "simhash" in names and "lsh" in names
    for name in names:
        module = importlib.import_module(f"sockdetect.{name}")
        assert getattr(sockdetect, name) is module, name


def test_every_exported_name_resolves():
    for name in sockdetect.__all__:
        assert hasattr(sockdetect, name), name
