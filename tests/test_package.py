"""The package's public surface: names load on first access, from their home modules."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tscnet

SUBMODULES = tuple(sorted(info.name for info in pkgutil.iter_modules(tscnet.__path__)
                          if not info.name.startswith("_")))


def test_submodule_listing_finds_the_stages():
    assert {"cli", "ingest", "kmeans", "autonet", "pipeline", "svgplot"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", [name for name in tscnet.__all__ if name != "__version__"])
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(tscnet, name)
    assert obj.__module__.startswith("tscnet.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_dir_lists_every_public_name_and_submodule():
    assert set(tscnet.__all__) | set(SUBMODULES) <= set(dir(tscnet))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tscnet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tscnet.__all__)


def test_submodules_resolve_in_a_fresh_interpreter():
    # no verb has run and nothing but the package is imported
    code = ("import sys, tscnet\n"
            f"for name in {SUBMODULES!r}:\n"
            "    module = getattr(tscnet, name)\n"
            "    assert module is sys.modules['tscnet.' + name], name\n"
            "print('ok')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(tscnet.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == (0, "ok\n", "")


def test_unknown_attribute_raises_attribute_error():
    # not the ModuleNotFoundError of an attempt to import tscnet.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        tscnet.no_such_name
    assert not hasattr(tscnet, "no_such_name")


def test_underscore_names_are_not_imported():
    # tscnet.__main__ would run the CLI if the lookup imported it
    with pytest.raises(AttributeError, match="__main__"):
        tscnet.__main__
    assert "tscnet.__main__" not in sys.modules
