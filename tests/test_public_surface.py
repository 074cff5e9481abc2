"""The exported names and the README's command list match the code."""

import argparse
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import oqrisk
from oqrisk.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_exported_names_resolve():
    for info in pkgutil.iter_modules(oqrisk.__path__):
        module = importlib.import_module(f"oqrisk.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"oqrisk.{info.name}.__all__ names {missing}"
    tree = ast.parse((Path(oqrisk.__file__)).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported and all(hasattr(oqrisk, name) for name in imported)


def test_readme_command_block_names_every_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    documented = set(re.findall(r"^oqrisk (\w+)", block, re.M))
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert documented == set(sub.choices)
