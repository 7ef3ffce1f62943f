"""Static checks over the icageo sources: every module-level import is used,
only `data.py`, whose opener maps every file failure onto IoError, calls
the builtin `open`, every public name has a user, and every option the CLI
reads is one its parser defines."""
import argparse
import ast
import re
from pathlib import Path

import pytest

import icageo
from icageo.cli import build_parser

MODULES = sorted(p for p in Path(icageo.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """Names a module imports at top level but never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(bound.items()) if name not in used]


def test_unused_import_check_flags_an_unused_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport numpy as np\nfrom os import path, sep\n"
                   "x = np.zeros(2)\ny = path.join('a', 'b')\n")
    assert unused_imports(mod) == ["mod.py:1: math", "mod.py:3: sep"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path) == []


def open_calls(path: Path) -> list[str]:
    """Calls of the builtin `open` in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"]


def test_open_call_check_flags_a_call(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import io\nio.open('a')\n\n\ndef f(p):\n"
                   "    with open(p) as fh:\n        return fh.read()\n")
    assert open_calls(mod) == ["mod.py:6"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "data.py"],
                         ids=lambda p: p.name)
def test_only_data_module_opens_files(path):
    assert open_calls(path) == []


# the public API is what the tests, the CLI and the README use
API_USERS = (sorted(Path(__file__).parent.glob("*.py"))
             + [Path(icageo.__file__).parent / "cli.py",
                Path(__file__).parent.parent / "README.md"])


def unused_exports(names, texts) -> list[str]:
    """The names that appear as a whole word in none of the texts."""
    words = set()
    for text in texts:
        words.update(re.findall(r"\w+", text))
    return [name for name in names if name not in words]


def test_unused_export_check_flags_an_unused_name():
    texts = ["from pkg import used_fn\nused_fn()\n",
             "see `Listed` and unused_fn_2"]
    assert unused_exports(["used_fn", "Listed", "unused_fn", "Unlisted"],
                          texts) == ["unused_fn", "Unlisted"]


def test_every_public_name_has_a_user():
    texts = [p.read_text(encoding="utf-8") for p in API_USERS]
    assert unused_exports(icageo.__all__, texts) == []


def parser_dests() -> set[str]:
    """The dests of the options of `icageo` and of every subcommand."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for p in [parser, *sub.choices.values()] for a in p._actions}


def unknown_option_keys(path: Path, dests) -> list[str]:
    """Option names the module reads from the parsed arguments, as
    `args.<name>` or `getattr(args, "<name>")`, that are not in dests: a
    misspelt name fails only on the path that reads it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name)
              and node.args[0].id == "args"
              and isinstance(node.args[1], ast.Constant)):
            reads.append((node.lineno, node.args[1].value))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(reads)
            if name not in dests]


def test_option_key_check_flags_a_misspelt_key(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(args, d, key):\n    a = args.seed\n"
                   "    b = args.max_iters\n"
                   "    c = getattr(args, 'tols', None), getattr(args, key)\n"
                   "    return d.typo, getattr(d, 'typo'), args.max_iter\n")
    assert unknown_option_keys(mod, {"seed", "max_iter"}) == [
        "mod.py:3: max_iters", "mod.py:4: tols"]


def test_cli_reads_only_options_its_parser_defines():
    cli = Path(icageo.__file__).parent / "cli.py"
    assert unknown_option_keys(cli, parser_dests()) == []
    # and the check sees the reads: with no dests, every one is unknown
    assert len(unknown_option_keys(cli, set())) >= 10
