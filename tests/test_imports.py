"""Static checks over the icageo sources: every module-level import is used,
every module-level constant, private function and private class is read,
only `data.py`, whose opener maps every file failure onto IoError, calls
the builtin `open`, every public name has a user, every parameter with a
default of a public function or dataclass, or of a module-level private
function, is passed by the package itself, every option the CLI reads is
one its parser defines, every option a command defines is read, and every
module parses under Python 3.10's grammar, the oldest version README and
`pyproject.toml` promise.  The benchmark's tracer (`bench/tracing.py`,
read here as text) wraps names that all exist."""
import argparse
import ast
import dataclasses
import functools
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
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


def newer_syntax(path: Path) -> str | None:
    """Where a module uses syntax that Python 3.10 does not parse, if it
    does.  Grammar only: a library call added after 3.10 goes unseen."""
    try:
        ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
    except SyntaxError as exc:
        return f"{path.name}:{exc.lineno}: {exc.msg}"
    return None


def test_newer_syntax_check_flags_an_exception_group(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert newer_syntax(mod).startswith("mod.py:4: ")


def test_every_module_parses_as_python_3_10():
    paths = sorted(Path(icageo.__file__).parent.glob("*.py"))
    assert [where for where in map(newer_syntax, paths) if where] == []


def dead_names(paths) -> list[str]:
    """Upper-case names a module binds at top level, and private functions
    and classes (`def _name`, `class _Name`) it defines there, that no
    module of paths reads, as a bare name or as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and node.name not in read):
                dead.append(f"{path.name}:{node.lineno}: {node.name}")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            dead += [f"{path.name}:{node.lineno}: {name.id}"
                     for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name) and name.id.isupper()
                     and name.id not in read]
    return dead


def test_dead_constant_check_flags_an_unread_name(tmp_path):
    (tmp_path / "a.py").write_text("USED = 1\nDEAD = 2\nLOCAL, VIA = 3, 4\n"
                                   "TYPED: int = 5\nx = LOCAL + TYPED\n")
    (tmp_path / "b.py").write_text("import a\nfrom a import USED\n"
                                   "UNREAD: int = USED + a.VIA\n")
    # private functions and classes: one called across modules, one kept
    # in a table, one read as an attribute, one only defined, and two
    # public ones, which the export check covers instead
    (tmp_path / "c.py").write_text(
        "from a import _called\n\n\ndef _called():\n    pass\n\n\n"
        "def _tabled():\n    pass\n\n\nclass _Attr:\n    pass\n\n\n"
        "def _dead():\n    return _called()\n\n\nclass _Unbuilt:\n"
        "    pass\n\n\ndef public():\n    pass\n\n\nclass Public:\n"
        "    pass\n\n\nTABLE = {'t': _tabled}\nx = TABLE, b._Attr\n")
    assert dead_names(sorted(tmp_path.glob("*.py"))) == [
        "a.py:2: DEAD", "b.py:3: UNREAD", "c.py:16: _dead",
        "c.py:20: _Unbuilt"]


def test_every_module_constant_is_read():
    # and every module-level private function and class is loaded
    modules = sorted(Path(icageo.__file__).parent.glob("*.py"))
    assert dead_names(modules) == []


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


def unpassed_defaults(signatures: dict, paths) -> list[str]:
    """`name: parameter` for each parameter with a default, of each
    signature in signatures (name -> inspect.Signature), that no call in
    paths passes by position or keyword.  A call is matched by the name
    of its callee, bare or as an attribute; a `*` argument counts as
    passing every position, a `**` argument every keyword."""
    passed = {name: set() for name in signatures}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee not in signatures:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}  # None for `**`
            for i, param in enumerate(
                    signatures[callee].parameters.values()):
                positional = param.kind in (param.POSITIONAL_ONLY,
                                            param.POSITIONAL_OR_KEYWORD)
                by_keyword = param.kind != param.POSITIONAL_ONLY and (
                    param.name in keywords or None in keywords)
                if (positional and (starred or i < len(node.args))
                        or by_keyword):
                    passed[callee].add(param.name)
    return [f"{name}: {param.name}" for name, sig in signatures.items()
            for param in sig.parameters.values()
            if param.default is not param.empty
            and param.name not in passed[name]]


def test_unpassed_default_check_flags_a_parameter_nobody_passes(tmp_path):
    def fit(x, order=1, bins=2, *, k=3):
        pass

    def spread(x, scale=1.0, shift=0.0):
        pass

    def named(x, *, a=1, b=2):
        pass

    @dataclasses.dataclass
    class Box:
        lo: float = 0.0
        hi: float = 1.0

    mod = tmp_path / "mod.py"
    mod.write_text("fit(x, 4)\nmodel.fit(x, k=5)\nBox(hi=2.0)\n"
                   "spread(x, *more)\nnamed(x, **opts)\n")
    signatures = {f.__name__: inspect.signature(f)
                  for f in (fit, spread, named, Box)}
    assert unpassed_defaults(signatures, [mod]) == ["fit: bins", "Box: lo"]


def test_every_public_default_is_passed_by_the_package():
    # a default that only the tests override is a setting no run can
    # change: it belongs in a module constant
    signatures = {name: inspect.signature(obj)
                  for name, obj in vars(icageo).items()
                  if name in icageo.__all__ and (inspect.isfunction(obj)
                                                 or dataclasses.is_dataclass(obj))}
    assert {"mutual_information", "GridSpec", "SolverConfig"} <= set(signatures)
    sources = sorted(Path(icageo.__file__).parent.glob("*.py"))
    assert unpassed_defaults(signatures, sources) == []


def test_every_private_default_is_passed_by_the_package():
    # the same rule for the module-level private functions: a flag that
    # every caller sets alike is a code path no run can leave
    functions = [(name, obj) for path in MODULES
                 for name, obj in vars(importlib.import_module(
                     f"icageo.{path.stem}")).items()
                 if name.startswith("_") and not name.startswith("__")
                 and inspect.isfunction(obj)
                 and obj.__module__ == f"icageo.{path.stem}"]
    signatures = {name: inspect.signature(obj) for name, obj in functions}
    # calls are matched by bare name, so each name must be one function
    assert len(signatures) == len(functions)
    assert {"_newton_terms", "_tanh", "_grid_measure"} <= set(signatures)
    sources = sorted(Path(icageo.__file__).parent.glob("*.py"))
    assert unpassed_defaults(signatures, sources) == []


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


def option_reads(funcs: dict, func: str, seen=None) -> set[str]:
    """The options that function `func` and the module functions it passes
    `args` to read: `args.<name>`, `getattr(args, "<name>")`, and
    `getattr(args, key)` for each name of a literal tuple `key` runs over."""
    seen = set() if seen is None else seen
    seen.add(func)
    tuples, reads = {}, set()
    for node in ast.walk(funcs[func]):
        if (isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            tuples.setdefault(node.target.id, set()).update(
                e.value for e in node.iter.elts if isinstance(e, ast.Constant))
    for node in ast.walk(funcs[func]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(isinstance(a, ast.Name) and a.id == "args"
                      for a in node.args)):
            callee = node.func.id
            if callee == "getattr":
                key = node.args[1]
                reads |= ({key.value} if isinstance(key, ast.Constant)
                          else tuples.get(getattr(key, "id", None), set()))
            elif callee in funcs and callee not in seen:
                reads |= option_reads(funcs, callee, seen)
    return reads


def unread_options(path: Path, parser: argparse.ArgumentParser,
                   unused_by_main=()) -> list[str]:
    """`command: dest` for each option of a subcommand of parser that
    neither the module's `cmd_<command>` nor its `main` reads (see
    option_reads); main's reads of unused_by_main count for no command."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    shared = option_reads(funcs, "main") - set(unused_by_main)
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return [f"{command}: {a.dest}" for command, p in sub.choices.items()
            for a in p._actions if a.dest != "help"
            and a.dest not in shared | option_reads(funcs, f"cmd_{command}")]


def test_unread_option_check_flags_an_option_nobody_reads(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def _out(args):\n    return args.out\n\n\n"
                   "def cmd_run(args):\n"
                   "    opts = {k: getattr(args, k) for k in ('a', 'b')}\n"
                   "    return _out(args), args.used, opts\n\n\n"
                   "def main(args):\n    return args.config, args.seed\n")
    parser = argparse.ArgumentParser()
    run = parser.add_subparsers(dest="command").add_parser("run")
    for flag in ("--config", "--seed", "--out", "--used", "--a", "--b",
                 "--unused"):
        run.add_argument(flag)
    assert unread_options(mod, parser) == ["run: unused"]
    assert unread_options(mod, parser, ("seed",)) == ["run: seed",
                                                      "run: unused"]


def test_every_option_a_command_defines_is_read():
    cli = Path(icageo.__file__).parent / "cli.py"
    # main reads --seed only to check its range before any command runs.
    # separate's --seed changes no output, but the benchmark workloads
    # (bench/workloads.py) pass it, so it stays until they stop
    assert unread_options(cli, build_parser(), ("seed",)) == ["separate: seed"]


# -- the benchmark's tracer ---------------------------------------------------

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def traced_targets(path: Path) -> list[tuple[str, str]]:
    """The (module, attribute path) of every TRACED entry of the tracer,
    read from its source without importing it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["TRACED"]):
            return [(entry.elts[1].value, entry.elts[2].value)
                    for entry in node.value.elts]
    raise AssertionError(f"{path.name} binds no TRACED")


def unresolved_targets(targets) -> list[str]:
    """The targets whose attribute the tracer would not find: a function
    by name on its module, a method in its class's own namespace."""
    missing = []
    for module, path in targets:
        owner_path, _, attr = path.rpartition(".")
        try:
            owner = functools.reduce(getattr, owner_path.split(".")
                                     if owner_path else [],
                                     importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
            continue
        if not (attr in vars(owner) if owner_path else hasattr(owner, attr)):
            missing.append(f"{module}.{path}")
    return missing


def test_unresolved_target_check_flags_a_missing_name():
    assert unresolved_targets([
        ("icageo.estimators", "entropy_scalar"),
        ("icageo.estimators", "ScoreTable.__call__"),
        ("icageo.estimators", "_hist_mi"),
        ("icageo.estimators", "ScoreTable.__len__"),
        ("icageo.nowhere", "f"),
    ]) == ["icageo.estimators._hist_mi", "icageo.estimators.ScoreTable.__len__",
           "icageo.nowhere.f"]


def test_every_traced_name_resolves():
    targets = traced_targets(TRACING)
    assert ("icageo.estimators", "mutual_information") in targets
    assert unresolved_targets(targets) == []


def test_mutual_information_has_what_the_tracer_counts():
    # the tracer counts out.n kNN queries when out.method == "knn_kl"
    x = np.random.default_rng(0).laplace(size=(1000, 2))
    out = icageo.mutual_information(icageo.Dataset(x))
    assert out.method == "knn_kl" and out.n == 1000
