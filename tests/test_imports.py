"""Checks for what a deletion can leave behind, and for what must not grow back.

* Every imported name is used. Covers the package modules (the package
  ``__init__`` re-exports by import, so it is left out) and the scripts.
  A name counts as used when it is read anywhere in the module's code,
  annotations included, or listed in ``__all__``; a mention in a
  docstring or comment does not.
* Every module-level private function, class or constant of the package
  is read somewhere in the package outside its own definition.
* The package ``__init__`` re-exports exactly the ``__all__`` of each
  module it imports from, every module with an ``__all__`` but
  ``linalg``, and every ``__all__`` name is defined in its module.
* Every name the package ``__init__`` re-exports is read outside its own
  definition: in a package module other than ``__init__``, in a script,
  or in a benchmark module other than its tests. A name that only the
  tests read is not part of the public surface.
* Every ``__all__`` name of ``linalg``, which nothing re-exports, is read
  by another package module other than ``__init__``: a shared helper that
  only its own module or the tests read is not shared.
* Exactly one package class, ``network.BeamformerSet``, defines both
  ``receive`` and ``transmit``: every solver returns that one design
  record, so a parallel result type cannot grow back unnoticed.
* No package module but ``linalg`` names ``eigh``, ``slogdet`` or
  ``det`` on ``numpy.linalg``: ``eigh`` and ``slogdet`` reach LAPACK
  through ``linalg._eigh`` and ``_slogdet``, and nothing takes a
  determinant, the subset search included. ``svd`` and the rest stay on
  the public functions.
* No package module but ``network`` raises ``ValueError`` from an ``if``
  that compares with an int literal: a count's floor is checked by
  ``network._integral``, with the one message every count shares.
* No package module but ``network`` reads a channel view's per-user
  lists, ``.blocks`` or ``._rows``: solvers and scorers read the draw
  through the view's arrays.
* No package module but ``evaluation``, whose scorers still take list
  grids, reads ``network._view``: a solver takes a view, never a list.
* No solver module (``oneshot``, ``distributed``, ``zeroforcing``) reads
  ``linalg._stack``: each per-user quantity is made as a zero-padded
  stack, so no solver holds a per-user list to restack.
* ``import pcia`` loads no process pool: ``concurrent.futures``, with the
  logging and threading it imports, waits for a sweep on two or more
  workers.
* Each solver refuses any input but its one form with a ``TypeError``
  naming the argument, before any work.
"""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcia import (
    NetworkConfig,
    bd_zero_forcing,
    build_permutation,
    design_receive_beamformers,
    equivalent_channel,
    generate_channel,
    iterate_distributed_ia,
    one_shot_ia,
    reciprocal_state,
    select_transmit_beamformer,
)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcia"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "scripts").glob("*.py"))
# Callers outside the package that a re-exported name may serve.
READERS = sorted((ROOT / "scripts").glob("*.py"))
READERS += sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))

# Internal helpers: imported by name where needed, never re-exported.
NOT_REEXPORTED = {"linalg"}
# Reached through ``linalg._eigh`` and ``_slogdet`` only; ``det`` not at all.
WRAPPED_LAPACK = {"eigh", "slogdet", "det"}


def _all_names(tree: ast.Module):
    """The string entries of the module's ``__all__`` list, or None without one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return None


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_all_names(tree) or ())
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _reads(tree: ast.AST) -> collections.Counter:
    """How often each name is read under ``tree``: loaded, as an attribute or imported."""
    reads = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def _definitions(tree: ast.Module):
    """``(node, name)`` of every module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield node, target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node, node.target.id


def _unreferenced_privates(trees: dict) -> list:
    """``(module, line, name)`` of each private definition nothing else reads.

    ``trees`` maps module names to parsed modules. A read inside the
    definition itself, a recursive call say, does not count.
    """
    reads = collections.Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
    return sorted((module, node.lineno, name)
                  for module, tree in trees.items()
                  for node, name in _definitions(tree)
                  if name.startswith("_") and not name.startswith("__")
                  and reads[name] == _reads(node)[name])


def _reexport_gaps(init: ast.Module, modules: dict) -> list:
    """Where ``init`` does not re-export exactly each module's ``__all__``.

    ``modules`` maps module names to parsed modules. Every module with an
    ``__all__``, but those in ``NOT_REEXPORTED``, must be imported from,
    with exactly its ``__all__`` names, and each ``__all__`` name must be
    defined in its module.
    """
    imported = collections.defaultdict(set)
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported[node.module].update(alias.name for alias in node.names)
    gaps = []
    for module, tree in sorted(modules.items()):
        names = _all_names(tree)
        if names is None:
            if module in imported:
                gaps.append(f"{module}: imported by __init__ but has no __all__")
            continue
        defined = {name for _, name in _definitions(tree)}
        for name in sorted(set(names) - defined):
            gaps.append(f"{module}: __all__ names undefined {name}")
        if module in NOT_REEXPORTED:
            if module in imported:
                gaps.append(f"{module}: imported by __init__")
            continue
        for name in sorted(set(names) - imported[module]):
            gaps.append(f"{module}: __init__ does not re-export {name}")
        for name in sorted(imported[module] - set(names)):
            gaps.append(f"{module}: __init__ re-exports {name}, not in __all__")
    return gaps


def _unread_exports(init: ast.Module, modules: dict, readers: list) -> list:
    """``module: name`` of each name ``init`` re-exports that nothing reads.

    ``modules`` maps the package's other modules to their parsed trees and
    ``readers`` lists parsed files outside the package. A read inside the
    name's own definition, or the re-export itself, does not count.
    """
    reads = collections.Counter()
    for tree in (*modules.values(), *readers):
        reads.update(_reads(tree))
    unread = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            own = {name: _reads(d)[name] for d, name in _definitions(modules[node.module])}
            unread += [f"{node.module}: {a.name}" for a in node.names
                       if reads[a.name] == own.get(a.name, 0)]
    return sorted(unread)


def _unshared_helpers(module: str, modules: dict) -> list:
    """Each ``__all__`` name of ``module`` that no other module of ``modules`` reads.

    ``modules`` maps the package's modules, ``__init__`` left out, to
    their parsed trees.
    """
    reads = collections.Counter()
    for name, tree in modules.items():
        if name != module:
            reads.update(_reads(tree))
    return sorted(name for name in _all_names(modules[module]) or () if not reads[name])


def _direct_lapack_calls(tree: ast.Module) -> list:
    """``(line, name)`` of each ``WRAPPED_LAPACK`` name read from ``numpy.linalg``.

    Catches ``np.linalg.eigh`` and ``numpy.linalg.eigh`` as attributes, and
    ``from numpy.linalg import eigh``.
    """
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in WRAPPED_LAPACK
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.extend((node.lineno, a.name) for a in node.names if a.name in WRAPPED_LAPACK)
    return sorted(found)


# The one design record every solver returns, as ``(module, class)``.
DESIGN_RECORD = ("network", "BeamformerSet")


def _filter_classes(trees: dict) -> list:
    """``(module, class)`` of each class whose body defines both ``receive`` and ``transmit``.

    A field, an assignment, a method or a property counts; ``trees`` maps
    module names to parsed modules.
    """
    found = []
    for module, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names = {name for _, name in _definitions(node)}
                if {"receive", "transmit"} <= names:
                    found.append((module, node.name))
    return found


def _package_trees() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def test_the_check_sees_an_unused_name():
    tree = ast.parse("import os\nfrom typing import Sequence, Optional\n"
                     "from __future__ import annotations\nx: Optional[int] = None\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "Sequence")]


def test_no_module_imports_a_name_it_never_uses():
    assert SOURCES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES
             for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_check_sees_an_unreferenced_private():
    trees = {
        "a": ast.parse("_SHARED = 1\n_UNUSED = 2\n_LOCAL = 3\n"
                       "def _recursive(n):\n    return _recursive(n - 1)\n"
                       "def public():\n    return _LOCAL\n"),
        "b": ast.parse("from .a import _SHARED\nclass _Orphan:\n    pass\n"),
    }
    assert _unreferenced_privates(trees) == [
        ("a", 2, "_UNUSED"), ("a", 4, "_recursive"), ("b", 2, "_Orphan")]


def test_every_private_definition_is_read_elsewhere_in_the_package():
    found = [f"src/pcia/{module}.py:{line}: {name}"
             for module, line, name in _unreferenced_privates(_package_trees())]
    assert not found, "unreferenced private definitions:\n" + "\n".join(found)


def test_the_check_sees_a_stray_reexport():
    modules = {
        "a": ast.parse('__all__ = ["f", "g"]\ndef f():\n    pass\n'),
        "b": ast.parse('__all__ = ["h"]\nh = 1\n'),
        "c": ast.parse("x = 1\n"),
        "linalg": ast.parse('__all__ = ["k"]\nk = 1\n'),
    }
    init = ast.parse("from .a import f, extra\nfrom .c import x\nfrom .linalg import k\n")
    assert _reexport_gaps(init, modules) == [
        "a: __all__ names undefined g",
        "a: __init__ does not re-export g",
        "a: __init__ re-exports extra, not in __all__",
        "b: __init__ does not re-export h",
        "c: imported by __init__ but has no __all__",
        "linalg: imported by __init__",
    ]


def test_the_package_reexports_exactly_each_modules_all():
    trees = _package_trees()
    init = trees.pop("__init__")
    gaps = _reexport_gaps(init, trees)
    assert not gaps, "re-export mismatches:\n" + "\n".join(gaps)


def test_the_check_sees_an_export_only_tests_read():
    modules = {
        "a": ast.parse("def used():\n    pass\ndef recursive():\n    return recursive()\n"
                       "def tested():\n    pass\nclass Internal:\n    pass\n"
                       "def caller():\n    return Internal()\n"),
        "b": ast.parse("SCRIPTED = 1\nBENCHED = 2\n"),
    }
    init = ast.parse("from .a import used, recursive, tested, Internal, caller\n"
                     "from .b import SCRIPTED, BENCHED\n")
    readers = [ast.parse("from pcia import SCRIPTED\nimport pcia\npcia.used()\n"),
               ast.parse("import pcia.b\nprint(pcia.b.BENCHED)\n")]
    assert _unread_exports(init, modules, readers) == [
        "a: caller", "a: recursive", "a: tested"]


def test_every_reexport_is_read_outside_the_tests():
    trees = _package_trees()
    init = trees.pop("__init__")
    readers = [ast.parse(p.read_text(), str(p)) for p in READERS]
    unread = _unread_exports(init, trees, readers)
    assert not unread, "re-exported names only the tests read:\n" + "\n".join(unread)


def test_the_check_sees_a_helper_only_its_own_module_reads():
    modules = {
        "linalg": ast.parse('__all__ = ["shared", "own", "unread"]\n'
                            "def shared():\n    pass\ndef own():\n    pass\n"
                            "def unread():\n    pass\ndef caller():\n    return own()\n"),
        "solver": ast.parse("from .linalg import shared\nshared()\n"),
    }
    assert _unshared_helpers("linalg", modules) == ["own", "unread"]


def test_every_linalg_helper_is_read_by_another_module():
    trees = _package_trees()
    trees.pop("__init__")
    unshared = _unshared_helpers("linalg", trees)
    assert not unshared, "linalg names no other module reads:\n" + "\n".join(unshared)


def test_the_check_sees_a_second_filter_record():
    trees = {
        "a": ast.parse("class Design:\n    receive: list\n    transmit: list\n"
                       "class Half:\n    receive = None\n"),
        "b": ast.parse("class Trace:\n    @property\n    def receive(self):\n        pass\n"
                       "    def transmit(self):\n        pass\n"),
    }
    assert _filter_classes(trees) == [("a", "Design"), ("b", "Trace")]


def test_only_the_design_record_holds_receive_and_transmit_filters():
    found = _filter_classes(_package_trees())
    assert found == [DESIGN_RECORD], (
        "every solver returns network.BeamformerSet; found filter records:\n"
        + "\n".join(f"src/pcia/{module}.py: {name}" for module, name in found))


def test_the_check_sees_a_direct_lapack_call():
    tree = ast.parse("import numpy as np\nimport numpy\nfrom numpy.linalg import det, LinAlgError\n"
                     "np.linalg.eigh(a)\nnumpy.linalg.slogdet(a)[1]\nnp.linalg.svd(a)\n"
                     "f = np.linalg.det\nnp.linalg.qr(a)\n")
    assert _direct_lapack_calls(tree) == [(3, "det"), (4, "eigh"), (5, "slogdet"), (7, "det")]


def test_only_linalg_reaches_eigh_slogdet_and_det():
    found = [f"src/pcia/{module}.py:{line}: numpy.linalg.{name}"
             for module, tree in _package_trees().items() if module != "linalg"
             for line, name in _direct_lapack_calls(tree)]
    assert not found, ("use linalg._eigh or _slogdet instead; the package takes no det:\n"
                       + "\n".join(found))


# Where count floors are checked: ``_integral`` and the ring's own checks.
COUNT_RULE = "network"


def _raises_value_error(node: ast.stmt) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def _count_floors(tree: ast.Module) -> list:
    """``(line, comparison)`` of each int-literal comparison testing a ValueError.

    The comparison is in the test of an ``if`` whose body raises
    ``ValueError`` directly; a literal of a bool or a float does not count.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and any(map(_raises_value_error, node.body)):
            found += [(c.lineno, ast.unparse(c)) for c in ast.walk(node.test)
                      if isinstance(c, ast.Compare)
                      and any(isinstance(x, ast.Constant) and type(x.value) is int
                              for x in (c.left, *c.comparators))]
    return sorted(found)


def test_the_check_sees_a_count_floor():
    tree = ast.parse("if n < 1:\n    raise ValueError('n')\n"
                     "if 0 > k or d < 0:\n    raise ValueError\n"
                     "if x < 1.0 or flag == True:\n    raise ValueError('x')\n"
                     "if n < 1:\n    raise TypeError('n')\n"
                     "if n < 1:\n    n = 1\n"
                     "if ok:\n    pass\nelif n < 2:\n    raise ValueError('n')\n")
    assert _count_floors(tree) == [(1, "n < 1"), (3, "0 > k"), (3, "d < 0"), (13, "n < 2")]


def test_count_floors_are_checked_by_the_one_helper():
    found = [f"src/pcia/{module}.py:{line}: {comparison}"
             for module, tree in _package_trees().items() if module != COUNT_RULE
             for line, comparison in _count_floors(tree)]
    assert not found, ("check a count with network._integral(value, name, least):\n"
                       + "\n".join(found))


# The module that holds the channel views, the only reader of their per-user lists.
VIEW_MODULE = "network"
PER_USER_LISTS = {"blocks", "_rows"}


def _per_user_reads(tree: ast.Module) -> list:
    """``(line, attribute)`` of each ``.blocks`` or ``._rows`` attribute read."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in PER_USER_LISTS)


def test_the_check_sees_a_per_user_list_read():
    tree = ast.parse("rows = channel._rows\nb = view.blocks[k][k]\n"
                     "def f(blocks, _rows):\n    return blocks, _rows, view.block_norms\n"
                     "n = len(g.blocks)\n")
    assert _per_user_reads(tree) == [(1, "_rows"), (2, "blocks"), (5, "blocks")]


def test_only_the_view_module_reads_per_user_lists():
    found = [f"src/pcia/{module}.py:{line}: .{attr}"
             for module, tree in _package_trees().items() if module != VIEW_MODULE
             for line, attr in _per_user_reads(tree)]
    assert not found, ("read the view's arrays (_matrix, _row_stack, _stacked) instead:\n"
                       + "\n".join(found))


# The module whose scorers wrap a list grid into a channel view.
LIST_GRID_READER = "evaluation"


def _view_readers(trees: dict) -> list:
    """Modules other than ``network`` that read ``_view``: import, call or name it."""
    return sorted(module for module, tree in trees.items()
                  if module != VIEW_MODULE and _reads(tree)["_view"])


def test_the_check_sees_a_view_reader():
    trees = {"network": ast.parse("def _view(blocks):\n    return blocks\n"),
             "a": ast.parse("from .network import _view\n"),
             "b": ast.parse("from . import network\ngrid = network._view(blocks)\n"),
             "c": ast.parse("view = blocks\n")}
    assert _view_readers(trees) == ["a", "b"]


def test_only_the_scorers_wrap_a_list_grid_into_a_view():
    readers = _view_readers(_package_trees())
    assert set(readers) <= {LIST_GRID_READER}, (
        "a solver takes a channel view; only the scorers read network._view:\n"
        + "\n".join(f"src/pcia/{module}.py" for module in readers))


# The solver modules, which hold their per-user data as zero-padded stacks.
SOLVER_MODULES = {"oneshot", "distributed", "zeroforcing"}


def _restackers(trees: dict) -> list:
    """Solver modules of ``trees`` that read ``_stack``: import, call or name it."""
    return sorted(module for module, tree in trees.items()
                  if module in SOLVER_MODULES and _reads(tree)["_stack"])


def test_the_check_sees_a_restack():
    trees = {"oneshot": ast.parse("from .linalg import _stack\n"),
             "distributed": ast.parse("from . import linalg\nx = linalg._stack(a, 2, 1)\n"),
             "zeroforcing": ast.parse("x = channel._stacked\n"),
             "evaluation": ast.parse("from .linalg import _stack\n")}
    assert _restackers(trees) == ["distributed", "oneshot"]


def test_no_solver_restacks_a_per_user_list():
    found = _restackers(_package_trees())
    assert not found, ("make each per-user quantity a zero-padded stack where it is made; "
                       "linalg._stack is read by:\n"
                       + "\n".join(f"src/pcia/{module}.py" for module in found))


def test_importing_the_package_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, pcia; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


_CFG = NetworkConfig.symmetric(3, 2, 2, 1)
_CHANNEL = generate_channel(_CFG, 0)
_LIST_GRID = [list(row) for row in _CHANNEL.blocks]
_EQUIV = equivalent_channel(_CHANNEL, build_permutation(_CFG))
_RECEIVE, _DIRECT, _BASES = np.zeros((3, 2, 1)), np.zeros((3, 2, 4)), np.zeros((3, 4, 2))

# (solver call, the message of its refusal): each solver and one-shot step
# given a nested list, the one-shot design the physical channel, the
# null-space step per-user receive filters, the subset pick one user's
# unstacked basis.
REFUSALS = {
    "one_shot_ia-list": (lambda: one_shot_ia(_CFG, _LIST_GRID),
                         "equiv must be EquivalentChannel, got list"),
    "one_shot_ia-channel-set": (lambda: one_shot_ia(_CFG, _CHANNEL),
                                "equiv must be EquivalentChannel, got ChannelSet"),
    "design_receive_beamformers-list": (
        lambda: design_receive_beamformers(_EQUIV.blocks, _CFG),
        "equiv must be EquivalentChannel, got list"),
    "reciprocal_state-list": (
        lambda: reciprocal_state(_EQUIV.blocks, _RECEIVE, _CFG),
        "equiv must be EquivalentChannel, got list"),
    "reciprocal_state-per-user-receive": (
        lambda: reciprocal_state(_EQUIV, list(_EQUIV._direct_svd[0][:, :, :1]), _CFG),
        "receive must be ndarray with 3 axes, got list"),
    "bd_zero_forcing-list": (lambda: bd_zero_forcing(_LIST_GRID),
                             "channel must be ChannelSet, got list"),
    "iterate_distributed_ia-list": (
        lambda: iterate_distributed_ia(_LIST_GRID, _CFG.dof, seed=0),
        "channel must be ChannelSet or EquivalentChannel, got list"),
    "select_transmit_beamformer-list": (
        lambda: select_transmit_beamformer(_RECEIVE.tolist(), _DIRECT, _BASES, 1),
        "receive must be ndarray with 3 axes, got list"),
    "select_transmit_beamformer-unstacked": (
        lambda: select_transmit_beamformer(_RECEIVE, _DIRECT, _BASES[0], 1),
        "null_bases must be ndarray with 3 axes, got ndarray with 2 axes"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_solver_refuses_any_other_input_form_by_name(case):
    call, message = REFUSALS[case]
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()
