"""The package's lazy exports, the modules each CLI spawn loads, and
the formula modules' freedom from recursion."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import triltl

ROOT = Path(__file__).resolve().parents[1]

#: Every name the package exported when it imported all its modules.
EXPORTED = sorted(
    """
    ABSENT DEFAULT_CANDIDATE_CAP NEG POS StateSpaceLimitError StateVec
    enumerate_elementary format_state is_consistent is_locally_consistent
    state_members
    HoaAutomaton HoaFormatError read_hoa to_dot to_hoa
    Gnba Nba acceptance_sets build_automaton build_family degeneralize
    state_pattern successors
    Letter LetterFormatError UnknownAtomError all_letters format_letter
    make_letter parse_letter parse_letter_sequence restrict_letter
    ModelFormatError TransitionModel Verdict check_model letter_of
    nba_accepts_lasso parse_model product_nonempty
    LassoFormatError LassoWord NonTotalLetterError enumerate_lassos eval_lasso
    eval_lasso_two_valued lasso parse_lasso
    And Atom Closure FalseConst Finally Formula FormulaSyntaxError Globally
    Implies MAX_NESTING Next Not Or Release TrueConst TRUE Until atoms_of
    closure_of desugar format_formula formula_size negated parse parse_core
    Truth parse_truth
    """.split()
)

AUTOMATON_MODULES = (
    "triltl.elementary",
    "triltl.gnba",
    "triltl.emit",
    "triltl.search",
    "triltl.modelcheck",
)


def run_python(script, *args, cwd=ROOT):
    """Run `script` in a fresh interpreter that imports triltl from src/;
    return its stdout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestExports:
    def test_all_lists_the_exports(self):
        assert sorted(triltl.__all__) == EXPORTED
        assert set(EXPORTED) <= set(dir(triltl))

    def test_every_export_resolves_from_its_module(self):
        out = run_python(
            "import importlib, sys\n"
            "import triltl\n"
            "for name in sys.argv[1:]:\n"
            "    namespace = {}\n"
            "    exec(f'from triltl import {name}', namespace)\n"
            "    module = importlib.import_module('triltl.' + triltl._EXPORTS[name])\n"
            "    assert namespace[name] is getattr(module, name), name\n"
            "    assert vars(triltl)[name] is namespace[name], name\n"
            "print('ok')\n",
            *EXPORTED,
        )
        assert out == "ok\n"

    def test_bare_import_loads_no_module_and_submodules_resolve(self):
        out = run_python(
            "import sys\n"
            "import triltl\n"
            "print(sorted(m for m in sys.modules if m.startswith('triltl.')))\n"
            "print(triltl.gnba.__name__, 'triltl.gnba' in sys.modules)\n"
        )
        assert out == "[]\ntriltl.gnba True\n"

    def test_star_import(self):
        namespace = {}
        exec("from triltl import *", namespace)
        assert set(EXPORTED) <= set(namespace)
        assert namespace["parse_core"] is triltl.parse_core

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            triltl.nonesuch
        with pytest.raises(ImportError):
            exec("from triltl import nonesuch", {})

    def test_readme_library_example_runs(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S)
        assert example is not None
        out = run_python(example.group(1), cwd=tmp_path)
        assert out.startswith("HOA: v1\n")


def modules_after_cli(*argv):
    """The triltl modules (and `dataclasses`) loaded by a fresh process
    after it ran the CLI with `argv`."""
    out = run_python(
        "import sys\n"
        "from triltl.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(*sorted(sys.modules))\n",
        *argv,
    )
    loaded = set(out.splitlines()[-1].split())
    return {m for m in loaded if m.startswith("triltl") or m == "dataclasses"}


class TestModulesPerSpawn:
    """Each subcommand imports only the modules it runs."""

    def test_eval_loads_no_automaton_code_and_no_dataclasses(self):
        loaded = modules_after_cli(
            "eval", "--formula", "a U b", "--stem", "a", "--loop", "b"
        )
        assert loaded == {
            "triltl",
            "triltl.cli",
            "triltl.letters",
            "triltl.semantics",
            "triltl.syntax",
            "triltl.truth",
        }

    def test_translate_loads_no_search(self, tmp_path):
        loaded = modules_after_cli(
            "translate", "--formula", "a U b", "--alphabet", "a,b",
            "--value", "top", "--out-hoa", str(tmp_path / "out.hoa"),
        )
        assert "triltl.gnba" in loaded and "triltl.emit" in loaded
        assert not loaded & {"triltl.modelcheck", "triltl.search"}

    def test_semantics_alone_loads_no_automaton_code(self):
        out = run_python(
            "import sys\n"
            "import triltl.semantics\n"
            "print(*sorted(m for m in sys.modules if m.startswith('triltl')))\n"
        )
        loaded = set(out.split())
        assert not loaded & set(AUTOMATON_MODULES)
        assert "triltl.semantics" in loaded


def functions_on_call_cycles(path):
    """The functions of the module at `path` that can reach themselves.

    An edge runs from a function to every function it names: a bare name
    means any function of that name that is not a method, and
    `self.name` a method of the enclosing class.  A reference counts as a
    call, so passing a function on is an edge too.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = []  # (qualified name, class name or None, node)
    stack = [(tree, "", None)]
    while stack:
        node, prefix, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, prefix + child.name + ".", child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                defs.append((name, cls, child))
                stack.append((child, name + ".", None))
            else:
                stack.append((child, prefix, cls))
    free, methods = {}, {}
    for name, cls, node in defs:
        if cls is None:
            free.setdefault(node.name, set()).add(name)
        else:
            methods[cls, node.name] = name
    edges = {}
    for name, cls, node in defs:
        edges[name] = set()
        for ref in ast.walk(node):
            if isinstance(ref, ast.Name):
                edges[name] |= free.get(ref.id, set())
            elif isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name):
                if ref.value.id == "self" and (cls, ref.attr) in methods:
                    edges[name].add(methods[cls, ref.attr])
    on_cycle = []
    for start in edges:
        seen, todo = set(), list(edges[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(edges[name])
        if start in seen:
            on_cycle.append(start)
    return sorted(on_cycle)


@pytest.mark.parametrize("module", ["syntax", "semantics"])
def test_formula_modules_do_not_recurse(module):
    """Formulas built through the constructors can nest deeper than the
    recursion limit, so no function over them may call itself."""
    path = ROOT / "src" / "triltl" / f"{module}.py"
    assert functions_on_call_cycles(path) == []
