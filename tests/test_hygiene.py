"""Source hygiene checks that need no linter: every import, every
top-level function or class, every tape op and every optional parameter
of the package is used."""

import ast
from pathlib import Path

import pacedseg
from pacedseg.autodiff import Tape

SRC = Path(pacedseg.__file__).parent
BENCH = SRC.parents[1] / "bench"

# names kept with no caller in src/ or bench/, each with its reason
UNREFERENCED_OK = {
    # derives DEFAULT_REG_SIGMA; rerun it when the generator defaults change
    "calibrate_registration_sigma",
}

# functions whose optional parameters no call in src/ or bench/ passes,
# kept each with its reason
UNPASSED_OK = {
    # the StepTrace of one step, which run diagnostics read (ROADMAP item 3)
    "Trainer.step",
    # tests drive the CLI in-process; the console script reads sys.argv
    "main",
    # has no caller at all (UNREFERENCED_OK); its parameters are its knobs
    "calibrate_registration_sigma",
}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_flags_an_unused_import():
    assert unused_imports("import math\nfrom dataclasses import field, replace\nreplace\n") == [
        "field", "math",
    ]


def test_no_unused_imports_in_package():
    found = {
        path.stem: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert found == {}, f"unused imports (module: names): {found}"


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_scan_finds_imported_modules():
    source = "import struct\nfrom os.path import join\nfrom .grids import x\n"
    assert imported_modules(source) == {"struct", "os"}


def test_only_grids_packs_bytes():
    """The binary layout lives in grids.py: no other module imports struct."""
    packers = sorted(path.name for path in SRC.glob("*.py")
                     if "struct" in imported_modules(path.read_text()))
    assert packers == ["grids.py"]


def top_level_defs(source: str) -> list[str]:
    """Functions, classes and non-dunder constants a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)
                      and not (t.id.startswith("__") and t.id.endswith("__"))]
    return names


def referenced_names(source: str) -> set[str]:
    """Every name a module reads, loads as an attribute, or spells in a string
    (the benchmark tracer names what it wraps as "module.attr" strings); a
    name that is only assigned to is not read."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_names(defining: dict[str, str], referring: list[str]) -> list[str]:
    """Top-level names of `defining` (module -> source) no `referring` source uses."""
    used = set().union(*(referenced_names(src) for src in referring))
    return sorted(name for src in defining.values() for name in top_level_defs(src)
                  if name not in used)


def test_scan_flags_a_dead_name():
    lib = "def used():\n    pass\n\n\ndef dead():\n    pass\n\n\nclass Kept:\n    pass\n"
    caller = "from lib import Kept, used\nused()\n"
    assert dead_names({"lib": lib}, [lib, caller]) == ["dead"]


def test_scan_flags_a_dead_constant():
    lib = "__all__ = []\nUSED = 1\nDEAD = 2\nTYPED: int = 3\n\n\ndef f():\n    return TYPED\n"
    caller = "from lib import USED, f\nf()\n"
    assert dead_names({"lib": lib}, [lib, caller]) == ["DEAD"]


def test_no_dead_names_in_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    referring = list(sources.values()) + [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    dead = set(dead_names(sources, referring)) - UNREFERENCED_OK
    assert not dead, f"top-level names nothing in src/ or bench/ uses: {sorted(dead)}"


def uncalled_ops(ops: set[str], sources: list[str]) -> list[str]:
    """Members of `ops` that no `tape.<op>(...)` call in `sources` names."""
    called = {
        node.func.attr
        for src in sources for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "tape"
    }
    return sorted(ops - called)


def test_scan_flags_an_uncalled_op():
    caller = "def f(tape, x):\n    return tape.relu(x)\n\n\nother.exp(1)\n"
    assert uncalled_ops({"relu", "exp"}, [caller]) == ["exp"]


def test_every_tape_op_has_a_caller_in_package():
    ops = {name for name in vars(Tape) if not name.startswith("_")}
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    uncalled = uncalled_ops(ops, sources)
    assert not uncalled, f"Tape ops no tape.<op>(...) call in src/ uses: {uncalled}"


def optional_params(source: str) -> dict[str, list[tuple[int | None, str]]]:
    """(position or None if keyword-only, name) of every defaulted parameter
    of each top-level function and method, by "f" or "Class.method";
    a method's positions skip self."""
    found = {}

    def record(qualname, fn, skip):
        args = fn.args
        positional = (args.posonlyargs + args.args)[skip:]
        first_default = len(positional) - len(args.defaults)
        params = [(i, a.arg) for i, a in enumerate(positional) if i >= first_default]
        params += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        if params:
            found[qualname] = params

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            record(node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    record(f"{node.name}.{fn.name}", fn, 0 if static else 1)
    return found


def unpassed_params(defining: dict[str, str], calling: list[str]) -> list[str]:
    """"f(p)" for each optional parameter p of a function in `defining`
    (module -> source) that no call in `calling` passes. Calls match by
    the called name alone; `Class(...)` calls `Class.__init__`. Only the
    arguments a call spells out count: `*seq` and `**mapping` pass nothing
    the source shows."""
    passed = {}  # called name -> (positional count, keyword names)
    for src in calling:
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            n_pos, kws = passed.get(name, (0, set()))
            spelled = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                           len(node.args))
            passed[name] = (max(n_pos, spelled), kws | {k.arg for k in node.keywords})
    found = []
    for src in defining.values():
        for qualname, params in optional_params(src).items():
            owner, _, method = qualname.rpartition(".")
            n_pos, kws = passed.get(owner if method == "__init__" else method, (0, set()))
            found += [f"{qualname}({name})" for pos, name in params
                      if name not in kws and (pos is None or pos >= n_pos)]
    return sorted(found)


def test_scan_flags_an_unpassed_optional_parameter():
    lib = ("def f(a, b=1, *, c=2, d=3):\n    pass\n\n\n"
           "class K:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
           "    def m(self, p=1, q=2):\n        pass\n\n"
           "    @staticmethod\n    def s(u=0):\n        pass\n")
    caller = "f(0, 5, d=4)\nK(1)\nk.m(q=3)\nK.s(1)\n"
    assert unpassed_params({"lib": lib}, [lib, caller]) == ["K.__init__(y)", "K.m(p)", "f(c)"]


def test_scan_counts_only_spelled_out_arguments():
    lib = "def f(a, b=1, c=2):\n    pass\n\n\ndef g(a=1, b=2):\n    pass\n"
    caller = "f(0, *rest)\ng(a=0, **kwargs)\n"
    assert unpassed_params({"lib": lib}, [caller]) == ["f(b)", "f(c)", "g(b)"]


def test_every_optional_parameter_has_a_caller_that_passes_it():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    calling = list(sources.values()) + [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    found = unpassed_params(sources, calling)
    unpassed = [p for p in found if p.partition("(")[0] not in UNPASSED_OK]
    assert not unpassed, f"optional parameters no call in src/ or bench/ passes: {unpassed}"
    stale = UNPASSED_OK - {p.partition("(")[0] for p in found}
    assert not stale, f"UNPASSED_OK entries whose parameters are all passed: {sorted(stale)}"
