"""Source hygiene checks that need no linter: every import, every
top-level function or class, every dataclass field, every tape op and
every optional parameter of the package is used, the package needs
nothing beyond numpy and the standard library, and only metrics.py names
the metric set."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pacedseg
from pacedseg.autodiff import Tape

SRC = Path(pacedseg.__file__).parent
BENCH = SRC.parents[1] / "bench"

# dataclasses whose fields nothing in src/ or bench/ reads, each with its reason
UNREAD_FIELDS_OK = {
    # the intermediates of one step, which tests and run diagnostics read
    # (ROADMAP item 3(b))
    "StepTrace",
}

# functions whose optional parameters no call in src/ or bench/ passes,
# kept each with its reason
UNPASSED_OK = {
    # the StepTrace of one step, which run diagnostics read (ROADMAP item 3)
    "Trainer.step",
    # tests drive the CLI in-process; the console script reads sys.argv
    "main",
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


def foreign_modules(source: str) -> set[str]:
    """Modules a source imports that are neither numpy nor in the standard library."""
    return imported_modules(source) - set(sys.stdlib_module_names) - {"numpy"}


def test_scan_flags_a_foreign_module():
    source = ("import math\nimport numpy as np\nfrom scipy.spatial import cKDTree\n"
              "from . import grids\n")
    assert foreign_modules(source) == {"scipy"}


def test_package_imports_only_numpy_and_the_standard_library():
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := foreign_modules(path.read_text()))}
    assert found == {}, f"imports beyond numpy and the standard library: {found}"


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, pacedseg.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.strip() == "[]"


def test_only_grids_packs_bytes():
    """The binary layout lives in grids.py: no other module imports struct."""
    packers = sorted(path.name for path in SRC.glob("*.py")
                     if "struct" in imported_modules(path.read_text()))
    assert packers == ["grids.py"]


def package_imports(source: str) -> set[str]:
    """Modules of the package a source imports, by relative import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else (a.name for a in node.names))
    return names


def test_scan_finds_package_imports():
    source = "import struct\nfrom .errors import FormatError\nfrom . import grids\n"
    assert package_imports(source) == {"errors", "grids"}


def test_grids_and_autodiff_import_nothing_of_the_package_but_errors():
    """The boundary types with the one-byte class bound, and the tape, sit
    under every other module."""
    found = {name: package_imports((SRC / f"{name}.py").read_text()) - {"errors"}
             for name in ("grids", "autodiff")}
    assert found == {"grids": set(), "autodiff": set()}


def test_the_one_byte_class_bound_is_written_once():
    """256 is spelled only as grids.MAX_CLASSES; every other bound reads it."""
    found = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 256]
    assert [name for name, _ in found] == ["grids.py"], found


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
    dead = dead_names(sources, referring)
    assert not dead, f"top-level names nothing in src/ or bench/ uses: {dead}"


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


# the metrics past dsc, which the CLI's ablate progress line also reads
METRIC_WORDS = {"jaccard", "asd", "hd"}


def metric_spellings(source: str) -> set[str]:
    """The METRIC_WORDS a source spells as an attribute or as a word of a string."""
    words = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            words.add(node.attr.lower())
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"[a-z0-9]+", node.value.lower()))
    return words & METRIC_WORDS


def test_scan_flags_a_spelled_metric():
    source = ('METRICS = ("dsc", "jaccard")\nr.asd\nprint(f"HD={x}")\n'
              'hdec = r.dsc\n"""the mean_hd column"""\n')
    assert metric_spellings(source) == {"jaccard", "asd", "hd"}
    assert metric_spellings("hdec = r.dsc + len('hdr, masd')\n") == set()


def test_only_metrics_names_the_metric_set():
    """Adding, dropping or renaming a metric is an edit of metrics.py alone."""
    found = {path.name: words for path in sorted(SRC.glob("*.py"))
             if path.name != "metrics.py" and (words := metric_spellings(path.read_text()))}
    assert found == {}, f"metric names spelled outside metrics.py: {found}"


def scopes_naming(source: str, name: str) -> list[str]:
    """Each top-level statement of a source that names `name`, as a read, an
    attribute or an import: a def or class by its name, an import as
    "import", any other statement by its line."""
    found = []
    for stmt in ast.parse(source).body:
        if any((isinstance(n, ast.Name) and n.id == name)
               or (isinstance(n, ast.Attribute) and n.attr == name)
               or (isinstance(n, ast.alias) and (n.asname or n.name) == name)
               for n in ast.walk(stmt)):
            found.append(stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                         else "import" if isinstance(stmt, (ast.Import, ast.ImportFrom))
                         else f"line {stmt.lineno}")
    return found


def test_scan_finds_the_scopes_naming_a_name():
    source = ("from .autodiff import conv3d_raw\n\n\ndef f(x):\n    return conv3d_raw(x)\n\n\n"
              "def g(x):\n    return x\n\n\nclass K:\n    run = autodiff.conv3d_raw\n\n\n"
              "h = conv3d_raw\n")
    assert scopes_naming(source, "conv3d_raw") == ["import", "f", "K", "line 16"]


def test_the_segmentation_head_is_written_once():
    """Every pass of the segmentation head, with a tape or without, is
    `network._head`'s ops: softmax_raw is named only in autodiff.py, and
    network.py runs a raw conv only in the tape-free projection head."""
    found = {path.name: scopes for path in sorted(SRC.glob("*.py"))
             if path.name != "autodiff.py"
             and (scopes := scopes_naming(path.read_text(), "softmax_raw"))}
    assert found == {}, f"softmax_raw named outside autodiff.py: {found}"
    network = (SRC / "network.py").read_text()
    assert scopes_naming(network, "conv3d_raw") == ["import", "feature_grid"]


def test_only_network_draws_dropout():
    """The model draws its own dropout bits: a caller of `forward_graph` or
    `head_forward` names a rate and a seed, never `draw_dropout`."""
    found = {path.name: scopes for path in sorted(SRC.glob("*.py"))
             if (scopes := scopes_naming(path.read_text(), "draw_dropout"))}
    assert found == {"network.py": ["forward_graph", "head_forward"]}


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of each top-level dataclass."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            found += [(node.name, stmt.target.id) for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)]
    return found


def loaded_attributes(source: str) -> set[str]:
    """Attribute names a source loads; assignments are not reads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def spelled_names(source: str) -> set[str]:
    """The identifier parts of a source's strings: a getattr by name, or the
    tracer's "module.attr", spells the field in a string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def unread_fields(defining: dict[str, str], reading: list[str], spelling: list[str]) -> list[str]:
    """"Class.field" for each dataclass field of `defining` (module -> source)
    that no `reading` source loads as an attribute, and that neither its own
    module nor a `spelling` source spells in a string. A string elsewhere,
    such as a data-file key, names something else."""
    loaded = set().union(*(loaded_attributes(src) for src in reading))
    spelled = set().union(*(spelled_names(src) for src in spelling))
    return sorted(f"{cls}.{name}" for src in defining.values()
                  for cls, name in dataclass_fields(src)
                  if name not in loaded | spelled | spelled_names(src))


def test_scan_flags_an_unread_field():
    lib = ("@dataclass\nclass R:\n    shown: int\n    named: int\n    dead: int\n"
           "    K = 1\n\n\n@dataclass(frozen=True)\nclass S:\n    written: int\n\n\n"
           "class Plain:\n    ignored: int\n")
    caller = "r = R(1, 2, dead=3)\nprint(r.shown, getattr(r, 'named'))\ns.written = 4\n"
    assert unread_fields({"lib": lib}, [lib, caller], [caller]) == ["R.dead", "S.written"]


def test_scan_counts_a_string_only_in_the_own_module_or_a_spelling_source():
    lib = "@dataclass\nclass R:\n    key: int\n    named: int\n\n\nNAMES = ('named',)\n"
    other = "data = arrays['key']\n"
    assert unread_fields({"lib": lib}, [lib, other], []) == ["R.key"]
    assert unread_fields({"lib": lib}, [lib], [other]) == []


def test_every_dataclass_field_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    found = unread_fields(sources, list(sources.values()) + bench, bench)
    unread = [f for f in found if f.partition(".")[0] not in UNREAD_FIELDS_OK]
    assert not unread, f"dataclass fields nothing in src/ or bench/ reads: {unread}"
    stale = UNREAD_FIELDS_OK - {f.partition(".")[0] for f in found}
    assert not stale, f"UNREAD_FIELDS_OK entries whose fields are all read: {sorted(stale)}"
