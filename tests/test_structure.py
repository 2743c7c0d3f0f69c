"""Structural rules of the hplax package, read from its source with ast.

A module keeps its `_`-prefixed names to itself, each module-level
ALL_CAPS constant is assigned in one module only (the others import it), and
each public module-level function or class has a user: some code in
src/hplax or tests/ outside its own definition and the `__init__` re-exports.
Every name the benchmark wraps (perfbench/spans.py) still exists, in a
module that `import hplax.cli` loads.  No module touches the private
internals of ``fractions.Fraction``, which differ between the Python
versions the package supports, and none reads the environment:
behaviour is set by the arguments of a call alone.  Only the kernel, the
table and the qd field (``classical``) construct an elimination, and a
passing ``cross_validate`` builds one table (a rule checked by running it).
The plain oracles, and every function they call, use none of the routes'
integer arithmetic.  The table's shared elimination is a prefix its columns
fork from, and answers no read itself.  The command line maps every library error to its
exit code in one clause, through the error's class, and writes every
document through one writer that never forms the document's whole text.  The package itself is a
docstring: `import hplax` loads no module, and each name is imported from
the module that defines it.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hplax"
SPANS = TESTS.parent / "perfbench" / "spans.py"


def modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def is_hplax(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "hplax"


def test_source_found():
    assert {"kernel", "cli"} <= set(modules())


def test_the_package_is_a_docstring():
    # each name has one home, its module; a re-export would be a second name
    tree = modules()["__init__"]
    assert ast.get_docstring(tree) and len(tree.body) == 1


def test_importing_the_package_loads_no_module():
    script = ("import sys, hplax; print(hplax.__file__); "
              "print(sorted(name for name in sys.modules if name.startswith('hplax.')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == [str(SRC / "__init__.py"), "[]"]


def test_no_private_name_crosses_a_module():
    offences = []
    for name, tree in modules().items():
        imported_modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and is_hplax(node):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offences.append(f"{name} imports {alias.name}")
                    if node.module is None:         # from . import jsondoc
                        imported_modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in imported_modules):
                offences.append(f"{name} reads {node.value.id}.{node.attr}")
    assert not offences


FRACTION_INTERNALS = {"_numerator", "_denominator", "_from_coprime_ints"}


def test_no_private_fraction_internals():
    # Fraction(..., _normalize=False) is gone in 3.12 and _from_coprime_ints
    # is new there; only numerator, denominator and the constructor are public
    offences = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in FRACTION_INTERNALS:
                offences.append(f"{name} reads {node.attr} (line {node.lineno})")
            if isinstance(node, ast.keyword) and node.arg == "_normalize":
                offences.append(f"{name} passes _normalize= (line {node.lineno})")
    assert offences == []


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    offences = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
                offences.append(f"{name} reads .{node.attr} (line {node.lineno})")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                offences += [f"{name} imports {alias.name} (line {node.lineno})"
                             for alias in node.names if alias.name in ENVIRONMENT_READS]
    assert offences == []


def test_each_constant_has_one_home():
    homes = defaultdict(list)
    for name, tree in modules().items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and leaf.id.isupper():
                        homes[leaf.id].append(name)
    assert {k: v for k, v in homes.items() if len(v) > 1} == {}


def used_names(node: ast.AST) -> set[str]:
    """Names read or called under node, as plain names or attributes."""
    return ({leaf.id for leaf in ast.walk(node) if isinstance(leaf, ast.Name)}
            | {leaf.attr for leaf in ast.walk(node) if isinstance(leaf, ast.Attribute)})


def test_every_public_name_has_a_user():
    defined, used = {}, set()
    for name, tree in modules().items():
        if name == "__init__":
            continue
        for node in tree.body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = name
            used |= used_names(node) - {own}
    for path in sorted(TESTS.glob("*.py")):
        used |= used_names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert {k: v for k, v in defined.items() if k not in used} == {}


def test_benchmark_span_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        cls_name, _, name = attr.rpartition(".")
        owner = vars(importlib.import_module(module_name))
        if cls_name:
            owner = vars(owner[cls_name]) if cls_name in owner else {}
        if name not in owner:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_importing_the_cli_loads_every_benchmark_span_module():
    # the benchmark's tracer wraps TARGETS in the modules that a fresh
    # `import hplax.cli` has loaded, and fails on one it has not
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wanted = sorted({module_name for module_name, *_ in spans.TARGETS})
    script = f"import sys, hplax.cli; print([m for m in {wanted!r} if m not in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert len(wanted) > 1 and run.stdout.splitlines() == ["[]"]


ELIMINATION_HOMES = {"kernel", "hptable", "classical"}


def test_only_the_elimination_homes_construct_one():
    offences = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and name not in ELIMINATION_HOMES
                    and "LeadingMinors" in used_names(node.func)):
                offences.append(f"{name} calls LeadingMinors (line {node.lineno})")
    assert offences == []


PLAIN_ORACLES = {"det_exact", "solve_exact", "consistency_residuals",
                 "monic_orthogonal_polys", "build_transition", "zcc_residual",
                 "normalization_grid", "hankel_shifted", "qd_vw"}
ROUTE_ARITHMETIC = {"LeadingMinors", "SharedPrefix", "HankelMinors", "cleared",
                    "hankel_row", "ratio_sum", "settle", "as_integer_ratio",
                    "QdField", "_qd_field", "_pairs"}


def test_the_plain_oracles_use_no_route_arithmetic():
    # an oracle that shared the fraction-free eliminations or the integer
    # pairs of the routes it checks would share their faults too
    functions = {node.name: (name, node) for name, tree in modules().items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    pending, seen, offences = sorted(PLAIN_ORACLES), set(), []
    while pending:
        fn = pending.pop()
        if fn in seen:
            continue
        seen.add(fn)
        module, node = functions[fn]
        names = used_names(node)
        offences += [f"{module}.{fn} names {bad}" for bad in sorted(names & ROUTE_ARITHMETIC)]
        called = set().union(*(used_names(call.func) for call in ast.walk(node)
                               if isinstance(call, ast.Call)))
        pending += sorted(called & set(functions))
    assert offences == []
    assert seen > PLAIN_ORACLES         # the helpers were walked too


def test_the_shared_elimination_answers_no_table_read():
    # assigned in HPTable.__init__, read by _column alone, so every read
    # goes through a column elimination
    offences = []
    for top in modules()["hptable"].body:
        methods = top.body if isinstance(top, ast.ClassDef) else [top]
        for fn in methods:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for leaf in ast.walk(fn):
                if isinstance(leaf, ast.Attribute) and leaf.attr == "_shared":
                    home = "__init__" if isinstance(leaf.ctx, ast.Store) else "_column"
                    if fn.name != home:
                        offences.append(f"{fn.name} uses _shared (line {leaf.lineno})")
    assert offences == []


def test_a_passing_cross_validate_builds_one_table(monkeypatch, system_a, nikishin_system):
    from hplax.bvp import cross_validate
    from hplax.hptable import HPTable

    windows = []
    init = HPTable.__init__

    def counting(self, moments, max_n, max_m):
        windows.append((max_n, max_m))
        init(self, moments, max_n, max_m)

    monkeypatch.setattr(HPTable, "__init__", counting)
    for system in (system_a, nikishin_system):
        for N, M in ((0, 0), (2, 1), (3, 3)):
            windows.clear()
            cross_validate(system, N, M)
            assert windows == [(N + 1, M + 1)]


WRITES = {"print", "open", "write", "writelines", "dump", "dumps"}


def test_every_document_streams_through_one_writer():
    # json.dumps forms a document's whole text before any of it is written;
    # the CLI's _write_doc encodes each document straight to its file or
    # stdout, and each subcommand writes through it and nothing else
    from hplax.cli import _parser

    offences = [f"{name} calls dumps (line {node.lineno})"
                for name, tree in modules().items() for node in ast.walk(tree)
                if isinstance(node, ast.Call) and "dumps" in used_names(node.func)]
    functions = {node.name: node for node in modules()["cli"].body
                 if isinstance(node, ast.FunctionDef)}
    commands = next(action.choices for action in _parser()._actions
                    if isinstance(action.choices, dict))
    assert set(commands) == {"gen", "table", "coeffs", "solve-bvp", "verify", "qd"}
    for command, sub in commands.items():
        handler = functions[sub.get_default("func").__name__]
        called = set().union(*(used_names(call.func) for call in ast.walk(handler)
                               if isinstance(call, ast.Call)))
        if "_write_doc" not in called or called & WRITES:
            offences.append(f"{command} writes {sorted(called & (WRITES | {'_write_doc'}))}")
    assert offences == []


def test_cli_catches_library_errors_in_one_clause():
    # the exit code and label live on the error classes, so cli needs no
    # clause per error and cannot decide an exit code of its own
    from hplax.cli import HplaxError

    library = set()
    pending = [HplaxError]
    while pending:
        cls = pending.pop()
        library.add(cls.__name__)
        pending += cls.__subclasses__()
    caught = [sorted(used_names(node.type) & library)
              for node in ast.walk(modules()["cli"])
              if isinstance(node, ast.ExceptHandler) and node.type is not None]
    assert [names for names in caught if names] == [["HplaxError"]]
