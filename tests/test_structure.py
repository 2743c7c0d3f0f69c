"""Structural rules of the hplax package, read from its source with ast.

A module keeps its `_`-prefixed names to itself, each module-level
ALL_CAPS constant is assigned in one module only (the others import it), and
each public module-level function or class has a user: some code in
src/hplax or tests/ outside its own definition and the `__init__` re-exports.
Every name the benchmark wraps (perfbench/spans.py) still exists.  No module
touches the private internals of ``fractions.Fraction``, which differ between
the Python versions the package supports, and none reads the environment:
behaviour is set by the arguments of a call alone.  Only the kernel, the
table and the single-sequence Hankel type construct an elimination, and a
passing ``cross_validate`` builds one table (a rule checked by running it).
The table's shared elimination is a prefix its columns fork from, and
answers no read itself.
"""

import ast
import importlib
import importlib.util
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


ELIMINATION_HOMES = {"kernel", "hptable", "measures"}


def test_only_the_elimination_homes_construct_one():
    offences = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and name not in ELIMINATION_HOMES
                    and "LeadingMinors" in used_names(node.func)):
                offences.append(f"{name} calls LeadingMinors (line {node.lineno})")
    assert offences == []


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
