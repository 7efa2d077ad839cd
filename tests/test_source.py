"""Checks on the library source itself."""

import ast
import importlib
from collections import Counter
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qidsim").glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a gate written as one vanishes
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_cholesky(node: ast.AST) -> bool:
    """A call of np.linalg.cholesky (or numpy.linalg.cholesky)."""
    func = getattr(node, "func", None)
    return (
        isinstance(node, ast.Call)
        and isinstance(func, ast.Attribute)
        and func.attr == "cholesky"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "linalg"
    )


def test_one_function_factorises_density_matrices():
    # every density check goes through the one shared checker: a second
    # factorisation beside it, in a function or at module level, would be a
    # second check that can drift from it
    calls, in_checker = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [(path.name, node.lineno) for node in ast.walk(tree) if _is_cholesky(node)]
        in_checker += [
            (path.name, node.lineno)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            and (path.name, func.name) == ("qudit_core.py", "_check_densities")
            for node in ast.walk(func)
            if _is_cholesky(node)
        ]
    assert in_checker
    assert calls == in_checker


def test_exports_are_defined_and_listed():
    # every name in a module's __all__ exists there, and every name the
    # package re-exports is in its module's __all__
    listed = {}
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"qidsim.{path.stem}")
        if hasattr(module, "__all__"):
            assert [n for n in module.__all__ if not hasattr(module, n)] == [], path.name
            listed[path.stem] = set(module.__all__)
    init = ast.parse(SOURCES[0].with_name("__init__.py").read_text())
    imports = [node for node in init.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in listed, node.module
        unlisted = [a.name for a in node.names if a.name not in listed[node.module]]
        assert unlisted == [], node.module


def test_package_reexports_only_the_readme_example_names():
    # the package top level re-exports the names README's library example
    # imports, and no others: every other name is imported from its module.
    # The example runs as written
    readme = (SOURCES[0].parents[2] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    example = ast.parse(block)
    imported = {
        alias.name
        for node in ast.walk(example)
        if isinstance(node, ast.ImportFrom) and node.module == "qidsim"
        for alias in node.names
    }
    init = ast.parse(SOURCES[0].with_name("__init__.py").read_text())
    exported = {
        alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert imported
    assert imported == exported
    exec(compile(example, "README.md", "exec"), {})


def test_test_references_stay_out_of_the_package():
    # the squeezed single-mode states and the kernels' Wigner functions are
    # test references, kept in tests/helpers.py: no command, acceptance
    # check or library function reads them
    modules = [importlib.import_module(name) for name in ("qidsim", "qidsim.cv_gaussian")]
    references = {"regularized_x0", "regularized_p0", "thermal_reduction", "kernel_wigner_value"}
    for module in modules:
        assert references.isdisjoint(vars(module)), module.__name__


def _builds_kernel_forms(node: ast.AST) -> bool:
    """A call of _ab(...) or of math.cosh(2 * xi)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "_ab"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "cosh"
        and isinstance(func.value, ast.Name)
        and func.value.id == "math"
        and ast.unparse(node.args[0]) == "2 * xi"
    )


def test_one_function_builds_kernel_forms():
    # every kernel quantity reads the (amp, var, twist) rows of
    # _kernel_table; a second place that works out e^{+-2 xi} or cosh 2 xi
    # would be a second table that can drift from it.  The squeezed program
    # states are the other users of those factors: they are the program the
    # kernels come from, not kernel forms
    path = SOURCES[0].with_name("cv_gaussian.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    builders = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and any(map(_builds_kernel_forms, ast.walk(func)))
    }
    programs = {"regularized_epr", "epr_wavefunction"}
    assert builders == {"_kernel_table"} | programs


def test_every_channel_table_is_read():
    # a table that no code reads any more is memory held per N for nothing;
    # every field of _ChannelTables is read as tables.<field>
    path = SOURCES[0].with_name("qid_network.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_ChannelTables"]
    fields = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "tables"
    }
    assert fields
    assert fields - read == set()


def test_channel_tables_take_no_parity_branch():
    # output 3's tables are one construction at every N, odd N being the
    # one-block case of even N's parity blocks; only the shift s(v) differs,
    # as one expression, so the function holds no if statement
    path = SOURCES[0].with_name("qid_network.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    (func,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_channel_tables"]
    assert [node.lineno for node in ast.walk(func) if isinstance(node, ast.If)] == []


# imports kept without a use in their module: qid_network binds partial_trace
# for qidbench, whose tracer wraps it there and whose tests check the binding
UNUSED_IMPORTS_KEPT = {("qid_network.py", "partial_trace")}


def test_modules_use_every_name_they_import():
    # __init__.py is left out: its imports are the package's exports
    unused = set()
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.name, name) for name in imported - used}
    assert unused == UNUSED_IMPORTS_KEPT


def _calls(node: ast.AST, name: str) -> bool:
    """A call of the plain name ``name``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


def test_every_command_ends_in_one_finish():
    # every cmd_* returns _finish(...) and nothing else, and only _finish
    # and main's error handlers call _fail: a gate checked beside _finish
    # would be a second ending that can drift from it
    path = SOURCES[0].with_name("cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    commands = [func for func in functions if func.name.startswith("cmd_")]
    assert len(commands) == 5
    for func in commands:
        assert isinstance(func.body[-1], ast.Return), func.name
        returns = [node for node in ast.walk(func) if isinstance(node, ast.Return)]
        assert all(_calls(node.value, "_finish") for node in returns), func.name
    fails = [node.lineno for node in ast.walk(tree) if _calls(node, "_fail")]
    callers = {
        func.name: [node.lineno for node in ast.walk(func) if _calls(node, "_fail")]
        for func in functions
    }
    assert callers["_finish"] and callers["main"]
    assert sorted(callers["_finish"] + callers["main"]) == sorted(fails)


def test_only_main_resolves_output_paths():
    # main resolves and checks --out and --dump-wigner before any work, and
    # the commands write where it resolved: a second caller of _resolve_out
    # would be a second place that decides where a run writes
    path = SOURCES[0].with_name("cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree) if _calls(node, "_resolve_out")]
    callers = {
        func.name: [node.lineno for node in ast.walk(func) if _calls(node, "_resolve_out")]
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
    }
    assert calls
    assert {name: lines for name, lines in callers.items() if lines} == {"main": calls}


def test_cli_reads_no_kernel_form():
    # cv_gaussian alone knows a kernel's width: the kernel-norm rule and its
    # squeezing cap live beside the kernel table, and cli.py reads neither
    # the table nor a kernel, by attribute or by name
    path = SOURCES[0].with_name("cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read = set(_attribute_reads(tree)) | names
    assert read & {"_kernel_form", "_kernel_table", "kernel_eval"} == set()
    assert "kernel_norm" in read


def _attribute_reads(tree: ast.AST) -> Counter:
    """How often each name is read as an attribute, ``<expr>.<name>``."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_member_has_a_reader():
    # the public API covers what the package, the acceptance checks and the
    # benchmark read: every method, property and classmethod of a public
    # class is read as an attribute somewhere in the package outside its own
    # body, in tests/test_acceptance.py, or in qidbench, whose tracer names
    # what it wraps as "<module>.<class>.<method>" text in GROUPS.  Members a
    # test alone reads belong in tests/helpers.py.  The check goes by name,
    # so it cannot see a member named like something else that is read
    # (Operator.apply beside PermutationGate.apply, Lattice.meshgrid beside
    # np.meshgrid, Operator.dim beside PureState.dim) or a dunder method such
    # as Operator.__matmul__, which the @ operator reaches: those are found
    # by hand
    root = SOURCES[0].parents[2]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    in_package = sum(map(_attribute_reads, trees.values()), Counter())
    elsewhere = _attribute_reads(ast.parse((root / "tests" / "test_acceptance.py").read_text()))
    for path in sorted((root / "qidbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        elsewhere += _attribute_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and "GROUPS" in map(ast.unparse, node.targets):
                elsewhere.update(
                    const.value.rsplit(".", 1)[-1]
                    for const in ast.walk(node.value)
                    if isinstance(const, ast.Constant) and isinstance(const.value, str)
                )
    unread = []
    for path, tree in trees.items():
        module = importlib.import_module(f"qidsim.{path.stem}")
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            bases = getattr(module, cls.name).__mro__[1:]
            for member in cls.body:
                if (
                    not isinstance(member, ast.FunctionDef)
                    or member.name.startswith("_")
                    or any(member.name in vars(base) for base in bases)
                ):
                    continue
                own = _attribute_reads(member)[member.name]
                if in_package[member.name] == own and member.name not in elsewhere:
                    unread.append(f"{cls.name}.{member.name}")
    assert unread == []
