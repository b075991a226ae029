"""The package's public surface, and a lint check on its modules."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import spworks as sw


# the package's exported names; adding or dropping one changes the public API
PUBLIC_NAMES = """
    AccArray AccFullError Access Add AllArray AnalysisError Assign CSV_FIELDS
    Classification Component Const Counters ExecutionOptions ExecutionResult Expr
    Forall Format Fuse IndexVar InsertionAction InsertionDecision IoError IrError
    IsmEngine IsmError LevelKind LoweringError Mul ParseError Plan Policy Pos
    Reorder SYNTHETIC_RNG Split Statement Tensor TensorError VarKind Where
    WorkspaceDescriptor access_map apply_schedule ceil_log2 classification_report
    classify compare_orders coo csc csf csr dcsc dcsr dense
    dense_oracle dense_vector estimate_memory execute format_from_name from_dense
    from_einsum fuse hash_default_l insert_sparse_workspace
    lower nest_assign nest_vars oracle_inputs ordering_measures
    parse_einsum plan_insertion pos precompute print_plan read_frostt
    read_matrix_market reconstruct_input_order reformat reorder sparse_vector split
    statement_from_text synthetic_matrix synthetic_pair tensors_equal write_csv
    write_frostt write_matrix_market
""".split()


def test_exported_names_are_the_public_api():
    assert sw.__all__ == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves():
    missing = [name for name in sw.__all__ if not hasattr(sw, name)]
    assert not missing
    assert len(set(sw.__all__)) == len(sw.__all__)


def _names_used(tree: ast.AST) -> set[str]:
    """Every bare name the module reads, quoted annotations included."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        notes = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _names_used(ast.parse(note.value, mode="eval"))
    return used


def test_modules_use_every_name_they_import():
    # no linter ships with the toolchain; __init__.py imports to re-export
    unused = []
    for path in sorted(Path(sw.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


def _top_level_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _references(node: ast.AST) -> set[str]:
    """Every name the node reads: bare, as an attribute, or imported."""
    refs = _names_used(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.alias):
            refs.add(sub.name)
    return refs


def test_modules_reference_every_private_definition():
    # a private module-level function, class or constant that no other
    # statement in the package reads is dead; its own body does not count
    statements = [(path.name, node)
                  for path in sorted(Path(sw.__file__).parent.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    refs = [_references(node) for _, node in statements]
    dead = [f"{module}:{node.lineno} {name}"
            for at, (module, node) in enumerate(statements)
            for name in _top_level_names(node)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in r for other, r in enumerate(refs) if other != at)]
    assert not dead


def test_every_traced_internal_resolves():
    # the benchmark's traced runs wrap each (owner, attr) of its INTERNAL
    # list, read as owner.__dict__[attr]; a change that moves or drops one
    # makes every traced run fail before its first pass
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.INTERNAL
               if attr not in vars(owner)]
    assert tracing.INTERNAL and not missing
