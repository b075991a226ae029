"""The package's public surface, and a lint check on its modules."""

from __future__ import annotations

import ast
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
    classify compare_orders compress_coo coo csc csf csr dcsc dcsr dense
    dense_oracle dense_vector estimate_memory execute format_from_name from_dense
    from_einsum from_unsorted fuse hash_default_l insert_sparse_workspace
    iterate_level lower nest_assign nest_vars oracle_inputs ordering_measures
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
