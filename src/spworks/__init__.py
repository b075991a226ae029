"""Sparse tensor kernels with automatic workspace insertion.

The pipeline: parse or build a tensor index expression, optionally schedule
it (reorder, split, fuse, pos), classify how its loop order scatters into
the result, insert a sparse or dense workspace when scattering demands one,
lower to an imperative loop plan, and execute that plan with the
insert-sort-merge runtime.
"""

from __future__ import annotations

import types

from .analysis import (
    AnalysisError,
    Classification,
    InsertionAction,
    InsertionDecision,
    classification_report,
    classify,
    compare_orders,
    insert_sparse_workspace,
    ordering_measures,
    plan_insertion,
    reconstruct_input_order,
)
from .io import (
    CSV_FIELDS,
    IoError,
    SYNTHETIC_RNG,
    estimate_memory,
    read_frostt,
    read_matrix_market,
    synthetic_matrix,
    synthetic_pair,
    write_csv,
    write_frostt,
    write_matrix_market,
)
from .ir import (
    Access,
    Add,
    Assign,
    Const,
    Expr,
    Forall,
    Fuse,
    IndexVar,
    IrError,
    Mul,
    ParseError,
    Pos,
    Reorder,
    Split,
    Statement,
    VarKind,
    Where,
    WorkspaceDescriptor,
    apply_schedule,
    from_einsum,
    fuse,
    nest_assign,
    nest_vars,
    parse_einsum,
    pos,
    precompute,
    reorder,
    split,
    statement_from_text,
)
from .ism import (
    AccArray,
    AccFullError,
    AllArray,
    Counters,
    IsmEngine,
    IsmError,
    Policy,
    ceil_log2,
    hash_default_l,
)
from .lowering import (
    ExecutionOptions,
    ExecutionResult,
    LoweringError,
    Plan,
    execute,
    lower,
    print_plan,
)
from .oracle import dense_oracle, oracle_inputs
from .tensor import (
    Component,
    Format,
    LevelKind,
    Tensor,
    TensorError,
    access_map,
    coo,
    csc,
    csf,
    csr,
    dcsc,
    dcsr,
    dense,
    dense_vector,
    format_from_name,
    from_dense,
    reformat,
    sparse_vector,
    tensors_equal,
)

__version__ = "0.1.0"

# every name imported above, and no submodule
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or name == "annotations"
                         or isinstance(value, types.ModuleType)))
