"""Updates on grammar-compressed XML: isolation, operations, workloads."""

from repro.updates.batch import (
    BatchAppend,
    BatchBuilder,
    BatchDelete,
    BatchInsert,
    BatchOp,
    BatchRename,
    BatchStats,
    execute_batch,
)
from repro.updates.grammar_updates import (
    apply_op,
    apply_ops,
    delete,
    insert,
    rename,
)
from repro.updates.operations import (
    DeleteOp,
    InsertOp,
    RenameOp,
    UpdateError,
    UpdateOp,
    apply_op_to_tree,
    delete_subtree,
    insert_before,
    rename_node,
    rightmost_null,
    splice_before,
)
from repro.updates.path_isolation import (
    IsolationResult,
    isolate,
    isolate_many,
)
from repro.updates.udc import UdcResult, udc_recompress
from repro.updates.workload import (
    UpdateWorkload,
    generate_rename_workload,
    generate_update_workload,
)

__all__ = [
    "rename",
    "insert",
    "delete",
    "apply_op",
    "apply_ops",
    "RenameOp",
    "InsertOp",
    "DeleteOp",
    "UpdateOp",
    "UpdateError",
    "apply_op_to_tree",
    "rename_node",
    "insert_before",
    "splice_before",
    "delete_subtree",
    "rightmost_null",
    "isolate",
    "isolate_many",
    "IsolationResult",
    "BatchRename",
    "BatchInsert",
    "BatchAppend",
    "BatchDelete",
    "BatchOp",
    "BatchStats",
    "BatchBuilder",
    "execute_batch",
    "udc_recompress",
    "UdcResult",
    "UpdateWorkload",
    "generate_update_workload",
    "generate_rename_workload",
]
