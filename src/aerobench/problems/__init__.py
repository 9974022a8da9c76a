from .base import (
    MAXIMIZE,
    MINIMIZE,
    ConstraintSpec,
    EvalContext,
    EvalResult,
    EvaluationError,
    OperatingPoint,
    ProblemEnvironment,
    function_environment,
)
from .catalog import (
    CATALOG_ENV_VAR,
    CATALOG_VERSION,
    catalog_json,
    get_environment,
    task_ids,
    write_catalog,
)
from .subproc import SubprocessEvaluator

__all__ = [
    "MAXIMIZE",
    "MINIMIZE",
    "ConstraintSpec",
    "EvalContext",
    "EvalResult",
    "EvaluationError",
    "OperatingPoint",
    "ProblemEnvironment",
    "function_environment",
    "CATALOG_ENV_VAR",
    "CATALOG_VERSION",
    "catalog_json",
    "get_environment",
    "task_ids",
    "write_catalog",
    "SubprocessEvaluator",
]
