from .base import (
    MAXIMIZE,
    MINIMIZE,
    EvaluationError,
    OperatingPoint,
    ProblemEnvironment,
    function_environment,
)
from .catalog import (
    catalog_json,
    get_environment,
    task_ids,
    write_catalog,
)
from .subproc import SubprocessEvaluator

__all__ = [
    "MAXIMIZE",
    "MINIMIZE",
    "EvaluationError",
    "OperatingPoint",
    "ProblemEnvironment",
    "function_environment",
    "catalog_json",
    "get_environment",
    "task_ids",
    "write_catalog",
    "SubprocessEvaluator",
]
