"""Exception hierarchy shared by all capforge modules.

The CLI maps these onto exit codes: usage/config problems exit 1, data and
file-format problems exit 2.
"""

from dataclasses import fields


class CapforgeError(Exception):
    """Base class for all capforge errors."""


class ConfigError(CapforgeError):
    """Invalid configuration value or malformed config file."""


class DataError(CapforgeError):
    """Inconsistent or missing data (length mismatches, dangling refs, ...)."""


class FormatError(CapforgeError):
    """File exists but is not in a supported format/version."""


class IntegrityError(CapforgeError):
    """File is in the right format but its content is corrupt or truncated."""


class DomainError(CapforgeError):
    """Argument outside the mathematical domain of an operation."""


def check_numbers(cls, obj: dict, where: str) -> None:
    """Raise ConfigError for a value of JSON object `obj` that does not fit
    a number field of dataclass `cls` (annotated as a string): a bool or a
    string is no number, and an int is a valid float."""
    for f in fields(cls):
        allowed = {"int": {int}, "float": {int, float},
                   "float | None": {int, float, type(None)}}.get(f.type)
        if allowed and f.name in obj and type(obj[f.name]) not in allowed:
            raise ConfigError(f"{where} field {f.name!r} must be {f.type}, got {obj[f.name]!r}")
