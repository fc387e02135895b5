"""Exception hierarchy shared by all capforge modules.

The CLI maps these onto exit codes: usage/config problems exit 1, data and
file-format problems exit 2.
"""

import reprlib
from dataclasses import MISSING, fields


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


# the JSON types a field takes, by annotation; a bool is never a number
JSON_TYPES = {"int": ({int}, "an integer"), "float": ({int, float}, "a number"),
              "str": ({str}, "a string"), "bool": ({bool}, "true or false")}


def read_fields(cls, obj, kind: str) -> dict:
    """The fields of dataclass `cls` given by JSON object `obj`, each of a
    type ``JSON_TYPES`` gives its annotation (or null for ``X | None``), a
    float field as a float; a field of another annotation is left as given."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{kind} must be a JSON object, got {reprlib.repr(obj)}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"unknown {kind} field {min(unknown)!r}")
    for f in known.values():
        if f.name not in obj and f.default is f.default_factory is MISSING:
            raise ConfigError(f"missing {kind} field {f.name!r}")
    out = dict(obj)
    for name, value in obj.items():
        optional = known[name].type.endswith(" | None")
        types, what = JSON_TYPES.get(known[name].type.removesuffix(" | None"), (None, ""))
        if types is None or optional and value is None:
            continue
        if type(value) not in types:
            raise ConfigError(f"{kind} field {name!r} must be {what}{' or null' * optional}, "
                              f"got {reprlib.repr(value)}")
        try:
            out[name] = float(value) if float in types else value
        except OverflowError:
            raise ConfigError(f"{kind} field {name!r} is too large for a float, "
                              f"got {reprlib.repr(value)}") from None
    return out
