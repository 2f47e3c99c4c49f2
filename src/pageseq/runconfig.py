"""Flat key=value run configuration files.

Format: one ``section.key=value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  Values are coerced to the target
dataclass field's type when applied, so a config file can override any
generator or training hyperparameter.  Unknown keys fail loudly with
the offending key named, which keeps configs honest across versions.
"""

from __future__ import annotations

import dataclasses
import typing


class ConfigError(ValueError):
    """Raised on malformed config files or unknown keys."""


def need(config, name, ok, want):
    """Raises ``ValueError`` unless ``ok``, naming field ``name`` of the
    dataclass ``config``: "<name> must be <want>, got <value>".  A
    ``__post_init__`` range check uses it, and :func:`apply_section`
    turns its message into one naming the config key."""
    if not ok:
        raise ValueError(f"{name} must be {want}, got "
                         f"{getattr(config, name)!r}")


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _coerce(value: str, target_type):
    origin = typing.get_origin(target_type)
    if target_type is bool:
        low = value.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected boolean, got {value!r}")
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type is str:
        return value
    if target_type is tuple or origin is tuple:
        parts = [p for p in value.replace(",", " ").split() if p]
        out = []
        for p in parts:
            try:
                out.append(int(p))
            except ValueError:
                out.append(float(p))
        return tuple(out)
    raise ConfigError(f"cannot coerce config value for type {target_type}")


def apply_section(instance, section: str, config: dict):
    """Applies ``section.field=value`` overrides to a dataclass in place.

    Returns the set of config keys it consumed.
    """
    fields = {f.name: f for f in dataclasses.fields(instance)}
    used = set()
    prefix = section + "."
    for key, value in config.items():
        if not key.startswith(prefix):
            continue
        name = key[len(prefix):]
        if name not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(instance, name)
        target_type = type(current) if current is not None else str
        try:
            setattr(instance, name, _coerce(value, target_type))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        used.add(key)
    # re-run dataclass validation if the class defines it
    post = getattr(instance, "__post_init__", None)
    if post is not None and used:
        try:
            post()
        except ValueError as exc:
            # a message that starts with a field name names the key
            message = str(exc)
            if message.split(" ", 1)[0] in fields:
                message = prefix + message
            raise ConfigError(message) from exc
    return used


def section_value(config: dict, key: str, default):
    """Single-value lookup with type coercion against the default."""
    if key not in config:
        return default
    try:
        return _coerce(config[key], type(default))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def dump_config(pairs: dict) -> str:
    """Serializes resolved settings back to the flat format."""
    lines = []
    for key in sorted(pairs):
        value = pairs[key]
        if isinstance(value, (tuple, list)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
