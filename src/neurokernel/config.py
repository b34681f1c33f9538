"""Key-value configuration files, and the one reader of every CLI input file.

``read_text`` reads a config or script file as UTF-8, and ``directives``
numbers its lines; each caller keeps its own grammar and messages.

Format: one ``key = value`` pair per line, '#' starts a comment. The
keys are the fields of PoolConfig, MatmulConfig and SchedulerConfig, whose
defaults apply to keys not set. Values are integers; a field whose default
is a tuple takes a comma-separated list. The CLI looks for a path in
--config first, then the NEUROKERNEL_CONFIG environment variable.

An unknown key or a key set twice is rejected with the line that holds
it, so a typo cannot silently leave a default in force.
"""

from __future__ import annotations

import os
from dataclasses import fields
from pathlib import Path

from .errors import InvalidArgument, check_type, shown

ENV_VAR = "NEUROKERNEL_CONFIG"


def _config_types() -> tuple[type, ...]:
    """The dataclasses whose fields are the keys, imported here: reading a scenario imports none."""
    from .mempool import PoolConfig
    from .scheduler import SchedulerConfig
    from .tensor import MatmulConfig

    return PoolConfig, MatmulConfig, SchedulerConfig


def read_text(path: str | Path) -> str:
    try:
        return Path(check_type(path, (str, os.PathLike), "path")).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise InvalidArgument(f"cannot read {shown(path)}: {exc}") from None


def directives(text: str) -> list[tuple[int, str]]:
    """(line number, line) for each line left non-blank once its '#' comment is cut."""
    lines = enumerate(check_type(text, str, "config or script text").splitlines(), start=1)
    return [(lineno, line) for lineno, raw in lines if (line := raw.split("#", 1)[0].strip())]


def parse_config(text: str) -> dict:
    known = {f.name: f for config_type in _config_types() for f in fields(config_type)}
    values: dict[str, int | tuple[int, ...]] = {}
    for lineno, line in directives(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidArgument(f"config line {lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise InvalidArgument(f"config line {lineno}: unknown key {shown(key)}")
        if key in values:
            raise InvalidArgument(f"config line {lineno}: duplicate key {shown(key)}")
        try:
            if isinstance(known[key].default, tuple):  # a tuple default takes a comma-separated list
                values[key] = tuple(int(part.strip()) for part in value.split(","))
            else:
                values[key] = int(value)
        except ValueError:
            raise InvalidArgument(
                f"config line {lineno}: {key} needs integer value(s), got {shown(value)}"
            ) from None
    return values


def resolve_config(cli_path: str | None) -> dict:
    """CLI flag wins over the environment variable; absent both is empty."""
    check_type(cli_path, (str, os.PathLike, type(None)), "config path")
    path = cli_path or os.environ.get(ENV_VAR)
    return parse_config(read_text(path)) if path else {}


def config_from(config_type, values: dict, **flags):
    """A ``config_type`` dataclass from the file's values for its fields.

    A flag that is not None overrides the file; a field set by neither keeps
    the dataclass default, so the defaults live only there.
    """
    if config_type not in _config_types():
        raise InvalidArgument(f"not a config type: {shown(config_type)}")
    check_type(values, dict, "config values")
    kwargs = {f.name: values[f.name] for f in fields(config_type) if f.name in values}
    kwargs.update((name, flag) for name, flag in flags.items() if flag is not None)
    return config_type(**kwargs)
