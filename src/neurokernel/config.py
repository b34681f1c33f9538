"""Key-value configuration files, and the one reader of every CLI input file.

``read_text`` reads a config or script file as UTF-8, and ``directives``
numbers its lines; each caller keeps its own grammar and messages.

Format: one ``key = value`` pair per line, '#' starts a comment. Values
are integers; ``large_page_classes`` takes a comma-separated list. The
CLI looks for a path in --config first, then the NEUROKERNEL_CONFIG
environment variable.

Recognized keys: pool_bytes, block_bytes, large_page_classes, block_size,
worker_count, deprioritize_threshold, batch_size, quantum: the fields of
PoolConfig, MatmulConfig and SchedulerConfig, whose defaults apply to keys
not set. An unknown key or a key set twice is rejected with the line that
holds it, so a typo cannot silently leave a default in force.
"""

from __future__ import annotations

import os
from dataclasses import fields
from pathlib import Path
from typing import Iterator

from .errors import InvalidArgument

ENV_VAR = "NEUROKERNEL_CONFIG"

_LIST_KEYS = {"large_page_classes"}
_KEYS = frozenset({
    "pool_bytes", "block_bytes", "large_page_classes", "block_size",
    "worker_count", "deprioritize_threshold", "batch_size", "quantum",
})


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgument(f"cannot read {path}: {exc}") from None


def directives(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line left non-blank once its '#' comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_config(text: str) -> dict:
    values: dict[str, int | tuple[int, ...]] = {}
    for lineno, line in directives(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidArgument(f"config line {lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise InvalidArgument(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidArgument(f"config line {lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_KEYS:
                values[key] = tuple(int(part.strip()) for part in value.split(","))
            else:
                values[key] = int(value)
        except ValueError:
            raise InvalidArgument(
                f"config line {lineno}: {key} needs integer value(s), got {value!r}"
            ) from None
    return values


def resolve_config(cli_path: str | None) -> dict:
    """CLI flag wins over the environment variable; absent both is empty."""
    path = cli_path or os.environ.get(ENV_VAR)
    return parse_config(read_text(path)) if path else {}


def config_from(config_type, values: dict, **flags):
    """A ``config_type`` dataclass from the file's values for its fields.

    A flag that is not None overrides the file; a field set by neither keeps
    the dataclass default, so the defaults live only there.
    """
    kwargs = {f.name: values[f.name] for f in fields(config_type) if f.name in values}
    kwargs.update((name, flag) for name, flag in flags.items() if flag is not None)
    return config_type(**kwargs)
