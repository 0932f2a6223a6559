"""The package's one JSON file reader and one text file writer."""

from __future__ import annotations

import json

from .errors import ConfigError


def read_json(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at *path*; a file that cannot be read
    or holds no JSON object raises a ConfigError that names it as *what*."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"cannot read {what} {path}: not a JSON object")
    return doc


def write_text(path, text: str) -> None:
    """Write *text* to *path* as UTF-8, with its line ends as given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
