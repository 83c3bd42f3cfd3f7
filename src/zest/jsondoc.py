"""The one reader behind every ``from_json`` constructor."""

from __future__ import annotations

import json


def read_json(source) -> dict:
    """Return the document of a JSON file path, JSON text, or an already-parsed dict.

    Text that starts with ``{`` is parsed as JSON; anything else is read as
    a path. Malformed JSON raises ValueError and a missing file OSError.
    """
    if isinstance(source, dict):
        return source
    source = str(source)
    if source.lstrip().startswith("{"):
        return json.loads(source)
    with open(source, encoding="utf-8") as fh:
        return json.load(fh)
