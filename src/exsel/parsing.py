"""Strict JSON extraction from model output."""

from __future__ import annotations

import json


def strip_code_fence(text: str) -> str:
    """Drop a single surrounding markdown code fence, if present."""
    stripped = text.strip()
    if not stripped.startswith("```"):
        return stripped
    lines = stripped.splitlines()
    if len(lines) < 2 or not lines[-1].strip().startswith("```"):
        return stripped
    return "\n".join(lines[1:-1]).strip()


def parse_json_payload(text: str) -> object | None:
    """Parse model output as JSON after fence removal; None when invalid.

    Invalid includes a reply json reads but cannot hold: an integer past Python's digit limit (a ValueError,
    the base of JSONDecodeError) or nesting past the recursion limit.
    """
    try:
        return json.loads(strip_code_fence(text))
    except (ValueError, RecursionError):
        return None


def parse_label_map(text: str) -> dict[str, list[str]] | None:
    """Parse a label -> list-of-strings object; None when the shape is off."""
    payload = parse_json_payload(text)
    if not isinstance(payload, dict):
        return None
    result: dict[str, list[str]] = {}
    for label, values in payload.items():
        if not isinstance(label, str):
            return None
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            return None
        result[label] = list(values)
    return result
