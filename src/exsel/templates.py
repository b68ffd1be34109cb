"""Default prompt templates.

All three are editable: pipeline configs may point at replacement text
files. Placeholders use str.format names: {labels}, {chunk}, {count}.
"""

from __future__ import annotations

from pathlib import Path

POSITIVE_GENERATION_TEMPLATE = """\
You write training data for an entity extraction task.
Labels: {labels}

Here is a sample passage from the domain corpus:
---
{chunk}
---

Write {count} new self-contained, sentence-level examples in the style and \
vocabulary of the passage. Every example must state at least one extractable \
value for at least one label, verbatim in its text. Vary sentence structure; \
do not copy the passage.

Respond with a JSON array of exactly {count} objects, each shaped like
{{"text": "...", "entities": {{"<label>": ["<value>"]}}}}
and nothing else.
"""

NEGATIVE_GENERATION_TEMPLATE = """\
You write training data for an entity extraction task.
Labels: {labels}

Here is a sample passage from the domain corpus:
---
{chunk}
---

Write {count} new self-contained, sentence-level examples in the style and \
vocabulary of the passage that contain NO extractable value for any label. \
Stay on topic; the sentences must read naturally.

Respond with a JSON array of exactly {count} objects, each shaped like
{{"text": "...", "entities": {{}}}}
and nothing else.
"""

EXTRACTION_INSTRUCTION_TEMPLATE = """\
You extract entity values from text.
Labels: {labels}

For every label, find all values stated verbatim in the input text. Respond \
with a single JSON object mapping each label that has at least one value to \
the list of its values, exactly as they appear in the text. Respond with {{}} \
when nothing is extractable. No commentary.
"""

GENERATION_SYSTEM_PROMPT = "You produce strictly formatted JSON training data."


def load_template(name: str, path: Path | str | None, default: str, **fill: object) -> str:
    """Read a template file, or fall back to the built-in default, and format it once with `fill`, the placeholders a
    run fills in: one it cannot fill raises ValueError naming `name`, the field that names the file, before any call."""
    template = default if path is None else Path(path).read_text(encoding="utf-8")
    try:
        template.format(**fill)
    except (LookupError, ValueError, AttributeError, TypeError) as exc:
        raise ValueError(f"{name} {path}: the template does not format: {exc!r}") from exc
    return template
