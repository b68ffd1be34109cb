"""Run manifest: the key each stage last ran under and what it produced.

A stage's key hashes what the stage reads: its settings and input-file
digests, and the artifact hashes recorded by every earlier stage. A
stage may be skipped on rerun only when its recorded key equals the new
one and every artifact it lists still exists with the recorded content
hash. Anything else forces re-execution. A manifest that cannot be read
or holds no keys (an older format) counts as absent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

MANIFEST_NAME = "manifest.json"


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Per stage, one record `{"key", "artifacts", "seconds"}`; artifacts map relative path to sha256."""

    root: Path
    stages: dict[str, dict] = field(default_factory=dict)

    @property
    def path(self) -> Path:
        return self.root / MANIFEST_NAME

    @classmethod
    def load(cls, root: Path) -> "RunManifest":
        """The manifest under `root`; a missing, unreadable or keyless one loads empty."""
        manifest = cls(root=root)
        try:
            stages = json.loads(manifest.path.read_text(encoding="utf-8"))["stages"]
            if all(isinstance(r["key"], str) and isinstance(r["artifacts"], dict) for r in stages.values()):
                manifest.stages = stages
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            pass
        return manifest

    def can_skip(self, stage: str, key: str) -> bool:
        record = self.stages.get(stage)
        if record is None or record["key"] != key:
            return False
        for relpath, expected in record["artifacts"].items():
            target = self.root / relpath
            if not target.exists() or file_sha256(target) != expected:
                return False
        return True

    def record_stage(self, stage: str, key: str, artifacts: list[Path], seconds: float) -> None:
        hashed = {str(path.relative_to(self.root)): file_sha256(path) for path in artifacts}
        self.stages[stage] = {"key": key, "artifacts": hashed, "seconds": seconds}

    def save(self) -> None:
        """Write only when contents changed, so clean reruns leave it alone; a crash mid-write keeps the old file."""
        payload = json.dumps({"stages": self.stages}, indent=2, sort_keys=True) + "\n"
        if self.path.exists() and self.path.read_text(encoding="utf-8") == payload:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        partial = self.path.with_name(self.path.name + ".tmp")
        partial.write_text(payload, encoding="utf-8")
        partial.replace(self.path)
