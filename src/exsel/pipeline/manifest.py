"""Run manifest: records which stages completed and what they produced.

A stage may be skipped on rerun only when the config hash matches, the
stage is marked complete, and every artifact it lists still exists with
the recorded content hash. Anything else forces re-execution.
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
class StageRecord:
    completed: bool = False
    artifacts: dict[str, str] = field(default_factory=dict)
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "completed": self.completed,
            "artifacts": dict(sorted(self.artifacts.items())),
            "seconds": self.seconds,
        }


@dataclass
class RunManifest:
    root: Path
    config_hash: str
    stages: dict[str, StageRecord] = field(default_factory=dict)

    @property
    def path(self) -> Path:
        return self.root / MANIFEST_NAME

    @classmethod
    def load_or_create(cls, root: Path, config_hash: str) -> "RunManifest":
        """Existing manifest is honored only when its config hash matches."""
        manifest = cls(root=root, config_hash=config_hash)
        path = manifest.path
        if not path.exists():
            return manifest
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return manifest
        if raw.get("config_hash") != config_hash:
            return manifest
        for name, record in raw.get("stages", {}).items():
            manifest.stages[name] = StageRecord(
                completed=bool(record.get("completed", False)),
                artifacts=dict(record.get("artifacts", {})),
                seconds=float(record.get("seconds", 0.0)),
            )
        return manifest

    def can_skip(self, stage: str) -> bool:
        record = self.stages.get(stage)
        if record is None or not record.completed:
            return False
        for relpath, expected in record.artifacts.items():
            target = self.root / relpath
            if not target.exists() or file_sha256(target) != expected:
                return False
        return True

    def record_stage(self, stage: str, artifacts: list[Path], seconds: float) -> None:
        hashed = {
            str(path.relative_to(self.root)): file_sha256(path) for path in artifacts
        }
        self.stages[stage] = StageRecord(completed=True, artifacts=hashed, seconds=seconds)

    def as_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "stages": {name: record.as_dict() for name, record in self.stages.items()},
        }

    def save(self) -> None:
        """Write only when contents changed, so clean reruns leave the file alone."""
        payload = json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"
        if self.path.exists() and self.path.read_text(encoding="utf-8") == payload:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(payload, encoding="utf-8")
