"""On-disk cache for computed graded characters.

Entries are JSON files named by the SHA-256 of a canonical construction
descriptor; each file stores the descriptor next to the character so a
hit can be validated instead of trusted.  Every descriptor is stamped
with ENGINE_VERSION, so an entry written by an older engine is a miss.
The directory comes from the KRFL_CACHE_DIR environment variable,
defaulting to .krfl-cache in the working directory.  Plain JSON keeps
the cache inspectable and avoids executing anything on load.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .modules import GradedCharacter

ENV_VAR = "KRFL_CACHE_DIR"
DEFAULT_DIR = ".krfl-cache"
# Bump whenever a change to the engine or to the entry format could change
# a stored character.  Version 2: lowering-only closures; entries written
# before versioning carry no "engine" key and never match.
ENGINE_VERSION = 2


def cache_dir() -> Path:
    return Path(os.environ.get(ENV_VAR) or DEFAULT_DIR)


def _stamped(desc):
    return {**desc, "engine": ENGINE_VERSION}


def descriptor_key(desc) -> str:
    blob = json.dumps(desc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _entry_path(desc) -> Path:
    return cache_dir() / (descriptor_key(desc) + ".json")


def load(desc):
    """The cached character for this descriptor, or None."""
    desc = _stamped(desc)
    path = _entry_path(desc)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("descriptor") != desc:
        return None
    try:
        return GradedCharacter.from_json(data["character"])
    except (KeyError, TypeError, ValueError):
        return None


def store(desc, gc: GradedCharacter):
    desc = _stamped(desc)
    d = cache_dir()
    path = _entry_path(desc)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    entry = {"descriptor": desc, "character": gc.to_json()}
    try:
        d.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
        tmp.replace(path)
    except OSError as exc:
        raise ValueError(f"cannot write the cache in {d}: {exc.strerror}") from exc


def cached_character(desc, compute, enabled=True) -> GradedCharacter:
    """Look up desc, computing and storing on a miss."""
    if enabled:
        hit = load(desc)
        if hit is not None:
            return hit
    gc = compute()
    if enabled:
        store(desc, gc)
    return gc
