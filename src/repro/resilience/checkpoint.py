"""Atomic checkpoints of the BFS coordinator state.

At every wave boundary the enumeration coordinator's full state is
captured by four values: the interned :class:`~repro.enumeration.graph.StateGraph`
(state keys in discovery order + the recorded arcs, from which the
seen-arc set is reconstructed exactly), the frontier wave (the ids of
every discovered-but-unexpanded state, in id order), the count of
transitions explored, and the number of completed waves.  Because state
expansion is a pure function of the model, resuming from a checkpoint
produces a **bit-identical** final graph -- the golden test in
``tests/test_resilience.py`` compares ``StateGraph.to_json`` byte-for-byte
against an uninterrupted run.

On-disk format (``repro.checkpoint/1``)
---------------------------------------
``<dir>/wave<NNNNNN>.ckpt`` is the JSON payload; ``wave<NNNNNN>.json`` is
a small manifest carrying a SHA-256 checksum of the payload bytes plus
summary fields (states, edges, frontier size, model, config digest).
Both are written via temp-file + ``os.replace``, manifest last, so a
manifest always refers to a complete payload.  ``load`` verifies the
checksum and the schema; a corrupt or tampered checkpoint is *refused*
(:class:`CheckpointError`), never silently resumed.

The ``config_digest`` field fingerprints the model declaration (state
variables, domains, resets, choice points) and the enumeration mode, so a
checkpoint can never be resumed against a different model or flags.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.resilience.atomic import atomic_write_text

logger = logging.getLogger("repro.resilience")

#: Checkpoint format version; embedded in payloads and manifests.
CHECKPOINT_SCHEMA = "repro.checkpoint/1"

_NAME_RE = re.compile(r"^wave(\d{6,})$")


class CheckpointError(Exception):
    """A checkpoint is missing, corrupt, or belongs to a different run."""


def model_digest(model, record_all_conditions: bool = False) -> str:
    """Fingerprint of a model declaration + enumeration mode.

    Two runs may exchange checkpoints only when their digests match: same
    state variables (names, domains, resets), same choice points, same
    ``record_all_conditions`` mode.  The transition *function* cannot be
    hashed (it is an arbitrary closure), so the digest is a strong guard
    against config mixups, not a cryptographic identity.
    """
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "model": model.name,
        "state_vars": [
            (v.name, repr(v.type), repr(v.reset)) for v in model.state_vars
        ],
        "choices": [(c.name, repr(c.type)) for c in model.choices],
        "bits": model.state_bits(),
        "record_all_conditions": bool(record_all_conditions),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def build_payload(
    graph,
    frontier: Sequence[int],
    transitions_explored: int,
    waves_completed: int,
    config_digest: str,
    model_name: str,
) -> Dict[str, Any]:
    """The JSON-able coordinator snapshot every executor of the engine shares."""
    return {
        "schema": CHECKPOINT_SCHEMA,
        "model": model_name,
        "config_digest": config_digest,
        "graph_json": graph.to_json(),
        "frontier": list(frontier),
        "transitions_explored": transitions_explored,
        "waves_completed": waves_completed,
    }


def resolve_resume(
    resume,
    checkpoint: Optional["CheckpointConfig"],
    config_digest: str,
) -> Optional[Dict[str, Any]]:
    """Normalize an enumerator's ``resume=`` argument to a verified payload.

    ``resume`` may be ``None``/``False`` (fresh run), ``True`` (load the
    newest verifiable checkpoint from ``checkpoint.store``), or an
    already-loaded payload dict.  The payload's config digest must match
    the current model + flags; anything else is a :class:`CheckpointError`
    -- resuming across configs would silently corrupt the graph.
    """
    if not resume:
        return None
    if resume is True:
        if checkpoint is None:
            raise CheckpointError(
                "resume=True needs a checkpoint= store to load from"
            )
        payload = checkpoint.store.load_latest()
        if payload is None:
            raise CheckpointError(
                f"no resumable checkpoint in {checkpoint.store.directory}"
            )
    elif isinstance(resume, dict):
        payload = resume
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"resume payload has schema {payload.get('schema')!r}, "
                f"expected {CHECKPOINT_SCHEMA!r}"
            )
    else:
        raise TypeError(
            f"resume must be None, True, or a checkpoint payload dict, "
            f"got {type(resume).__name__}"
        )
    if payload.get("config_digest") != config_digest:
        raise CheckpointError(
            "checkpoint was written by a different model/config "
            f"(digest {str(payload.get('config_digest'))[:12]} != "
            f"{config_digest[:12]}); refusing to resume"
        )
    return payload


class CheckpointConfig:
    """How an enumeration run checkpoints: where, and how often.

    Parameters
    ----------
    store:
        A :class:`CheckpointStore` (or a directory path to make one in).
    every_waves:
        Write a checkpoint each time this many further waves complete.
    """

    def __init__(self, store: Union["CheckpointStore", str, Path],
                 every_waves: int = 1):
        if not isinstance(store, CheckpointStore):
            store = CheckpointStore(store)
        if every_waves < 1:
            raise ValueError(f"every_waves must be >= 1, got {every_waves}")
        self.store = store
        self.every_waves = every_waves


class CheckpointStore:
    """Directory of integrity-checked enumeration checkpoints."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint directory {self.directory} is unusable: {exc}"
            ) from exc

    # -- paths ---------------------------------------------------------------

    def payload_path(self, name: str) -> Path:
        return self.directory / f"{name}.ckpt"

    def manifest_path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    # -- writing -------------------------------------------------------------

    def save(self, payload: Dict[str, Any]) -> str:
        """Atomically persist ``payload``; returns the checkpoint name.

        The payload is written first, then the manifest (carrying the
        payload's SHA-256), so an interruption between the two leaves an
        orphan payload but never a manifest pointing at garbage.
        """
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"refusing to save payload with schema {payload.get('schema')!r}"
            )
        name = f"wave{payload['waves_completed']:06d}"
        text = json.dumps(payload, sort_keys=True)
        blob = text.encode("utf-8")
        atomic_write_text(self.payload_path(name), text)
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "name": name,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "size": len(blob),
            "model": payload.get("model"),
            "config_digest": payload.get("config_digest"),
            "waves_completed": payload["waves_completed"],
            "frontier": len(payload.get("frontier", [])),
            "transitions_explored": payload.get("transitions_explored"),
            "created": time.time(),
        }
        atomic_write_text(
            self.manifest_path(name), json.dumps(manifest, indent=2, sort_keys=True)
        )
        logger.info(
            "checkpoint %s written (%d bytes, %d frontier states)",
            name, len(blob), manifest["frontier"],
        )
        return name

    # -- reading -------------------------------------------------------------

    def names(self) -> List[str]:
        """Checkpoint names present on disk, oldest wave first."""
        found = []
        for path in self.directory.glob("wave*.ckpt"):
            match = _NAME_RE.match(path.stem)
            if match:
                found.append((int(match.group(1)), path.stem))
        return [name for _, name in sorted(found)]

    def latest(self) -> Optional[str]:
        names = self.names()
        return names[-1] if names else None

    def manifest(self, name: str) -> Dict[str, Any]:
        path = self.manifest_path(name)
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {name} has no readable manifest: {exc}"
            ) from exc

    def verify(self, name: str) -> Optional[str]:
        """Integrity-check one checkpoint; returns a problem or ``None``."""
        try:
            manifest = self.manifest(name)
        except CheckpointError as exc:
            return str(exc)
        if manifest.get("schema") != CHECKPOINT_SCHEMA:
            return f"manifest schema is {manifest.get('schema')!r}"
        try:
            blob = self.payload_path(name).read_bytes()
        except OSError as exc:
            return f"payload unreadable: {exc}"
        digest = hashlib.sha256(blob).hexdigest()
        if digest != manifest.get("sha256"):
            return (f"payload checksum mismatch: manifest says "
                    f"{str(manifest.get('sha256'))[:12]}, file is {digest[:12]}")
        return None

    def load(self, name: str) -> Dict[str, Any]:
        """Return a verified checkpoint payload; raise on any corruption."""
        problem = self.verify(name)
        if problem:
            raise CheckpointError(f"checkpoint {name} failed verification: {problem}")
        payload = json.loads(self.payload_path(name).read_text())
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {name} has schema {payload.get('schema')!r}, "
                f"expected {CHECKPOINT_SCHEMA!r}"
            )
        return payload

    def load_latest(self) -> Optional[Dict[str, Any]]:
        """The newest verifiable checkpoint, or ``None`` if the store is empty.

        Corrupt checkpoints are skipped (with a warning) in favour of the
        newest older one that still verifies -- a half-written or tampered
        latest snapshot must not make the whole run unresumable.
        """
        for name in reversed(self.names()):
            problem = self.verify(name)
            if problem is None:
                return self.load(name)
            logger.warning("skipping checkpoint %s: %s", name, problem)
        return None

    # -- housekeeping --------------------------------------------------------

    def prune(self, keep: int = 1) -> int:
        """Delete all but the newest ``keep`` checkpoints; returns count removed."""
        names = self.names()
        doomed = names[: max(0, len(names) - keep)] if keep > 0 else names
        removed = 0
        for name in doomed:
            for path in (self.payload_path(name), self.manifest_path(name)):
                try:
                    path.unlink()
                except OSError:
                    continue
            removed += 1
        return removed
