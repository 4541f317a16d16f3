"""Persistent, content-addressed cache of pipeline artifacts.

The expensive intermediates of the methodology -- the enumerated state
graph, the transition tours, the generated vector traces -- are
*design-dependent but bug-independent*: one build can evaluate any number
of candidate (possibly bug-injected) implementations.  This module makes
that reuse survive across processes by storing
:class:`~repro.core.pipeline.PipelineArtifacts` on disk under a
content-addressed key.

Keying scheme
-------------
The pipeline stores **per-phase** entries (translated model
fingerprint, state graph, tours, traces) addressed by :func:`phase_key`:
each phase's key is the SHA-256 of a canonical JSON payload of

- ``schema``: the on-disk format version (:data:`CACHE_SCHEMA_VERSION`);
- ``code``: a *per-phase* code digest (:func:`phase_code_version`) that
  hashes only the source subtrees feeding that phase
  (:data:`PHASE_MODULES`) -- so an edit to ``obs/`` or ``serve/``
  invalidates nothing, and an edit to ``tour/`` keeps the enumerated
  graph.  The RTL simulator's own units (:data:`PHASE_EXCLUDED`) only
  run vectors: they key the verdict tables (below) and no artifact
  phase;
- ``parent``: the upstream phase's key, which chains every upstream
  input in;
- ``payload``: the phase's own inputs -- the model config (any dataclass
  config as a field dict, anything else as its type-tagged ``repr``) and
  model-edit digests, ``record_all_conditions``,
  ``max_instructions_per_trace``, ``seed``.

:func:`pipeline_phase_keys` derives the full chain for one build.
Changing any input changes the key, so stale entries are never *read*
-- they are simply orphaned (and can be removed with
:meth:`ArtifactCache.prune`).

Deliberately **absent** from the key: ``jobs`` (enumeration, vector
generation, and comparison workers), comparison scheduling/``chunksize``,
and transition-event memoization.  All of these are output-invariant -- every configuration
produces bit-identical artifacts (golden-tested) -- so a cached build is
shared across all of them.

Storage format
--------------
``<cache_dir>/<key>.pkl`` holds the pickled artifacts; ``<key>.json`` is a
manifest carrying the pickle's SHA-256 (computed at store time) plus the
key inputs for debugging.  Writes go through a temporary file plus
:func:`os.replace`, so a reader never sees a torn entry.

Integrity
---------
:meth:`ArtifactCache.load` re-hashes the pickle and compares it against
the manifest digest *before* unpickling; an entry that fails the check --
or fails to unpickle -- is **quarantined**: the pickle is renamed to
``<key>.corrupt`` (preserving the evidence for debugging), a WARNING is
logged, and the load reports a miss so the caller rebuilds.  A poisoned
cache entry therefore costs one rebuild, never a wrong answer.

Single-flight builds
--------------------
Two processes missing on the same key used to both build (~minutes of
duplicated work) and race their stores.  :meth:`ArtifactCache.single_flight`
is a cross-process per-key build lock -- an ``flock(2)`` on
``<key>.lock`` -- with the standard double-checked protocol: miss, take
the lock, *re-check* the cache (the previous holder may have stored
while we waited), build only if still absent.  ``flock`` locks die with
their holder, so a SIGKILLed builder can never wedge the key; a
*stale lock file* left behind is broken (unlinked and re-acquired) once
it exceeds ``stale_after`` without a live flock holder.  The
``repro serve`` daemon, concurrent CLI runs, and parallel campaigns all
share this one mutex rather than owning their own.

:meth:`store` also bumps a per-key ``<key>.builds`` counter file, so a
test (or an operator) can assert "N concurrent identical submissions
triggered exactly one build" from the filesystem alone.

Verdict tables
--------------
Besides the artifact phases the cache keeps one **verdict table** per
comparison key (:func:`verdict_key`): the :class:`ComparisonResult` rows
of traces already simulated under one RTL configuration, addressed by a
digest of each trace's content (see :mod:`repro.harness.compare`).  The
key hashes the ``verdicts`` code digest -- ``harness/``, ``pp/`` and
``vectors/`` *including* the simulator units of :data:`PHASE_EXCLUDED`,
so an RTL edit re-keys the verdicts but no artifact phase -- plus the
core configuration, the inbox tasks, ``strict_writes`` and
``max_cycles``.  A table keeps at most :data:`VERDICT_TABLE_ROWS` most
recently used rows.  Every validate rewrites its table; those stores
build nothing and leave ``<key>.builds`` alone.  A corrupt table is
quarantined like any entry and loads as empty, so every trace is
simulated again.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple

try:  # POSIX; the lock degrades to a no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from repro.resilience.atomic import atomic_write_text

logger = logging.getLogger("repro.cache")

#: Bump when the pickled artifact layout changes incompatibly.
CACHE_SCHEMA_VERSION = 1

#: Per-phase code digests, memoized per process (:func:`phase_code_version`).
_PHASE_CODE_VERSIONS: Dict[str, str] = {}
#: Wall-clock time at which each memoized digest was computed.  Every
#: manifest records it, so an operator can tell "keys computed from a
#: long-lived daemon's startup-time sources" apart from keys computed
#: after an in-place upgrade (see :func:`refresh_phase_code_versions`).
_PHASE_CODE_COMPUTED_AT: Dict[str, float] = {}

#: Pipeline phases, in dependency order.  Each phase's cache entry is keyed
#: by its own inputs plus a digest of only the source trees that feed it
#: (:data:`PHASE_MODULES`), chained through the parent phase's key -- so an
#: edit to ``obs/``, ``serve/``, ``core/`` or the CLI invalidates nothing,
#: and an edit to e.g. ``tour/`` invalidates tours and traces but keeps the
#: enumerated graph.
PHASES = ("model", "graph", "tours", "traces")

#: The build flag each artifact phase keys on, in dataflow order: the
#: enumeration mode, the Fig. 3.3 per-trace split limit and the vector
#: seed.  The model phase keys on the config and edits instead.
PHASE_FLAGS: Dict[str, str] = {
    "graph": "record_all_conditions",
    "tours": "max_instructions_per_trace",
    "traces": "seed",
}

#: Source subtrees (relative to the ``repro`` package root) hashed into
#: each phase's code digest.  Upstream code reaches downstream phases
#: through the *key chain* (a model-phase change alters ``key_model``,
#: which is folded into ``key_graph``, and so on), so each set only names
#: the code that feeds its phase directly:
#:
#: - ``model``: the Synchronous-Murphi core, the HDL translator and the PP
#:   model builders -- everything that determines the translated model.
#: - ``graph``: the BFS engine plus ``smurphi`` (the state codec and the
#:   compiled transition kernel live there and shape expansion directly).
#: - ``tours``: the Fig. 3.3 generators plus ``vectors`` (the instruction
#:   cost function and transition-event memo are defined there).
#: - ``traces``: the vector generator plus ``pp`` (ISA instruction
#:   synthesis and the stimulus-queue layout live under ``pp/``).
#:
#: ``incremental`` appears in every phase that the incremental layer can
#: *produce* (graph/tours/traces): a bug fix to the replay or splice code
#: must invalidate entries that code may have written.  Absent everywhere:
#: ``obs``, ``serve``, ``core``, ``cli``, ``harness``, ``resilience``,
#: ``errata``, ``bugs`` -- none of them feed artifact bytes.
PHASE_MODULES: Dict[str, tuple] = {
    "model": ("smurphi", "translate", "pp", "hdl"),
    "graph": ("enumeration", "smurphi", "incremental"),
    "tours": ("tour", "vectors", "incremental"),
    "traces": ("vectors", "pp", "incremental"),
}

#: Files inside the phase subtrees that no artifact phase digest hashes:
#: the RTL comparison simulator's own units.  They run generated vectors
#: (step 4) and feed no artifact bytes -- the vector generator reads only
#: the line size (``pp/rtl/memory.py``) and the stimulus queue layout
#: (``pp/rtl/stimulus.py``), which stay hashed, as does every other or new
#: file under ``pp/``.  They do key the verdict tables: the ``verdicts``
#: digest (:data:`VERDICT_MODULES`) hashes them with everything else.
#: ``tests/test_artifact_cache.py`` checks that no hashed module of a
#: phase subtree imports one of these.
PHASE_EXCLUDED = frozenset(
    f"pp/rtl/{unit}.py"
    for unit in ("core", "icache", "dcache", "memctrl", "inbox", "outbox", "regfile")
)


#: Name of the code digest that keys the verdict tables.  It is not an
#: artifact phase (not in :data:`PHASES`): nothing downstream chains on it.
VERDICTS = "verdicts"

#: Source subtrees hashed into the ``verdicts`` code digest: the
#: comparison harness, the RTL simulator and the specification (``pp/``,
#: simulator units included) and the trace layout (``vectors/``).
VERDICT_MODULES = ("harness", "pp", "vectors")

#: Most recently used rows one verdict table keeps.  A table is loaded and
#: stored whole on every validate with a cache, so the cap bounds that cost
#: (about 130 KB of pickle when full); rows past it are the least recently
#: used.
VERDICT_TABLE_ROWS = 4096


def _digest_tree(
    package_root: Path, subdirs: tuple, excluded: frozenset = PHASE_EXCLUDED
) -> str:
    """SHA-256 over relative path + contents of the ``.py`` files under
    the named subtrees of ``package_root``, minus ``excluded``."""
    digest = hashlib.sha256()
    sources = []
    for sub in subdirs:
        sources.extend(
            source for source in (package_root / sub).rglob("*.py")
            if source.relative_to(package_root).as_posix() not in excluded
        )
    sources.sort()
    for source in sources:
        digest.update(str(source.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(source.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _package_root() -> Path:
    return Path(__file__).resolve().parent.parent


def _code_sources(phase: str) -> tuple:
    """``(subtrees, excluded files)`` hashed into ``phase``'s code digest."""
    if phase == VERDICTS:
        return VERDICT_MODULES, frozenset()
    if phase not in PHASE_MODULES:
        raise ValueError(
            f"unknown phase {phase!r}; expected one of {PHASES + (VERDICTS,)}"
        )
    return PHASE_MODULES[phase], PHASE_EXCLUDED


def phase_code_version(
    phase: str, package_root: Optional[Path] = None, refresh: bool = False
) -> str:
    """Digest of only the source subtrees feeding ``phase`` (an artifact
    phase, or :data:`VERDICTS` for the verdict tables).

    Memoized per process (for the real package root); ``refresh=True``
    recomputes, and ``package_root`` overrides the tree being hashed
    (tests point it at synthetic trees to assert the invalidation matrix).
    """
    subdirs, excluded = _code_sources(phase)
    if package_root is not None:
        return _digest_tree(Path(package_root), subdirs, excluded)
    if refresh or phase not in _PHASE_CODE_VERSIONS:
        _PHASE_CODE_VERSIONS[phase] = _digest_tree(
            _package_root(), subdirs, excluded
        )
        _PHASE_CODE_COMPUTED_AT[phase] = time.time()
    return _PHASE_CODE_VERSIONS[phase]


def refresh_phase_code_versions() -> None:
    """Recompute every phase digest, and the verdict digest, from the
    sources on disk now.

    The memo is a staleness hazard for long-lived processes: a
    ``repro serve`` daemon upgraded in place would keep serving keys
    computed from its startup-time sources.  The daemon calls this
    before replaying its journal.
    """
    for phase in PHASES + (VERDICTS,):
        phase_code_version(phase, refresh=True)


def phase_code_info(phase: str) -> Dict[str, Any]:
    """Manifest provenance for an entry of ``phase``: the code digest its
    key was computed with (the ``splice`` sidecar keys with the tours
    digest) and the wall-clock time that digest was computed."""
    code_phase = "tours" if phase == "splice" else phase
    return {
        "code_version": phase_code_version(code_phase),
        "code_computed_at": _PHASE_CODE_COMPUTED_AT.get(code_phase),
    }


def config_payload(model_config: Any) -> Any:
    """Canonical key payload for a model config.

    Dataclasses key by their field dict.  Anything else falls back to
    ``repr`` -- but tagged with the concrete type's qualified name, so two
    *distinct* config classes whose reprs happen to collide (e.g. both
    printing ``Config(n=1)``) still address different cache entries.
    """
    if dataclasses.is_dataclass(model_config):
        return dataclasses.asdict(model_config)
    return {
        "type": f"{type(model_config).__module__}.{type(model_config).__qualname__}",
        "repr": repr(model_config),
    }


def phase_key(
    phase: str, code: str, parent: Optional[str], payload: Any
) -> str:
    """Content address for one phase's artifact.

    ``code`` is the phase's code digest, ``parent`` the upstream phase's
    key (chaining upstream inputs in), ``payload`` the phase-specific
    inputs (flags, seed, config).
    """
    blob = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "phase": phase,
            "code": code,
            "parent": parent,
            "payload": payload,
        },
        sort_keys=True,
        default=repr,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def pipeline_phase_keys(
    model_config: Any,
    *,
    record_all_conditions: bool = False,
    max_instructions_per_trace: Optional[int] = None,
    seed: int = 0,
    edits: tuple = (),
    code_digests: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Per-phase content addresses for one pipeline build.

    The chain mirrors the pipeline's dataflow: the model key covers config
    plus the semantic digests of any model edits; the graph key adds the
    enumeration mode; the tours key the per-trace split limit; the traces
    key the vector seed (:data:`PHASE_FLAGS`).  ``code_digests`` overrides
    individual phase code digests (tests use it to key a synthetic source
    tree).

    A derived ``"splice"`` key addresses the incremental-support sidecar
    (per-edge instruction costs + the transition-event memo) stored next
    to the tours entry.
    """
    overrides = code_digests or {}

    def code(phase: str) -> str:
        return overrides.get(phase) or phase_code_version(phase)

    keys: Dict[str, str] = {}
    keys["model"] = phase_key(
        "model",
        code("model"),
        None,
        {
            "model_config": config_payload(model_config),
            "edits": [edit.digest() for edit in edits],
        },
    )
    flags = {
        "record_all_conditions": bool(record_all_conditions),
        "max_instructions_per_trace": max_instructions_per_trace,
        "seed": seed,
    }
    parent = keys["model"]
    for phase, flag in PHASE_FLAGS.items():
        keys[phase] = parent = phase_key(
            phase, code(phase), parent, {flag: flags[flag]}
        )
    keys["splice"] = phase_key("tours", code("tours"), keys["tours"], "splice")
    return keys


def verdict_key(
    config: Any,
    *,
    inbox_tasks: Sequence[int],
    strict_writes: bool,
    max_cycles: int,
) -> str:
    """Content address of the verdict table for one comparison setup.

    ``config`` is the RTL :class:`~repro.pp.rtl.core.CoreConfig` (its
    ``bugs`` set keys sorted); the other inputs are the run parameters of
    :func:`~repro.harness.compare.run_trace`.  Scheduling (``jobs``,
    ``chunksize``) and ``stop_on_divergence`` change no verdict and stay
    out of the key.
    """
    fields = dataclasses.asdict(config)
    fields["bugs"] = sorted(fields["bugs"])
    return phase_key(
        VERDICTS,
        phase_code_version(VERDICTS),
        None,
        {
            "core_config": fields,
            "inbox_tasks": list(inbox_tasks),
            "strict_writes": bool(strict_writes),
            "max_cycles": max_cycles,
        },
    )


def load_verdicts(cache: "ArtifactCache", key: str) -> Dict[bytes, tuple]:
    """The verdict table stored under ``key``: trace digest -> result row,
    least recently used first.  A miss, a quarantined entry or a payload
    of the wrong shape is an empty table."""
    table = cache.load(key)
    return table if isinstance(table, dict) else {}


def store_verdicts(
    cache: "ArtifactCache",
    key: str,
    table: Dict[bytes, tuple],
    used: Iterable[Tuple[bytes, tuple]] = (),
) -> None:
    """Persist ``table`` with every ``(digest, row)`` of ``used``, in
    order, as its most recently used rows, keeping only the last
    :data:`VERDICT_TABLE_ROWS` rows.  Concurrent stores race last writer
    wins; a lost row only costs its trace one more simulation."""
    for digest, row in used:
        table.pop(digest, None)
        table[digest] = row
    if len(table) > VERDICT_TABLE_ROWS:
        table = dict(
            itertools.islice(table.items(), len(table) - VERDICT_TABLE_ROWS, None)
        )
    manifest = {"phase": VERDICTS, "rows": len(table)}
    manifest.update(phase_code_info(VERDICTS))
    cache.store(key, table, manifest=manifest, build=False)


class ArtifactCache:
    """On-disk store of pipeline artifacts addressed by :func:`phase_key`.

    >>> cache = ArtifactCache("/tmp/repro-cache")               # doctest: +SKIP
    >>> key = pipeline_phase_keys(PPModelConfig())["graph"]     # doctest: +SKIP
    >>> cache.load(key) or cache.store(key, artifacts)          # doctest: +SKIP
    """

    def __init__(self, cache_dir):
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # Fail before the caller sinks minutes into a build whose
            # artifacts could never be stored.
            raise ValueError(
                f"cache directory {self.cache_dir} is unusable: {exc}"
            ) from exc

    # -- paths ---------------------------------------------------------------

    def pickle_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def manifest_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def quarantine_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.corrupt"

    def lock_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.lock"

    def builds_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.builds"

    # -- single-flight build locking -----------------------------------------

    @contextlib.contextmanager
    def single_flight(
        self,
        key: str,
        poll_interval: float = 0.05,
        stale_after: float = 600.0,
        timeout: Optional[float] = None,
    ) -> Iterator[bool]:
        """Cross-process per-key build lock; yields ``waited``.

        Acquires an exclusive ``flock`` on ``<key>.lock``, blocking (in
        ``poll_interval`` steps, so the process stays signal-responsive)
        while another process holds it.  Yields ``True`` when the lock
        was contended -- the caller should re-check the cache before
        building, because the previous holder probably stored the entry.

        Stale-lock breaking: a lock *file* whose mtime is older than
        ``stale_after`` and whose flock can be taken immediately is the
        debris of a dead builder; it is unlinked and the acquire loop
        re-opens a fresh inode (``flock`` itself dies with its holder,
        so this only tidies the directory -- it can never steal a live
        lock).  ``timeout`` bounds the total wait (``TimeoutError``);
        ``None`` waits forever.  On platforms without ``fcntl`` the lock
        degrades to a no-op -- single-process correctness is unaffected.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield False
            return
        path = self.lock_path(key)
        started = time.monotonic()
        waited = False
        handle = open(path, "a+")
        try:
            while True:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                    # Guard against the unlink race: if another waiter
                    # broke the lock file after we opened it, our flock is
                    # on an orphaned inode no one else can see.  Re-open
                    # and try again on the live path.
                    try:
                        if os.fstat(handle.fileno()).st_ino != path.stat().st_ino:
                            raise OSError("lock file replaced under us")
                    except OSError:
                        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                        handle.close()
                        handle = open(path, "a+")
                        continue
                    # Holders refresh the mtime so a *live* long build is
                    # never mistaken for debris by other waiters.
                    os.utime(path)
                    break
                except OSError:
                    waited = True
                if timeout is not None and time.monotonic() - started > timeout:
                    raise TimeoutError(
                        f"single-flight lock on {key[:12]} not acquired "
                        f"within {timeout}s"
                    )
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    age = 0.0
                if age > stale_after:
                    # Nobody holds the flock (we just failed on *some*
                    # inode -- retry against a fresh one) yet the file is
                    # ancient: break it and loop.
                    logger.warning(
                        "breaking stale single-flight lock for %s "
                        "(age %.0fs > %.0fs)", key[:12], age, stale_after,
                    )
                    with contextlib.suppress(OSError):
                        os.unlink(path)
                    handle.close()
                    handle = open(path, "a+")
                    continue
                time.sleep(poll_interval)
            if waited:
                logger.debug(
                    "single-flight: waited %.3fs for %s",
                    time.monotonic() - started, key[:12],
                )
            yield waited
        finally:
            with contextlib.suppress(OSError):
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    def build_count(self, key: str) -> int:
        """How many times ``store`` built ``key`` (0 if never)."""
        try:
            return int(self.builds_path(key).read_text().strip() or 0)
        except (OSError, ValueError):
            return 0

    # -- operations ----------------------------------------------------------

    def has(self, key: str) -> bool:
        return self.pickle_path(key).is_file()

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a bad entry aside (``<key>.corrupt``) so it is rebuilt.

        Renaming rather than deleting keeps the evidence around for
        debugging (was it a torn write?  bit rot?  a tampered file?) while
        guaranteeing the poisoned bytes can never be loaded again.
        """
        path = self.pickle_path(key)
        try:
            os.replace(path, self.quarantine_path(key))
        except OSError:
            pass  # already gone (e.g. a concurrent prune); nothing to keep
        logger.warning(
            "quarantined corrupt cache entry %s (%s); it will be rebuilt",
            key[:12], reason,
        )

    def load(self, key: str) -> Optional[Any]:
        """Return the cached artifacts for ``key``, or ``None`` on a miss.

        The pickle's SHA-256 is checked against the manifest before
        unpickling; a digest mismatch or unpicklable stream quarantines
        the entry (see :meth:`_quarantine`) and counts as a miss.
        """
        path = self.pickle_path(key)
        started = time.perf_counter()
        try:
            blob = path.read_bytes()
        except OSError:
            logger.debug("cache miss for %s", key[:12])
            return None
        expected = None
        try:
            expected = json.loads(self.manifest_path(key).read_text()).get("sha256")
        except (OSError, ValueError):
            pass  # legacy entry without a manifest: fall back to unpickle-or-die
        if expected is not None:
            actual = hashlib.sha256(blob).hexdigest()
            if actual != expected:
                self._quarantine(
                    key,
                    f"sha256 mismatch: manifest says {expected[:12]}, "
                    f"file is {actual[:12]}",
                )
                return None
        try:
            artifacts = pickle.loads(blob)
        except Exception as exc:
            # Unpickling a corrupt stream can raise nearly anything
            # (UnpicklingError, EOFError, ValueError, UnicodeDecodeError,
            # AttributeError...); every failure mode means the same thing
            # here: not a usable entry, quarantine and rebuild it.
            self._quarantine(key, f"unpicklable: {type(exc).__name__}: {exc}")
            return None
        logger.debug(
            "cache hit for %s (%d bytes in %.3fs)",
            key[:12], len(blob), time.perf_counter() - started,
        )
        return artifacts

    def store(
        self,
        key: str,
        artifacts: Any,
        manifest: Optional[Dict[str, Any]] = None,
        build: bool = True,
    ) -> Path:
        """Atomically persist ``artifacts`` under ``key``; returns the path.

        The pickle bytes are hashed once here and the digest recorded in
        the manifest (written last, also atomically), giving :meth:`load`
        an end-to-end integrity check on every future hit.  Caller-supplied
        manifest fields are merged in for debugging.  ``build=False``
        leaves the ``<key>.builds`` counter alone: a verdict table is
        rewritten by every validate, which builds nothing.
        """
        started = time.perf_counter()
        path = self.pickle_path(key)
        blob = pickle.dumps(artifacts, protocol=pickle.HIGHEST_PROTOCOL)
        # A concurrent prune() may sweep our .tmp between mkstemp and
        # os.replace (FileNotFoundError from the replace).  Losing that
        # race is not an error -- the entry is being written, not read
        # -- so re-create and write again; last writer wins.
        attempts = 5
        for attempt in range(attempts):
            try:
                self._persist(key, path, blob, manifest, build)
                break
            except FileNotFoundError:
                if attempt == attempts - 1:
                    raise
        logger.debug(
            "cache store for %s (%d bytes in %.3fs)",
            key[:12], len(blob), time.perf_counter() - started,
        )
        return path

    def _persist(
        self, key: str, path: Path, blob: bytes,
        manifest: Optional[Dict[str, Any]], build: bool = True,
    ) -> None:
        """One attempt at writing pickle + manifest (+ build counter)."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        full_manifest = dict(manifest or {})
        full_manifest.update(
            schema=CACHE_SCHEMA_VERSION,
            sha256=hashlib.sha256(blob).hexdigest(),
            size=len(blob),
            stored_at=time.time(),
        )
        atomic_write_text(
            self.manifest_path(key),
            json.dumps(full_manifest, indent=2, sort_keys=True, default=repr),
        )
        # Build-count bookkeeping for the single-flight protocol: under
        # the per-key lock this is an exact "how many times was this
        # entry actually built" counter that chaos tests assert on.
        if build:
            atomic_write_text(
                self.builds_path(key), f"{self.build_count(key) + 1}\n"
            )

    def copy_entry(self, src_key: str, dst_key: str) -> bool:
        """Adopt ``src_key``'s entry under ``dst_key`` without re-pickling.

        The incremental layer uses this when a model diff proves two keys
        address byte-identical artifacts (a no-op edit): the pickle bytes
        are copied verbatim -- no load/unpickle/re-pickle round trip -- and
        a fresh manifest records the provenance (``copied_from``, plus the
        current code digest of the entry's phase).  Returns
        ``False`` (no copy) when the source entry is absent or fails its
        integrity check.
        """
        try:
            blob = self.pickle_path(src_key).read_bytes()
        except OSError:
            return False
        manifest: Dict[str, Any] = {}
        try:
            manifest = json.loads(self.manifest_path(src_key).read_text())
        except (OSError, ValueError):
            pass
        expected = manifest.get("sha256")
        if expected is not None and hashlib.sha256(blob).hexdigest() != expected:
            self._quarantine(src_key, "sha256 mismatch during copy_entry")
            return False
        manifest.pop("sha256", None)
        manifest.pop("stored_at", None)
        manifest["copied_from"] = src_key
        if "phase" in manifest:
            # The adopted entry is keyed with today's digest of its phase.
            manifest.update(phase_code_info(manifest["phase"]))
        attempts = 5
        for attempt in range(attempts):
            try:
                self._persist(dst_key, self.pickle_path(dst_key), blob, manifest)
                return True
            except FileNotFoundError:
                if attempt == attempts - 1:
                    raise
        return True

    def entries(self) -> list:
        """Describe every stored entry (for ``repro cache``).

        Returns a list of dicts -- key, phase (from the manifest, if the
        writer recorded one), pickle size, age in seconds, build count --
        sorted newest-first.
        """
        rows = []
        if not self.cache_dir.is_dir():
            return rows
        now = time.time()
        for path in sorted(self.cache_dir.glob("*.pkl")):
            key = path.stem
            manifest: Dict[str, Any] = {}
            try:
                manifest = json.loads(self.manifest_path(key).read_text())
            except (OSError, ValueError):
                pass
            try:
                size = path.stat().st_size
            except OSError:
                continue
            stored_at = manifest.get("stored_at")
            rows.append(
                {
                    "key": key,
                    "phase": manifest.get("phase"),
                    "size": size,
                    "stored_at": stored_at,
                    "age_seconds": (now - stored_at) if stored_at else None,
                    "builds": self.build_count(key),
                    "code_computed_at": manifest.get("code_computed_at"),
                }
            )
        rows.sort(key=lambda row: row["stored_at"] or 0.0, reverse=True)
        return rows

    def prune(self) -> int:
        """Remove every entry; returns the number of pickles deleted."""
        removed = 0
        if not self.cache_dir.is_dir():
            return removed
        for path in self.cache_dir.iterdir():
            if path.suffix in (".pkl", ".json", ".tmp", ".corrupt", ".lock",
                               ".builds"):
                try:
                    path.unlink()
                except OSError:
                    continue
                if path.suffix == ".pkl":
                    removed += 1
        return removed
