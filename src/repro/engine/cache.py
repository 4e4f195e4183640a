"""Content-addressed program cache: each program is compiled exactly once.

The paper's evaluation is a grid of compile→optimize→simulate experiments, and
the seed harness recompiled the same (benchmark, opt level) pair from source
for every figure that touched it — twice per optimized run alone.  The cache
keys compiled :class:`~repro.machine.program.MachineProgram` objects by the
SHA-256 of the source text plus a fingerprint of every
:class:`~repro.codegen.CompileOptions` field, so

* identical experiments share one compile per process,
* any option change (opt level, entry, linking, stack reserve, …) is a
  different key — there is no way to get a stale program back.

Two tiers:

* **memory** (always on): pristine shared instances per process;
* **disk** (``cache_dir=...``): pickled program images under
  ``<cache_dir>/<key[:2]>/<key>.pkl`` so a fleet of worker *processes*
  compiles each key once per machine.  Entries are content-addressed — the
  file key hashes the source digest, the options fingerprint, the on-disk
  format version and a code-version salt — and carry a header repeating all
  of that, so a stale, truncated or corrupt entry is rejected loudly
  (a :class:`CacheIntegrityWarning`) and transparently recompiled.  Writes
  go to a same-directory temp file followed by ``os.replace``, which is
  atomic: concurrent writers race benignly (last complete image wins) and
  readers can never observe a torn file.

Cached instances are pristine and shared; callers that mutate programs (the
flash-RAM placement transformation rewrites blocks in place) take a private
copy via :meth:`ProgramCache.get_mutable`.  Copies are materialised from a
memoised ``pickle.dumps`` snapshot — measured ~5x faster than ``deepcopy``
on BEEBS-sized programs and identical in effect: the ``__reduce__``/
``__deepcopy__`` hooks in :mod:`repro.isa` keep register singletons, and
:class:`~repro.machine.blocks.MachineBlock` drops its decode cache either
way.

The key says how a program was *asked for*; :meth:`ProgramCache.digest`
says what was *compiled*: the SHA-256 of the same snapshot, memoised per
key.  Equal digests mean equal snapshot bytes, which unpickle to the same
program, so levels that emit identical machine code (O2 and Os of fdct,
say) share one digest and the engine computes their results once.  The
digest is taken on first request, never inside :meth:`ProgramCache.get`,
so a cold compile does no hashing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import threading
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.beebs import get_benchmark
from repro.codegen import CompileOptions, compile_source
from repro.machine.program import MachineProgram
from repro.telemetry import get_telemetry

#: Layout version of the on-disk entry envelope; bump on any change to the
#: payload structure below.
DISK_FORMAT_VERSION = 1

#: Salt capturing the compiled-program representation itself.  Bump whenever
#: a change to the compiler/machine layer makes previously pickled programs
#: meaningless (new required attributes, changed semantics, …): old entries
#: then miss by construction instead of deserialising into stale objects.
CACHE_CODE_VERSION = "2026.08-superblocks"

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


class CacheIntegrityWarning(UserWarning):
    """A disk-cache entry was rejected (corrupt, truncated or stale)."""


@dataclass
class CacheStats:
    """Counters for cache behaviour across both tiers.

    ``misses`` counts memory-tier misses; of those, ``disk_hits`` were
    satisfied from the on-disk tier, so ``compiles`` — actual invocations of
    the compiler — is ``misses - disk_hits``.  ``disk_misses`` only counts
    lookups that went to disk and failed (no disk tier configured → 0).
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0

    @property
    def compiles(self) -> int:
        return self.misses - self.disk_hits

    @property
    def total(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "compiles": self.compiles,
        }


def options_fingerprint(options: CompileOptions) -> Tuple:
    """A hashable, order-stable digest of every compile option.

    Derived from the dataclass fields so that options added to
    :class:`CompileOptions` later automatically become part of the cache key —
    two option sets that differ in any field can never alias.
    """
    return tuple(
        (f.name, str(getattr(options, f.name)))
        for f in dataclasses.fields(options)
    )


def program_key(source: str, options: CompileOptions) -> Tuple:
    """Content-addressed cache key for (source, options)."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return (digest, options_fingerprint(options))


def disk_key(key: Tuple) -> str:
    """Filename-safe digest of a program key for the on-disk tier.

    Hashes the format version and code-version salt along with the program
    key, so entries written by an incompatible build live under different
    names — version mismatch normally manifests as a plain miss, and the
    header check below is the defence in depth for hand-edited or
    hash-colliding files.
    """
    material = repr((DISK_FORMAT_VERSION, CACHE_CODE_VERSION, key))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _benchmark_inputs(name: str, opt_level: str) -> Tuple[str, CompileOptions]:
    """(source, compile options) of a registered BEEBS benchmark."""
    benchmark = get_benchmark(name)
    return benchmark.source, CompileOptions.for_level(
        opt_level, program_name=benchmark.name)


class ProgramCache:
    """Compile-once cache of linked machine programs.

    ``cache_dir`` (optional) enables the persistent on-disk tier shared
    between processes; the directory is created on first write.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self._programs: Dict[Tuple, MachineProgram] = {}
        self._snapshots: Dict[Tuple, bytes] = {}
        self._digests: Dict[Tuple, str] = {}
        self._lock = threading.Lock()
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    def get(self, source: str, options: Optional[CompileOptions] = None) -> MachineProgram:
        """The shared, pristine compiled program for (source, options).

        Callers must treat the result as read-only; use :meth:`get_mutable`
        for a program that will be transformed in place.
        """
        options = options or CompileOptions()
        key = program_key(source, options)
        hub = get_telemetry()
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self.stats.hits += 1
                if hub.enabled:
                    hub.add("cache.memory_hits")
                return program
            self.stats.misses += 1

        if self.cache_dir is not None:
            program = self._disk_load(key)
            if program is not None:
                with self._lock:
                    self.stats.disk_hits += 1
                if hub.enabled:
                    hub.add("cache.disk_hits")
                with self._lock:
                    return self._programs.setdefault(key, program)
            with self._lock:
                self.stats.disk_misses += 1

        if hub.enabled:
            hub.add("cache.compiles")

        program = compile_source(source, options)
        if self.cache_dir is not None:
            self._disk_store(key, program)
        with self._lock:
            # A concurrent thread may have compiled the same key; keep the
            # first instance so shared references stay consistent.
            return self._programs.setdefault(key, program)

    def get_mutable(self, source: str,
                    options: Optional[CompileOptions] = None) -> MachineProgram:
        """A private copy of the cached program, safe to transform in place.

        Materialised with ``pickle.loads`` from the key's snapshot.
        """
        options = options or CompileOptions()
        program = self.get(source, options)
        return pickle.loads(self._snapshot(program_key(source, options),
                                           program))

    def digest(self, source: str,
               options: Optional[CompileOptions] = None) -> str:
        """SHA-256 (hex) of the compiled program's ``pickle`` snapshot.

        Two (source, options) pairs that compile to the same machine program
        share a digest, so it identifies what runs rather than how it was
        requested.  Computed on first request and memoised per key.
        """
        options = options or CompileOptions()
        key = program_key(source, options)
        with self._lock:
            digest = self._digests.get(key)
        if digest is None:
            snapshot = self._snapshot(key, self.get(source, options))
            digest = hashlib.sha256(snapshot).hexdigest()
            with self._lock:
                digest = self._digests.setdefault(key, digest)
        return digest

    def _snapshot(self, key: Tuple, program: MachineProgram) -> bytes:
        """The ``pickle.dumps`` of *key*'s cached *program*, taken once
        (cached instances are pristine and never mutated, so the snapshot
        can never go stale)."""
        with self._lock:
            snapshot = self._snapshots.get(key)
        if snapshot is None:
            snapshot = pickle.dumps(program, protocol=_PICKLE_PROTOCOL)
            with self._lock:
                snapshot = self._snapshots.setdefault(key, snapshot)
        return snapshot

    # ------------------------------------------------------------------ #
    # Disk tier
    # ------------------------------------------------------------------ #
    def _disk_path(self, key: Tuple) -> str:
        name = disk_key(key)
        return os.path.join(self.cache_dir, name[:2], name + ".pkl")

    def _disk_load(self, key: Tuple) -> Optional[MachineProgram]:
        path = self._disk_path(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except (FileNotFoundError, NotADirectoryError):
            return None  # no entry yet — a plain miss, not corruption
        except Exception as exc:  # corrupt, truncated, unreadable, …
            warnings.warn(
                f"rejecting unreadable program-cache entry {path}: {exc!r}; "
                f"recompiling", CacheIntegrityWarning, stacklevel=3)
            return None
        if (not isinstance(entry, dict)
                or entry.get("format") != DISK_FORMAT_VERSION
                or entry.get("code_version") != CACHE_CODE_VERSION
                or entry.get("key") != key
                or not isinstance(entry.get("program"), MachineProgram)):
            warnings.warn(
                f"rejecting stale or mismatched program-cache entry {path} "
                f"(format={entry.get('format') if isinstance(entry, dict) else '?'}, "
                f"code_version={entry.get('code_version') if isinstance(entry, dict) else '?'}); "
                f"recompiling", CacheIntegrityWarning, stacklevel=3)
            return None
        return entry["program"]

    def _disk_store(self, key: Tuple, program: MachineProgram) -> None:
        path = self._disk_path(key)
        directory = os.path.dirname(path)
        entry = {
            "format": DISK_FORMAT_VERSION,
            "code_version": CACHE_CODE_VERSION,
            "key": key,
            "program": program,
        }
        try:
            os.makedirs(directory, exist_ok=True)
            # Same-directory temp file + os.replace: atomic on POSIX, so a
            # concurrent reader sees either the old or the new complete
            # entry, never a torn write.  Concurrent writers produce
            # identical content; last replace wins.
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(entry, handle, protocol=_PICKLE_PROTOCOL)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError as exc:
            # A read-only or full cache directory degrades to memory-only.
            warnings.warn(
                f"could not persist program-cache entry {path}: {exc!r}",
                CacheIntegrityWarning, stacklevel=3)

    # ------------------------------------------------------------------ #
    def get_benchmark(self, name: str, opt_level: str = "O2") -> MachineProgram:
        """Shared pristine program for a registered BEEBS benchmark."""
        return self.get(*_benchmark_inputs(name, opt_level))

    def get_benchmark_mutable(self, name: str, opt_level: str = "O2") -> MachineProgram:
        """Private mutable copy of a registered BEEBS benchmark's program."""
        return self.get_mutable(*_benchmark_inputs(name, opt_level))

    def benchmark_digest(self, name: str, opt_level: str = "O2") -> str:
        """:meth:`digest` of a registered BEEBS benchmark's program."""
        return self.digest(*_benchmark_inputs(name, opt_level))

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self._snapshots.clear()
            self._digests.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._programs)


_DEFAULT_CACHE: Optional[ProgramCache] = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_cache() -> ProgramCache:
    """The process-wide program cache shared by the default engine."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        with _DEFAULT_CACHE_LOCK:
            if _DEFAULT_CACHE is None:
                _DEFAULT_CACHE = ProgramCache()
    return _DEFAULT_CACHE
