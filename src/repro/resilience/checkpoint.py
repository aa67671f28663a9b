"""Atomic checkpoint/resume for long sweeps.

A :class:`SweepCheckpoint` maps evaluation keys (the same content keys
:func:`repro.exec.cache.key_for_config` derives for the cache) to
completed results, persisted as one plain-JSON file that is rewritten
atomically (temp file + rename) every ``flush_interval`` records.  A
killed sweep restarted against the same file skips everything already
recorded — losing at most one unflushed chunk of work.

The file embeds :data:`repro.core.perf_model.MODEL_VERSION`; a
checkpoint written by a different model version is discarded on load
(resuming stale results would silently mix incompatible numbers).
Values round-trip through the cache's tagged JSON encoding, so design
points, numbers and JSON-compatible dicts all checkpoint without
pickling.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import CheckpointError, SchemaValidationError
from repro.guard.schemas import validate_json
from repro.obs import metrics as _metrics
from repro.resilience import faults as _faults

#: Bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1

#: Chaos site: a flush whose rename lands but whose payload is cut
#: short, as a crash mid-write (or a lying disk) would leave it.  The
#: next ``_load`` of that file must quarantine it, never crash on it.
TORN_WRITE_SITE = _faults.register_site("checkpoint.torn_write")

#: Structural schema of a checkpoint file.  ``format``/``model``/
#: ``kind`` values are checked semantically in :meth:`_load` (stale
#: versions are tolerated with a warning, not a schema error).
_CHECKPOINT_SCHEMA = {
    "fields": {
        "format": int,
        "model": str,
        "kind": str,
        "entries": {"values": dict},
    },
    "optional": ("format", "model", "kind"),
    "extra": "allow",
}

#: Records buffered before an automatic atomic rewrite.
DEFAULT_FLUSH_INTERVAL = 8


def _codec():
    # Lazy: repro.io imports the model layers, and the versal models
    # import this package for their fault sites.
    from repro.core.perf_model import MODEL_VERSION
    from repro.io import decode_value, encode_value

    return MODEL_VERSION, encode_value, decode_value


class SweepCheckpoint:
    """Completed-evaluation ledger of one sweep.

    Args:
        path: Checkpoint file location (created on first flush).
        kind: Free-form sweep label stored in the file; a mismatch on
            load raises — a DSE checkpoint must not resume a
            sensitivity sweep.
        flush_interval: Records buffered between automatic flushes
            (``1`` = write-through).

    Attributes:
        resumed: Entries served by :meth:`get` since construction.
        recorded: Entries added by :meth:`record` since construction.
    """

    def __init__(
        self,
        path: Union[str, Path],
        kind: str = "sweep",
        flush_interval: int = DEFAULT_FLUSH_INTERVAL,
    ):
        if flush_interval < 1:
            raise CheckpointError(
                f"flush_interval must be >= 1, got {flush_interval}"
            )
        self.path = Path(path)
        self.kind = kind
        self.flush_interval = flush_interval
        self._entries: Dict[str, Dict] = {}
        self._pending = 0
        self.resumed = 0
        self.recorded = 0
        #: Quarantine destinations created while loading this path.
        self.quarantined: List[str] = []
        self._load()

    # -- persistence ---------------------------------------------------------
    def _quarantine(self, reason: Exception) -> None:
        """Move a damaged checkpoint aside as ``<name>.corrupt-<n>``.

        The rename preserves the evidence for post-mortems while
        guaranteeing the next flush cannot be confused with the damaged
        bytes.  ``n`` is the first free suffix, so repeated corruption
        of one path keeps every specimen.
        """
        n = 1
        while True:
            target = self.path.parent / f"{self.path.name}.corrupt-{n}"
            if not target.exists():
                break
            n += 1
        try:
            self.path.replace(target)
            where = f"quarantined as {target.name}"
        except OSError:
            # Quarantine is best-effort; a rename failure still leaves
            # the sweep restarting empty, and the next flush overwrites.
            where = "quarantine rename failed; file left in place"
        self.quarantined.append(str(target))
        _metrics.counter("checkpoint.corrupt_files").inc()
        warnings.warn(
            f"ignoring corrupt checkpoint {self.path} ({where}): {reason}",
            stacklevel=4,
        )

    def _load(self) -> None:
        """Populate from an existing file; tolerate absence/corruption.

        A corrupt file — truncated JSON, torn write, binary garbage —
        is quarantined (renamed ``*.corrupt-<n>``, counted in the
        ``checkpoint.corrupt_files`` metric) with a warning, and the
        sweep starts from scratch: that is the resilient behavior.  A
        stale file (other model version) is ignored with a warning but
        left in place.  A *kind* mismatch raises instead: that is a
        caller bug, not bit rot.
        """
        model_version, _, _ = _codec()
        try:
            raw = self.path.read_text()
        except OSError:
            return  # no checkpoint yet
        except UnicodeDecodeError as exc:
            # Binary garbage where JSON should be — same damage class
            # as unparseable text, same quarantine.
            self._quarantine(exc)
            return
        try:
            data = json.loads(raw)
            validate_json(data, _CHECKPOINT_SCHEMA)
            entries = data["entries"]
        except (ValueError, SchemaValidationError) as exc:
            # SchemaValidationError carries the precise JSON path of
            # the damage; the recovery policy is the same — quarantine
            # and start the sweep from scratch.
            self._quarantine(exc)
            return
        if data.get("kind", self.kind) != self.kind:
            raise CheckpointError(
                f"checkpoint {self.path} holds a {data.get('kind')!r} "
                f"sweep, not {self.kind!r}"
            )
        if data.get("format") != FORMAT_VERSION \
                or data.get("model") != model_version:
            warnings.warn(
                f"discarding stale checkpoint {self.path} "
                f"(format {data.get('format')!r}, model "
                f"{data.get('model')!r} != {model_version!r})",
                stacklevel=3,
            )
            return
        self._entries = entries

    def flush(self) -> None:
        """Atomically rewrite the file (no-op while nothing is pending
        and the file already exists)."""
        if self._pending == 0 and self.path.exists():
            return
        model_version, _, _ = _codec()
        payload = json.dumps(
            {
                "format": FORMAT_VERSION,
                "model": model_version,
                "kind": self.kind,
                "entries": self._entries,
            },
            sort_keys=True,
        )
        tmp = self.path.parent / f"{self.path.name}.{os.getpid()}.tmp"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(payload)
            tmp.replace(self.path)
        except OSError:
            # A failed checkpoint write must not kill the sweep it is
            # protecting; the next flush retries.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        if _faults.fired(TORN_WRITE_SITE) is not None:
            # Simulate a crash that tore the write in half: the rename
            # landed but the payload did not all reach the platter.
            try:
                with self.path.open("r+b") as handle:
                    handle.truncate(max(1, len(payload.encode()) // 2))
            except OSError:
                pass
        self._pending = 0

    # -- ledger API ----------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """The recorded result for ``key``, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        _, _, decode_value = _codec()
        try:
            value = decode_value(entry)
        except Exception:
            # One garbled entry must not poison the resume; recompute it.
            del self._entries[key]
            return None
        self.resumed += 1
        _metrics.counter("checkpoint.resumed").inc()
        return value

    def contains(self, key: str) -> bool:
        """Whether ``key`` is recorded (without counting a resume)."""
        return key in self._entries

    def raw_entry(self, key: str) -> Optional[Dict]:
        """The encoded (undecoded) entry for ``key``, or None.

        The shard merger compares duplicate evaluations at this level —
        canonical-JSON byte identity of the encoded entry — which is
        stricter than comparing decoded values and needs no decoding
        for the common non-duplicate case.
        """
        return self._entries.get(key)

    def record(self, key: str, value: Any) -> None:
        """Add one completed evaluation; flushes every
        ``flush_interval`` records."""
        _, encode_value, _ = _codec()
        self._entries[key] = encode_value(value)
        self._pending += 1
        self.recorded += 1
        _metrics.counter("checkpoint.records").inc()
        if self._pending >= self.flush_interval:
            self.flush()

    def describe(self) -> str:
        """One-line summary for CLI confirmations."""
        return (
            f"{len(self._entries)} entries in {self.path} "
            f"({self.resumed} resumed, {self.recorded} recorded this run)"
        )

    def __len__(self) -> int:
        return len(self._entries)


def as_checkpoint(
    checkpoint: Union["SweepCheckpoint", str, Path, None],
    kind: str,
) -> Optional[SweepCheckpoint]:
    """Coerce a user-supplied checkpoint argument.

    Accepts an existing :class:`SweepCheckpoint`, a path (opened — and
    resumed when the file exists), or None.
    """
    if checkpoint is None or isinstance(checkpoint, SweepCheckpoint):
        return checkpoint
    return SweepCheckpoint(checkpoint, kind=kind)
