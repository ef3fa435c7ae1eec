"""Pluggable generator backends: DoppelGANger is one of many.

Importing this package registers the built-in architectures:

- ``doppelganger`` (alias ``dg``) -- the paper's reference model,
- ``dlgan`` -- the dual-layer discrete+continuous generator,
- ``hmm`` / ``ar`` / ``rnn`` / ``naive_gan`` -- the §5.0.1 baselines.

:func:`train_model` (:mod:`repro.backends.training`) is the one place
where training options become a fitted model of any of them.

Third-party architectures plug in with
``register_backend(MyBackend())``; everything above the model layer
(harness, sweep, registry, CLI) dispatches by name from then on.

This module also owns *archive sniffing*: every backend's ``save_bytes``
produces a self-describing npz whose ``__meta__`` JSON reveals the
architecture, so blobs saved before backend tags existed (or files on
disk of unknown provenance) can still be routed to the right loader.
"""

from __future__ import annotations

import json
import zipfile

from repro.backends.base import (DEFAULT_BACKEND, GeneratorBackend,
                                 UnknownBackend, backend_for_model,
                                 backend_names, get_backend,
                                 register_backend)
from repro.backends.baselines import BASELINE_BACKENDS, BaselineBackend
from repro.backends.dlgan import DLGAN, DLGANBackend, DLGANConfig
from repro.backends.doppelganger import DoppelGANgerBackend
from repro.backends.training import TrainOptionError, train_model

__all__ = [
    "GeneratorBackend", "UnknownBackend", "DEFAULT_BACKEND",
    "register_backend", "get_backend", "backend_names",
    "backend_for_model",
    "DoppelGANgerBackend", "DLGANBackend", "BaselineBackend",
    "DLGAN", "DLGANConfig",
    "sniff_backend", "load_model_bytes", "load_model_file",
    "train_model", "TrainOptionError",
]

register_backend(DoppelGANgerBackend())
register_backend(DLGANBackend())
for _backend in BASELINE_BACKENDS:
    register_backend(_backend)

#: ``__meta__["kind"]`` values of baseline archives -> backend names.
_KIND_TO_BACKEND = {
    "HMM": "hmm",
    "AR": "ar",
    "RNN": "rnn",
    "Naive GAN": "naive_gan",
}


def _read_meta(blob: bytes) -> dict:
    """Extract the ``__meta__`` JSON from an npz blob without loading
    the (potentially large) weight arrays."""
    import io

    import numpy as np

    try:
        with np.load(io.BytesIO(blob)) as archive:
            if "__meta__" not in archive.files:
                raise ValueError("archive has no __meta__ entry")
            return json.loads(bytes(archive["__meta__"].tobytes()).decode())
    # np.load reports non-archives in several ways: zip corruption,
    # a pickle-looking ValueError, or an OSError on truncated input.
    except zipfile.BadZipFile as exc:
        raise ValueError(f"not an npz model archive: {exc}") from exc
    except OSError as exc:
        raise ValueError(f"not an npz model archive: {exc}") from exc
    except ValueError as exc:
        if "not an npz model archive" in str(exc) or "__meta__" in str(exc):
            raise
        raise ValueError(f"not an npz model archive: {exc}") from exc


def sniff_backend(blob: bytes) -> str:
    """Infer the backend name a serialized model blob belongs to.

    Every ``save_bytes`` format is self-describing:

    - baselines carry ``{"kind": "HMM" | "AR" | ...}``,
    - DLGAN carries ``{"format": "repro-dlgan"}``,
    - DoppelGANger (the original, untagged format) carries
      ``schema`` + ``config`` keys and nothing else distinguishing.

    Raises :class:`ValueError` when the blob is not a recognisable
    model archive.
    """
    meta = _read_meta(blob)
    if meta.get("format") == "repro-dlgan":
        return "dlgan"
    kind = meta.get("kind")
    if kind is not None:
        backend = _KIND_TO_BACKEND.get(kind)
        if backend is None:
            raise ValueError(f"unknown baseline kind {kind!r} in archive")
        return backend
    if "schema" in meta and "config" in meta:
        return DEFAULT_BACKEND
    raise ValueError(
        "archive __meta__ matches no known backend format "
        f"(keys: {sorted(meta)})")


def load_model_bytes(blob: bytes):
    """Load a serialized model of any registered backend.

    Returns ``(model, backend)`` so callers that need to re-serialize or
    tag the model don't have to sniff twice.
    """
    backend = get_backend(sniff_backend(blob))
    return backend.load_bytes(blob), backend


def load_model_file(path):
    """:func:`load_model_bytes` over a filesystem path."""
    with open(path, "rb") as handle:
        return load_model_bytes(handle.read())
