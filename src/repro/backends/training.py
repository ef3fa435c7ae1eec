"""One training path: user options -> a fitted model, for every backend.

The CLI ``train`` command and the training-job worker both call
:func:`train_model`, the only place that knows the option vocabulary
and job defaults, which options only DoppelGANger honours (any other
backend refuses them rather than ignoring them), the ``hidden`` width
-> :class:`~repro.core.config.DGConfig` formula, the sentinel /
checkpoint / resume wiring, and the bench-scale config every other
backend trains from.  :func:`check_options` is the one table-driven
option validator (the job layer checks ``train`` and ``evaluate`` with
it).
"""

from __future__ import annotations

import os

from repro.backends.base import DEFAULT_BACKEND, get_backend

__all__ = ["TRAIN_KEYS", "TRAIN_DEFAULTS", "DOPPELGANGER_ONLY",
           "TrainOptionError", "check_options", "refuse_doppelganger_only",
           "train_model"]

#: Training options a job may carry, with their types.
TRAIN_KEYS = {
    "iterations": int, "batch_size": int, "hidden": int,
    "sample_len": int, "seed": int, "checkpoint_every": int,
    "max_retries": int, "sentinel": bool,
}

#: What an absent option trains with (``sample_len=None``: T/S ~ 25).
#: The CLI passes its own flag defaults explicitly.
TRAIN_DEFAULTS = {
    "iterations": 400, "batch_size": 32, "hidden": 32, "seed": 0,
    "sample_len": None, "checkpoint_every": 25, "max_retries": 3,
    "sentinel": False,
    "use_minmax_generator": True, "use_auxiliary_discriminator": True,
}

#: Options and ``train_model`` arguments only DoppelGANger honours.
DOPPELGANGER_ONLY = ("checkpoint", "resume", "sentinel", "sample_len",
                     "telemetry", "checkpoint_every", "max_retries")

#: ``train_model`` also takes the CLI's ``--no-minmax``/``--no-aux``
#: switches; they remove a DoppelGANger component that other
#: architectures do not have, so for those they change nothing.
_MODEL_KEYS = {**TRAIN_KEYS, "use_minmax_generator": bool,
               "use_auxiliary_discriminator": bool}


class TrainOptionError(ValueError):
    """A training option is unknown, mistyped, or unsupported."""


def check_options(values: dict | None, keys: dict, kind: str = "training",
                  *, backend=None, error=TrainOptionError) -> dict:
    """Check ``values`` against the ``{name: int | bool}`` table ``keys``.

    Returns a clean copy; raises ``error`` naming an unknown or
    mistyped key, or -- with ``backend`` given -- a DoppelGANger-only
    key meant for another architecture.
    """
    clean: dict = {}
    for key, value in dict(values or {}).items():
        expected = keys.get(key)
        if expected is None:
            raise error(f"unknown {kind} option {key!r} "
                        f"(supported: {', '.join(sorted(keys))})")
        if expected is bool:
            if not isinstance(value, bool):
                raise error(f"{kind} option {key!r} must be a "
                            f"boolean, got {value!r}")
        elif not isinstance(value, int) or isinstance(value, bool):
            raise error(f"{kind} option {key!r} must be an "
                        f"integer, got {value!r}")
        clean[key] = value
    if backend is not None:
        refuse_doppelganger_only(backend, clean, error=error)
    return clean


def refuse_doppelganger_only(backend, names, *,
                             error=TrainOptionError) -> None:
    """Raise ``error`` for the first DoppelGANger-only name in ``names``
    unless ``backend`` (a backend or its name) is DoppelGANger."""
    if isinstance(backend, str):
        backend = get_backend(backend)
    if backend.name == DEFAULT_BACKEND:
        return
    for name in DOPPELGANGER_ONLY:
        if name in names:
            raise error(f"--{name.replace('_', '-')} is only supported "
                        f"by the {DEFAULT_BACKEND} backend")


def train_model(backend, data, options: dict | None = None, *,
                checkpoint=None, resume: bool = False, callback=None):
    """Fit a ``backend`` (name or backend) model on ``data``.

    ``options`` absent from the dict take :data:`TRAIN_DEFAULTS`.
    ``checkpoint`` is where DoppelGANger writes resumable training state
    every ``checkpoint_every`` iterations; ``resume`` continues from it,
    bit-identically, when the file exists.  ``callback(iteration,
    history)`` runs at each of a DoppelGANger run's ~10 log points.

    Raises :class:`TrainOptionError` for an unknown or mistyped option
    and for a DoppelGANger-only option given to another backend.
    """
    if isinstance(backend, str):
        backend = get_backend(backend)
    given = check_options(options, _MODEL_KEYS)
    refuse_doppelganger_only(backend, [
        *given, *(["checkpoint"] if checkpoint else []),
        *(["resume"] if resume else [])])
    opts = {**TRAIN_DEFAULTS, **given}
    width = opts["hidden"]
    if backend.name != DEFAULT_BACKEND:
        from repro.experiments.configs import BENCH

        config = backend.make_config(
            "custom", BENCH, seed=opts["seed"],
            iterations=opts["iterations"], batch_size=opts["batch_size"],
            hidden=(width, width), generator_hidden=(width, width),
            discriminator_hidden=(width, width))
        model = backend.from_config(data.schema, config)
        backend.fit(model, data)
        return model

    from repro.core.config import DGConfig
    from repro.resilience import SentinelPolicy

    if resume and not checkpoint:
        raise TrainOptionError("--resume requires --checkpoint")
    sample_len = opts["sample_len"] or DGConfig.recommended_sample_len(
        data.schema.max_length, target_passes=25)
    config = DGConfig(
        sample_len=sample_len,
        attribute_hidden=(width, width), minmax_hidden=(width, width),
        feature_rnn_units=max(width * 3 // 4, 8),
        feature_mlp_hidden=(width,),
        discriminator_hidden=(width, width),
        aux_discriminator_hidden=(width, width),
        batch_size=opts["batch_size"], iterations=opts["iterations"],
        seed=opts["seed"],
        use_minmax_generator=opts["use_minmax_generator"],
        use_auxiliary_discriminator=opts["use_auxiliary_discriminator"],
    )
    model = backend.from_config(data.schema, config)
    model.fit(
        data, log_every=max(opts["iterations"] // 10, 1), callback=callback,
        train_state_path=checkpoint,
        checkpoint_every=opts["checkpoint_every"] if checkpoint else None,
        resume_from=checkpoint if resume and os.path.exists(checkpoint)
        else None,
        sentinel=SentinelPolicy(max_retries=opts["max_retries"])
        if opts["sentinel"] else None)
    return model
