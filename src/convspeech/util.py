"""Checks of parameter arrays and config entries."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import ConfigurationError


def check_params(params: dict, shapes: dict[str, tuple], owner: str):
    """`params` holds just the arrays `shapes` names, at their shapes; errors name `owner`."""
    unexpected = sorted(params.keys() - shapes.keys())
    if unexpected:
        raise ConfigurationError(f"{owner} has unexpected arrays {unexpected}")
    for key, shape in shapes.items():
        if key not in params:
            raise ConfigurationError(f"{owner} lacks key {key!r}")
        if np.shape(params[key]) != shape:
            raise ConfigurationError(
                f"{owner} array {key!r} has shape {np.shape(params[key])}, not {shape}")


def from_fields(cls, entry, what: str):
    """`cls(**entry)` for a dataclass; a bad key or value raises ConfigurationError naming `what`."""
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{what} is a {type(entry).__name__}, not an object")
    names = {f.name for f in fields(cls)}
    if entry.keys() != names:
        raise ConfigurationError(
            f"{what} is missing {sorted(names - entry.keys())} "
            f"and has unknown keys {sorted(entry.keys() - names)}"
        )
    try:
        return cls(**entry)
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"{what}: {err}") from None
