"""Small numeric helpers."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import ConfigurationError

NEG_INF = float("-inf")


def logsumexp(values: np.ndarray, axis=None):
    """Stable log-sum-exp that tolerates -inf entries (empty sums stay -inf)."""
    values = np.asarray(values, dtype=np.float64)
    peak = np.max(values, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(values - safe), axis=axis)) + np.squeeze(safe, axis=axis)
    collapsed = np.squeeze(peak, axis=axis)
    out = np.where(np.isfinite(collapsed), out, collapsed)
    if out.ndim == 0:
        return float(out)
    return out


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
