"""Enumeration caps, the package's exceptions, and its one JSON reader.

Caps are configuration, not constants: exceeding one raises SizeCapError,
never silent sampling. The MATROID_ALLOC_CAPS environment variable may
hold a JSON object overriding fields, e.g. {"sfm_ground": 20}. Every JSON
document the package reads (instances, fractional points, that variable)
passes read_json, which turns what the decoder refuses into a SchemaError.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace


class SizeCapError(Exception):
    """An enumeration bound was exceeded."""


class ContractViolation(Exception):
    """An operation's stated pre/postcondition failed on concrete data."""


class InternalInvariantError(Exception):
    """A maintained invariant broke mid-run (a bug, distinct from Failure outcomes)."""


class SchemaError(Exception):
    """Malformed instance JSON or generator parameter; message names the
    offending field path or flag."""


class GuessRejected(Exception):
    """A guessed objective bound was refuted; the guessing loop should move on."""


class BaselineRegime(ValueError):
    """The instance lies in the regime the additive LP baseline already solves."""


@dataclass(frozen=True)
class Caps:
    sfm_ground: int = 24          # support of a subset enumeration (sfm_min, LP rows, brute force)
    expand: int = 64              # units (sum of slot caps) of one count-vector search
    basis_enum: int = 10**6       # per-instance product of basis counts
    assignments: int = 10**7      # classical brute-force assignment count
    lp_vars: int = 200            # assignment-LP variable count
    configs_per_player: int = 10**5
    guess_grid: int = 2**16       # subset sums of one player's santa grid column

    def override(self, **kwargs) -> "Caps":
        return replace(self, **kwargs)


def read_json(text: str | bytes, invalid: str):
    """The JSON value text holds. Text that is not JSON, and arrays or
    objects nested deeper than the decoder's recursion allows, are a
    SchemaError whose message starts with invalid."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{invalid}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{invalid}: arrays or objects nest too deeply") from None


def caps_from_env() -> Caps:
    caps = Caps()
    raw = os.environ.get("MATROID_ALLOC_CAPS")
    if not raw:
        return caps
    data = read_json(raw, "MATROID_ALLOC_CAPS is not valid JSON")
    if not isinstance(data, dict):
        raise SchemaError("MATROID_ALLOC_CAPS must be a JSON object")
    unknown = set(data) - set(Caps.__dataclass_fields__)
    if unknown:
        raise SchemaError(f"MATROID_ALLOC_CAPS has unknown fields: {sorted(unknown)}")
    for key, val in data.items():
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise SchemaError(f"MATROID_ALLOC_CAPS.{key}: must be a nonnegative integer")
    return caps.override(**data)


DEFAULT_CAPS = Caps()
