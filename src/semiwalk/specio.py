"""JSON descriptions of semigroups.

Three kinds are accepted (see README for the exact grammar):

  {"kind": "table", "generators": ["a","b"], "table": [[...], ...],
   "gen_elements": [0,1], "element_names": [...]}
  {"kind": "transformations", "states": 5, "maps": {"a": [1,1,2,2,4], ...}}
  {"kind": "family", "family": "tsetlin", "n": 3}

For "table", ``gen_elements`` defaults to the first len(generators)
elements.  For "transformations", generator order is the order of the keys
in ``maps``.  For "family", remaining keys are family parameters.
"""

from __future__ import annotations

import json

from .core import ASemigroup, SemigroupError, semigroup_from_table, semigroup_from_transformations
from .families import FamilySpec, build


# The fields of each kind; a family spec's other keys are its parameters.
_FIELDS = {
    "table": ("kind", "generators", "table", "gen_elements", "element_names"),
    "transformations": ("kind", "states", "maps"),
}


def semigroup_from_spec(data: dict) -> ASemigroup:
    if not isinstance(data, dict) or "kind" not in data:
        raise SemigroupError("spec must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str):
        raise SemigroupError(f"'kind' must be a string, got {kind!r}")
    for key in data:
        if kind in _FIELDS and key not in _FIELDS[kind]:
            raise SemigroupError(f"{kind} spec has no field {key!r}")
    if kind == "table":
        table = data.get("table")
        gen_names = _strings(data, "generators")
        if table is None or gen_names is None:
            raise SemigroupError("table spec needs 'table' and 'generators'")
        gens = data.get("gen_elements", list(range(len(gen_names))))
        if not isinstance(gens, list):
            raise SemigroupError("'gen_elements' must be a list of element indices")
        if len(gens) != len(gen_names):
            raise SemigroupError("gen_elements and generators must align")
        return semigroup_from_table(
            table, gens, gen_names, _strings(data, "element_names")
        )
    if kind == "transformations":
        states = data.get("states")
        maps = data.get("maps")
        if states is None or not maps:
            raise SemigroupError("transformation spec needs 'states' and 'maps'")
        return semigroup_from_transformations(states, maps)
    if kind == "family":
        name = data.get("family")
        if not name or not isinstance(name, str):
            raise SemigroupError(f"family spec needs a 'family' name, got {name!r}")
        params = {k: v for k, v in data.items() if k not in ("kind", "family")}
        return build(FamilySpec(name, params))
    raise SemigroupError(f"unknown spec kind {kind!r}")


def _strings(data: dict, field: str) -> list[str] | None:
    """The field's value, which must be absent or a list of strings."""
    value = data.get(field)
    if value is not None and not (
        isinstance(value, list) and all(isinstance(v, str) for v in value)
    ):
        raise SemigroupError(f"{field!r} must be a list of strings")
    return value


def load_spec(path: str) -> ASemigroup:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise SemigroupError(f"invalid JSON in {path}: {exc}") from exc
    return semigroup_from_spec(data)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's fields; a key given twice (say, one generator in
    ``maps``) is an error, not a silent override."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise SemigroupError(f"duplicate key {key!r} in spec")
        data[key] = value
    return data
