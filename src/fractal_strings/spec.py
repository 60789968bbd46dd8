"""The one reader of the JSON payloads (configs, strings, gauges): rows map
each key to (type, default) or (type, REQUIRED), where a type is a function
(value, path) and a dict of rows a nested spec.  Every error names the key
path.  A number is a finite JSON int or float, never a bool or a string."""

import sys

from .errors import ConstructionError

REQUIRED = object()
_MAX = sys.float_info.max


def number(value, path: str) -> float:
    if (type(value) is int or isinstance(value, float)) and abs(value) <= _MAX:
        return float(value)
    raise ValueError("%s must be a finite number, not %r" % (path, value))


def count(value, path: str) -> int:
    """A number with an integer value, as an int."""
    if number(value, path).is_integer():
        return int(value)
    raise ValueError("%s must be an integer, not %r" % (path, value))


def numbers(value, path: str) -> list:
    if isinstance(value, list):
        return [number(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]
    raise ValueError("%s must be a list of numbers, not %r" % (path, value))


def json_object(value, path: str) -> dict:
    """A nested spec as given, to be read where it is built."""
    if isinstance(value, dict):
        return value
    raise ValueError("%s must be a JSON object, not %r" % (path, value))


def _unknown(spec: dict, rows: dict, prefix: str) -> list:
    """The paths of spec's keys that rows, or its nested rows, do not define."""
    out = [prefix + key for key in sorted(spec.keys() - rows.keys())]
    for key, (kind, _) in rows.items():
        if isinstance(kind, dict) and isinstance(spec.get(key), dict):
            out += _unknown(spec[key], kind, prefix + key + ".")
    return out


def read(spec, rows: dict, path: str = "", name: str = "config") -> dict:
    """Each row's value: the key's value read by its type, or the default
    of a key left out, a nested spec's default read by its rows.  ValueError
    names every unknown key, or else the first key that is missing though
    required, or of the wrong type."""
    prefix = path + "." if path else ""
    unknown = _unknown(json_object(spec, path or name), rows, prefix)
    if unknown:
        raise ValueError("unknown %s key(s): %s" % (name, ", ".join(unknown)))
    values = {}
    for key, (kind, default) in rows.items():
        if key not in spec and default is REQUIRED:
            raise ValueError("%s%s is required" % (prefix, key))
        if isinstance(kind, dict):
            values[key] = read(spec.get(key, default), kind, prefix + key, name)
        else:
            values[key] = kind(spec[key], prefix + key) if key in spec else default
    return values


def read_kind(spec, tag: str, kinds: dict, path: str, name: str):
    """What the constructor of kinds[spec[tag]], a (rows, constructor)
    pair, makes from the values of its rows.  A ValueError or
    ConstructionError of the constructor is raised again, of its type, with
    the spec's path in front."""
    kind = json_object(spec, path or name).get(tag)
    if not (isinstance(kind, str) and kind in kinds):
        raise ValueError("%s must be one of %s, not %r" % (
            (path and path + ".") + tag, ", ".join(sorted(kinds)), kind))
    rows, make = kinds[kind]
    rest = {key: value for key, value in spec.items() if key != tag}
    values = read(rest, rows, path, "%s %s" % (kind, name))
    try:
        return make(**values)
    except (ValueError, ConstructionError) as exc:
        if not path:
            raise
        raise type(exc)("%s: %s" % (path, exc)) from exc
