"""One loader and one field reader for every kind of JSON document.

A kind lists its fields as ``(name, required, check, what)``.  ``check``
is ``str``, ``int`` or ``list``, which the value must be exactly, or a
function returning the value checked, and perhaps converted, that raises
TypeError or LookupError when it is not ``what``.  A refusal is one short
ValueError line that names the document kind and the path to the value."""

import json
import reprlib
from contextlib import suppress

from .formula import Atom
from .syntax import ParseError, parse


def load_json(text: str, kind: str):
    """The JSON value of ``text``, a ``kind`` such as "trace document"."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{kind}: nested too deeply to read") from None


def read_fields(doc, where: str, fields, build=dict):
    """``build`` called with the checked value of each field of ``doc``
    that is present, by name; its ValueError is refused at ``where`` too."""
    try:
        if not isinstance(doc, dict):
            raise ValueError(f"must be a JSON object, not {type(doc).__name__}")
        values = {}
        for name, required, check, what in fields:
            if required and name not in doc:
                raise ValueError(f"missing field {name!r}")
            if name not in doc:
                continue
            value = values[name] = doc[name]
            try:
                if check not in (str, int, list):
                    values[name] = check(value)
                elif type(value) is not check:
                    raise TypeError
            except (TypeError, LookupError):
                raise ValueError(f"field {name!r}: must be {what}, not "
                                 f"{reprlib.repr(value)}") from None
            except ValueError as exc:
                raise ValueError(f"field {name!r}: {exc}") from None
        return build(**values)
    except ValueError as exc:
        line = f"{where}: {exc}"  # cut in the middle if long: one short line
        raise ValueError(line if len(line) < 200
                         else f"{line[:98]}...{line[-98:]}") from None


def boolean(value) -> bool:
    """A boolean, or 0/1 for one."""
    if not isinstance(value, (bool, int)) or value not in (0, 1):
        raise TypeError
    return bool(value)


def strings(value) -> tuple[str, ...]:
    if type(value) is not list or set(map(type, value)) - {str}:
        raise TypeError
    return tuple(value)


def atom_names(value) -> tuple[str, ...]:
    """Names that :func:`parse` reads as atoms, and as nothing else."""
    for name in strings(value):
        with suppress(ParseError):
            if parse(name) is Atom(name):
                continue
        raise ValueError(f"{reprlib.repr(name)} is not an atom name")
    return tuple(value)
