"""Key files: UTF-8 text, one name=value field per line, tagged with the
scheme that wrote them by a scheme= field, which save_key writes first."""

from __future__ import annotations

from .errors import ParameterError

#: The scheme= tags of the gacd and opf key files.  They live here so that
#: the CLI can read a key file's tag before it imports the one scheme module
#: that the tag names.
GACD_SCHEME = "gacd-ope/1"
OPF_SCHEME = "opf/1"

#: Largest lambda, and bit length of N, of any key, generated or loaded:
#: keys stay quick to check, and their decimal key files within the 4300
#: digits Python converts between int and str by default.
MAX_KEY_BITS = 12288


class KeyFormatError(ParameterError):
    """A key file that is malformed or tagged for another scheme."""


def read(path) -> tuple:
    """(tag, fields): the scheme= value of the key file at path (None if it
    has none) and its other fields.  A file that is not UTF-8, or that has a
    line without '=', raises KeyFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            fields = dict(ln.strip().split("=", 1) for ln in fh if ln.strip())
    except ValueError as exc:  # a line without '=', or bytes that are not UTF-8
        raise KeyFormatError(f"malformed key file {path!r}: {exc}") from exc
    return fields.pop("scheme", None), fields


def read_scheme(path, scheme: str) -> dict:
    """The fields of the key file at path, which must be tagged scheme."""
    tag, fields = read(path)
    if tag != scheme:
        raise KeyFormatError(f"unexpected key file scheme: {tag!r}")
    return fields


def write(path, scheme: str, fields: dict) -> None:
    """Write a key file tagged scheme, then the fields in their order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"scheme={scheme}\n")
        for name, value in fields.items():
            fh.write(f"{name}={value}\n")
