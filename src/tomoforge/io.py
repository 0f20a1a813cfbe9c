"""Text formats for readings and density matrices.

Readings file: one record per line, ``readout_id,peak,real,imag``, with ``#``
comment lines; header comments may carry ``# key=value`` metadata (a dict:
noise_sigma, seed, source); a key or value with a line break in it, or that is
not UTF-8 text, is rejected. Ids and values are ASCII numbers without
digit-group underscores. The writer and the parser check every record by the
rule ``assemble_design`` applies, so a file the writer produces is one the
parser reads. Floats are written with repr, so a round trip is bit-exact.

Density file: 4 lines of 4 whitespace-separated complex literals ``a+bi`` /
``a-bi``, blank and ``#`` lines skipped. The parser and the writer refuse a
matrix whose Hermiticity defect exceeds ``model.HERMITICITY_TOL``, the cut
``matrix_to_params`` applies, so every file the writer produces parses back
bit-exactly and every matrix the parser returns converts to parameters.

A path is a str, bytes or os.PathLike name without a NUL, never a file
descriptor. Both readers take UTF-8 text; any other file is a ValidationError.
The writers format and encode the whole text before opening the file, so a
rejected value leaves an existing file as it was. They overwrite in place,
never truncating to zero first (on ext4 that, like a replace-by-rename, flushes
the file on close: ``auto_da_alloc`` in the kernel's ext4 admin guide), and cut
at the new length. Not atomic: a write that fails part-way can leave old bytes
past the new text.
"""

from __future__ import annotations

import cmath
import os
import re
import stat
from typing import Iterable, Optional

import numpy as np

from .errors import ValidationError, _ascii_text, _finite_array
from .model import Reading, _add_reading, _reading_values, _require_hermitian

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"([+-]?{_UNSIGNED})([+-]{_UNSIGNED})i", re.ASCII)  # \d: 0-9 only


def _path(path):
    """``os.fspath(path)`` of a str, bytes or os.PathLike name with no NUL, never a descriptor; else ValidationError."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(f"path must be a str, bytes or os.PathLike file name, got {path!r}")
    if "\0" in os.fsdecode(path):  # open() would raise a plain ValueError
        raise ValidationError(f"path must not contain a NUL character, got {path!r}")
    return os.fspath(path)


def _read_text(path) -> str:
    """The text of the file at ``path``; ValidationError naming it unless it is UTF-8."""
    with open(_path(path), encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 over the file at ``path`` in place (see the module docstring)."""
    data = text.encode("utf-8")
    with open(os.open(_path(path), os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not /dev/null or a pipe
            fh.truncate()


def _lines(text: str, what: str):
    """(number, line, stripped line) of each line of the str ``text`` that is not blank or a ``#`` comment."""
    if not isinstance(text, str):
        raise ValidationError(f"{what} must be a str, got {type(text).__name__}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if (line := raw.strip()) and not line.startswith("#"):
            yield lineno, raw, line


def parse_readings(text: str) -> list:
    """Parse a readings file into Reading records.

    Rejects malformed lines and any record ``assemble_design`` would reject
    (bad id, unknown peak, non-finite value, repeated (id, peak)), naming
    the line.
    """
    values = {}
    for lineno, raw, line in _lines(text, "readings text"):
        _ascii_text(line, f"line {lineno}: ")
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ValidationError(
                f"line {lineno}: expected 'readout_id,peak,real,imag', got {raw!r}"
            )
        try:
            rid = int(parts[0])
        except ValueError:
            raise ValidationError(f"line {lineno}: read-out id {parts[0]!r} is not an integer") from None
        try:
            value = complex(float(parts[2]), float(parts[3]))
        except ValueError:
            raise ValidationError(f"line {lineno}: could not parse value from {raw!r}") from None
        try:
            _add_reading(values, rid, parts[1], value)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return [Reading(rid, peak, value) for (rid, peak), value in values.items()]


def format_readings(readings: Iterable[Reading], metadata: Optional[dict] = None) -> str:
    """Readings file text; rejects every record ``parse_readings`` would."""
    if not isinstance(metadata, (dict, type(None))):
        raise ValidationError(f"metadata must be a dict or None, got {type(metadata).__name__}")
    lines = []
    for key, value in (metadata or {}).items():
        line = f"# {key}={value}"
        if line.splitlines() != [line]:
            raise ValidationError(f"metadata {key!r}={value!r} must not contain a line break")
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"metadata {key!r}={value!r} is not UTF-8 text") from None
        lines.append(line)
    lines += [f"{rid},{peak},{z.real!r},{z.imag!r}" for (rid, peak), z in _reading_values(readings).items()]
    return "\n".join(lines) + "\n"


def write_readings(path, readings: Iterable[Reading], metadata: Optional[dict] = None) -> None:
    _write_text(path, format_readings(readings, metadata))


def read_readings(path) -> list:
    return parse_readings(_read_text(path))


def _parse_complex(token: str, lineno: int):
    m = _COMPLEX_RE.fullmatch(token)
    if m is None:
        raise ValidationError(f"line {lineno}: unparseable complex literal {token!r} (expected a+bi)")
    value = complex(float(m.group(1)), float(m.group(2)))
    if not cmath.isfinite(value):
        raise ValidationError(f"line {lineno}: complex literal {token!r} is not finite")
    return value


def parse_density(text: str) -> np.ndarray:
    """Parse a 4x4 complex matrix and check it is Hermitian within
    ``model.HERMITICITY_TOL``."""
    rows = []
    for lineno, _, line in _lines(text, "density text"):
        tokens = line.split()
        if len(tokens) != 4:
            raise ValidationError(f"line {lineno}: expected 4 entries per row, got {len(tokens)}")
        rows.append([_parse_complex(t, lineno) for t in tokens])
    if len(rows) != 4:
        raise ValidationError(f"expected 4 matrix rows, got {len(rows)}")
    m = np.array(rows, dtype=complex)
    _require_hermitian(m)
    return m


def _format_complex(value: complex) -> str:
    return f"{float(value.real)!r}{float(value.imag):+}i"  # a float's format with no type is its repr


def format_density(matrix) -> str:
    """Density file text; rejects every matrix ``parse_density`` rejects (a
    non-finite entry, a Hermiticity defect above ``model.HERMITICITY_TOL``)."""
    m = _finite_array(matrix, (4, 4), "matrix", complex)
    _require_hermitian(m)
    return "\n".join(" ".join(_format_complex(v) for v in row) for row in m) + "\n"


def write_density(path, matrix) -> None:
    _write_text(path, format_density(matrix))


def read_density(path) -> np.ndarray:
    return parse_density(_read_text(path))
