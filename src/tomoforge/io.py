"""Text formats for readings and density matrices.

Readings file: one record per line, ``readout_id,peak,real,imag``, with
``#`` comment lines; header comments may carry ``# key=value`` metadata
(noise_sigma, seed, source); a key or value with a line break in it is
rejected. Ids and values are ASCII numbers without digit-group underscores.
The writer and the parser check every record by the rule
``assemble_design`` applies, so a file the writer produces is one the parser
reads. Floats are written with repr, so a write/parse round trip is
bit-exact. The writers format the whole text before opening the file, so a
rejected value leaves an existing file as it was.

Density file: 4 lines of 4 whitespace-separated complex literals ``a+bi`` /
``a-bi``. Parsing checks Hermiticity: silent up to ``HERMITICITY_WARN_TOL``,
a warning up to ``HERMITICITY_ERROR_TOL``, an error above that. The writer
refuses what the parser refuses, so every file it writes parses back
bit-exactly.

Both readers take UTF-8 text; any other file is a ValidationError.
"""

from __future__ import annotations

import cmath
import re
import warnings
from typing import Iterable, Optional

import numpy as np

from .errors import ValidationError, _ascii_text, _finite_array
from .model import Reading, _add_reading, _hermiticity_defect

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"([+-]?{_UNSIGNED})([+-]{_UNSIGNED})i", re.ASCII)  # \d: 0-9 only

HERMITICITY_WARN_TOL = 1e-6
HERMITICITY_ERROR_TOL = 1e-2


def _read_text(path) -> str:
    """The text of the file at ``path``; ValidationError naming it unless it is UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_readings(text: str) -> list:
    """Parse a readings file into Reading records.

    Rejects malformed lines and any record ``assemble_design`` would reject
    (bad id, unknown peak, non-finite value, repeated (id, peak)), naming
    the line.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
    lines = []
    for key, value in (metadata or {}).items():
        line = f"# {key}={value}"
        if line.splitlines() != [line]:
            raise ValidationError(f"metadata {key!r}={value!r} must not contain a line break")
        lines.append(line)
    values = {}
    for r in readings:
        _add_reading(values, r.readout, r.peak, r.value)
    lines += [f"{rid},{peak},{z.real!r},{z.imag!r}" for (rid, peak), z in values.items()]
    return "\n".join(lines) + "\n"


def write_readings(path, readings: Iterable[Reading], metadata: Optional[dict] = None) -> None:
    text = format_readings(readings, metadata)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    """Parse a 4x4 complex matrix and check it is (close to) Hermitian."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise ValidationError(f"line {lineno}: expected 4 entries per row, got {len(tokens)}")
        rows.append([_parse_complex(t, lineno) for t in tokens])
    if len(rows) != 4:
        raise ValidationError(f"expected 4 matrix rows, got {len(rows)}")
    m = np.array(rows, dtype=complex)
    dev = _hermiticity_defect(m, HERMITICITY_ERROR_TOL)
    if dev > HERMITICITY_WARN_TOL:
        warnings.warn(
            f"density matrix is only approximately Hermitian (deviation {dev:.3e})",
            stacklevel=2,
        )
    return m


def _format_complex(value: complex) -> str:
    re_s = repr(float(value.real))
    im_s = repr(float(value.imag))
    if not im_s.startswith("-"):
        im_s = "+" + im_s
    return f"{re_s}{im_s}i"


def format_density(matrix) -> str:
    """Density file text; rejects every matrix ``parse_density`` rejects (a
    non-finite entry, a Hermiticity defect above ``HERMITICITY_ERROR_TOL``)."""
    m = _finite_array(matrix, (4, 4), "matrix", complex)
    _hermiticity_defect(m, HERMITICITY_ERROR_TOL)
    return "\n".join(" ".join(_format_complex(v) for v in row) for row in m) + "\n"


def write_density(path, matrix) -> None:
    text = format_density(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_density(path) -> np.ndarray:
    return parse_density(_read_text(path))
