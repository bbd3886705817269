"""JSON file formats for signal families and sampled data.

Two desk-scale schemas, both versioned "1":

* signal files hold exact basis coefficients; save -> load round-trips
  bit-exactly because entries are written as [re, im] float pairs through
  Python's shortest-round-trip float repr;
* sampled files hold grid samples f(t_m) of a signal measured in time, plus a
  quadrature rule.  Ingestion maps samples to coefficients c_m = sqrt(w_m)
  f(t_m), so coefficient inner products equal the quadrature approximation of
  the defining integral.  This is the single approximation layer of the
  package; everything downstream of ingestion is exact.

One codec serves both schemas and the CLI's stdout reports: ``encode_array``
and ``decode_array`` convert (..., N, N) stacks to and from nested [re, im]
lists, and ``read_json`` / ``write_json`` alone parse and serialise.  JSON has
no NaN or Infinity (RFC 8259, section 6): load rejects them with SchemaError,
and ``write_json`` with NonFiniteError, which only a report whose value
overflowed meets: the constructors refuse non-finite signals and samples.

``write_json`` writes exactly the bytes that the standard library's json
encoder writes with ``indent=1`` and ``allow_nan=False``, plus a newline, so
the file format is unchanged.  It writes only two things itself: the brackets,
separators and indents of the top-level object and of the containers directly
under it, one element at a time, and each rectangular block of floats below
them, with one ``float.__repr__`` pass and one ``str.join`` per axis.  (With
an indent the standard encoder runs in pure Python, one generator step per
float.)  json's encoder writes every other value, re-indented to its level.

Unknown top-level keys are ignored on load, so report-bearing files written by
the CLI remain valid signal files.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import SignalFamily
from .errors import NonFiniteError, SchemaError

__all__ = [
    "SCHEMA_VERSION",
    "SampledSignals",
    "save_family",
    "load_family",
    "family_to_doc",
    "family_from_doc",
    "save_sampled",
    "load_sampled",
    "ingest_sampled",
    "quadrature_weights",
]

SCHEMA_VERSION = "1"


def encode_array(stack) -> list:
    """Nested lists of [re, im] float pairs for a (..., N, N) stack."""
    z = np.asarray(stack, dtype=np.complex128)
    return np.stack([z.real, z.imag], -1).tolist()


def _is_finite_number(value) -> bool:
    # abs(x) <= max is False for NaN, +-Infinity and ints beyond the float range
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _raise_first_error(doc, shape: tuple, path: str) -> None:
    size = shape[0]
    if not isinstance(doc, list) or size not in (None, len(doc)):
        raise SchemaError(path, f"expected a list of {size} items" if size else "expected a list")
    if len(shape) == 1:
        if not all(map(_is_finite_number, doc)):
            raise SchemaError(path, "entries must be finite numbers")
        return
    for idx, child in enumerate(doc):
        _raise_first_error(child, shape[1:], f"{path}[{idx}]")


def decode_array(doc, shape: tuple, path: str) -> np.ndarray:
    """Check nested lists against ``shape`` and return them as a float64 array.

    A ``None`` axis accepts any length.  Every entry must be a finite int or
    float (not a bool).  Otherwise SchemaError names the first bad field in
    document order: the list whose length or type is wrong, or the innermost
    list (an [re, im] pair, the grid, the interval) holding the bad entry.
    """
    try:
        cells = np.array(doc, dtype=object)
        if (
            cells.ndim == len(shape)
            and all(want in (None, got) for want, got in zip(shape, cells.shape))
            and all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, cells.flat)))
        ):
            values = cells.astype(np.float64)
            if np.isfinite(values).all():
                return values
    except (OverflowError, ValueError):  # an int beyond the float range; ndarrays of mixed shapes
        pass
    _raise_first_error(doc, shape, path)
    raise SchemaError(path, "malformed array")  # not reached: the walk raises whenever the fast path fails


def read_json(path):
    """Parse the JSON document at ``path``; a file json cannot parse is a SchemaError."""
    with open(path) as handle:
        try:
            return json.load(handle)
        # ValueError: a JSONDecodeError, bytes that are not UTF-8, or an int literal past 4,300 digits;
        # RecursionError: nested too deep for json's scanner
        except (ValueError, RecursionError) as exc:
            raise SchemaError("", f"invalid JSON: {exc}") from exc


_ENCODER = json.JSONEncoder(indent=1, allow_nan=False)


def _encoded(value, level: int) -> str:
    """json's text for ``value`` at indent ``level``: json escapes newlines in strings, so raw ones are indents."""
    try:
        text = _ENCODER.encode(value)
    except ValueError as exc:
        message = str(exc)  # "Out of range float values are not JSON compliant: <repr>"
        if not message.startswith("Out of range float"):
            raise  # a container that holds itself
        spelling = next(word for word in ("nan", "-inf", "inf") if word in message)
        raise NonFiniteError(f"cannot write {spelling}: JSON has no NaN or Infinity") from exc
    return text.replace("\n", "\n" + " " * level)


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return _encoded({key: None}, 0)[3:-8]  # json's coercion, cut from '{\n "<key>": null\n}'


def _float_grid_text(value, level: int) -> str | None:
    """json's indented text for a plain float or a rectangular nested list of them
    whose opening bracket sits at indent ``level``; None for any other value."""
    shape, cells, firsts = [], [value], set()
    while (kinds := set(map(type, cells))) == {list}:
        widths = set(map(len, cells))
        # ragged, or cyclic (json cannot write that either): a descent that never reaches
        # floats must meet one of its first lists again; an empty axis leaves no float cells
        if len(widths) != 1 or id(cells[0]) in firsts:
            return None
        firsts.add(id(cells[0]))
        shape.append(widths.pop())
        cells = list(chain.from_iterable(cells))
    if kinds != {float}:
        return None
    texts = list(map(float.__repr__, cells))
    for axis in reversed(range(len(shape))):
        inner = "\n" + " " * (level + axis + 1)
        head, sep, tail = "[" + inner, "," + inner, "\n" + " " * (level + axis) + "]"
        texts = [head + sep.join(group) + tail for group in zip(*[iter(texts)] * shape[axis])]
    # repr spells NaN and Infinity 'nan' and 'inf'; no finite float's repr holds an 'n'
    return None if "n" in texts[0] else texts[0]


def _chunks(value, level: int):
    """json's ``indent=1`` text for ``value`` at indent ``level``, in pieces.

    The top-level object and the containers directly under it go one element
    at a time.  Below them float blocks are formatted here, all else by json.
    """
    if level < 2 and isinstance(value, (dict, list, tuple)) and value:
        if isinstance(value, dict):
            brackets, items = "{}", ((_key_text(key) + ": ", item) for key, item in value.items())
        else:
            brackets, items = "[]", (("", item) for item in value)
        inner = "\n" + " " * (level + 1)
        sep = brackets[0] + inner
        for prefix, item in items:
            yield sep + prefix
            yield from _chunks(item, level + 1)
            sep = "," + inner
        yield "\n" + " " * level + brackets[1]
    else:
        text = _float_grid_text(value, level) if level >= 2 else None
        yield _encoded(value, level) if text is None else text


def write_json(doc, path=None) -> None:
    """Write ``doc`` to ``path``, or to stdout, byte for byte as the json module does
    with ``indent=1`` and ``allow_nan=False``, plus a newline.  Types json rejects
    raise TypeError, NaN and Infinity NonFiniteError.  A failed write prints nothing
    to stdout, and removes a partial regular file; a FIFO, device or symlink at
    ``path`` stays."""
    if path is None:  # joined before writing, so that a failure prints nothing
        sys.stdout.write("".join(_chunks(doc, 0)) + "\n")
        return
    handle = open(path, "w")
    try:
        with handle:  # a failed flush on close counts as a failed write
            handle.writelines(_chunks(doc, 0))
            handle.write("\n")
    except BaseException:
        with contextlib.suppress(OSError):  # the original error, not a failed cleanup, is reported
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(key, "missing required field")
    return doc[key]


def _header(doc, *int_keys: str) -> list[int]:
    """Check the object, its schema version and its positive-int fields."""
    if not isinstance(doc, dict):
        raise SchemaError("", "top-level document must be an object")
    version = _require(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"unsupported version {version!r}")
    values = []
    for key in int_keys:
        value = _require(doc, key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise SchemaError(key, f"expected a positive integer, got {value!r}")
        values.append(value)
    return values


def family_to_doc(family: SignalFamily, metadata: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": family.n,
        "m": family.m,
        "k": family.k,
        "field": family.field,
        "signals": encode_array(family.coeffs_array),
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def family_from_doc(doc) -> tuple[SignalFamily, dict]:
    n, m, k = _header(doc, "n", "m", "k")
    field = _require(doc, "field")
    if field not in ("real", "complex"):
        raise SchemaError("field", f"expected 'real' or 'complex', got {field!r}")
    pairs = decode_array(_require(doc, "signals"), (k, m, n, n, 2), "signals")
    if field == "real":
        imaginary = np.flatnonzero(pairs[..., 1].reshape(k, -1).any(axis=1))
        if imaginary.size:
            raise SchemaError(f"signals[{imaginary[0]}]", "real file has nonzero imaginary parts")
        coeffs = pairs[..., 0]
    else:
        coeffs = pairs.view(np.complex128)[..., 0]
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata", "must be an object when present")
    return SignalFamily.from_coeffs(coeffs, field=field), metadata


def save_family(path, family: SignalFamily, metadata: dict | None = None) -> None:
    write_json(family_to_doc(family, metadata), path)


def load_family(path) -> tuple[SignalFamily, dict]:
    return family_from_doc(read_json(path))


@dataclass(frozen=True, eq=False)
class SampledSignals:
    """Grid samples of K signals plus the quadrature rule to ingest them with."""

    grid: np.ndarray
    samples: np.ndarray
    rule: str
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        samples = np.asarray(self.samples)
        if grid.ndim != 1 or grid.size < 2:
            raise SchemaError("grid", "need at least two sample times")
        if not (np.isfinite(grid).all() and np.all(np.diff(grid) > 0)):
            raise SchemaError("grid", "sample times must be finite and strictly increasing")
        if samples.ndim != 4 or samples.shape[1] != grid.size or samples.shape[2] != samples.shape[3]:
            raise SchemaError(
                "samples", f"expected shape (K, {grid.size}, N, N), got {samples.shape}"
            )
        if not np.isfinite(samples).all():
            raise SchemaError("samples", "samples hold NaN or Infinity")
        if self.interval is not None:
            ends = np.asarray(self.interval, dtype=np.float64)
            if not (ends.shape == (2,) and np.isfinite(ends).all() and ends[0] < ends[1]):
                raise SchemaError("interval", "expected finite [a, b] with a < b")
        if self.rule not in ("trapezoid", "gauss-legendre"):
            raise SchemaError("rule", f"expected 'trapezoid' or 'gauss-legendre', got {self.rule!r}")
        if self.rule == "gauss-legendre" and self.interval is None:
            raise SchemaError("interval", "gauss-legendre ingestion requires the interval")
        grid.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", samples)


def quadrature_weights(sampled: SampledSignals) -> np.ndarray:
    """Weights w_m of the file's quadrature rule on its grid."""
    grid = sampled.grid
    if sampled.rule == "trapezoid":
        w = np.empty_like(grid)
        w[0] = (grid[1] - grid[0]) / 2.0
        w[-1] = (grid[-1] - grid[-2]) / 2.0
        w[1:-1] = (grid[2:] - grid[:-2]) / 2.0
        return w
    from numpy.polynomial import legendre  # here, not at the top: importing it costs each CLI run ~9 ms

    a, b = sampled.interval
    nodes, weights = legendre.leggauss(grid.size)
    mapped_nodes = (b - a) / 2.0 * nodes + (a + b) / 2.0
    if np.max(np.abs(mapped_nodes - grid)) > 1e-9 * max(1.0, abs(b - a)):
        raise SchemaError("grid", "grid does not match the Gauss-Legendre nodes for the interval")
    return (b - a) / 2.0 * weights


def ingest_sampled(sampled: SampledSignals) -> SignalFamily:
    """Map samples to coefficients c_m = sqrt(w_m) f(t_m).

    The coefficient-space inner product of the result equals the quadrature
    approximation of the time-domain inner product under the file's rule.
    """
    weights = quadrature_weights(sampled)
    scaled = np.sqrt(weights)[None, :, None, None] * sampled.samples
    return SignalFamily.from_coeffs(scaled)


def save_sampled(path, sampled: SampledSignals) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": int(sampled.samples.shape[2]),
        "k": int(sampled.samples.shape[0]),
        "rule": sampled.rule,
        "grid": sampled.grid.tolist(),
        "samples": encode_array(sampled.samples),
    }
    if sampled.interval is not None:
        doc["interval"] = [float(sampled.interval[0]), float(sampled.interval[1])]
    write_json(doc, path)


def load_sampled(path) -> SampledSignals:
    doc = read_json(path)
    n, k = _header(doc, "n", "k")
    rule = _require(doc, "rule")
    grid = decode_array(_require(doc, "grid"), (None,), "grid")
    pairs = decode_array(_require(doc, "samples"), (k, grid.size, n, n, 2), "samples")
    interval = None
    if "interval" in doc:
        a, b = decode_array(doc["interval"], (2,), "interval")
        interval = (float(a), float(b))
    return SampledSignals(
        grid=grid, samples=pairs.view(np.complex128)[..., 0], rule=rule, interval=interval
    )
