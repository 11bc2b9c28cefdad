"""Batch command-line interface: config ingestion, dispatch, serialization.

Verbs: derive, variance, spectrum, simulate, fock, sweep, compare.
A single JSON config document drives every verb; all randomness is pinned
by explicit seeds, so repeated invocations produce identical files.

Exit codes: 0 success, 2 validation, 3 instability, 4 numerical failure;
``main`` takes each from the error's base class (see ``errors``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
import typing
import warnings
from pathlib import Path
from typing import Any, Iterable, Iterator

# layer functions are called through their modules, which run on first
# use, and numpy is imported only by the verbs that build arrays: so a
# verb runs only the modules it calls, and derive loads no numpy
from . import bath as bath_mod
from . import fock as fock_mod
from . import langevin, params, spectrum, steady_state
from .errors import (
    MirrorCoolError,
    NumericalError,
    StabilityError,
    UnstableBathError,
    UnsupportedPhaseError,
    ValidationError,
)

if typing.TYPE_CHECKING:
    import numpy as np

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INSTABILITY = 3
EXIT_NUMERICAL = 4

# ---------------------------------------------------------------------------
# serialization helpers

def _numpy_types(*names: str) -> tuple[type, ...]:
    """The named numpy types, or none while numpy is not loaded: no array or
    numpy scalar exists until it is, so the encoders never load it."""
    np = sys.modules.get("numpy")
    return tuple(getattr(np, name) for name in names) if np else ()


def _jsonable(value: Any) -> Any:
    """The JSON form of a dataclass, complex number, array or numpy scalar."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    if isinstance(value, _numpy_types("ndarray", "generic")):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_CHUNK = 4096  # floats formatted per call, and cells written per piece


def _is_float_array(value: Any) -> bool:
    """A float16/32/64 array: its ``tolist()`` holds Python floats."""
    return (isinstance(value, _numpy_types("ndarray")) and value.dtype.kind == "f"
            and value.dtype.itemsize <= 8)


class _Rows:
    """A table that JSON writes as the list of its rows, from its columns:
    equal-length 1-D float or boolean arrays."""

    def __init__(self, columns: list):
        self.columns = columns


# ---------------------------------------------------------------------------
# float text: repr's digits for a batch of floats at once
#
# A batch is formatted into cells: one column of _CELL bytes per value,
# laid out by position (row j holds byte j of every cell), which hold the
# value's text in order with NULs between and after its characters:
# sign, "0." and up to three zeros, 17 digits with a slot for the point
# after each of the first 16, a "0" after the point, and "e", the
# exponent's sign and three digits. _assemble drops the NULs.

_CELL = 45
_DIGITS = slice(6, 39, 2)  # the digit rows; the point's slots lie between them
_POINTS = slice(7, 38, 2)
_M32 = 0xFFFFFFFF


@functools.cache  # built on the first float array written, in about 0.5 ms
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """The 32-bit limbs, least significant first, of 10**i for i in
    -292..326 normalised to 128 bits (each in [2**127, 2**128), rounded up
    where inexact), as a (4, 619) array; and 10**i for i in 0..17."""
    import numpy as np

    g, p = [], 10
    for _ in range(292):
        g.append(-(-(1 << (127 + p.bit_length())) // p))
        p *= 10
    g.reverse()
    p = 1
    for _ in range(327):
        shift = p.bit_length() - 128
        g.append(p << -shift if shift <= 0 else -(-p >> shift))
        p *= 10
    limbs = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in g), dtype="<u4")
    return limbs.reshape(-1, 4).T.copy(), 10 ** np.arange(18, dtype=np.int64)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits ``f`` and exponent ``k`` of the shortest decimal f * 10**k that
    reads back as each positive finite float64 of ``x``, the closest one
    where several are that short: the digits repr writes.

    This is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
    2020), one numpy operation over the batch at a time. The products of
    the 128-bit powers of ten with significands of up to 59 bits are summed
    in 32-bit columns of int64; f has at most 17 digits.
    """
    import numpy as np

    limbs, _ = _powers()
    bits = x.view(np.int64)
    biased = bits >> 52
    fraction = bits & ((1 << 52) - 1)
    c = fraction | (biased != 0).astype(np.int64) << 52  # x = c * 2**q
    q = np.maximum(biased, 1) - 1075
    closer = (fraction == 0) & (biased > 1)  # the next float down is nearer
    # k = floor(log10(2**q)), or of 3/4 * 2**q; h = q + floor(log2(10**-k)) + 1
    k = (q * 661971961083 - closer * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 1
    del biased, fraction, q
    g = limbs[:, 292 - k]
    cp = c << (h + 2)
    # the 32-bit columns of g * cp, carries not yet propagated
    columns = np.empty((5, x.size), dtype=np.int64)
    part = g * (cp & _M32)  # wraps past 2**63; its bits are the product's
    np.bitwise_and(part, _M32, out=columns[:4])
    part.view(np.uint64)[...] >>= 32
    columns[4] = 0
    columns[1:] += part
    columns[1:] += np.multiply(g, cp >> 32, out=part)
    del cp

    def scaled(step):
        """(g * (cp + (step << h))) >> 128, its last bit set where the bits
        below are not all 0: x, or an end of its rounding interval, in
        units of 10**k / 4."""
        R = np.add(columns[:4], np.multiply(g, step << h, out=part), out=part)
        R[1] += R[0] >> 32
        R[2] += R[1] >> 32
        R[3] += R[2] >> 32
        top = columns[4] + (R[3] >> 32)
        top |= ((R[2] | R[3]) & _M32) != 0
        return top

    vbl, vb, vbr = scaled(closer - 2), scaled(0), scaled(2)
    del columns, part, g
    odd = c & 1  # an odd c excludes the interval's ends
    lower, upper = vbl + odd, vbr - odd
    s = vb >> 2
    sp = s // 10
    up_in = lower <= 40 * sp
    wp_in = 40 * sp + 40 <= upper
    u_in = lower <= 4 * s
    w_in = 4 * s + 4 <= upper
    mid = 4 * s + 2
    up = np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & (s & 1 == 1)))
    # one digit fewer where exactly one of sp and sp + 1 (times 10) is inside
    f = np.where((s >= 10) & (up_in != wp_in), 10 * (sp + wp_in), s + up)
    return f, k


@functools.cache
def _tokens(json_text: bool) -> np.ndarray:
    """Cells of 0.0, NaN and infinity, unsigned, as JSON or as repr writes them."""
    import numpy as np

    words = (b"0.0", b"NaN", b"Infinity") if json_text else (b"0.0", b"nan", b"inf")
    cells = b"".join(b"\0" + w.ljust(_CELL - 1, b"\0") for w in words)
    return np.frombuffer(cells, dtype=np.uint8).reshape(-1, _CELL).T.copy()


def _repr_cells(values: np.ndarray, json_text: bool = False) -> np.ndarray:
    """The cells of ``repr(float(v))`` for each value of a float array; NaN
    and infinities are written ``NaN`` and ``Infinity`` as JSON text."""
    import numpy as np

    x = np.asarray(values, dtype=np.float64).ravel()  # float16 and float32 widen exactly
    n = x.size
    _, powers = _powers()
    regular = np.isfinite(x) & (x != 0)
    special = not regular.all()
    ax = np.abs(x)
    if special:
        ax[~regular] = 1.0
    f, k = _shortest(ax)
    length = np.searchsorted(powers, f, side="right")
    point = length + k  # the digits are 0.ddd * 10**point
    f *= powers[17 - length]
    # the 17 digits, zero-padded: halves of 8, quarters of 4, pairs, digits
    digits = np.empty((17, n), dtype=np.uint8)
    digits[0] = f // powers[16]
    f -= digits[0] * powers[16]
    halves = np.empty((2, n), dtype=np.uint32)
    np.floor_divide(f, powers[8], out=halves[0], casting="unsafe")
    halves[1] = f - halves[0] * powers[8]
    quarters = np.empty((2, 2, n), dtype=np.uint16)
    np.floor_divide(halves, 10000, out=quarters[:, 0], casting="unsafe")
    np.subtract(halves, quarters[:, 0] * np.uint32(10000), out=quarters[:, 1], casting="unsafe")
    pairs = np.empty((2, 2, 2, n), dtype=np.uint8)
    np.floor_divide(quarters, 100, out=pairs[:, :, 0], casting="unsafe")
    np.subtract(quarters, pairs[:, :, 0] * np.uint16(100), out=pairs[:, :, 1], casting="unsafe")
    ones = digits[1:].reshape(2, 2, 2, 2, n)
    np.floor_divide(pairs, 10, out=ones[..., 0, :])
    np.subtract(pairs, ones[..., 0, :] * np.uint8(10), out=ones[..., 1, :])
    significant = (digits != 0).view(np.uint8)
    significant *= np.arange(1, 18, dtype=np.uint8)[:, None]
    significant = significant.max(axis=0)  # digits up to the last nonzero one
    digits += 48

    cells = np.zeros((_CELL, n), dtype=np.uint8)
    cells[0] = np.signbit(x) & ~np.isnan(x)
    cells[0] *= 45
    fixed = (point >= -3) & (point <= 16)  # repr's fixed-point range
    whole = np.where(fixed, point, 0)  # digits before the point
    cells[_DIGITS] = digits
    cells[_DIGITS] *= np.arange(17)[:, None] < np.maximum(significant, whole)
    dot = np.where(whole > 0, whole - 1, np.where(fixed | (significant == 1), -1, 0))
    cells[_POINTS] = np.arange(16)[:, None] == dot
    cells[_POINTS] *= 46
    cells[39] = significant <= whole  # "1e3" is written "1000.0"
    cells[39] *= 48
    lead = fixed & (point <= 0)  # "0.00ddd"
    if lead.any():
        cells[1] = lead * 48
        cells[2] = lead * 46
        cells[3:6] = lead & (point <= -np.arange(1, 4)[:, None])
        cells[3:6] *= 48
    if not fixed.all():  # "d.ddde-XX"
        exponent = np.where(fixed, 0, point - 1)
        magnitude = np.abs(exponent)
        cells[40] = ~fixed
        cells[40] *= 101
        cells[41] = np.where(fixed, 0, np.where(exponent < 0, 45, 43))
        cells[42] = (magnitude >= 100) * (magnitude // 100 + 48)
        cells[43] = ~fixed * (magnitude // 10 % 10 + 48)
        cells[44] = ~fixed * (magnitude % 10 + 48)
    if special:
        at = np.flatnonzero(~regular)
        kind = np.where(x[at] == 0, 0, np.where(np.isnan(x[at]), 1, 2))
        sign = cells[0, at]
        cells[:, at] = _tokens(json_text)[:, kind]
        cells[0, at] = sign
    return cells


def _bool_cells(column: np.ndarray) -> np.ndarray:
    """Cells of a boolean array: ``false`` or ``true``, NUL-padded."""
    import numpy as np

    table = np.frombuffer(b"false" b"true\0", dtype=np.uint8)  # two 5-byte cells
    return table.reshape(2, 5).T[:, column.astype(np.uint8)]


def _text_cells(cells: Iterable[str]) -> np.ndarray:
    """Cells of text, which holds no NUL."""
    import numpy as np

    encoded = [cell.encode("utf-8") for cell in cells]
    if b"\0" in b"".join(encoded):
        raise ValueError("a text cell holds NUL, which the writer cannot write")
    return np.array(encoded, dtype=bytes).view(np.uint8).reshape(len(encoded), -1).T


def _assemble(fields: list, rows: int) -> np.ndarray:
    """The bytes of ``rows`` rows of text, each the concatenation of
    ``fields``: bytes written on every row, or a column of cells. The
    fields are laid side by side and the NULs dropped.

    The text stays a numpy array, which a file writes as it stands: as a
    ``bytes`` object it left the heap fragmented enough to raise the peak
    resident size of a long-running process."""
    import numpy as np

    # the rows that are NUL in every cell of a field are left out
    parts = [np.frombuffer(f, dtype=np.uint8)[:, None] if isinstance(f, bytes)
             else f[f.any(axis=1)] for f in fields]
    buf = np.empty((rows, sum(map(len, parts))), dtype=np.uint8)
    at = 0
    for part in parts:
        buf[:, at:at + len(part)] = part.T
        at += len(part)
    return buf[buf != 0]  # np.compress would hold 8 bytes of index per byte


def _json_pieces(value: Any, indent: str = "") -> Iterator[bytes | np.ndarray]:
    """``json.dumps(value, indent=1, default=_jsonable)``, in pieces, for a
    value that starts on a line indented by ``indent``.

    The walk lays out nonempty dicts, lists and tuples item by item as
    ``indent=1`` does, and writes each nonempty 1-D float array and each
    ``_Rows`` table through ``_table``. ``json.dumps`` encodes every other
    value, once ``_jsonable`` has turned a value json cannot encode into one
    it can, as ``default=`` would.
    """
    if isinstance(value, (dict, list, tuple)) and value:
        inner = indent + " "
        keyed = isinstance(value, dict)
        yield b"{" if keyed else b"["
        for n, item in enumerate(value.items() if keyed else value):
            line = (",\n" if n else "\n") + inner
            if keyed:  # json's text of the key: a str, or the number, bool or None it converts
                key, item = item
                line += (json.dumps(key) if isinstance(key, str)
                         else json.dumps({key: None})[1:-7]) + ": "
            yield line.encode()
            yield from _json_pieces(item, inner)
        yield ("\n" + indent + ("}" if keyed else "]")).encode()
    elif value is None or isinstance(value, (str, int, float, dict, list, tuple)):
        yield json.dumps(value).encode()
    elif isinstance(value, _Rows):
        yield from _rows_block(value, indent)
    elif _is_float_array(value) and value.ndim == 1 and value.size:
        yield from _float_block(value, indent)
    else:
        yield from _json_pieces(_jsonable(value), indent)


def _float_block(values: np.ndarray, indent: str) -> Iterator[bytes | np.ndarray]:
    """The ``indent=1`` JSON list of ``values`` on a line indented by ``indent``,
    ``_CHUNK`` floats at a time."""
    return _table(b"[", [(",\n" + indent + " ").encode(), values], values.size, 1,
                  ("\n" + indent + "]").encode(), json_text=True)


def _rows_block(table: _Rows, indent: str) -> Iterable[bytes | np.ndarray]:
    """The ``indent=1`` JSON list of ``table``'s rows on a line indented by
    ``indent``, about ``_CHUNK`` cells at a time, cells as json writes them."""
    rows = len(table.columns[0]) if table.columns else 0
    if not rows:
        return [b"[]"]
    cell = (",\n" + indent + "  ").encode()
    fields = [(",\n" + indent + " [\n" + indent + "  ").encode()]
    for column in table.columns:
        fields += [column, cell]
    fields[-1] = ("\n" + indent + " ]").encode()
    return _table(b"[", fields, rows, len(table.columns), ("\n" + indent + "]").encode(),
                  json_text=True)


def _table(head: bytes, fields: list, rows: int, width: int, tail: bytes,
           json_text: bool) -> Iterator[bytes | np.ndarray]:
    """``head``, the ``rows`` rows of ``fields`` (see ``_assemble``), then
    ``tail``: the rows a chunk of about ``_CHUNK`` cells at a time, each row
    counting ``width`` cells. A JSON row starts with the comma that parts it
    from the row before, which the first row drops."""
    yield head
    step = max(1, _CHUNK // max(1, width))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        text = _assemble(_cells(fields, lo, hi, json_text), hi - lo)
        yield text[1:] if json_text and not lo else text
    yield tail


def _cells(fields: list, lo: int, hi: int, json_text: bool) -> list:
    """``fields`` with each column replaced by the cells of its rows ``lo``
    to ``hi``: the floats of every float column in one formatter call;
    booleans ``true``/``false``; other cells as text."""
    import numpy as np

    floats = [f[lo:hi] for f in fields if _is_float_array(f)]
    if floats:
        split = iter(np.split(_repr_cells(np.concatenate(floats), json_text), len(floats), axis=1))
    cells = []
    for field in fields:
        kind = field.dtype.kind if isinstance(field, np.ndarray) else None
        if isinstance(field, bytes):
            cells.append(field)
        elif _is_float_array(field):
            cells.append(next(split))
        elif kind == "b":
            cells.append(_bool_cells(field[lo:hi]))
        elif kind == "U":
            cells.append(_text_cells(field[lo:hi].tolist()))
        else:
            cells.append(_text_cells(map(_csv_cell, field[lo:hi])))
    return cells


def _csv_pieces(doc: dict) -> Iterator[bytes | np.ndarray]:
    """The ``#`` lines and the header, then the rows, about ``_CHUNK`` float
    cells at a time: every float column of a chunk is formatted in one call."""
    head = "".join(f"# {c}\n" for c in doc.get("comments", ())) + ",".join(doc["header"]) + "\n"
    columns = doc["columns"]
    fields = [b","] * (2 * len(columns))
    fields[::2] = columns
    fields[-1] = b"\n"
    return _table(head.encode("utf-8"), fields, min(map(len, columns), default=0),
                  sum(map(_is_float_array, columns)), b"", json_text=False)


def _write(out: str | None, doc: dict, fmt: str = "json") -> None:
    """Write ``doc`` to the file ``out``, or to stdout, as JSON or CSV.

    JSON is ``json.dumps(doc, indent=1)`` text with shortest round-trip
    floats (``repr``), ``NaN`` and ``Infinity`` included, which
    ``_json_pieces`` writes by walking the document. A CSV document is a
    table given by columns: ``header``, ``columns`` and optional
    ``comments``, which lead the file as ``#`` lines; float cells are
    ``repr`` floats and booleans ``true``/``false``. ``_table`` writes the
    rows of every table and float array a chunk at a time, the floats of a
    chunk in one call of the vectorised formatter (``_repr_cells``), byte
    for byte as ``repr`` writes them. The text is written as it is
    rendered, so the whole of it is never held. A file or stdout that
    cannot be written is refused as a bad ``out``; the file may then hold
    part of the text.
    """
    pieces = itertools.chain(_json_pieces(doc), [b"\n"]) if fmt == "json" else _csv_pieces(doc)
    if out:
        with _opened(out) as file:
            for piece in pieces:
                file.write(piece)
        return
    try:
        for piece in pieces:
            sys.stdout.write(bytes(piece).decode("utf-8"))
        sys.stdout.flush()
    except OSError as exc:
        raise ValidationError("out", f"cannot write to stdout: {exc}") from exc


@contextlib.contextmanager
def _opened(path: str) -> Iterator[typing.BinaryIO]:
    """``path`` opened for binary writing; a path that cannot be written is a bad --out."""
    try:
        with open(path, "wb") as file:
            yield file
    except OSError as exc:
        raise ValidationError("out", f"cannot write {path}: {exc}") from exc


def _csv_cell(v: Any) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float) or isinstance(v, _numpy_types("floating")):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# config ingestion

def _load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("config", f"cannot read {path}: {exc}") from exc
    try:
        config = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ValidationError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError("config", "top-level document must be an object")
    return config


def _value(name: str, value: Any, kind: type) -> Any:
    """One config value as a finite float, an integral int or a list of floats."""
    if kind is list:
        if not isinstance(value, list) or not value:
            raise ValidationError(name, f"expected a nonempty list of numbers, got {value!r}")
        return [_value(name, v, float) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(name, f"expected a number, got {value!r}")
    if kind is int:
        # a JSON integer stays exact; a float must be integral
        if isinstance(value, float) and not value.is_integer():
            raise ValidationError(name, f"expected an integer, got {value!r}")
        return int(value)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(name, f"expected a finite number, got {value!r}")
    return number


def _block(config: dict, name: str, kinds: dict[str, type], required: set[str]) -> dict:
    """Typed fields of the ``name`` block: refuses a non-object, missing, unknown."""
    block = config.get(name)
    if not isinstance(block, dict):
        raise ValidationError(name, "missing or not an object")
    missing = required - set(block)
    if missing:
        raise ValidationError(sorted(missing)[0], f"missing {name} field")
    unknown = set(block) - set(kinds)
    if unknown:
        raise ValidationError(sorted(unknown)[0], f"unknown {name} field")
    return {k: _value(k, v, kinds[k]) for k, v in block.items()}


@functools.cache  # get_type_hints compiles each string annotation on every call
def _fields(cls) -> tuple[dict[str, type], set[str]]:
    """Field kinds and required names of a config dataclass."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return ({f.name: hints[f.name] for f in fields},
            {f.name for f in fields if f.default is dataclasses.MISSING})


_SUM_RULE_TOL = 1e-6  # largest relative sum-rule error a spectrum is written with

_SWEEP_AXES = ("g", "phi", "Gamma", "eta", "T")

_SETUP = _fields(params.PhysicalSetup)
_BATH = (dict.fromkeys(bath_mod.RATES, float), set(bath_mod.RATES))
_GRID = ({"omega_min": float, "omega_max": float, "n_points": int}, set())
_FOCK = ({"dim": int}, set())
_SWEEP = (dict.fromkeys(_SWEEP_AXES, list), set())
_BLOCKS = ("setup", "bath", "grid", "sim", "fock", "sweep")


def _inputs(config: dict) -> tuple[params.PhysicalSetup | None,
                                   params.DerivedCoupling | None]:
    """The setup and its coupling when ``setup`` is given; every verb checks its config here."""
    has_setup = "setup" in config
    if has_setup == ("bath" in config):
        raise ValidationError(
            "config", "exactly one of 'setup' and 'bath' must be present"
        )
    # refused, not ignored: a misspelt block must not fall back on defaults,
    # nor an unsafe_constants block run a natural-units config in SI units
    unknown = sorted(k for k, v in config.items() if v is not None and k not in _BLOCKS)
    if unknown:
        raise ValidationError(
            unknown[0], f"unknown config block; the blocks are {', '.join(_BLOCKS)}"
        )
    if not has_setup:
        return None, None
    setup = params.PhysicalSetup(**_block(config, "setup", *_SETUP))
    return setup, params.derive_coupling(setup)


def _resolve_bath(config: dict) -> bath_mod.EffectiveBath:
    """Build the effective bath from exactly one of setup / bath override."""
    setup, coupling = _inputs(config)
    if setup is None:
        return bath_mod.bath_from_rates(**_block(config, "bath", *_BATH))
    return bath_mod.build_bath(coupling, setup)


def _scalar_fields(result) -> dict:
    """The number-valued fields of a result dataclass, in declaration order."""
    return {name: v for name, v in vars(result).items() if isinstance(v, (int, float, complex))}


def _grid(config: dict, default: np.ndarray) -> np.ndarray:
    """The ``grid`` block's grid; its omitted fields are taken from ``default``."""
    import numpy as np

    if config.get("grid") is None:
        return default
    block = _block(config, "grid", *_GRID)
    omega_min = block.get("omega_min", default[0])
    omega_max = block.get("omega_max", default[-1])
    n_points = block.get("n_points", default.size)
    if n_points < 2 or not omega_max > omega_min:
        raise ValidationError("grid", "need omega_max > omega_min and n_points >= 2")
    try:
        # eval_spectrum refuses the spectrum of points beyond the float range
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linspace(omega_min, omega_max, n_points)
    except (ValueError, IndexError, MemoryError) as exc:
        raise ValidationError("n_points", f"cannot allocate the grid: {exc}") from None


# ---------------------------------------------------------------------------
# commands

def cmd_derive(config: dict, args) -> dict:
    if "setup" not in config:
        raise ValidationError("setup", "derive requires a physical setup block")
    setup, coupling = _inputs(config)
    try:
        bath = bath_mod.build_bath(coupling, setup)
    except UnstableBathError as exc:
        # reporting is not an error: emit the margins even where the bath
        # coefficients themselves are ill-defined (gamma <= 0)
        return {"coupling": coupling, "bath": None, "bath_error": str(exc),
                "stability": exc.report}
    return {"coupling": coupling, "bath": bath, "stability": bath_mod.check_stability(bath)}


def cmd_variance(config: dict, args) -> dict:
    bath = _resolve_bath(config)
    # the closed forms exist only at phi = -pi/2; the Lyapunov route
    # covers every stable phase
    report = {}
    try:
        report["closed_form"] = steady_state.closed_form_moments(bath)
    except UnsupportedPhaseError:
        pass
    report["lyapunov"] = steady_state.lyapunov_moments(bath)
    # the closed forms have accepted the phase and the drift, so the
    # high-gain form can refuse only its domain g > 0, gamma_m*g^2 > 0
    if "closed_form" in report:
        try:
            report["high_gain"] = steady_state.high_gain_moments(bath)
        except ValidationError:
            pass
    if args.format == "csv":
        header = ["method", "var_x", "var_p", "cov_xp_sym", "t_eff"]
        return {
            "header": header,
            "columns": [list(report),
                        *([getattr(m, f) for m in report.values()] for f in header[1:])],
        }
    return report


def cmd_spectrum(config: dict, args) -> dict:
    import numpy as np

    bath = _resolve_bath(config)

    # one column per bath: the single series, or the dataset's gains
    dataset = args.fig1 or args.g_list is not None
    if dataset:
        gains = [0.0, 1.0, 10.0, 100.0, 1000.0]
        if args.g_list is not None:
            try:
                gains = _value("g_list", [float(x) for x in args.g_list.split(",")], list)
            except ValueError:  # a piece that is not a number
                raise ValidationError(
                    "g_list", f"expected comma-separated numbers, got {args.g_list!r}"
                ) from None
            if len({f"{g:g}" for g in gains}) < len(gains):
                raise ValidationError(
                    "g_list", f"gains equal to 6 digits would share a column: {args.g_list!r}"
                )
        grid = _grid(config, np.linspace(0.0, 8 * bath.omega_m, 2048))
        if args.fig1:
            scale = 2 * math.pi * steady_state.closed_form_moments(
                bath_mod.with_gain(bath, 0.0)).var_x
        columns = {f"S_g{g:g}": bath_mod.with_gain(bath, g) for g in gains}
    else:
        grid, columns = _grid(config, spectrum.default_grid(bath)), {"S": bath}

    series, sum_rules = {}, {}
    for label, bath_col in columns.items():
        values = spectrum.eval_spectrum(bath_col, grid)
        series[label] = values / scale if args.fig1 else values
        integral, var_x, rel = spectrum.sum_rule_check(bath_col)
        # a dataset names each column's sum rule by its gain
        name = f"g={bath_col.g:g}" if dataset else ""
        if not rel <= _SUM_RULE_TOL:  # refused before a byte of the document is written
            raise NumericalError(
                f"sum rule fails for {name or label}: (1/2pi)*integral of S = {integral!r}, "
                f"<X^2> = {var_x!r}, rel_err {rel:.3e} > {_SUM_RULE_TOL:g}"
            )
        sum_rules[name] = {"integral": integral, "var_x": var_x, "rel_err": rel}

    if args.format == "csv":
        return {
            "header": ["omega", *series],
            "columns": [grid, *series.values()],
            "comments": [
                f"sum_rule {k}".rstrip() + f": integral={r['integral']!r} "
                f"var_x={r['var_x']!r} rel_err={r['rel_err']:.3e}"
                for k, r in sum_rules.items()
            ],
        }
    if not dataset:
        return {"omega": grid, "S": series["S"], "normalization": "raw",
                "sum_rule": sum_rules[""]}
    return {
        "omega": grid,
        "series": series,
        "normalization": "fig1_scaled" if args.fig1 else "raw",
        "sum_rule": sum_rules,
    }


def _sim_config(config: dict, args) -> langevin.SimConfig:
    block = _block(config, "sim", *_fields(langevin.SimConfig))
    if args.seed is not None:
        block["seed"] = args.seed
    return langevin.SimConfig(**block)


def cmd_simulate(config: dict, args) -> dict | None:
    if args.dump_traj < 0:
        raise ValidationError("dump_traj", f"must be nonnegative, got {args.dump_traj}")
    if args.dump_traj and not args.out:
        raise ValidationError("out", "--dump-traj needs --out for the npz file")
    bath = _resolve_bath(config)
    stats = langevin.simulate(bath, _sim_config(config, args), keep_trajectories=args.dump_traj)
    payload = _scalar_fields(stats)
    psd = {"omega": stats.psd_omega, "S": stats.psd_values, "stderr": stats.psd_stderr}
    if not args.out:
        return {**payload, "psd": psd}

    base = str(args.out)
    _write(base + ".stats.json", payload)
    _write(base + ".psd.csv", {"header": list(psd), "columns": list(psd.values())}, "csv")
    if stats.raw_trajectories is not None:
        import numpy as np

        with _opened(base + ".traj.npz") as file:
            np.savez_compressed(file, **stats.raw_trajectories)
    return None


def cmd_fock(config: dict, args) -> dict:
    if args.dump_rho and not args.out:
        raise ValidationError("out", "--dump-rho needs --out for the binary file")
    bath = _resolve_bath(config)
    block = {} if config.get("fock") is None else _block(config, "fock", *_FOCK)
    # the solve's warnings go into the output
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = fock_mod.evolve_to_steady(bath, fock_mod.FockConfig(**block))
    if args.dump_rho:
        import numpy as np

        # row-major complex128: interleaved (re, im) float64 pairs
        with _opened(str(args.out) + ".rho.bin") as file:
            file.write(np.ascontiguousarray(sol.rho, dtype=np.complex128).data)
    return {**_scalar_fields(sol), "warnings": [str(w.message) for w in caught]}


def cmd_sweep(config: dict, args) -> dict:
    bath = _resolve_bath(config)
    block = _block(config, "sweep", *_SWEEP)
    if not block:
        raise ValidationError("sweep", "need a nonempty 'sweep' block")
    axes = [(name, block[name]) for name in _SWEEP_AXES if name in block]
    columns = steady_state.sweep_grid(bath, axes)
    header = list(columns)
    if args.format == "csv":
        return {"header": header, "columns": list(columns.values())}
    return {"header": header, "rows": _Rows(list(columns.values()))}


def cmd_compare(config: dict, args) -> dict:
    bath = _resolve_bath(config)
    stats = langevin.simulate(bath, _sim_config(config, args))
    closed = steady_state.closed_form_moments(bath)
    psd_report = langevin.psd_vs_analytic(stats)

    def z(hat, stderr, ref):
        return (hat - ref) / stderr if stderr > 0 else math.inf

    return {
        "moments": {
            "var_x": {"simulated": stats.var_x_hat, "analytic": closed.var_x,
                      "z": z(stats.var_x_hat, stats.var_x_stderr, closed.var_x)},
            "var_p": {"simulated": stats.var_p_hat, "analytic": closed.var_p,
                      "z": z(stats.var_p_hat, stats.var_p_stderr, closed.var_p)},
            "cov_xp": {"simulated": stats.cov_xp_hat, "analytic": closed.cov_xp_sym,
                       "z": z(stats.cov_xp_hat, stats.cov_xp_stderr, closed.cov_xp_sym)},
        },
        "psd": {
            "chi2_per_bin": psd_report.chi2_per_bin,
            "max_abs_z": psd_report.max_abs_z,
            "peak_rel_dev": psd_report.peak_rel_dev,
            "passed": psd_report.passed,
        },
    }


# ---------------------------------------------------------------------------

# the flags a verb may take besides --config and --out
_OPTIONS = {
    "--format": dict(choices=("csv", "json")),
    "--seed": dict(type=int, default=None, help="override sim seed"),
    "--fig1": dict(action="store_true", help="emit the scaled multi-gain dataset"),
    "--g-list": dict(default=None, help="comma-separated gains for the dataset"),
    "--dump-traj": dict(type=int, default=0,
                        help="dump this many raw trajectories (npz; needs --out)"),
    "--dump-rho": dict(action="store_true",
                       help="dump the steady density matrix "
                       "(row-major complex128 binary; needs --out)"),
}

# each verb returns the document main writes to --out (stdout by default),
# or None when it has written its own files
_COMMANDS = {
    "derive": (cmd_derive, ()),
    "variance": (cmd_variance, ("--format",)),
    "spectrum": (cmd_spectrum, ("--format", "--fig1", "--g-list")),
    "simulate": (cmd_simulate, ("--seed", "--dump-traj")),
    "fock": (cmd_fock, ("--dump-rho",)),
    "sweep": (cmd_sweep, ("--format",)),
    "compare": (cmd_compare, ("--seed",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorcool",
        description="Feedback cooling of a mirror by homodyne detection: "
        "analytics, Monte Carlo, and number-basis oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(run=fn, format="json")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        doc = args.run(config, args)
        if doc is not None:
            _write(args.out, doc, args.format)
        return EXIT_OK
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except MirrorCoolError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
