"""Scenario files, sweep runners, and CSV result tables.

A scenario is a small nested-block plain-text document (no external
format dependency) describing one experiment: the system (Hamiltonian and
initial state), the watch-error kernel, an optional internal clock, the
observable to read out, and an optional sweep. Example::

    system {
      dimension 2
      spectrum 0.0 1.0          # diagonal Hamiltonian; or a nested
      state plus_state          # 'hamiltonian { row ... }' block
    }
    kernel {
      kind gaussian
      lambda 0.1
      t_b 2.0
    }
    observable {
      preset pauli_x
    }
    sweep {
      variable t_B
      start 0.1
      stop 10.0
      steps 25
    }

Matrices are written row per line as 're im' pairs inside a nested block;
'#' starts a comment anywhere. Units follow the library convention hbar = 1
(energies and inverse times share one unit). Parsing is strict: syntax
problems raise ``ScenarioParseError`` with a line number, semantic problems
are collected and raised together as ``ScenarioValidationError``. A key's
numbers are split from its line only as they are read: one row at a time.

Runners produce ``ResultTable`` objects: named 1-d numpy columns (a sweep's gap
factors as one 2-d block), streamed as CSV in the text each dtype sets, under a
'#'-prefixed metadata header: version, scenario hash (SHA-256 of the names and
float64 values), ``nodes`` for the collapse comparison, ``threshold`` for the
report, the seed. Identical inputs give byte-identical files.
"""

from __future__ import annotations

import io
import sys
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, qmat
# bench/traced_job.py wraps alice_ and bob_conditional here; the runner calls neither.
from .clockmodel import (
    ClockSystem,
    CompositeScenario,
    _read_clock,
    alice_conditional,  # noqa: F401
    bob_conditional,  # noqa: F401
    pointer_weights,
)
from .errors import (
    RelatimeError,
    ScenarioParseError,
    ScenarioValidationError,
    _at,
)
# bench/traced_job.py wraps every engine here; runners call only coherence_report.
from .evolution import (
    DECOHERENCE_THRESHOLD,
    _bob_point,
    _collapse_nodes,
    _distinct_gap_mask,
    _distinct_gaps,
    _energy_frame,
    _finish_state,
    _from_eigenbasis,
    _max_offdiag,
    _pearle_multiplier,
    _to_eigenbasis,
    coherence_report,
    evolve_pearle,  # noqa: F401
    evolve_relational_dephasing,  # noqa: F401
    evolve_unitary,  # noqa: F401
)
from .kernels import (
    DeltaKernel,
    TabulatedKernel,
    TimeKernel,
    UniformKernel,
    make_gaussian_kernel,
)
from .qmat import DIMENSION_CAP, DensityMatrix, Hamiltonian, Observable, purity
# bench/traced_job.py wraps expectation here; the runners do not call it.
from .qmat import expectation  # noqa: F401

__all__ = [
    "ScenarioFile",
    "ResultTable",
    "parse_scenario",
    "run_decoherence_sweep",
    "run_clock_recovery",
    "run_pearle_compare",
    "run_report",
]

# ---------------------------------------------------------------------------
# generic nested-block reader


class _Leaf(NamedTuple):
    name: str
    text: str  # all after the name; split only when read, one row at a time
    line: int

    @property
    def tokens(self) -> list[str]:
        return self.text.split()


class _Block(NamedTuple):
    name: str
    line: int
    leaves: list[_Leaf]
    blocks: list[_Block]


def _parse_blocks(text: str) -> _Block:
    root = _Block("<document>", 0, [], [])
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise ScenarioParseError(f"line {lineno}: unmatched '}}'")
            stack.pop()
            continue
        if line.endswith("{"):
            name = line[:-1].strip()
            if not name or len(name.split()) != 1:
                raise ScenarioParseError(
                    f"line {lineno}: block header must be a single name "
                    f"before '{{', got {raw.strip()!r}"
                )
            block = _Block(name, lineno, [], [])
            stack[-1].blocks.append(block)
            stack.append(block)
            continue
        name, *rest = line.split(None, 1)
        stack[-1].leaves.append(_Leaf(name, "".join(rest), lineno))
    if len(stack) != 1:
        raise ScenarioParseError(
            f"unclosed block '{stack[-1].name}' opened at line {stack[-1].line}"
        )
    return root


def _suggest(word: str, options) -> str:
    import difflib  # only a refused name needs it
    close = difflib.get_close_matches(word, options, n=3)
    hint = f"; did you mean {', '.join(repr(c) for c in close)}?" if close else ""
    return f"{word!r} is not one of {list(options)}{hint}"


def _index(nodes, allowed, noun: str, where: tuple[str, str] = ("", "")) -> dict:
    """``nodes`` by name; a name outside ``allowed`` or given twice is an error.

    ``where`` places the nodes in the unknown-name and duplicate messages.
    """
    out = {}
    for node in nodes:
        if node.name not in allowed:
            raise ScenarioParseError(
                f"line {node.line}: unknown {noun}{where[0]}: "
                f"{_suggest(node.name, allowed or ('<none>',))}"
            )
        if node.name in out:
            raise ScenarioParseError(
                f"line {node.line}: duplicate {noun} '{node.name}'{where[1]}"
            )
        out[node.name] = node
    return out


class _Reader(NamedTuple):
    """Leaf (or block of rows) to value."""

    read: Callable
    block: bool = False


def _floats(leaf: _Leaf, count: int | None = None) -> np.ndarray:
    """The leaf's values as finite floats; the one place numbers are read."""
    try:
        values = np.array(leaf.tokens, dtype=float)
    except ValueError as exc:
        raise ScenarioParseError(
            f"line {leaf.line}: '{leaf.name}' expects numbers, got {leaf.tokens!r}"
        ) from exc
    if not np.isfinite(values).all():
        raise ScenarioParseError(
            f"line {leaf.line}: '{leaf.name}' expects finite numbers, got "
            f"{leaf.tokens!r}"
        )
    if count is not None and len(values) != count:
        raise ScenarioParseError(
            f"line {leaf.line}: '{leaf.name}' expects {count} number(s), "
            f"got {len(values)}"
        )
    return values


def _int(leaf: _Leaf) -> int:
    value = float(_floats(leaf, 1)[0])
    if value != int(value):
        raise ScenarioParseError(
            f"line {leaf.line}: '{leaf.name}' expects an integer, got {value}"
        )
    if abs(value) >= 2.0**63:
        raise ScenarioParseError(
            f"line {leaf.line}: '{leaf.name}' is beyond the 64-bit integer "
            f"range, got {value:g}"
        )
    return int(value)


def _choice(options: dict[str, int], what: str):
    """Reader of a name from ``options`` and the number of integers it takes."""

    def read(leaf: _Leaf) -> str:
        if not leaf.tokens:
            raise ScenarioParseError(f"line {leaf.line}: '{leaf.name}' needs a value")
        name, *values = leaf.tokens
        if name not in options:
            raise ScenarioParseError(
                f"line {leaf.line}: unknown {what}: {_suggest(name, options)}"
            )
        if len(values) != options[name]:
            raise ScenarioParseError(
                f"line {leaf.line}: {what} '{name}' takes {options[name]} "
                f"value(s), got {values!r}"
            )
        values = [str(_int(_Leaf(name, value, leaf.line))) for value in values]
        return " ".join([name, *values])  # canonical: '01' and '+1' read as '1'

    return _Reader(read)


def _matrix(block: _Block) -> list[np.ndarray]:
    """'row re im re im ...' lines, each row as its flat array of floats."""
    rows = []
    for leaf in block.leaves:
        if leaf.name != "row":
            raise ScenarioParseError(
                f"line {leaf.line}: matrix block '{block.name}' expects "
                f"'row' lines, got {leaf.name!r}"
            )
        values = _floats(leaf)
        if len(values) % 2 != 0 or len(values) == 0:
            raise ScenarioParseError(
                f"line {leaf.line}: matrix row needs an even number of "
                f"values (re im pairs), got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise ScenarioParseError(
            f"line {block.line}: matrix block '{block.name}' has no rows"
        )
    return rows


def _table(block: _Block) -> list[np.ndarray]:
    """'t weight' lines."""
    rows = []
    for leaf in block.leaves:
        text = " ".join([leaf.name, *leaf.tokens])
        if len(leaf.tokens) != 1:
            raise ScenarioParseError(
                f"line {leaf.line}: table row expects 't weight', got {text!r}"
            )
        rows.append(_floats(_Leaf("table row", text, leaf.line)))
    return rows


_INT = _Reader(_int)
_FLOAT = _Reader(lambda leaf: float(_floats(leaf, 1)[0]))
_FLOATS = _Reader(_floats)
_MATRIX = _Reader(_matrix, block=True)
_TABLE = _Reader(_table, block=True)


# ---------------------------------------------------------------------------
# schema


class _Entry(NamedTuple):
    """One value of a block, written as a leaf, a block, or either (not both).

    ``needs`` and ``unused`` are the issues for a wanted value that is
    absent and for a kernel parameter the kind does not take; they may
    name the ``{kind}`` and the ``{missing}`` entries of the block.
    """

    name: str
    forms: tuple[tuple[str, _Reader], ...]
    needs: str
    unused: str = ""
    limits: tuple[int | None, int | None] = (None, None)
    both: str = ""


def _key(name: str, reader: _Reader, needs: str, **kwargs) -> _Entry:
    return _Entry(name, ((name, reader),), needs, **kwargs)


class _Section(NamedTuple):
    """A top-level block: its entries in canonical order, and for the
    kernel the parameters each kind takes (every other one is refused)."""

    name: str
    required: bool
    entries: tuple[_Entry, ...]
    kinds: dict | None = None


def _tabulated(rows: list[np.ndarray]) -> TabulatedKernel:
    return TabulatedKernel([t for t, _ in rows], [w for _, w in rows])


# Each kind's factory takes the parameters named here, in the block's order.
_KERNEL_KINDS = {
    "delta": (DeltaKernel, ("t_b",)),
    "gaussian": (make_gaussian_kernel, ("lambda", "t_b")),
    "uniform": (UniformKernel, ("half_width", "t_b")),
    "tabulated": (_tabulated, ("table",)),
}
_KIND = _choice(dict.fromkeys(_KERNEL_KINDS, 0), "kernel kind")
_STATE = _choice(
    {"plus_state": 0, "basis_state": 1, "maximally_mixed": 0, "random_pure": 0,
     "random_mixed": 0},
    "state preset",
)
_PRESET = _choice(
    dict.fromkeys(("pauli_x", "pauli_z", "number_op"), 0), "observable preset"
)
_VARIABLE = _choice(dict.fromkeys(("t_B", "t_A", "lambda"), 0), "sweep variable")
_CLOCK_NEEDS = "clock block needs 'dimension' and 'tick'"
_SWEEP_NEEDS = "sweep block is missing {missing}"

_SCHEMA = (
    _Section("system", True, (
        _key("dimension", _INT, "system block needs 'dimension'",
             limits=(1, DIMENSION_CAP)),
        _Entry("hamiltonian", (("spectrum", _FLOATS), ("hamiltonian", _MATRIX)),
               "system block needs 'spectrum' or a 'hamiltonian' block",
               both="system: give 'spectrum' or a 'hamiltonian' block, not both"),
        _Entry("state", (("state", _STATE), ("state", _MATRIX)),
               "system block needs a 'state' entry or block",
               both="system: give a state preset or a state block, not both"),
    )),
    _Section("kernel", True, (
        _key("kind", _KIND, "kernel block needs 'kind'"),
        _key("lambda", _FLOAT, "{kind} kernel needs 'lambda'",
             unused="'lambda' is meaningless for a {kind} kernel"),
        _key("half_width", _FLOAT, "{kind} kernel needs 'half_width'",
             unused="'half_width' is meaningless for a {kind} kernel"),
        _key("t_b", _FLOAT, "{kind} kernel needs 't_b'",
             unused="a {kind} kernel derives t_b from the table; drop 't_b'"),
        _key("table", _TABLE, "{kind} kernel needs a 'table' block",
             unused="a table block is meaningless for a {kind} kernel"),
    ), kinds=_KERNEL_KINDS),
    _Section("clock", False, (
        _key("dimension", _INT, _CLOCK_NEEDS, limits=(None, DIMENSION_CAP)),
        _key("tick", _FLOAT, _CLOCK_NEEDS),
    )),
    _Section("observable", True, (
        _Entry("observable", (("preset", _PRESET), ("matrix", _MATRIX)),
               "observable block needs 'preset' or a 'matrix' block",
               both="observable: give a preset or a matrix block, not both"),
    )),
    _Section("sweep", False, (
        _key("variable", _VARIABLE, _SWEEP_NEEDS),
        _key("start", _FLOAT, _SWEEP_NEEDS),
        _key("stop", _FLOAT, _SWEEP_NEEDS),
        _key("steps", _INT, _SWEEP_NEEDS, limits=(1, DIMENSION_CAP)),
    )),
)
_SECTIONS = {section.name: section for section in _SCHEMA}


class _Field(NamedTuple):
    """One value as read: the key it was written under and its reader."""

    key: str
    reader: _Reader
    value: object


def _read_section(section: _Section, block: _Block, issues: list[str]) -> dict:
    """The block's values as ``_Field``s by entry name.

    Semantic problems go to ``issues``; a value with one is left out.
    """
    forms = [form for entry in section.entries for form in entry.forms]
    inside = f" in '{block.name}'"
    nodes = {
        False: _index(block.leaves, [k for k, r in forms if not r.block], "key",
                      (inside, f" in block '{block.name}'")),
        True: _index(block.blocks, [k for k, r in forms if r.block], "block",
                     (inside, inside)),
    }
    for rows in nodes[True].values():  # blocks of rows nest nothing
        _index(rows.blocks, (), "block", (f" in '{rows.name}'",) * 2)
    fields: dict[str, _Field] = {}
    absent = []
    for entry in section.entries:
        given = [
            _Field(key, reader, reader.read(nodes[reader.block][key]))
            for key, reader in entry.forms
            if key in nodes[reader.block]
        ]
        if len(given) > 1:
            issues.append(entry.both)
        elif given:
            fields[entry.name] = given[0]
        else:
            absent.append(entry)

    kind = fields["kind"].value if "kind" in fields else None
    allowed = {entry.name for entry in section.entries}
    if section.kinds and kind:
        allowed = {"kind", *section.kinds[kind][1]}
    wanted = {"kind"} if section.kinds and not kind else allowed
    missing = [entry for entry in absent if entry.name in wanted]
    names = [entry.name for entry in missing]
    # entries sharing one message (clock, sweep) report it once
    issues.extend(
        dict.fromkeys(e.needs.format(kind=kind, missing=names) for e in missing)
    )
    for entry in section.entries:
        if entry.name not in fields:
            continue
        value, (low, high) = fields[entry.name].value, entry.limits
        if entry.name not in allowed:
            issues.append(entry.unused.format(kind=kind))
        elif low is not None and value < low:
            issues.append(f"{section.name} {entry.name} must be >= {low}, got {value}")
        elif high is not None and value > high:
            issues.append(f"{section.name} {entry.name} must be <= {high}, got {value}")
        else:
            continue
        del fields[entry.name]
    return fields


class KernelSpec(NamedTuple):
    """A kernel kind and the parameters it takes, by their scenario names."""

    kind: str
    params: dict

    def build(self, *, t_b: float | None = None, lam: float | None = None) -> TimeKernel:
        """Instantiate the kernel, optionally overriding swept parameters."""
        if "t_b" not in self.params and (t_b, lam) != (None, None):
            raise ScenarioValidationError(
                [f"a {self.kind} kernel has no sweepable t_b/lambda parameter"]
            )
        swept = {"t_b": t_b, "lambda": lam}
        params = [value if swept.get(name) is None else swept[name]
                  for name, value in self.params.items()]
        return _KERNEL_KINDS[self.kind][0](*params)


class SweepSpec(NamedTuple):
    variable: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


class ScenarioFile(NamedTuple):
    """One fully validated scenario plus ``sha256``, the ``_digest`` of the values
    it was read from, and the ``seed`` the random state presets were drawn with."""

    dimension: int
    system_hamiltonian: Hamiltonian
    initial_state: DensityMatrix
    kernel_spec: KernelSpec
    observable: Observable
    clock: ClockSystem | None
    sweep: SweepSpec | None
    sha256: str
    seed: int

    def digest(self) -> str:
        """The scenario's hash, ``sha256``."""
        return self.sha256


def _digest(source: dict) -> str:
    """First 16 hex digits of SHA-256 over each block's ``_Field``s in canonical
    order: text as UTF-8, floats as little-endian float64, each part behind its
    length. Equal exactly when every key and value is, floats by their bytes."""
    h = _sha256()
    for name, fields in source.items():
        parts = [name, len(fields)]
        for key, reader, value in fields.values():
            head, rows = (f"{key} {{", value) if reader.block else (key, [value])
            parts += [head, len(rows), *rows]
        for part in parts:
            text = isinstance(part, (str, int))
            data = str(part).encode() if text else np.asarray(part, "<f8").tobytes()
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()[:16]


def _sha256():
    """SHA-256 from ``hashlib`` if it is loaded, else from CPython's built-in
    module (``_sha2`` from 3.12), as ``random`` does: hashlib loads OpenSSL."""
    names = ["hashlib"] if "hashlib" in sys.modules else ["_sha2", "_sha256", "hashlib"]
    for name in names:
        try:
            return __import__(name).sha256()
        except ImportError:
            continue


def _spectrum(values: np.ndarray, dim: int) -> np.ndarray:
    if len(values) != dim:
        raise RelatimeError(f"spectrum has {len(values)} entries, expected {dim}")
    return np.diag(values)


def _state_from_preset(preset: str, dim: int, seed: int) -> np.ndarray:
    name, *index = preset.split()
    if name == "plus_state":
        return np.full((dim, dim), 1.0 / dim, dtype=np.complex128)
    if name == "basis_state":
        k = int(index[0])
        if not 0 <= k < dim:
            raise RelatimeError(f"basis_state index {k} outside 0..{dim - 1}")
        out = np.zeros((dim, dim), dtype=np.complex128)
        out[k, k] = 1.0
        return out
    if name == "maximally_mixed":
        return np.eye(dim, dtype=np.complex128) / dim
    rng = np.random.default_rng(seed)  # only here: numpy.random costs an import
    if name == "random_pure":
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        return np.outer(vec, vec.conj())
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


_PAULI = {"pauli_x": [[0, 1], [1, 0]], "pauli_z": [[1, 0], [0, -1]]}


def _observable_from_preset(name: str, dim: int) -> np.ndarray:
    if name == "number_op":
        return np.diag(np.arange(dim)).astype(np.complex128)
    if dim != 2:
        raise RelatimeError(f"{name} needs dimension 2")
    return np.array(_PAULI[name], dtype=np.complex128)


# name: (block, type, preset builder, issue prefix for a preset, for a matrix)
_OPERATORS = {
    "hamiltonian": ("system", Hamiltonian, _spectrum) + ("system hamiltonian: ",) * 2,
    "state": (
        "system", DensityMatrix, _state_from_preset,
        "system state preset: ", "system state: ",
    ),
    "observable": (
        "observable", Observable, _observable_from_preset,
        "observable preset: ", "observable: ",
    ),
}


def _operator(name: str, entry: _Field, dim: int, seed: int):
    """The operator from its preset leaf or its matrix rows."""
    _, make, preset, _, _ = _OPERATORS[name]
    if not entry.reader.block:
        seeded = (seed,) if name == "state" else ()  # only states are drawn
        return make(preset(entry.value, dim, *seeded))
    lengths = [len(row) // 2 for row in entry.value]
    if len(set(lengths)) > 1:
        raise RelatimeError(f"{name} matrix rows have unequal lengths {lengths}")
    matrix = np.array(entry.value).view(np.complex128)
    if matrix.shape != (dim, dim):
        raise RelatimeError(
            f"{name} matrix is {matrix.shape}, expected ({dim}, {dim})"
        )
    return make(matrix)


def _attempt(issues: list[str], prefix: str, build, *args):
    """``build(*args)``, or None with its error appended to ``issues``."""
    try:
        return build(*args)
    except (RelatimeError, ValueError) as exc:
        issues.append(f"{prefix}{exc}")
        return None


def parse_scenario(text: str, *, seed: int = 0) -> ScenarioFile:
    """Parse and fully validate a scenario document.

    ``seed`` feeds the random state presets; everything else is
    deterministic. A syntax error stops the parse at once, with its line
    number; semantic problems are collected and reported together.
    """
    root = _parse_blocks(text)
    del text  # each value keeps its own text; a caller's temporary is freed here
    if root.leaves:
        stray = root.leaves[0]
        raise ScenarioParseError(
            f"line {stray.line}: top level allows only blocks "
            f"{list(_SECTIONS)}, got key {stray.name!r}"
        )
    blocks = _index(root.blocks, _SECTIONS, "block")
    missing = [
        f"missing required block '{name}'"
        for name, section in _SECTIONS.items()
        if section.required and name not in blocks
    ]
    if missing:
        raise ScenarioValidationError(missing)

    issues: dict[str, list[str]] = {name: [] for name in _SECTIONS}
    source = {
        name: _read_section(section, blocks[name], issues[name])
        for name, section in _SECTIONS.items()
        if name in blocks
    }
    del root, blocks  # the text of every value is read: drop it
    values = {
        name: {key: entry.value for key, entry in fields.items()}
        for name, fields in source.items()
    }

    dim = values["system"].get("dimension")
    operators = {}
    for name, (block, _, _, preset_issue, matrix_issue) in _OPERATORS.items():
        entry = source[block].get(name)
        if dim is not None and entry is not None:
            prefix = matrix_issue if entry.reader.block else preset_issue
            operators[name] = _attempt(
                issues[block], prefix, _operator, name, entry, dim, int(seed)
            )

    kernel_spec = None
    if not issues["kernel"]:
        params = values["kernel"]
        kernel_spec = KernelSpec(params.pop("kind"), params)
        _attempt(issues["kernel"], "kernel: ", kernel_spec.build)

    clock = None
    if "clock" in values and not issues["clock"]:
        clock = _attempt(
            issues["clock"], "clock: ", ClockSystem,
            values["clock"]["dimension"], values["clock"]["tick"],
        )

    sweep = None
    if "sweep" in values and not issues["sweep"]:
        sweep = SweepSpec(**values["sweep"])
        if sweep.stop < sweep.start:
            issues["sweep"].append(
                f"sweep stop {sweep.stop} is below start {sweep.start}"
            )

    problems = [issue for group in issues.values() for issue in group]
    if problems:
        raise ScenarioValidationError(problems)
    return ScenarioFile(
        dimension=dim,
        system_hamiltonian=operators["hamiltonian"],
        initial_state=operators["state"],
        kernel_spec=kernel_spec,
        observable=operators["observable"],
        clock=clock,
        sweep=sweep,
        sha256=_digest(source),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# result tables


class ResultTable:
    """Ordered named 1-d columns, then 2-d float blocks keyed by the names of
    their columns, plus '#'-comment metadata and footer lines (``None``: a new
    empty dict).

    A column's dtype sets its cell text: ``str`` for integers, ``repr``
    (shortest round trip) for floats. Lists go through ``np.asarray``.
    """

    def __init__(self, columns: dict[str, np.ndarray], metadata: dict | None = None,
                 footer: dict | None = None, blocks: dict | None = None):
        self.columns = columns
        self.metadata = {} if metadata is None else metadata
        self.footer = {} if footer is None else footer
        self.blocks = {} if blocks is None else blocks

    def check(self) -> int:
        """The row count; each column and block must hold one finite value a row."""
        columns = {name: np.asarray(col) for name, col in self.columns.items()}
        rows = len(next(iter([*columns.values(), *self.blocks.values()]), ()))
        ragged = {name: len(col) for name, col in columns.items() if len(col) != rows}
        if ragged:
            raise RelatimeError(f"ragged result table: {ragged} rows, expected {rows}")
        for name, col in columns.items():
            if col.dtype.kind == "f" and not np.isfinite(col).all():
                raise RelatimeError(f"non-finite value in column {name!r}")
        for names, block in self.blocks.items():
            shape = (rows, len(names))
            if block.shape != shape:
                raise RelatimeError(f"block shape {block.shape}, expected {shape}")
            bad = np.flatnonzero(~np.isfinite(block).all(axis=0))
            if bad.size:
                raise RelatimeError(f"non-finite value in column {names[bad[0]]!r}")
        return rows

    def write_csv(self, stream) -> None:
        """Write the CSV text to ``stream`` about ``_CSV_CELLS`` cells at a time,
        once ``check`` has passed: a failing table writes nothing."""
        rows = self.check()
        columns = [np.asarray(col) for col in self.columns.values()]
        blocks = [block for block in self.blocks.values() if block.shape[1]]
        names = [*self.columns, *(name for key in self.blocks for name in key)]
        stream.write("".join(f"# {key}: {val}\n" for key, val in self.metadata.items()))
        stream.write(",".join(names) + "\n")
        step = max(1, _CSV_CELLS // max(len(names), 1))
        for part in (slice(start, start + step) for start in range(0, rows, step)):
            cells = [map(str if col.dtype.kind in "iu" else repr, col[part].tolist())
                     for col in columns]
            cells += [(",".join(map(repr, row)) for row in block[part].tolist())
                      for block in blocks]
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
        stream.write("".join(f"# {key}: {val}\n" for key, val in self.footer.items()))

    def to_csv(self) -> str:
        """The CSV text as one string: ``write_csv`` into memory, for tests."""
        out = io.StringIO()
        self.write_csv(out)
        return out.getvalue()


def _base_metadata(scn: ScenarioFile, *, nodes=None, threshold=None) -> dict:
    """Provenance lines; ``nodes`` and ``threshold`` only where they were used."""
    meta = {"generator": f"relatime {__version__}", "scenario-sha256": scn.digest()}
    if nodes is not None:
        meta["nodes"] = str(int(nodes))
    if threshold is not None:
        meta["threshold"] = repr(float(threshold))
    meta["seed"] = str(scn.seed)
    return meta


PEARLE_NODES = 64  # Gauss-Hermite nodes of the collapse comparison
SWEEP_CELL_CAP = 2**24  # most cells, steps x (6 + gaps), a sweep table may have
_CSV_CELLS = 2**16  # cells per ResultTable.write_csv write; a wider row goes alone


def _gap_names(gaps: np.ndarray) -> list[str]:
    """``dephase_gap_{g:.6g}``, widened to ``{g!r}`` for gaps sharing that text:
    a gap's repr can match another's ``.6g`` text only if the two share it."""
    short = [f"{g:.6g}" for g in gaps.tolist()]
    count = Counter(short)
    return [f"dephase_gap_{s if count[s] == 1 else repr(g)}"
            for s, g in zip(short, gaps.tolist())]


def run_decoherence_sweep(scn: ScenarioFile) -> ResultTable:
    """Sweep t_B or lambda; one row per point with both observers' values.

    The exact-time column evolves to the nominal reading; the averaged
    column uses the closed-form dephasing law. Per-gap columns hold the
    dephasing factor magnitude at each distinct energy gap (``_gap_names``).

    The state (validated there once: rho_s) and observable go to the energy basis.
    As chi = phase x envelope, Alice's state is D rho_s D* and Bob's D X D*, with
    D = diag(exp(-i E t_B)) and X = rho_s * envelope(|E_i - E_j|), both built and
    checked by ``_bob_point``; X has Bob's spectrum, trace and purity.
    """
    if scn.sweep is None or scn.sweep.variable not in ("t_B", "lambda"):
        raise ScenarioValidationError(
            ["decoherence sweep needs a sweep block with variable t_B or lambda"]
        )
    if scn.sweep.variable == "lambda" and scn.kernel_spec.kind != "gaussian":
        raise ScenarioValidationError(["a lambda sweep needs a gaussian kernel"])
    if scn.sweep.variable == "t_B" and scn.kernel_spec.kind == "tabulated":
        raise ScenarioValidationError(["a tabulated kernel cannot sweep t_B"])

    spectrum = scn.system_hamiltonian.spectrum
    gaps = _distinct_gaps(spectrum)
    cells = scn.sweep.steps * (6 + len(gaps))
    if cells > SWEEP_CELL_CAP:
        raise ScenarioValidationError([
            f"sweep table of {cells} cells ({scn.sweep.steps} steps x (6 + "
            f"{len(gaps)} gaps)) exceeds the limit of {SWEEP_CELL_CAP}"
        ])
    frame = _energy_frame(scn.initial_state, scn.system_hamiltonian, scn.observable)
    # Tr[N D X D*] = p^T (X * N^T) p*, X * N^T = alice_e * envelope, |envelope| <= 1
    state_e, alice_e, bound = frame.state, frame.weighted, frame.bound
    purity_a = purity(state_e)
    omega = np.abs(spectrum[:, None] - spectrum[None, :])  # phi is even
    distinct = _distinct_gap_mask(spectrum)

    variable = scn.sweep.variable
    swept = "t_b" if variable == "t_B" else "lam"
    points = scn.sweep.values()
    rows = []
    factors = np.empty((len(points), len(gaps)))
    for k, x in enumerate(points.tolist()):
        kernel = scn.kernel_spec.build(**{swept: x})
        with _at(f"sweep point {variable} = {x!r}"):
            p, envelope, x = _bob_point(state_e, spectrum, omega, kernel)
            bob = float(np.vdot(x, x).real), _max_offdiag(x, distinct)
            del x  # read off and dropped before alice_e * envelope forms
            expect = [qmat._expect(p, w, bound) for w in (alice_e, alice_e * envelope)]
            rows.append((*expect, purity_a, *bob))
        factors[k] = np.abs(kernel._envelope(gaps))

    names = (variable, "expect_A", "expect_B", "purity_A", "purity_B", "max_offdiag")
    columns = dict(zip(names, (points, *np.transpose(rows))))
    blocks = {tuple(_gap_names(gaps)): factors}  # write_csv slices its rows
    return ResultTable(columns, _base_metadata(scn), blocks=blocks)


def run_clock_recovery(scn: ScenarioFile) -> ResultTable:
    """Exact-time vs through-the-watch conditional values on the pointer grid.

    Rows cover every pointer time the kernel supports (optionally windowed
    by a ``variable t_A`` sweep block); the footer reports the largest
    absolute difference, which the central identity makes vanish. Bob's
    values are read through the clock's transition probabilities.
    """
    if scn.clock is None:
        raise ScenarioValidationError(["clock recovery needs a clock block"])
    if scn.sweep is not None and scn.sweep.variable != "t_A":
        raise ScenarioValidationError(
            ["clock recovery accepts only a 'variable t_A' sweep block "
             "(used as a readout window)"]
        )
    composite = CompositeScenario(scn.system_hamiltonian, scn.initial_state, scn.clock)
    kernel = scn.kernel_spec.build()

    times = scn.clock.pointer_times
    readout = pointer_weights(kernel, scn.clock) > 0
    if scn.sweep is not None:
        readout &= (scn.sweep.start <= times) & (times <= scn.sweep.stop)
    if not readout.any():
        raise ScenarioValidationError(
            ["kernel supports no pointer time inside the readout window"]
        )

    steps = np.flatnonzero(readout)
    alice, bob = _read_clock(composite, kernel, scn.observable, steps)
    t, difference = times[steps], np.abs(alice - bob)
    return ResultTable(
        {"t": t, "alice_value": alice, "bob_value": bob, "abs_difference": difference},
        _base_metadata(scn), {"max_abs_difference": repr(float(difference.max()))},
    )


def run_pearle_compare(scn: ScenarioFile, *, nodes: int = PEARLE_NODES) -> ResultTable:
    """Collapse-dynamics state vs Gaussian-kernel relational state per t.

    The two are the same integral in different variables, so the distance
    column is pure quadrature error; ``nodes`` is the collapse engine's
    Gauss-Hermite node count. In the energy basis, with rho_e validated once, the
    relational state is the sweep's point D X D* from ``_bob_point``, phase check
    included, and the collapse state is validated at each point.
    """
    if scn.kernel_spec.kind != "gaussian":
        raise ScenarioValidationError(["pearle comparison needs a gaussian kernel"])
    if scn.sweep is None or scn.sweep.variable != "t_B":
        raise ScenarioValidationError(
            ["pearle comparison needs a sweep block with variable t_B"]
        )
    if scn.sweep.start < 0:
        raise ScenarioValidationError(["collapse evolution needs t >= 0"])
    nodes = _collapse_nodes(nodes)

    hamiltonian = scn.system_hamiltonian
    spectrum = hamiltonian.spectrum
    state_e = _finish_state(  # the raw U^dag rho U is not held through the points
        _to_eigenbasis(scn.initial_state.matrix, hamiltonian), "energy-basis state")
    omega = np.abs(spectrum[:, None] - spectrum[None, :])
    distinct = _distinct_gap_mask(spectrum)
    points = scn.sweep.values()
    rows = []
    for t in points.tolist():
        with _at(f"sweep point t = {t!r}"):
            kernel = scn.kernel_spec.build(t_b=t)  # at t = 0 a delta, without lam
            p, _, x = _bob_point(state_e, spectrum, omega, kernel)
            relational = p[:, None] * x * p.conj()  # D X D*
            collapsed = relational if t == 0 else _finish_state(  # t = 0: both rho0
                state_e.matrix * _pearle_multiplier(spectrum, kernel.lam, t, nodes)
            ).matrix
        difference = _from_eigenbasis(collapsed - relational, hamiltonian)
        rows.append((float(np.max(np.abs(difference))),
                     *(_max_offdiag(m, distinct) for m in (collapsed, relational))))

    names = ("t", "maxnorm_distance", "offdiag_pearle", "offdiag_relational")
    columns = dict(zip(names, (points, *np.transpose(rows))))
    return ResultTable(columns=columns, metadata=_base_metadata(scn, nodes=nodes))


def run_report(
    scn: ScenarioFile, *, threshold: float = DECOHERENCE_THRESHOLD
) -> ResultTable:
    """Energy-basis coherence magnitudes before/after averaging, as rows.

    ``complete_decoherence`` in the footer compares the largest averaged
    magnitude with ``threshold``.
    """
    report = coherence_report(scn.initial_state, scn.system_hamiltonian,
                              scn.kernel_spec.build(), threshold=threshold)
    columns = {
        "i": report.i,
        "j": report.j,
        "energy_i": report.energy_i,
        "energy_j": report.energy_j,
        "magnitude_A": report.magnitude_exact,
        "magnitude_B": report.magnitude_averaged,
    }
    return ResultTable(columns, _base_metadata(scn, threshold=threshold), {
        "max_offdiag_B": repr(report.max_offdiag_averaged),
        "complete_decoherence": str(report.complete_decoherence).lower(),
    })
