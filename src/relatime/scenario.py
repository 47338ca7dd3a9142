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
'#' starts a comment anywhere. Units follow the library convention
hbar = 1 (energies and inverse times share one unit). Parsing is strict:
syntax problems raise ``ScenarioParseError`` with a line number, semantic
problems are collected and raised together as ``ScenarioValidationError``.

Runners produce ``ResultTable`` objects that serialize to plain CSV with
a '#'-prefixed metadata header (scenario hash, version, threshold, seed,
quadrature nodes if used), so identical inputs give byte-identical files.
"""

from __future__ import annotations

import difflib
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .clockmodel import (
    ClockSystem,
    CompositeScenario,
    alice_conditional,
    bob_conditional,
    pointer_weights,
)
from .errors import (
    RelatimeError,
    ScenarioParseError,
    ScenarioValidationError,
)
# bench/traced_job.py wraps every engine here, evolve_unitary included.
from .evolution import (  # noqa: F401
    _distinct_gap_mask,
    _finish_state,
    _kernel_multiplier,
    _to_eigenbasis,
    _unitary_multiplier,
    coherence_report,
    evolve_pearle,
    evolve_relational_dephasing,
    evolve_unitary,
)
from .kernels import (
    DeltaKernel,
    TabulatedKernel,
    TimeKernel,
    UniformKernel,
    make_gaussian_kernel,
)
from .qmat import DensityMatrix, Hamiltonian, Observable, expectation, purity

__all__ = [
    "ScenarioFile",
    "ResultTable",
    "parse_scenario",
    "emit_scenario",
    "run_decoherence_sweep",
    "run_clock_recovery",
    "run_pearle_compare",
    "run_report",
]

_TOP_BLOCKS = ("system", "kernel", "clock", "observable", "sweep")
_KERNEL_KINDS = ("delta", "gaussian", "uniform", "tabulated")
_STATE_PRESETS = (
    "plus_state",
    "basis_state",
    "maximally_mixed",
    "random_pure",
    "random_mixed",
)
_OBSERVABLE_PRESETS = ("pauli_x", "pauli_z", "number_op")
_SWEEP_VARIABLES = ("t_B", "t_A", "lambda")


# ---------------------------------------------------------------------------
# generic nested-block reader


@dataclass
class _Leaf:
    key: str
    tokens: list[str]
    line: int


@dataclass
class _Block:
    name: str
    line: int
    leaves: list[_Leaf] = field(default_factory=list)
    blocks: list["_Block"] = field(default_factory=list)

    def leaf_map(self) -> dict[str, _Leaf]:
        out: dict[str, _Leaf] = {}
        for leaf in self.leaves:
            if leaf.key in out:
                raise ScenarioParseError(
                    f"line {leaf.line}: duplicate key '{leaf.key}' in "
                    f"block '{self.name}'"
                )
            out[leaf.key] = leaf
        return out

    def block_map(self) -> dict[str, "_Block"]:
        out: dict[str, _Block] = {}
        for blk in self.blocks:
            if blk.name in out:
                raise ScenarioParseError(
                    f"line {blk.line}: duplicate block '{blk.name}' in "
                    f"'{self.name}'"
                )
            out[blk.name] = blk
        return out


def _parse_blocks(text: str) -> _Block:
    root = _Block(name="<document>", line=0)
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
            block = _Block(name=name, line=lineno)
            stack[-1].blocks.append(block)
            stack.append(block)
            continue
        tokens = line.split()
        stack[-1].leaves.append(_Leaf(key=tokens[0], tokens=tokens[1:], line=lineno))
    if len(stack) != 1:
        raise ScenarioParseError(
            f"unclosed block '{stack[-1].name}' opened at line {stack[-1].line}"
        )
    return root


def _suggest(word: str, options) -> str:
    close = difflib.get_close_matches(word, options, n=3)
    hint = f"; did you mean {', '.join(repr(c) for c in close)}?" if close else ""
    return f"{word!r} is not one of {list(options)}{hint}"


def _enum(leaf: _Leaf, options, what: str) -> str:
    if len(leaf.tokens) < 1:
        raise ScenarioParseError(f"line {leaf.line}: '{leaf.key}' needs a value")
    value = leaf.tokens[0]
    if value not in options:
        raise ScenarioParseError(
            f"line {leaf.line}: unknown {what}: {_suggest(value, options)}"
        )
    return value


def _floats(leaf: _Leaf, count: int | None = None) -> list[float]:
    try:
        values = [float(tok) for tok in leaf.tokens]
    except ValueError as exc:
        raise ScenarioParseError(
            f"line {leaf.line}: '{leaf.key}' expects numbers, got "
            f"{leaf.tokens!r}"
        ) from exc
    if count is not None and len(values) != count:
        raise ScenarioParseError(
            f"line {leaf.line}: '{leaf.key}' expects {count} number(s), "
            f"got {len(values)}"
        )
    return values


def _one_float(leaf: _Leaf) -> float:
    return _floats(leaf, 1)[0]


def _one_int(leaf: _Leaf) -> int:
    value = _one_float(leaf)
    if value != int(value):
        raise ScenarioParseError(
            f"line {leaf.line}: '{leaf.key}' expects an integer, got {value}"
        )
    return int(value)


def _reject_unknown(block: _Block, allowed_leaves, allowed_blocks=()):
    for leaf in block.leaves:
        if leaf.key not in allowed_leaves:
            raise ScenarioParseError(
                f"line {leaf.line}: unknown key in '{block.name}': "
                f"{_suggest(leaf.key, allowed_leaves)}"
            )
    for blk in block.blocks:
        if blk.name not in allowed_blocks:
            raise ScenarioParseError(
                f"line {blk.line}: unknown block in '{block.name}': "
                f"{_suggest(blk.name, allowed_blocks or ('<none>',))}"
            )


def _matrix_rows(block: _Block) -> list[list[complex]]:
    rows: list[list[complex]] = []
    for leaf in block.leaves:
        tokens = [leaf.key] + leaf.tokens
        if leaf.key != "row":
            raise ScenarioParseError(
                f"line {leaf.line}: matrix block '{block.name}' expects "
                f"'row' lines, got {tokens[0]!r}"
            )
        values = _floats(_Leaf("row", leaf.tokens, leaf.line))
        if len(values) % 2 != 0 or not values:
            raise ScenarioParseError(
                f"line {leaf.line}: matrix row needs an even number of "
                f"values (re im pairs), got {len(values)}"
            )
        rows.append(
            [complex(values[k], values[k + 1]) for k in range(0, len(values), 2)]
        )
    if not rows:
        raise ScenarioParseError(
            f"line {block.line}: matrix block '{block.name}' has no rows"
        )
    return rows


def _table_rows(block: _Block) -> tuple[list[float], list[float]]:
    times: list[float] = []
    weights: list[float] = []
    for leaf in block.leaves:
        tokens = [leaf.key] + leaf.tokens
        if len(tokens) != 2:
            raise ScenarioParseError(
                f"line {leaf.line}: table row expects 't weight', got "
                f"{' '.join(tokens)!r}"
            )
        try:
            times.append(float(tokens[0]))
            weights.append(float(tokens[1]))
        except ValueError as exc:
            raise ScenarioParseError(
                f"line {leaf.line}: table row is not numeric: "
                f"{' '.join(tokens)!r}"
            ) from exc
    return times, weights


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    lam: float | None = None
    t_b: float | None = None
    half_width: float | None = None
    table_times: tuple[float, ...] | None = None
    table_weights: tuple[float, ...] | None = None

    def build(self, *, t_b: float | None = None, lam: float | None = None) -> TimeKernel:
        """Instantiate the kernel, optionally overriding swept parameters."""
        if self.kind == "delta":
            return DeltaKernel(self.t_b if t_b is None else t_b)
        if self.kind == "gaussian":
            return make_gaussian_kernel(
                self.lam if lam is None else lam,
                self.t_b if t_b is None else t_b,
            )
        if self.kind == "uniform":
            return UniformKernel(self.half_width, self.t_b if t_b is None else t_b)
        if t_b is not None or lam is not None:
            raise ScenarioValidationError(
                ["a tabulated kernel has no sweepable t_b/lambda parameter"]
            )
        return TabulatedKernel(self.table_times, self.table_weights)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class ScenarioFile:
    """One fully validated scenario plus the primitives it came from."""

    dimension: int
    system_hamiltonian: Hamiltonian
    initial_state: DensityMatrix
    kernel_spec: KernelSpec
    observable: Observable
    clock: ClockSystem | None
    sweep: SweepSpec | None
    # primitives preserved for canonical re-emission
    spectrum: tuple[float, ...] | None
    hamiltonian_rows: tuple[tuple[complex, ...], ...] | None
    state_preset: tuple[str, ...] | None
    state_rows: tuple[tuple[complex, ...], ...] | None
    observable_preset: str | None
    observable_rows: tuple[tuple[complex, ...], ...] | None
    clock_params: tuple[int, float] | None

    def kernel(self) -> TimeKernel:
        return self.kernel_spec.build()

    def canonical_text(self) -> str:
        return emit_scenario(self)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _f(x: float) -> str:
    return repr(float(x))


def _emit_matrix(name: str, rows, indent: str) -> list[str]:
    lines = [f"{indent}{name} {{"]
    for row in rows:
        cells = " ".join(f"{_f(c.real)} {_f(c.imag)}" for c in row)
        lines.append(f"{indent}  row {cells}")
    lines.append(f"{indent}}}")
    return lines


def emit_scenario(scn: ScenarioFile) -> str:
    """Serialize to the canonical form (parse -> emit is idempotent)."""
    lines: list[str] = ["system {"]
    lines.append(f"  dimension {scn.dimension}")
    if scn.spectrum is not None:
        lines.append("  spectrum " + " ".join(_f(e) for e in scn.spectrum))
    else:
        lines.extend(_emit_matrix("hamiltonian", scn.hamiltonian_rows, "  "))
    if scn.state_preset is not None:
        lines.append("  state " + " ".join(scn.state_preset))
    else:
        lines.extend(_emit_matrix("state", scn.state_rows, "  "))
    lines.append("}")

    ks = scn.kernel_spec
    lines.append("kernel {")
    lines.append(f"  kind {ks.kind}")
    if ks.kind == "gaussian":
        lines.append(f"  lambda {_f(ks.lam)}")
    if ks.kind == "uniform":
        lines.append(f"  half_width {_f(ks.half_width)}")
    if ks.kind in ("delta", "gaussian", "uniform"):
        lines.append(f"  t_b {_f(ks.t_b)}")
    if ks.kind == "tabulated":
        lines.append("  table {")
        for t, w in zip(ks.table_times, ks.table_weights):
            lines.append(f"    {_f(t)} {_f(w)}")
        lines.append("  }")
    lines.append("}")

    if scn.clock_params is not None:
        d, tick = scn.clock_params
        lines.append("clock {")
        lines.append(f"  dimension {d}")
        lines.append(f"  tick {_f(tick)}")
        lines.append("}")

    lines.append("observable {")
    if scn.observable_preset is not None:
        lines.append(f"  preset {scn.observable_preset}")
    else:
        lines.extend(_emit_matrix("matrix", scn.observable_rows, "  "))
    lines.append("}")

    if scn.sweep is not None:
        sw = scn.sweep
        lines.append("sweep {")
        lines.append(f"  variable {sw.variable}")
        lines.append(f"  start {_f(sw.start)}")
        lines.append(f"  stop {_f(sw.stop)}")
        lines.append(f"  steps {sw.steps}")
        lines.append("}")

    return "\n".join(lines) + "\n"


def _state_from_preset(tokens: tuple[str, ...], dim: int, rng) -> np.ndarray:
    name = tokens[0]
    if name == "plus_state":
        return np.full((dim, dim), 1.0 / dim, dtype=np.complex128)
    if name == "basis_state":
        if len(tokens) != 2:
            raise ScenarioValidationError(["basis_state preset needs an index"])
        k = int(tokens[1])
        if not 0 <= k < dim:
            raise ScenarioValidationError(
                [f"basis_state index {k} outside 0..{dim - 1}"]
            )
        out = np.zeros((dim, dim), dtype=np.complex128)
        out[k, k] = 1.0
        return out
    if name == "maximally_mixed":
        return np.eye(dim, dtype=np.complex128) / dim
    if name == "random_pure":
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        return np.outer(vec, vec.conj())
    if name == "random_mixed":
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = a @ a.conj().T
        return rho / np.trace(rho)
    raise ScenarioValidationError([f"unknown state preset {name!r}"])


def _observable_from_preset(name: str, dim: int) -> np.ndarray:
    if name == "pauli_x":
        if dim != 2:
            raise ScenarioValidationError(["pauli_x needs dimension 2"])
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if name == "pauli_z":
        if dim != 2:
            raise ScenarioValidationError(["pauli_z needs dimension 2"])
        return np.array([[1, 0], [0, -1]], dtype=np.complex128)
    if name == "number_op":
        return np.diag(np.arange(dim)).astype(np.complex128)
    raise ScenarioValidationError([f"unknown observable preset {name!r}"])


def parse_scenario(text: str, *, seed: int = 0) -> ScenarioFile:
    """Parse and fully validate a scenario document.

    ``seed`` feeds the random state presets; everything else is
    deterministic. Semantic problems are collected so one failed parse
    reports every violation at once.
    """
    root = _parse_blocks(text)
    if root.leaves:
        stray = root.leaves[0]
        raise ScenarioParseError(
            f"line {stray.line}: top level allows only blocks "
            f"{list(_TOP_BLOCKS)}, got key {stray.key!r}"
        )
    blocks = {}
    for blk in root.blocks:
        if blk.name not in _TOP_BLOCKS:
            raise ScenarioParseError(
                f"line {blk.line}: unknown block: {_suggest(blk.name, _TOP_BLOCKS)}"
            )
        if blk.name in blocks:
            raise ScenarioParseError(f"line {blk.line}: duplicate block '{blk.name}'")
        blocks[blk.name] = blk

    issues: list[str] = []
    for required in ("system", "kernel", "observable"):
        if required not in blocks:
            issues.append(f"missing required block '{required}'")
    if issues:
        raise ScenarioValidationError(issues)

    rng = np.random.default_rng(int(seed))

    # -- system -------------------------------------------------------
    system = blocks["system"]
    _reject_unknown(system, ("dimension", "spectrum", "state"), ("hamiltonian", "state"))
    sys_leaves = system.leaf_map()
    sys_blocks = system.block_map()
    if "dimension" not in sys_leaves:
        raise ScenarioValidationError(["system block needs 'dimension'"])
    dim = _one_int(sys_leaves["dimension"])
    if dim < 1:
        issues.append(f"system dimension must be >= 1, got {dim}")
        dim = 1

    spectrum = None
    ham_rows = None
    hamiltonian = None
    if "spectrum" in sys_leaves and "hamiltonian" in sys_blocks:
        issues.append("system: give 'spectrum' or a 'hamiltonian' block, not both")
    elif "spectrum" in sys_leaves:
        spectrum = tuple(_floats(sys_leaves["spectrum"]))
        if len(spectrum) != dim:
            issues.append(
                f"system spectrum has {len(spectrum)} entries, expected {dim}"
            )
        else:
            hamiltonian = Hamiltonian(np.diag(np.array(spectrum)))
    elif "hamiltonian" in sys_blocks:
        ham_rows = tuple(tuple(r) for r in _matrix_rows(sys_blocks["hamiltonian"]))
        try:
            arr = np.array(ham_rows, dtype=np.complex128)
            if arr.shape != (dim, dim):
                raise RelatimeError(
                    f"hamiltonian matrix is {arr.shape}, expected ({dim}, {dim})"
                )
            hamiltonian = Hamiltonian(arr)
        except (RelatimeError, ValueError) as exc:
            issues.append(f"system hamiltonian: {exc}")
    else:
        issues.append("system block needs 'spectrum' or a 'hamiltonian' block")

    state_preset = None
    state_rows = None
    state = None
    if "state" in sys_leaves and "state" in sys_blocks:
        issues.append("system: give a state preset or a state block, not both")
    elif "state" in sys_leaves:
        leaf = sys_leaves["state"]
        name = _enum(leaf, _STATE_PRESETS, "state preset")
        state_preset = tuple([name] + leaf.tokens[1:])
        try:
            state = DensityMatrix(_state_from_preset(state_preset, dim, rng))
        except (RelatimeError, ValueError) as exc:
            issues.append(f"system state preset: {exc}")
    elif "state" in sys_blocks:
        state_rows = tuple(tuple(r) for r in _matrix_rows(sys_blocks["state"]))
        try:
            arr = np.array(state_rows, dtype=np.complex128)
            if arr.shape != (dim, dim):
                raise RelatimeError(
                    f"state matrix is {arr.shape}, expected ({dim}, {dim})"
                )
            state = DensityMatrix(arr)
        except (RelatimeError, ValueError) as exc:
            issues.append(f"system state: {exc}")
    else:
        issues.append("system block needs a 'state' entry or block")

    # -- kernel -------------------------------------------------------
    kernel_block = blocks["kernel"]
    _reject_unknown(
        kernel_block, ("kind", "lambda", "t_b", "half_width"), ("table",)
    )
    k_leaves = kernel_block.leaf_map()
    k_blocks = kernel_block.block_map()
    if "kind" not in k_leaves:
        raise ScenarioValidationError(issues + ["kernel block needs 'kind'"])
    kind = _enum(k_leaves["kind"], _KERNEL_KINDS, "kernel kind")

    lam = _one_float(k_leaves["lambda"]) if "lambda" in k_leaves else None
    t_b = _one_float(k_leaves["t_b"]) if "t_b" in k_leaves else None
    half_width = (
        _one_float(k_leaves["half_width"]) if "half_width" in k_leaves else None
    )
    table_times = table_weights = None
    if "table" in k_blocks:
        times, weights = _table_rows(k_blocks["table"])
        table_times, table_weights = tuple(times), tuple(weights)

    if kind in ("delta", "gaussian", "uniform") and t_b is None:
        issues.append(f"{kind} kernel needs 't_b'")
    if kind == "gaussian" and lam is None:
        issues.append("gaussian kernel needs 'lambda'")
    if kind == "uniform" and half_width is None:
        issues.append("uniform kernel needs 'half_width'")
    if kind == "tabulated" and table_times is None:
        issues.append("tabulated kernel needs a 'table' block")
    if kind != "gaussian" and lam is not None:
        issues.append(f"'lambda' is meaningless for a {kind} kernel")
    if kind != "uniform" and half_width is not None:
        issues.append(f"'half_width' is meaningless for a {kind} kernel")
    if kind != "tabulated" and table_times is not None:
        issues.append(f"a table block is meaningless for a {kind} kernel")
    if kind == "tabulated" and t_b is not None:
        issues.append("a tabulated kernel derives t_b from the table; drop 't_b'")
    kernel_spec = KernelSpec(
        kind=kind,
        lam=lam,
        t_b=t_b,
        half_width=half_width,
        table_times=table_times,
        table_weights=table_weights,
    )
    if not any(issue.startswith(kind) or "kernel" in issue for issue in issues):
        try:
            kernel_spec.build()
        except (RelatimeError, ValueError) as exc:
            issues.append(f"kernel: {exc}")

    # -- clock (optional) ----------------------------------------------
    clock = None
    clock_params = None
    if "clock" in blocks:
        clock_block = blocks["clock"]
        _reject_unknown(clock_block, ("dimension", "tick"))
        c_leaves = clock_block.leaf_map()
        if "dimension" not in c_leaves or "tick" not in c_leaves:
            issues.append("clock block needs 'dimension' and 'tick'")
        else:
            c_dim = _one_int(c_leaves["dimension"])
            c_tick = _one_float(c_leaves["tick"])
            clock_params = (c_dim, c_tick)
            try:
                clock = ClockSystem(c_dim, c_tick)
            except (RelatimeError, ValueError) as exc:
                issues.append(f"clock: {exc}")

    # -- observable ------------------------------------------------------
    obs_block = blocks["observable"]
    _reject_unknown(obs_block, ("preset",), ("matrix",))
    o_leaves = obs_block.leaf_map()
    o_blocks = obs_block.block_map()
    observable = None
    observable_preset = None
    observable_rows = None
    if "preset" in o_leaves and "matrix" in o_blocks:
        issues.append("observable: give a preset or a matrix block, not both")
    elif "preset" in o_leaves:
        observable_preset = _enum(
            o_leaves["preset"], _OBSERVABLE_PRESETS, "observable preset"
        )
        try:
            observable = Observable(_observable_from_preset(observable_preset, dim))
        except (RelatimeError, ValueError) as exc:
            issues.append(f"observable preset: {exc}")
    elif "matrix" in o_blocks:
        observable_rows = tuple(tuple(r) for r in _matrix_rows(o_blocks["matrix"]))
        try:
            arr = np.array(observable_rows, dtype=np.complex128)
            if arr.shape != (dim, dim):
                raise RelatimeError(
                    f"observable matrix is {arr.shape}, expected ({dim}, {dim})"
                )
            observable = Observable(arr)
        except (RelatimeError, ValueError) as exc:
            issues.append(f"observable: {exc}")
    else:
        issues.append("observable block needs 'preset' or a 'matrix' block")

    # -- sweep (optional) -------------------------------------------------
    sweep = None
    if "sweep" in blocks:
        sweep_block = blocks["sweep"]
        _reject_unknown(sweep_block, ("variable", "start", "stop", "steps"))
        s_leaves = sweep_block.leaf_map()
        missing = [k for k in ("variable", "start", "stop", "steps") if k not in s_leaves]
        if missing:
            issues.append(f"sweep block is missing {missing}")
        else:
            variable = _enum(s_leaves["variable"], _SWEEP_VARIABLES, "sweep variable")
            start = _one_float(s_leaves["start"])
            stop = _one_float(s_leaves["stop"])
            steps = _one_int(s_leaves["steps"])
            if steps < 1:
                issues.append(f"sweep steps must be >= 1, got {steps}")
            elif stop < start:
                issues.append(f"sweep stop {stop} is below start {start}")
            else:
                sweep = SweepSpec(variable, start, stop, steps)

    if issues:
        raise ScenarioValidationError(issues)

    return ScenarioFile(
        dimension=dim,
        system_hamiltonian=hamiltonian,
        initial_state=state,
        kernel_spec=kernel_spec,
        observable=observable,
        clock=clock,
        sweep=sweep,
        spectrum=spectrum,
        hamiltonian_rows=ham_rows,
        state_preset=state_preset,
        state_rows=state_rows,
        observable_preset=observable_preset,
        observable_rows=observable_rows,
        clock_params=clock_params,
    )


# ---------------------------------------------------------------------------
# result tables


@dataclass
class ResultTable:
    """Ordered named columns plus '#'-comment metadata and footer lines."""

    columns: dict[str, list]
    metadata: dict[str, str] = field(default_factory=dict)
    footer: dict[str, str] = field(default_factory=dict)

    def _validate(self):
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise RelatimeError(f"ragged result table: {lengths}")
        for name, col in self.columns.items():
            for v in col:
                if isinstance(v, (float, np.floating)) and not np.isfinite(v):
                    raise RelatimeError(f"non-finite value in column {name!r}")

    @staticmethod
    def _cell(value) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    def to_csv(self) -> str:
        self._validate()
        lines = [f"# {key}: {val}" for key, val in self.metadata.items()]
        names = list(self.columns)
        lines.append(",".join(names))
        length = len(self.columns[names[0]]) if names else 0
        for k in range(length):
            lines.append(",".join(self._cell(self.columns[n][k]) for n in names))
        lines.extend(f"# {key}: {val}" for key, val in self.footer.items())
        return "\n".join(lines) + "\n"


def _base_metadata(scn: ScenarioFile, threshold: float, seed: int, nodes=None):
    """Provenance lines; ``nodes`` only for runners that ran quadrature."""
    meta = {"generator": f"relatime {__version__}", "scenario-sha256": scn.digest()}
    if nodes is not None:
        meta["nodes"] = str(int(nodes))
    meta.update(threshold=repr(float(threshold)), seed=str(int(seed)))
    return meta


def _distinct_gaps(hamiltonian: Hamiltonian) -> np.ndarray:
    energies = hamiltonian.spectrum
    gaps = np.abs(energies[:, None] - energies[None, :])
    return np.unique(np.round(gaps[_distinct_gap_mask(energies)], 12))


def _max_offdiag(state: DensityMatrix, hamiltonian: Hamiltonian) -> float:
    rho_e = _to_eigenbasis(state.matrix, hamiltonian)
    off = np.abs(rho_e - np.diag(np.diag(rho_e)))
    return float(np.max(off, initial=0.0))


def run_decoherence_sweep(
    scn: ScenarioFile,
    *,
    nodes: int = 64,
    threshold: float = 1e-6,
    seed: int = 0,
) -> ResultTable:
    """Sweep t_B or lambda; one row per point with both observers' values.

    The exact-time column evolves to the nominal reading; the averaged
    column uses the closed-form dephasing law. Per-gap columns hold the
    dephasing factor magnitude at each distinct energy gap.

    The state and observable go to the energy basis once. Each point
    scales that state by the unitary and kernel multipliers and validates
    both results as density matrices there. ``nodes`` is unused.
    """
    if scn.sweep is None or scn.sweep.variable not in ("t_B", "lambda"):
        raise ScenarioValidationError(
            ["decoherence sweep needs a sweep block with variable t_B or lambda"]
        )
    if scn.sweep.variable == "lambda" and scn.kernel_spec.kind != "gaussian":
        raise ScenarioValidationError(["a lambda sweep needs a gaussian kernel"])
    if scn.sweep.variable == "t_B" and scn.kernel_spec.kind == "tabulated":
        raise ScenarioValidationError(["a tabulated kernel cannot sweep t_B"])

    hamiltonian = scn.system_hamiltonian
    spectrum = hamiltonian.spectrum
    rho_e = _to_eigenbasis(scn.initial_state.matrix, hamiltonian)
    observable_e = Observable(_to_eigenbasis(scn.observable.matrix, hamiltonian))
    distinct = _distinct_gap_mask(spectrum)
    gaps = _distinct_gaps(hamiltonian)
    gap_names = [f"dephase_gap_{g:.6g}" for g in gaps]

    variable = scn.sweep.variable
    names = [variable, "expect_A", "expect_B", "purity_A", "purity_B", "max_offdiag"]
    columns: dict[str, list] = {name: [] for name in names + gap_names}

    for x in scn.sweep.values():
        x = float(x)
        if variable == "t_B":
            kernel = scn.kernel_spec.build(t_b=x)
            t_alice = x
        else:
            kernel = scn.kernel_spec.build(lam=x)
            t_alice = scn.kernel_spec.t_b
        try:
            rho_a = _finish_state(rho_e * _unitary_multiplier(spectrum, t_alice))
            rho_b = _finish_state(rho_e * _kernel_multiplier(spectrum, kernel))
        except RelatimeError as exc:
            exc.args = (f"at sweep point {variable} = {x!r}: {exc}",)
            raise
        columns[variable].append(x)
        columns["expect_A"].append(expectation(observable_e, rho_a))
        columns["expect_B"].append(expectation(observable_e, rho_b))
        columns["purity_A"].append(purity(rho_a))
        columns["purity_B"].append(purity(rho_b))
        columns["max_offdiag"].append(
            float(np.max(np.abs(rho_b.matrix[distinct]), initial=0.0))
        )
        for name, factor in zip(gap_names, np.abs(kernel._chi(gaps)).tolist()):
            columns[name].append(factor)

    return ResultTable(columns=columns, metadata=_base_metadata(scn, threshold, seed))


def run_clock_recovery(
    scn: ScenarioFile,
    *,
    nodes: int = 64,
    threshold: float = 1e-6,
    seed: int = 0,
) -> ResultTable:
    """Exact-time vs through-the-watch conditional values on the pointer grid.

    Rows cover every pointer time the kernel supports (optionally windowed
    by a ``variable t_A`` sweep block); the footer reports the largest
    absolute difference, which the central identity makes vanish.
    """
    if scn.clock is None:
        raise ScenarioValidationError(["clock recovery needs a clock block"])
    if scn.sweep is not None and scn.sweep.variable != "t_A":
        raise ScenarioValidationError(
            ["clock recovery accepts only a 'variable t_A' sweep block "
             "(used as a readout window)"]
        )
    composite = CompositeScenario(scn.system_hamiltonian, scn.initial_state, scn.clock)
    kernel = scn.kernel()
    weights = pointer_weights(kernel, scn.clock)

    times = []
    for index, t in enumerate(scn.clock.pointer_times):
        if weights[index] <= 0:
            continue
        if scn.sweep is not None and not (
            scn.sweep.start <= t <= scn.sweep.stop
        ):
            continue
        times.append(float(t))
    if not times:
        raise ScenarioValidationError(
            ["kernel supports no pointer time inside the readout window"]
        )

    columns: dict[str, list] = {
        "t": [],
        "alice_value": [],
        "bob_value": [],
        "abs_difference": [],
    }
    for t in times:
        a = alice_conditional(composite, scn.observable, t)
        b = bob_conditional(composite, kernel, scn.observable, t)
        columns["t"].append(t)
        columns["alice_value"].append(a)
        columns["bob_value"].append(b)
        columns["abs_difference"].append(abs(a - b))

    table = ResultTable(columns=columns, metadata=_base_metadata(scn, threshold, seed))
    table.footer["max_abs_difference"] = repr(max(columns["abs_difference"]))
    return table


def run_pearle_compare(
    scn: ScenarioFile,
    *,
    nodes: int = 64,
    threshold: float = 1e-6,
    seed: int = 0,
) -> ResultTable:
    """Collapse-dynamics state vs Gaussian-kernel relational state per t.

    The two are the same integral in different variables, so the distance
    column is pure quadrature error.
    """
    if scn.kernel_spec.kind != "gaussian":
        raise ScenarioValidationError(["pearle comparison needs a gaussian kernel"])
    if scn.sweep is None or scn.sweep.variable != "t_B":
        raise ScenarioValidationError(
            ["pearle comparison needs a sweep block with variable t_B"]
        )
    if scn.sweep.start < 0:
        raise ScenarioValidationError(["collapse evolution needs t >= 0"])

    hamiltonian = scn.system_hamiltonian
    rho0 = scn.initial_state
    lam = scn.kernel_spec.lam
    columns: dict[str, list] = {
        "t": [],
        "maxnorm_distance": [],
        "offdiag_pearle": [],
        "offdiag_relational": [],
    }
    for t in scn.sweep.values():
        t = float(t)
        try:
            collapsed = evolve_pearle(rho0, hamiltonian, lam, t, nodes).state
            relational = evolve_relational_dephasing(
                rho0, hamiltonian, make_gaussian_kernel(lam, t)
            ).state
        except RelatimeError as exc:
            exc.args = (f"at sweep point t = {t!r}: {exc}",)
            raise
        distance = float(np.max(np.abs(collapsed.matrix - relational.matrix)))
        columns["t"].append(t)
        columns["maxnorm_distance"].append(distance)
        columns["offdiag_pearle"].append(_max_offdiag(collapsed, hamiltonian))
        columns["offdiag_relational"].append(_max_offdiag(relational, hamiltonian))

    return ResultTable(
        columns=columns, metadata=_base_metadata(scn, threshold, seed, nodes)
    )


def run_report(
    scn: ScenarioFile,
    *,
    nodes: int = 64,
    threshold: float = 1e-6,
    seed: int = 0,
) -> ResultTable:
    """Energy-basis coherence magnitudes before/after averaging, as rows."""
    report = coherence_report(
        scn.initial_state, scn.system_hamiltonian, scn.kernel(), threshold=threshold
    )
    columns: dict[str, list] = {
        "i": report.i.tolist(),
        "j": report.j.tolist(),
        "energy_i": report.energy_i.tolist(),
        "energy_j": report.energy_j.tolist(),
        "magnitude_A": report.magnitude_exact.tolist(),
        "magnitude_B": report.magnitude_averaged.tolist(),
    }
    table = ResultTable(columns=columns, metadata=_base_metadata(scn, threshold, seed))
    table.footer["max_offdiag_B"] = repr(report.max_offdiag_averaged)
    table.footer["complete_decoherence"] = str(report.complete_decoherence).lower()
    return table
