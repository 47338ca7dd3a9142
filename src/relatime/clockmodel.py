"""Finite ideal clocks and conditional readout through them.

An ideal clock here is a d-level system whose pointer states |t_m> (the
computational basis, labeled t_m = m * tick) are cyclically shifted by
one step per tick of evolution: the generator is diagonal in the discrete
Fourier basis of the pointer states with frequencies 2*pi*k / (d * tick).
The clock is therefore PERIODIC with period d * tick; scenarios must keep
total evolution time below one period or readings alias.

``CompositeScenario`` couples a system S to such a clock C with no
interaction (the composite generator is the Kronecker sum), starting from
a product state with the clock on a definite pointer state. Conditional
readout then recovers exact-time dynamics from the kernel-averaged
composite state: conditioning on the clock reading t reproduces the
exact-time expectation value at t, no matter how broad the watch-error
kernel is. The two readout routes (``alice_conditional`` for a known
time, ``bob_conditional`` through the averaged state) exist separately so
each can check the other.

Readout uses the Kronecker-sum structure and forms nothing D x D
(D = d_S * d_C, still capped by arithmetic in ``CompositeScenario``). The
averaged state is block-diagonal in the pointer basis, kept as one block
per reading and validated once (a batched ``eigvalsh`` in place of a D x D
one); the product start state is valid because rho_S is, and U_S, shared
by both alice routes, is checked when its ``Hamiltonian`` is built.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    InvalidDimensionError,
    KernelOffGridError,
    NotPointerTimeError,
    ZeroProbabilityError,
)
from .evolution import _from_eigenbasis, _to_eigenbasis, _unitary_multiplier
from .kernels import DeltaKernel, TabulatedKernel, TimeKernel
from .qmat import (
    DensityMatrix,
    Hamiltonian,
    Observable,
    _check_hermitian,
    _check_product_dim,
    _check_state,
    expectation,
    tensor,
)

__all__ = [
    "ClockSystem",
    "CompositeScenario",
    "discretize_on_grid",
    "bob_state",
    "alice_conditional",
    "bob_conditional",
    "unconditioned_expectation",
]

_SHIFT_TOL = 1e-8
_ZERO_PROBABILITY = 1e-12
_PATH_AGREEMENT_TOL = 1e-9


class ClockSystem:
    """Cyclic d-state pointer clock with tick ``tick``.

    ``pointer_times[m] = m * tick`` labels the pointer basis, the time
    observable is diagonal on it, and one tick of evolution advances the
    pointer by exactly one step (mod d). Pointer projectors commute with
    the time observable by construction.
    """

    __slots__ = ("dim", "tick", "pointer_times", "hamiltonian", "time_observable")

    def __init__(self, dim: int, tick: float):
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise InvalidDimensionError(
                f"clock needs an integer dimension >= 2, got {dim!r}"
            )
        if not tick > 0:
            raise InvalidDimensionError(f"clock tick must be > 0, got {tick}")
        d = int(dim)
        tick = float(tick)
        times = np.arange(d) * tick
        # Fourier eigenvectors F[:, k] of the one-step cyclic shift; the
        # generator with frequencies 2*pi*k/(d*tick) on them exponentiates
        # to exactly that shift over one tick.
        m = np.arange(d)
        fourier = np.exp(2j * np.pi * np.outer(m, m) / d) / np.sqrt(d)
        freqs = 2.0 * np.pi * np.arange(d) / (d * tick)
        hamiltonian = Hamiltonian.from_eigensystem(freqs, fourier)

        step = (fourier * np.exp(-1j * freqs * tick)) @ fourier.conj().T
        shift = np.roll(np.eye(d), 1, axis=0)
        defect = float(np.max(np.abs(step - shift)))
        if defect > _SHIFT_TOL:
            raise InvalidDimensionError(
                f"clock construction failed the shift check: defect {defect:.3e}"
            )

        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "tick", tick)
        times.setflags(write=False)
        object.__setattr__(self, "pointer_times", times)
        object.__setattr__(self, "hamiltonian", hamiltonian)
        object.__setattr__(self, "time_observable", Observable(np.diag(times)))

    def __setattr__(self, name, value):
        raise AttributeError("ClockSystem is immutable")

    @property
    def period(self) -> float:
        return self.dim * self.tick

    def projector(self, index: int) -> np.ndarray:
        """Rank-1 projector onto pointer state ``index``."""
        proj = np.zeros((self.dim, self.dim), dtype=np.complex128)
        proj[index, index] = 1.0
        return proj

    def pointer_index(self, t: float) -> int:
        """Map a time to its pointer index, rejecting off-grid times.

        Only the first period is addressable; later times alias and are
        rejected rather than wrapped.
        """
        ratio = t / self.tick
        index = int(round(ratio)) if abs(ratio) <= self.dim else -1  # NaN, inf too
        tol = 1e-9 * max(self.tick, 1.0)
        if abs(t - index * self.tick) > tol or not 0 <= index < self.dim:
            raise NotPointerTimeError(
                f"t = {t!r} is not a pointer time of a {self.dim}-state "
                f"clock with tick {self.tick} (period {self.period})"
            )
        return index

    def __repr__(self) -> str:
        return f"ClockSystem(dim={self.dim}, tick={self.tick})"


class CompositeScenario:
    """System S coupled to an internal clock C, dynamically independent.

    The composite generator is H_S (x) I + I (x) H_C (system left, clock
    right) and the initial state is the product of the system state with
    the clock pointing at ``initial_pointer`` (default 0, i.e. the clock
    starts in agreement with the wall time); both are built when read.
    """

    __slots__ = ("system_hamiltonian", "system_state", "clock", "initial_pointer")

    def __init__(
        self,
        system_hamiltonian: Hamiltonian,
        system_state: DensityMatrix,
        clock: ClockSystem,
        initial_pointer: int = 0,
    ):
        if system_hamiltonian.dim != system_state.dim:
            raise DimensionMismatchError(
                f"system Hamiltonian dim {system_hamiltonian.dim} != "
                f"state dim {system_state.dim}"
            )
        if not 0 <= int(initial_pointer) < clock.dim:
            raise InvalidDimensionError(
                f"initial pointer {initial_pointer} outside 0..{clock.dim - 1}"
            )
        _check_product_dim(system_hamiltonian.dim, clock.dim)
        object.__setattr__(self, "system_hamiltonian", system_hamiltonian)
        object.__setattr__(self, "system_state", system_state)
        object.__setattr__(self, "clock", clock)
        object.__setattr__(self, "initial_pointer", int(initial_pointer))

    def __setattr__(self, name, value):
        raise AttributeError("CompositeScenario is immutable")

    @property
    def hamiltonian(self) -> Hamiltonian:
        """The dense composite generator, diagonalized."""
        d_s, d_c = self.dims
        h_s, h_c = self.system_hamiltonian.matrix, self.clock.hamiltonian.matrix
        return Hamiltonian(tensor(h_s, np.eye(d_c)) + tensor(np.eye(d_s), h_c))

    @property
    def initial_state(self) -> DensityMatrix:
        """The dense product start state."""
        pointer = self.clock.projector(self.initial_pointer)
        return DensityMatrix(tensor(self.system_state.matrix, pointer))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.system_hamiltonian.dim, self.clock.dim)

    def reading_index(self, step: int) -> int:
        """Pointer index shown after ``step`` ticks of evolution."""
        return (self.initial_pointer + step) % self.clock.dim

    def __repr__(self) -> str:
        d_s, d_c = self.dims
        return f"CompositeScenario(system_dim={d_s}, clock_dim={d_c})"


def discretize_on_grid(kernel: TimeKernel, clock: ClockSystem) -> TabulatedKernel:
    """Sample a continuous kernel on the pointer grid and renormalize.

    Delta and tabulated kernels pass through ``pointer_weights`` directly;
    this helper exists for Gaussian/Uniform kernels, which otherwise have
    off-grid support and cannot be used for clock readout.
    """
    if isinstance(kernel, (DeltaKernel, TabulatedKernel)):
        weights = pointer_weights(kernel, clock)
        return TabulatedKernel(clock.pointer_times, weights)
    values = kernel.pdf(clock.pointer_times)
    if float(np.sum(values)) <= 0:
        raise KernelOffGridError(
            "kernel assigns zero weight to every pointer time"
        )
    return TabulatedKernel(clock.pointer_times, values)


def pointer_weights(kernel: TimeKernel, clock: ClockSystem) -> np.ndarray:
    """Kernel weights per pointer time; rejects off-grid support."""
    weights = np.zeros(clock.dim)
    if isinstance(kernel, DeltaKernel):
        atoms = [(kernel.t_b, 1.0)]
    elif isinstance(kernel, TabulatedKernel):
        atoms = list(zip(kernel.times, kernel.weights))
    else:
        raise KernelOffGridError(
            f"{kernel.kind} kernel has continuous support; discretize it "
            "onto the pointer grid first (see discretize_on_grid)"
        )
    for t, w in atoms:
        try:
            index = clock.pointer_index(float(t))
        except NotPointerTimeError as exc:
            raise KernelOffGridError(
                f"kernel atom at t = {t!r} is not on the pointer grid: {exc}"
            ) from exc
        weights[index] += w
    return weights


def _system_state_at(scenario: CompositeScenario, step) -> np.ndarray:
    """Raw system state(s) after ``step`` ticks of exact-time evolution."""
    system = scenario.system_hamiltonian
    phases = _unitary_multiplier(system.spectrum, scenario.clock.pointer_times[step])
    rho_e = _to_eigenbasis(scenario.system_state.matrix, system)
    return _from_eigenbasis(rho_e * phases, system)


def _direct_value(
    scenario: CompositeScenario, observable: Observable, step: int
) -> float:
    """The observable after ``step`` ticks, from the system state alone."""
    return float(np.trace(observable.matrix @ _system_state_at(scenario, step)).real)


def _bob_blocks(scenario: CompositeScenario, kernel: TimeKernel) -> np.ndarray:
    """The kernel-averaged composite state as its ``(d_C, d_S, d_S)`` stack
    of pointer-basis blocks: block r is sum over the times t_m showing
    reading r of w_m rho_S(t_m), normalized and validated as a whole."""
    weights = pointer_weights(kernel, scenario.clock)
    steps = np.flatnonzero(weights)
    d_s, d_c = scenario.dims
    blocks = np.zeros((d_c, d_s, d_s), dtype=np.complex128)
    blocks[scenario.reading_index(steps)] = (
        weights[steps, None, None] * _system_state_at(scenario, steps)
    )
    blocks /= np.sum(np.trace(blocks, axis1=1, axis2=2)).real
    _check_hermitian(blocks, "kernel-averaged state")  # before symmetrizing hides it
    blocks = 0.5 * (blocks + blocks.conj().swapaxes(1, 2))
    _check_state(blocks)
    return blocks


def _alice_block(scenario: CompositeScenario, step: int) -> np.ndarray:
    """Clock block (r, r) of the composite state after ``step`` ticks, r the
    reading then: the product state evolved in the eigenbasis U_S (x) F with
    phases exp(-i (E_i + omega_j) t), the clock factor summed into one amplitude
    per system level."""
    system, clock = scenario.system_hamiltonian, scenario.clock
    t = clock.pointer_times[step]
    fourier = clock.hamiltonian.eigenbasis
    phases = np.exp(-1j * np.add.outer(system.spectrum, clock.hamiltonian.spectrum) * t)
    reading = scenario.reading_index(step)
    amplitude = phases @ (fourier[reading] * fourier[scenario.initial_pointer].conj())
    rho_e = _to_eigenbasis(scenario.system_state.matrix, system)
    return _from_eigenbasis(rho_e * np.outer(amplitude, amplitude.conj()), system)


def _condition(block: np.ndarray, observable: Observable, reading: int) -> float:
    """Tr[N B_r] / Tr[B_r]: the observable given reading r, from block B_r."""
    if observable.dim != len(block):
        raise DimensionMismatchError(
            f"observable dim {observable.dim} != system dim {len(block)}"
        )
    denominator = float(np.trace(block).real)
    if denominator < _ZERO_PROBABILITY:
        raise ZeroProbabilityError(
            f"clock reading index {reading} has probability "
            f"{denominator:.3e}; conditioning is undefined there"
        )
    return float(np.sum(observable.matrix * block.T).real) / denominator


def bob_state(scenario: CompositeScenario, kernel: TimeKernel) -> DensityMatrix:
    """Kernel-averaged composite state (discrete mixture over pointer times).

    Each branch pairs the exact-time system state at a pointer time with
    the clock reading shown at that time, weighted by the kernel. This is
    what an observer who consulted only the inaccurate watch assigns; the
    system-clock correlation it carries is what conditional readout
    exploits. The dense D x D matrix is assembled from ``_bob_blocks``.
    """
    d_s, d_c = scenario.dims
    dense = np.einsum("rab,rs->arbs", _bob_blocks(scenario, kernel), np.eye(d_c))
    return DensityMatrix(dense.reshape(d_s * d_c, d_s * d_c))


def alice_conditional(
    scenario: CompositeScenario, observable: Observable, t_a: float
) -> float:
    """Expected value of a system observable when the time is known exactly.

    Computed twice - directly from the evolved system state, and by
    projective conditioning of the evolved composite on the clock reading
    shown at ``t_a`` - and cross-checked before returning. ``t_a`` must be
    a pointer time within the first clock period.
    """
    step = scenario.clock.pointer_index(t_a)
    conditioned = _condition(
        _alice_block(scenario, step), observable, scenario.reading_index(step)
    )
    direct = _direct_value(scenario, observable, step)
    if abs(direct - conditioned) > _PATH_AGREEMENT_TOL:
        raise ConsistencyError(
            f"direct ({direct!r}) and projectively conditioned "
            f"({conditioned!r}) values disagree beyond {_PATH_AGREEMENT_TOL}"
        )
    return direct


def bob_conditional(
    scenario: CompositeScenario,
    kernel: TimeKernel,
    observable: Observable,
    t: float,
) -> float:
    """Expected value given the clock reading, through the averaged state.

    Builds the kernel-averaged composite state and conditions it on the
    reading shown at pointer time ``t``. Equals ``alice_conditional`` at
    every reading the kernel gives nonzero weight - conditioning on the
    internal clock undoes the watch's ignorance. Raises
    ``ZeroProbabilityError`` for readings the kernel excludes.
    """
    reading = scenario.reading_index(scenario.clock.pointer_index(t))
    return _condition(_bob_blocks(scenario, kernel)[reading], observable, reading)


def unconditioned_expectation(
    scenario: CompositeScenario, kernel: TimeKernel, observable: Observable
) -> float:
    """Tr[(N (x) I) rho_averaged] = sum_r Tr[N B_r]: the watch-only answer."""
    reduced = DensityMatrix(np.sum(_bob_blocks(scenario, kernel), axis=0))
    return expectation(observable, reduced)
