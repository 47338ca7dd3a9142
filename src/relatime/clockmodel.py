"""Finite ideal clocks and conditional readout through them.

An ideal clock is a d-level system whose pointer states |t_m> (t_m = m * tick)
shift by one step per tick: its generator is diagonal in the Fourier basis
F[m, k] = exp(2 pi i m k / d) / sqrt(d) with frequencies 2 pi k / (d * tick),
which with the pointer times are all a ``ClockSystem`` holds. It is periodic
(period d * tick): later times alias and are refused.

``CompositeScenario`` couples a system S to such a clock with no interaction,
from rho_S with the clock on pointer 0. Bob mixes the branches at the kernel's
pointer times t_r and conditions on reading r' through the clock's transition
probabilities P[r', r] = |<r'|U_C(t_r)|0>|^2 (``bob_conditional``). P is the
identity on an ideal clock's grid, so he gets the exact-time value at t_r'
(``alice_conditional``), however broad the kernel. Readout forms nothing D x D
(D = d_S * d_C, capped in ``CompositeScenario``): it reads every value in H_S's
eigenbasis, into which rho_S and N go once.
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
    _at,
)
from .evolution import _energy_frame, _Frame, _phases, evolve_relational_dephasing
from .kernels import DeltaKernel, TabulatedKernel, TimeKernel
from .qmat import (
    DensityMatrix,
    Hamiltonian,
    Observable,
    _check_product_dim,
    _expect,
    _Immutable,
    _roundoff,
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


class ClockSystem(_Immutable):
    """Cyclic d-state pointer clock with tick ``tick``.

    ``pointer_times[m] = m * tick`` labels the pointer basis, and one tick
    of evolution advances the pointer by exactly one step (mod d) under
    the generator with eigenvalues ``frequencies`` on the columns of F.
    """

    __slots__ = ("dim", "tick", "pointer_times", "frequencies")

    def __init__(self, dim: int, tick: float):
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise InvalidDimensionError(
                f"clock needs an integer dimension >= 2, got {dim!r}"
            )
        if not tick > 0:
            raise InvalidDimensionError(f"clock tick must be > 0, got {tick}")
        d, tick = int(dim), float(tick)
        times = np.arange(d) * tick
        freqs = 2.0 * np.pi * np.arange(d) / (d * tick)
        self._freeze(dim=d, tick=tick, pointer_times=times, frequencies=freqs)

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
        rejected rather than wrapped. On the grid means within 1e-9 ticks.
        """
        ratio = t / self.tick
        index = int(round(ratio)) if abs(ratio) <= self.dim else -1  # NaN, inf too
        if abs(t - index * self.tick) > 1e-9 * self.tick or not 0 <= index < self.dim:
            raise NotPointerTimeError(
                f"t = {t!r} is not a pointer time of a {self.dim}-state "
                f"clock with tick {self.tick} (period {self.period})"
            )
        return index

    def __repr__(self) -> str:
        return f"ClockSystem(dim={self.dim}, tick={self.tick})"


class CompositeScenario(_Immutable):
    """System S coupled to an internal clock C, dynamically independent.

    The composite generator is H_S (x) I + I (x) H_C (system left, clock
    right) and the initial state is the product of the system state with
    the clock on pointer 0, so the clock starts in agreement with the wall
    time and the reading after ``step`` ticks is ``step``; both are built
    when read.
    """

    __slots__ = ("system_hamiltonian", "system_state", "clock")

    def __init__(
        self,
        system_hamiltonian: Hamiltonian,
        system_state: DensityMatrix,
        clock: ClockSystem,
    ):
        if system_hamiltonian.dim != system_state.dim:
            raise DimensionMismatchError(
                f"system Hamiltonian dim {system_hamiltonian.dim} != "
                f"state dim {system_state.dim}"
            )
        _check_product_dim(system_hamiltonian.dim, clock.dim)
        self._freeze(system_hamiltonian=system_hamiltonian, system_state=system_state,
                     clock=clock)

    @property
    def hamiltonian(self) -> Hamiltonian:
        """The dense composite generator, diagonalized."""
        d_s, d_c = self.dims
        m = np.arange(d_c)  # F diag(omega) F^dag is the circulant of ifft(omega)
        h_c = np.fft.ifft(self.clock.frequencies)[(m[:, None] - m) % d_c]
        u = self.system_hamiltonian.eigenbasis
        h_s = (u * self.system_hamiltonian.spectrum) @ u.conj().T
        return Hamiltonian(tensor(h_s, np.eye(d_c)) + tensor(np.eye(d_s), h_c))

    @property
    def initial_state(self) -> DensityMatrix:
        """The dense product start state."""
        pointer = self.clock.projector(0)
        return DensityMatrix(tensor(self.system_state.matrix, pointer))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.system_hamiltonian.dim, self.clock.dim)

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
            f"{kernel.kind} kernel has continuous support; clock readout needs "
            "a delta kernel at a pointer time or a tabulated kernel on pointer "
            "times (a library caller can use discretize_on_grid)"
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


def _system_frame(scenario: CompositeScenario, observable: Observable) -> _Frame:
    return _energy_frame(scenario.system_state, scenario.system_hamiltonian, observable)


def _bob_rows(scenario: CompositeScenario, kernel: TimeKernel, frame: _Frame):
    """Per reading r', sum_r w_r P[r', r] (its probability in the averaged state)
    and sum_r w_r P[r', r] v_r, v_r = Tr[N rho_S(t_r)], with P[:, r] the clock's
    distribution |ifft(exp(-i omega t_r))|^2 at t_r. The frame's state is checked:
    every branch, and so every mixture, is then a state."""
    weights = pointer_weights(kernel, scenario.clock)
    clock, spectrum = scenario.clock, scenario.system_hamiltonian.spectrum
    rows = np.zeros((2, clock.dim))
    for r in np.flatnonzero(weights):
        t = clock.pointer_times[r]
        with _at(f"readout t = {float(t)!r}"):
            value = _expect(_phases(spectrum, t), frame.weighted, frame.bound)
        shown = np.abs(np.fft.ifft(np.exp(-1j * t * clock.frequencies))) ** 2
        rows += np.outer([1.0, value], weights[r] * shown)
    return rows


def _alice_value(scenario: CompositeScenario, frame: _Frame, step: int) -> float:
    """The observable after ``step`` ticks, directly (p = exp(-i E t)) and by
    conditioning the composite on reading ``step``: phases exp(-i (E_i + omega_k)
    t) summed with F[step, k] F[0, k]* = exp(2 pi i step k / d) / d, rounded as
    the DFT's, into one amplitude a per level, over the clock's probability
    sum_i |a_i|^2 rho_ii of showing ``step``. A phase's roundoff is u |argument|."""
    system, clock = scenario.system_hamiltonian, scenario.clock
    t = clock.pointer_times[step]
    k, d = np.arange(clock.dim), clock.dim
    row = np.exp(2j * np.pi * (step * k) / d) / np.sqrt(d) * (1 / np.sqrt(d))
    arguments = np.add.outer(system.spectrum, clock.frequencies) * t
    amplitude = np.exp(-1j * arguments) @ row
    shown = float(np.sum(np.abs(amplitude) ** 2 * frame.state.matrix.diagonal().real))
    if not abs(shown - 1.0) <= _SHIFT_TOL:  # NaN fails too
        raise ConsistencyError(
            f"the clock shows reading {step} at t = {float(t)!r} with probability "
            f"{shown!r}, not 1 within {_SHIFT_TOL}"
        )
    conditioned = _expect(amplitude, frame.weighted, frame.bound) / shown
    direct = _expect(_phases(system.spectrum, t), frame.weighted, frame.bound)
    theta = float(np.max(np.abs(arguments)))
    tolerance = _roundoff(frame.scale, 8 * frame.state.dim + 4 * d + 6 * theta)
    if abs(direct - conditioned) > tolerance:
        raise ConsistencyError(
            f"direct ({direct!r}) and projectively conditioned "
            f"({conditioned!r}) values disagree beyond {tolerance:.3e}"
        )
    return direct


def _condition(rows: np.ndarray, reading: int) -> float:
    """The observable given clock reading ``reading``, off ``_bob_rows``."""
    probability, weighted = rows[:, reading]
    if probability < _ZERO_PROBABILITY:
        raise ZeroProbabilityError(
            f"clock reading index {reading} has probability "
            f"{probability:.3e}; conditioning is undefined there"
        )
    return float(weighted / probability)


def _read_clock(scenario: CompositeScenario, kernel, observable, steps) -> np.ndarray:
    """Alice's and Bob's values at each of ``steps``, as two rows, off one rotation
    of rho_S and N and Bob's two rows; an error names the readout it arose at."""
    frame = _system_frame(scenario, observable)
    rows = _bob_rows(scenario, kernel, frame)
    values = np.empty((2, len(steps)))
    for k, step in enumerate(steps):
        with _at(f"readout t = {float(scenario.clock.pointer_times[step])!r}"):
            alice = _alice_value(scenario, frame, step)
            values[:, k] = alice, _condition(rows, step)
    return values


def bob_state(scenario: CompositeScenario, kernel: TimeKernel) -> DensityMatrix:
    """Kernel-averaged composite state (discrete mixture over pointer times).

    What an observer who consulted only the inaccurate watch assigns: the
    kernel average of the evolved D x D composite, for a kernel on the
    pointer grid. Dense, through an O(D^3) eigendecomposition; readout never
    forms it.
    """
    pointer_weights(kernel, scenario.clock)  # refuses a kernel off the grid
    composite = scenario.hamiltonian
    return evolve_relational_dephasing(scenario.initial_state, composite, kernel)


def alice_conditional(
    scenario: CompositeScenario, observable: Observable, t_a: float
) -> float:
    """Expected value of a system observable when the time is known exactly.

    Computed twice - directly from the evolved system state, and by
    projective conditioning of the evolved composite on the clock reading
    shown at ``t_a``, which it must show with probability 1 - and
    cross-checked. ``t_a`` must be a pointer time within the first period.
    """
    step = scenario.clock.pointer_index(t_a)
    return _alice_value(scenario, _system_frame(scenario, observable), step)


def bob_conditional(
    scenario: CompositeScenario, kernel: TimeKernel, observable: Observable, t: float
) -> float:
    """Expected value given the clock reading, through the averaged state.

    Mixes the kernel's branches and conditions them on the reading shown at
    pointer time ``t`` through the clock's transition probabilities P. On
    an ideal clock's grid P is the identity, so this equals
    ``alice_conditional`` at every reading the kernel gives nonzero weight:
    conditioning on the internal clock undoes the watch's ignorance. Raises
    ``ZeroProbabilityError`` for readings the averaged state does not show.
    """
    reading = scenario.clock.pointer_index(t)
    rows = _bob_rows(scenario, kernel, _system_frame(scenario, observable))
    return _condition(rows, reading)


def unconditioned_expectation(
    scenario: CompositeScenario, kernel: TimeKernel, observable: Observable
) -> float:
    """Tr[(N (x) I) rho_averaged] = sum_r w_r v_r: the watch-only answer, as
    each column of P sums to 1."""
    rows = _bob_rows(scenario, kernel, _system_frame(scenario, observable))
    return float(np.sum(rows[1]))
