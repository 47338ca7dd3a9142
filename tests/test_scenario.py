import dataclasses
import hashlib
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relatime import (
    DeltaKernel,
    GaussianKernel,
    Hamiltonian,
    QuantumStateError,
    RelatimeError,
    ResultTable,
    ScenarioParseError,
    ScenarioValidationError,
    TabulatedKernel,
    TimeKernel,
    UniformKernel,
    coherence_report,
    evolve_pearle,
    evolve_relational_dephasing,
    evolve_unitary,
    expectation,
    make_gaussian_kernel,
    parse_scenario,
    purity,
    run_clock_recovery,
    run_decoherence_sweep,
    run_pearle_compare,
    run_report,
)
from relatime import evolution, qmat
from relatime import scenario as scenario_module
from relatime.evolution import _distinct_gaps
from relatime.scenario import _gap_names
from conftest import SCENARIO_DIR, dense, random_hermitian
from test_golden import variant_text

MINIMAL = """
system {
  dimension 2
  spectrum 0.0 1.0
  state plus_state
}
kernel {
  kind gaussian
  lambda 0.1
  t_b 2.0
}
observable {
  preset pauli_x
}
"""

SWEEP_BLOCK = """
sweep {
  variable t_B
  start 0.1
  stop 10.0
  steps 12
}
"""

CLOCKED = """
system {
  dimension 2
  spectrum 0.0 1.0
  state plus_state
}
kernel {
  kind tabulated
  table {
    0.0 1
    0.4 2
    0.8 4
    1.2 8
    1.6 8
    2.0 4
    2.4 2
    2.8 1
  }
}
clock {
  dimension 8
  tick 0.4
}
observable {
  preset pauli_x
}
"""


class TestParsing:
    def test_minimal_scenario(self):
        scn = parse_scenario(MINIMAL)
        assert scn.dimension == 2
        assert scn.kernel_spec.kind == "gaussian"
        np.testing.assert_allclose(scn.system_hamiltonian.spectrum, [0.0, 1.0])
        np.testing.assert_allclose(scn.initial_state.matrix, np.full((2, 2), 0.5))
        assert scn.clock is None and scn.sweep is None

    def test_trace_violation_is_reported_by_name(self):
        text = MINIMAL.replace(
            "state plus_state",
            "state {\n row 0.45 0 0 0\n row 0 0 0.45 0\n }",
        )
        with pytest.raises(ScenarioValidationError, match="trace"):
            parse_scenario(text)

    def test_unknown_kernel_kind_suggests(self):
        text = MINIMAL.replace("kind gaussian", "kind gausian")
        with pytest.raises(ScenarioParseError, match="did you mean 'gaussian'"):
            parse_scenario(text)

    def test_all_validation_issues_collected(self):
        text = MINIMAL.replace("lambda 0.1", "lambda -1").replace(
            "spectrum 0.0 1.0", "spectrum 0.0 1.0 2.0"
        )
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(text)
        assert len(err.value.issues) == 2

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(ScenarioParseError, match="line 3"):
            parse_scenario(MINIMAL.replace("dimension 2", "dimension two"))
        with pytest.raises(ScenarioParseError, match="unclosed"):
            parse_scenario("system {\n  dimension 2\n")
        with pytest.raises(ScenarioParseError, match="unmatched"):
            parse_scenario("}\n")

    def test_unclosed_block_outranks_an_earlier_bad_number(self):
        # the block structure is read in full before any value
        text = MINIMAL.replace(
            "state plus_state", "state {\n row 0.5 half 0 0\n row 0 0 0.5 0\n }"
        )
        with pytest.raises(ScenarioParseError, match="^line 6: 'row' expects numbers"):
            parse_scenario(text)
        with pytest.raises(ScenarioParseError, match="^unclosed block 'sweep' opened"):
            parse_scenario(text + "sweep {\n  steps 3\n")

    def test_parse_peak_memory_is_bounded_by_the_text(self):
        # a matrix row's numbers are split from its line only as they are
        # converted, so no block's numbers are all held as strings at once
        text = dense_scenario(np.random.default_rng(3), 128, "gaussian", "t_B")
        tracemalloc.start()
        try:
            parse_scenario(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * len(text)

    def test_unknown_key_suggests(self):
        text = MINIMAL.replace("lambda 0.1", "lamda 0.1")
        with pytest.raises(ScenarioParseError, match="did you mean 'lambda'"):
            parse_scenario(text)

    def test_unknown_block_rejected(self):
        with pytest.raises(ScenarioParseError, match="unknown block"):
            parse_scenario(MINIMAL + "\nplotting {\n  style fancy\n}\n")

    def test_duplicate_block_rejected(self):
        with pytest.raises(ScenarioParseError, match="duplicate"):
            parse_scenario(MINIMAL + "\nkernel {\n  kind delta\n  t_b 1.0\n}\n")

    def test_missing_blocks_listed(self):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario("system {\n  dimension 2\n  spectrum 0 1\n  state plus_state\n}\n")
        joined = " ".join(err.value.issues)
        assert "kernel" in joined and "observable" in joined

    def test_matrix_hamiltonian_and_observable(self):
        text = """
        system {
          dimension 2
          hamiltonian {
            row 0.0 0.0  0.5 -0.5
            row 0.5 0.5  1.0 0.0
          }
          state basis_state 1
        }
        kernel {
          kind delta
          t_b 1.0
        }
        observable {
          matrix {
            row 1.0 0.0  0.0 0.0
            row 0.0 0.0  -1.0 0.0
          }
        }
        """
        scn = parse_scenario(text)
        assert dense(scn.system_hamiltonian)[0, 1] == pytest.approx(0.5 - 0.5j)
        assert scn.initial_state.matrix[1, 1] == pytest.approx(1.0)
        assert scn.observable.matrix[1, 1] == pytest.approx(-1.0)

    def test_matrix_dimension_mismatch_collected(self):
        text = MINIMAL.replace("state plus_state", "state {\n row 1.0 0.0\n }")
        with pytest.raises(ScenarioValidationError, match="expected"):
            parse_scenario(text)

    def test_presets(self):
        base = MINIMAL.replace("state plus_state", "state maximally_mixed")
        scn = parse_scenario(base)
        np.testing.assert_allclose(scn.initial_state.matrix, np.eye(2) / 2)

        number = MINIMAL.replace("preset pauli_x", "preset number_op").replace(
            "dimension 2", "dimension 3"
        ).replace("spectrum 0.0 1.0", "spectrum 0.0 1.0 2.0").replace(
            "state plus_state", "state basis_state 2"
        )
        scn = parse_scenario(number)
        np.testing.assert_allclose(
            np.diag(scn.observable.matrix).real, [0.0, 1.0, 2.0]
        )

    def test_basis_state_bounds_checked(self):
        text = MINIMAL.replace("state plus_state", "state basis_state 5")
        with pytest.raises(ScenarioValidationError, match="basis_state"):
            parse_scenario(text)

    def test_pauli_needs_qubit(self):
        text = (
            MINIMAL.replace("dimension 2", "dimension 3")
            .replace("spectrum 0.0 1.0", "spectrum 0.0 1.0 2.0")
            .replace("state plus_state", "state maximally_mixed")
        )
        with pytest.raises(ScenarioValidationError, match="dimension 2"):
            parse_scenario(text)

    def test_random_presets_are_seed_deterministic(self):
        text = MINIMAL.replace("state plus_state", "state random_mixed")
        one = parse_scenario(text, seed=7).initial_state.matrix
        two = parse_scenario(text, seed=7).initial_state.matrix
        other = parse_scenario(text, seed=8).initial_state.matrix
        assert np.array_equal(one, two)
        assert np.max(np.abs(one - other)) > 1e-3

    def test_tabulated_kernel_takes_no_swept_parameter(self):
        # its factory takes only the table: an override would be dropped
        text = (SCENARIO_DIR / "clock_recovery.scn").read_text()
        spec = parse_scenario(text).kernel_spec
        for swept in ({"t_b": 1.0}, {"lam": 0.1}):
            with pytest.raises(ScenarioValidationError,
                               match="a tabulated kernel has no sweepable t_b/lambda"):
                spec.build(**swept)

    def test_tabulated_with_t_b_rejected(self):
        text = CLOCKED.replace("kind tabulated", "kind tabulated\n  t_b 1.0")
        with pytest.raises(ScenarioValidationError, match="drop 't_b'"):
            parse_scenario(text)


class TestEmission:
    """The digest: what identifies the values a scenario was read from."""

    def test_round_trip_is_idempotent(self):
        """Comments, spacing and the spelling of a number or a preset index
        change no value, so no digest: the index is read as its integer."""
        for text in (MINIMAL, CLOCKED, MINIMAL + SWEEP_BLOCK):
            respelled = "# a comment\n" + text.replace("\n  ", "\n \t ").replace(
                " 1.0\n", " 1e0  # one\n"
            )
            assert parse_scenario(respelled).digest() == parse_scenario(text).digest()
        digests = set()
        for index in ("1", "+1", "01"):
            scn = parse_scenario(
                MINIMAL.replace("state plus_state", f"state basis_state {index}")
            )
            assert scn.source["system"]["state"].value == "basis_state 1"
            digests.add(scn.digest())
        assert len(digests) == 1

    def test_digest_tracks_content(self):
        a = parse_scenario(MINIMAL)
        b = parse_scenario(MINIMAL.replace("lambda 0.1", "lambda 0.2"))
        assert a.digest() != b.digest()

    @settings(max_examples=200, deadline=None)
    @given(
        spectrum=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, 1.0000000000000002, 0.1])
            | st.floats(-1e6, 1e6),
            min_size=2, max_size=4,
        ),
        state=st.sampled_from(["plus_state", "maximally_mixed"]),
        change=st.sampled_from(
            ["none", "nudge", "zero_sign", "swap", "state", "observable"]
        ),
        picks=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    def test_digest_separates_exactly_what_the_values_do(
        self, spectrum, state, change, picks
    ):
        dim = len(spectrum)
        i, j = (p % dim for p in picks)
        states = {"plus_state": np.full((dim, dim), 1.0 / dim),
                  "maximally_mixed": np.eye(dim) / dim}

        def scenario(values, state_block=False, observable_block=False):
            return parse_scenario(
                f"system {{\n  dimension {dim}\n"
                f"  spectrum {' '.join(map(repr, values))}\n"
                + (_matrix_block("state", states[state]) if state_block
                   else f"  state {state}\n")
                + "}\nkernel {\n  kind gaussian\n  lambda 0.1\n  t_b 2.0\n}\n"
                + "observable {\n"
                + (_matrix_block("matrix", np.diag(np.arange(dim, dtype=float)))
                   if observable_block else "  preset number_op\n")
                + "}\n"
            )

        if change == "zero_sign":
            spectrum[i] = 0.0
        other = list(spectrum)
        if change == "nudge":
            other[i] = float(np.nextafter(other[i], np.inf))
        elif change == "zero_sign":
            other[i] = -0.0
        elif change == "swap":
            other[i], other[j] = other[j], other[i]
        a = scenario(spectrum)
        b = scenario(other, change == "state", change == "observable")
        if change in ("nudge", "zero_sign", "state", "observable"):
            assert _values(a) != _values(b)
        assert (a.digest() == b.digest()) == (_values(a) == _values(b))

    def test_digest_frames_every_part(self):
        """The same bytes split into other parts (two rows regrouped, a
        letter moved from one key to the value before it) give another digest."""
        scn = parse_scenario(MINIMAL.replace(
            "preset pauli_x", "matrix {\n    row 0 0 1 0\n    row 1 0 0 0\n  }"
        ))
        matrix, kernel = scn.source["observable"]["observable"], scn.source["kernel"]
        regrouped = [np.array([0.0, 0.0]), np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])]
        for block, fields in (
            ("observable", {"observable": matrix._replace(value=regrouped)}),
            ("kernel", {**kernel, "kind": kernel["kind"]._replace(value="gaussianl"),
                        "lambda": kernel["lambda"]._replace(key="ambda")}),
        ):
            other = dataclasses.replace(scn, source={**scn.source, block: fields})
            assert other.digest() != scn.digest()

    def test_digest_prints_no_float(self):
        # pinned over each number's float64 bytes: printing one changes it
        scn = parse_scenario((SCENARIO_DIR / "qubit_decoherence.scn").read_text())
        assert scn.digest() == "26ad7b469d93ac8e"

    @pytest.mark.parametrize("loaded", [True, False], ids=["hashlib", "built-in"])
    def test_digest_is_sha256_of_length_framed_parts(self, loaded, monkeypatch):
        """Either constructor route hashes the same framed bytes as hashlib; the
        built-in one is taken, and hashlib left unloaded, when none is loaded."""
        scn = parse_scenario(SWEPT.replace("preset pauli_x", (
            "matrix {\n    row 0 0 1 0\n    row 1 0 0 0\n  }"
        )))
        fed, made = [], []

        class Recording:
            def __init__(self):
                made.append(real())

            def update(self, data):
                fed.append(data)
                made[0].update(data)

            def hexdigest(self):
                return made[0].hexdigest()

        real = scenario_module._sha256
        monkeypatch.setattr(scenario_module, "_sha256", Recording)
        if not loaded:
            monkeypatch.delitem(sys.modules, "hashlib")
        digest = scn.digest()
        assert ("hashlib" in sys.modules) == loaded
        if loaded:
            assert type(made[0]) is type(hashlib.sha256())
        else:
            assert type(made[0]).__module__ in ("_sha2", "_sha256")
        assert all(int.from_bytes(part[:8], "little") == len(part) - 8 for part in fed)
        assert digest == hashlib.sha256(b"".join(fed)).hexdigest()[:16]

    def test_matrix_scenarios_round_trip(self):
        text = """
        system {
          dimension 2
          hamiltonian {
            row 0.0 0.0  0.25 -0.125
            row 0.25 0.125  1.0 0.0
          }
          state {
            row 0.5 0.0  0.5 0.0
            row 0.5 0.0  0.5 0.0
          }
        }
        kernel {
          kind uniform
          half_width 0.5
          t_b 1.0
        }
        observable {
          matrix {
            row 0.0 0.0  1.0 0.0
            row 1.0 0.0  0.0 0.0
          }
        }
        """
        scn = parse_scenario(text)
        hamiltonian = scn.source["system"]["hamiltonian"].value
        np.testing.assert_array_equal(
            hamiltonian, [[0.0, 0.0, 0.25, -0.125], [0.25, 0.125, 1.0, 0.0]]
        )
        np.testing.assert_allclose(  # rebuilt from the eigensystem: to roundoff
            dense(scn.system_hamiltonian), [[0, 0.25 - 0.125j], [0.25 + 0.125j, 1]],
            rtol=0, atol=1e-15,
        )
        np.testing.assert_array_equal(scn.initial_state.matrix, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(scn.observable.matrix, [[0, 1], [1, 0]])


def _values(scn) -> list:
    """Every block, key and value of ``scn.source``: text and integers as they
    are, numbers by their float64 bytes (so -0.0 is not 0.0)."""
    return [
        (name, key, reader.block,
         [row if isinstance(row, (str, int)) else np.asarray(row, "<f8").tobytes()
          for row in (value if reader.block else [value])])
        for name, fields in scn.source.items()
        for key, reader, value in fields.values()
    ]


def _matrix_block(name: str, matrix: np.ndarray) -> str:
    rows = [
        "    row " + " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row)
        for row in matrix
    ]
    return f"  {name} {{\n" + "\n".join(rows) + "\n  }\n"


def dense_scenario(rng, dim: int, kind: str, variable: str) -> str:
    """Sweep scenario with random dense H, state and observable."""

    def hermitian():
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return 0.5 * (a + a.conj().T)

    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    kernel = {
        "gaussian": f"  lambda {rng.uniform(0.05, 1.0)!r}\n",
        "uniform": f"  half_width {rng.uniform(0.1, 2.0)!r}\n",
        "delta": "",
    }[kind]
    start, stop = (0.1, 5.0) if variable == "t_B" else (0.05, 1.0)
    return (
        f"system {{\n  dimension {dim}\n"
        + _matrix_block("hamiltonian", hermitian())
        + _matrix_block("state", 0.5 * (rho + rho.conj().T))
        + f"}}\nkernel {{\n  kind {kind}\n{kernel}  t_b 1.5\n}}\n"
        + "observable {\n"
        + _matrix_block("matrix", hermitian())
        + f"}}\nsweep {{\n  variable {variable}\n  start {start}\n"
        + f"  stop {stop}\n  steps 4\n}}\n"
    )


def _gap_columns(table) -> dict:
    """A sweep table's gap columns by name, from its one 2-d block."""
    (names, factors), = table.blocks.items()
    return dict(zip(names, factors.T))


def _three_levels() -> str:
    """A t_B sweep of a plus state on levels 0, 1 and 2.5."""
    text = (MINIMAL + SWEEP_BLOCK).replace("dimension 2", "dimension 3")
    text = text.replace("spectrum 0.0 1.0", "spectrum 0.0 1.0 2.5")
    return text.replace("preset pauli_x", "preset number_op")


class TestDecoherenceSweep:
    def test_offdiagonal_column_matches_closed_form(self):
        table = run_decoherence_sweep(parse_scenario(MINIMAL + SWEEP_BLOCK))
        t_values = np.array(table.columns["t_B"])
        offdiag = np.array(table.columns["max_offdiag"])
        np.testing.assert_allclose(
            offdiag, 0.5 * np.exp(-0.1 * t_values / 2.0), atol=1e-12
        )
        factor = _gap_columns(table)["dephase_gap_1"]
        np.testing.assert_allclose(factor, np.exp(-0.1 * t_values / 2.0), atol=1e-12)

    def test_near_delta_limit_tracks_exact_curve(self):
        text = (MINIMAL + SWEEP_BLOCK).replace("lambda 0.1", "lambda 1e-12")
        table = run_decoherence_sweep(parse_scenario(text))
        a = np.array(table.columns["expect_A"])
        b = np.array(table.columns["expect_B"])
        assert np.max(np.abs(a - b)) <= 1e-4

    def test_energy_diagonal_state_gives_constant_columns(self):
        text = (MINIMAL + SWEEP_BLOCK).replace(
            "state plus_state", "state basis_state 1"
        ).replace("preset pauli_x", "preset pauli_z")
        table = run_decoherence_sweep(parse_scenario(text))
        a = np.array(table.columns["expect_A"])
        b = np.array(table.columns["expect_B"])
        assert np.ptp(a) <= 1e-12
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a, -1.0, atol=1e-12)

    def test_large_observable_rotation_is_not_rechecked(self):
        # N = diag(k * 1e5) is exactly Hermitian; rotated into a dense H's
        # eigenbasis it carries roundoff above HERMITICITY_TOL, which is the
        # sweep's own and no defect of the file
        h = random_hermitian(np.random.default_rng(0), 64, scale=2.0)
        n = np.diag(np.arange(64) * 1e5)
        text = (MINIMAL + SWEEP_BLOCK.replace("steps 12", "steps 4")).replace(
            "  dimension 2\n  spectrum 0.0 1.0\n",
            "  dimension 64\n" + _matrix_block("hamiltonian", h),
        ).replace("  preset pauli_x\n", _matrix_block("matrix", n))
        scn = parse_scenario(text)
        rho0, hamiltonian = scn.initial_state, scn.system_hamiltonian
        table = run_decoherence_sweep(scn)
        for k, t_b in enumerate(table.columns["t_B"]):
            exact = evolve_unitary(rho0, hamiltonian, t_b)
            kernel = scn.kernel_spec.build(t_b=t_b)
            averaged = evolve_relational_dephasing(rho0, hamiltonian, kernel)
            assert table.columns["expect_A"][k] == pytest.approx(
                expectation(scn.observable, exact), rel=1e-12
            )
            assert table.columns["expect_B"][k] == pytest.approx(
                expectation(scn.observable, averaged), rel=1e-12
            )

    def test_lambda_sweep(self):
        text = MINIMAL + SWEEP_BLOCK.replace("variable t_B", "variable lambda")
        table = run_decoherence_sweep(parse_scenario(text))
        lam = np.array(table.columns["lambda"])
        offdiag = np.array(table.columns["max_offdiag"])
        np.testing.assert_allclose(offdiag, 0.5 * np.exp(-lam * 2.0 / 2.0), atol=1e-12)

    def test_purity_columns(self):
        table = run_decoherence_sweep(parse_scenario(MINIMAL + SWEEP_BLOCK))
        assert np.allclose(table.columns["purity_A"], 1.0, atol=1e-10)
        assert all(p <= 1.0 + 1e-9 for p in table.columns["purity_B"])
        # closed form at t_B = 10: 0.5 * (1 + exp(-lam * t_B)) with lam = 0.1
        assert table.columns["purity_B"][-1] == pytest.approx(
            0.5 * (1 + np.exp(-1.0)), abs=1e-10
        )

    def test_requires_compatible_sweep(self):
        with pytest.raises(ScenarioValidationError):
            run_decoherence_sweep(parse_scenario(MINIMAL))
        text = MINIMAL + SWEEP_BLOCK.replace("variable t_B", "variable t_A")
        with pytest.raises(ScenarioValidationError):
            run_decoherence_sweep(parse_scenario(text))
        tabulated = CLOCKED + SWEEP_BLOCK
        with pytest.raises(ScenarioValidationError, match="tabulated"):
            run_decoherence_sweep(parse_scenario(tabulated))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 6),
        kind=st.sampled_from(["gaussian", "uniform", "delta"]),
        variable=st.sampled_from(["t_B", "lambda"]),
    )
    def test_columns_match_reference_engines(self, seed, dim, kind, variable):
        if variable == "lambda":
            kind = "gaussian"
        rng = np.random.default_rng(seed)
        scn = parse_scenario(dense_scenario(rng, dim, kind, variable))
        h, rho0 = scn.system_hamiltonian, scn.initial_state
        table = run_decoherence_sweep(scn)
        gaps = _distinct_gaps(h.spectrum)
        gap_columns = _gap_columns(table)
        gap_names = list(gap_columns)
        assert len(gap_names) == gaps.size
        for k, x in enumerate(table.columns[variable]):
            t_alice = x if variable == "t_B" else scn.kernel_spec.params["t_b"]
            kernel = scn.kernel_spec.build(**{"t_b" if variable == "t_B" else "lam": x})
            rho_a = evolve_unitary(rho0, h, t_alice)
            rho_b = evolve_relational_dephasing(rho0, h, kernel)
            expected = {
                "expect_A": expectation(scn.observable, rho_a),
                "expect_B": expectation(scn.observable, rho_b),
                "purity_A": purity(rho_a),
                "purity_B": purity(rho_b),
                "max_offdiag": coherence_report(rho0, h, kernel).max_offdiag_averaged,
            }
            for name, gap in zip(gap_names, gaps):
                expected[name] = abs(complex(kernel._chi(gap)))
            for name, value in expected.items():
                column = {**table.columns, **gap_columns}[name]
                assert column[k] == pytest.approx(value, rel=0, abs=1e-12)

    def test_non_positive_multiplier_fails_at_its_point(self, monkeypatch):
        # A kernel whose envelope flips the sign of every off-diagonal element
        # keeps phi(0) = 1 and |phi| <= 1 but is not positive semidefinite: its
        # sum is about 3 - 6 < 0, so the certificate's necessary condition
        # refuses it at the point instead of a row being emitted for it.
        closed_form = GaussianKernel._envelope

        def flipped(self, omega):
            return np.where(omega == 0.0, 1.0, -1.0) * closed_form(self, omega)

        monkeypatch.setattr(GaussianKernel, "_envelope", flipped)
        with pytest.raises(QuantumStateError, match=(
            r"^at sweep point t_B = 0\.1: envelope is not a characteristic function"
        )):
            run_decoherence_sweep(parse_scenario(_three_levels()))

    def test_exponent_sign_flipped_fails_at_its_point(self, monkeypatch):
        # exp(+v w^2 / 2) grows past 1 off gap 0, which the necessary condition
        # refuses
        closed_form = GaussianKernel._envelope
        monkeypatch.setattr(
            GaussianKernel, "_envelope", lambda self, omega: 1.0 / closed_form(self, omega)
        )
        with pytest.raises(QuantumStateError, match=(
            r"^at sweep point t_B = 0\.1: envelope is not a characteristic function"
        )):
            run_decoherence_sweep(parse_scenario(_three_levels()))

    def test_series_for_every_gap_fails_at_its_point(self, monkeypatch):
        # the sinc's series 1 - x^2/6 taken at every x: at x = gap * half_width
        # up to 6.4 it reaches -5.8, which the necessary condition refuses
        monkeypatch.setattr(
            UniformKernel, "_envelope",
            lambda self, omega: 1.0 - (omega * self.half_width) ** 2 / 6.0,
        )
        scn = parse_scenario(variant_text("dense_d8_uniform"))
        with pytest.raises(QuantumStateError, match=(
            r"^at sweep point t_B = 0\.1: envelope is not a characteristic function"
        )):
            run_decoherence_sweep(scn)

    def test_non_hermitian_multiplier_fails_at_its_point(self, monkeypatch):
        # the envelope is built from |E_i - E_j|, so it is symmetric; one that is
        # not real would make X = rho_s * envelope non-Hermitian, and X is not
        # walked, so the certificate's premise (phi real) must refuse it
        original = GaussianKernel._envelope

        def skewed(self, omega):
            return original(self, omega) + np.where(omega > 0.0, 1e-4j, 0.0)

        monkeypatch.setattr(GaussianKernel, "_envelope", skewed)
        scn = parse_scenario((SCENARIO_DIR / "qubit_decoherence.scn").read_text())
        with pytest.raises(QuantumStateError, match=(
            r"^at sweep point t_B = 0\.1: envelope is not a characteristic function: "
            r".*, real and symmetric: False$"
        )):
            run_decoherence_sweep(scn)

    @pytest.mark.parametrize("state", ["maximally_mixed", "plus_state"])
    def test_asymmetric_envelope_fails_at_its_point(self, monkeypatch, state):
        # phi less 1e-3 above the diagonal keeps phi(0) = 1, |phi| <= 1 and a
        # positive sum, but no characteristic function gives it: phi is not
        # symmetric. A diagonal state hides that from X = rho_s * phi, so only
        # the premise can see it, for the maximally mixed state as for plus.
        closed_form = GaussianKernel._envelope

        def skewed(self, omega):
            upper = np.triu(np.ones_like(omega), 1) if omega.ndim == 2 else 0.0
            return closed_form(self, omega) - 1e-3 * upper

        monkeypatch.setattr(GaussianKernel, "_envelope", skewed)
        text = (MINIMAL + SWEEP_BLOCK).replace("dimension 2", "dimension 8")
        text = text.replace("spectrum 0.0 1.0", "spectrum 0 0.7 1.3 2 2.6 3.1 3.9 4.4")
        text = text.replace("preset pauli_x", "preset number_op").replace("steps 12", "steps 3")
        scn = parse_scenario(text.replace("state plus_state", f"state {state}"))
        with pytest.raises(QuantumStateError, match=(
            r"^at sweep point t_B = 0\.1: envelope is not a characteristic function: "
            r".*, real and symmetric: False$"
        )):
            run_decoherence_sweep(scn)

    def test_envelope_off_one_at_zero_gap_fails_at_its_point(self, monkeypatch):
        # phi(0) = 1 keeps Bob's trace at rho_s's and is part of the
        # certificate's necessary condition: a scaled envelope is refused at its
        # point, not renormalized away
        original = GaussianKernel._envelope
        monkeypatch.setattr(
            GaussianKernel, "_envelope", lambda self, omega: 1.001 * original(self, omega)
        )
        scn = parse_scenario((SCENARIO_DIR / "qubit_decoherence.scn").read_text())
        with pytest.raises(QuantumStateError, match=(
            r"^at sweep point t_B = 0\.1: envelope is not a characteristic function: "
            r"max \|phi\(0\) - 1\| = 1\.000e-03"
        )):
            run_decoherence_sweep(scn)

    def test_expectation_guard_fires_at_its_point(self, monkeypatch):
        # both expectation values go through one helper that keeps
        # expectation's guard on the imaginary part; reaching it takes an
        # observable that skipped validation
        unchecked = types.SimpleNamespace
        monkeypatch.setattr(scenario_module, "Observable", lambda m: unchecked(matrix=m))
        scn = dataclasses.replace(
            parse_scenario(MINIMAL + SWEEP_BLOCK),
            observable=unchecked(
                dim=2, matrix=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
            ),
        )
        with pytest.raises(
            QuantumStateError,
            match=r"^at sweep point t_B = 0\.1: expectation has imaginary part",
        ):
            run_decoherence_sweep(scn)

    def test_sweep_never_calls_chi(self, monkeypatch):
        # Bob's state is built in Alice's frame from the real envelope alone
        def no_chi(self, omega):
            raise AssertionError(f"{type(self).__name__}._chi called")

        for cls in (TimeKernel, DeltaKernel, GaussianKernel, UniformKernel,
                    TabulatedKernel):
            monkeypatch.setattr(cls, "_chi", no_chi)
        zero_start = SWEEP_BLOCK.replace("start 0.1", "start 0.0")  # t_B = 0: delta
        uniform = MINIMAL.replace("lambda 0.1", "half_width 0.3").replace(
            "kind gaussian", "kind uniform")
        delta = MINIMAL.replace("kind gaussian\n  lambda 0.1", "kind delta")
        for text in (MINIMAL + zero_start, uniform + SWEEP_BLOCK, delta + SWEEP_BLOCK,
                     MINIMAL + SWEEP_BLOCK.replace("variable t_B", "variable lambda")):
            assert len(run_decoherence_sweep(parse_scenario(text)).columns["expect_B"]) == 12

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 6),
        kind=st.sampled_from(["gaussian", "uniform", "delta"]),
        variable=st.sampled_from(["t_B", "lambda"]),
    )
    def test_purity_never_rises_through_the_watch(self, seed, dim, kind, variable):
        if variable == "lambda":
            kind = "gaussian"
        rng = np.random.default_rng(seed)
        text = dense_scenario(rng, dim, kind, variable).replace("steps 4", "steps 16")
        table = run_decoherence_sweep(parse_scenario(text))
        assert np.all(table.columns["purity_B"] <= table.columns["purity_A"] + 1e-12)

    def test_overflowing_hamiltonian_is_a_validation_issue(self):
        text = MINIMAL.replace(
            "  spectrum 0.0 1.0\n", _matrix_block("hamiltonian", np.full((2, 2), 1e308))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioValidationError) as info:
                parse_scenario(text)
        assert info.value.issues == [
            "system hamiltonian: spectrum is not finite: [0..inf]"
        ]

    @pytest.mark.parametrize("run, point, scale, message", [
        (run_decoherence_sweep, "t_B", 1 + 1e-9, "unit circle by 1.0e-09"),
        (run_decoherence_sweep, "t_B", np.nan, "unit circle by nan"),
        (run_pearle_compare, "t", 1 + 1e-9, "unit circle by 1.0e-09"),
        (run_pearle_compare, "t", np.nan, "unit circle by nan"),
    ], ids=["off_circle", "nan", "pearle_off_circle", "pearle_nan"])
    def test_alice_phases_are_certified_at_each_point(
        self, monkeypatch, run, point, scale, message
    ):
        # Alice's D rho_e D* and Bob's D X D* keep rho_e's and X's spectra only
        # while every |p_i| = 1, which each sweep and collapse-comparison point checks
        scn = parse_scenario(MINIMAL + SWEEP_BLOCK)
        original = evolution._phases
        monkeypatch.setattr(
            evolution, "_phases", lambda *args: original(*args) * (1 + 1e-13)
        )
        run(scn)  # inside the 1e-12 budget
        monkeypatch.setattr(evolution, "_phases", lambda *args: original(*args) * scale)
        prefix = rf"^at sweep point {point} = 0\.1: "
        with pytest.raises(QuantumStateError, match=prefix):
            run(scn)
        with pytest.raises(QuantumStateError, match=message):
            run(scn)

    def test_validates_the_initial_state_once_and_bob_per_point(self, monkeypatch):
        # Alice's states are certified by their phases and Bob's by construction,
        # not validated: a sweep of n points checks 1 state and certifies n
        checked, certified = [], []
        check, certify = qmat._check_state, qmat._schur_state
        monkeypatch.setattr(
            qmat, "_check_state", lambda arr: checked.append(arr.shape) or check(arr)
        )
        monkeypatch.setattr(
            qmat, "_schur_state",
            lambda state, phi: certified.append(phi.shape) or certify(state, phi),
        )
        scn = parse_scenario((SCENARIO_DIR / "qubit_decoherence.scn").read_text())
        checked.clear()
        run_decoherence_sweep(scn)
        assert len(checked) == 1 and len(certified) == scn.sweep.steps == 25

    @pytest.mark.parametrize(
        "kind, variable",
        [("gaussian", "t_B"), ("uniform", "t_B"), ("delta", "t_B"), ("gaussian", "lambda")],
    )
    def test_factors_rho_s_once_and_one_real_envelope_per_point(
        self, monkeypatch, kind, variable
    ):
        # Bob's state X = rho_s * envelope is a state by construction: only
        # rho_s is factored, and no point factors or eigensolves anything. t_B = 0
        # gives the delta kernel's all-ones envelope.
        text = dense_scenario(np.random.default_rng(11), 64, kind, variable)
        scn = parse_scenario(text.replace("start 0.1", "start 0.0"))
        dtypes = []
        original = np.linalg.cholesky
        monkeypatch.setattr(
            qmat.np.linalg, "cholesky",
            lambda arr, *args: dtypes.append(arr.dtype) or original(arr, *args),
        )
        monkeypatch.setattr(qmat.np.linalg, "eigvalsh", None)  # never called
        run_decoherence_sweep(scn)
        assert dtypes == [np.complex128]

    def test_rho_s_is_exactly_hermitian(self, monkeypatch):
        # the construction bound holds only if rho_s's factor, which read one
        # triangle, proved all of rho_s; pearle-compare's rho_e likewise
        states = []
        original = qmat._schur_state
        monkeypatch.setattr(
            qmat, "_schur_state",
            lambda state, phi: states.append(state) or original(state, phi),
        )
        scn = parse_scenario(dense_scenario(np.random.default_rng(12), 16, "gaussian", "t_B"))
        for runner in (run_decoherence_sweep, run_pearle_compare):
            states.clear()
            runner(scn)
            rho_s = states[0].matrix
            assert len(states) == 4 and all(state is states[0] for state in states)
            assert np.array_equal(rho_s, rho_s.conj().T)

    @settings(max_examples=60, deadline=None)
    @given(
        bases=st.lists(st.floats(-50, 50), min_size=1, max_size=4),
        offsets=st.lists(
            st.tuples(st.integers(1, 9), st.integers(5, 11)), min_size=1, max_size=4
        ),
    )
    def test_gap_names_unique_on_near_degenerate_spectra(self, bases, offsets):
        # clusters of levels a few 1e-5..1e-11 apart give gaps that print
        # alike to 6 digits; only those names widen, to the gap's repr
        levels = [b + k * 10.0**-e for b in bases for k, e in [(0, 0), *offsets]]
        spectrum = np.unique(levels)
        gaps = _distinct_gaps(Hamiltonian(np.diag(spectrum)).spectrum)
        names = _gap_names(gaps)
        assert len(set(names)) == len(names) == gaps.size
        short = [f"dephase_gap_{g:.6g}" for g in gaps.tolist()]
        for name, plain, gap in zip(names, short, gaps.tolist()):
            if short.count(plain) == 1:
                assert name == plain
            else:
                assert name == f"dephase_gap_{gap!r}"

    @pytest.mark.parametrize("spectrum, gaps", [
        ([0.0], []),
        ([1.0, 1.0], []),
        ([0.0, 1.0, 1.0, 3.0], [1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0 + 1e-13], [1.0, 2.0]),
    ])
    def test_distinct_gaps_are_sorted_and_rounded_once_each(self, spectrum, gaps):
        got = _distinct_gaps(Hamiltonian(np.diag(spectrum)).spectrum)
        assert got.dtype == np.float64 and got.tolist() == gaps

    def test_oversized_table_refused_before_any_point(self, monkeypatch):
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(scenario_module, "_energy_frame", no_point)
        with pytest.raises(
            ScenarioValidationError,
            match=r"sweep table of 17970600 cells \(100 steps x \(6 \+ 179700 "
            r"gaps\)\) exceeds the limit of 16777216",
        ):
            run_decoherence_sweep(parse_scenario(wide_sweep()))
        # the limit itself is allowed: 12 steps x (6 + 1 gap) = 84 cells
        monkeypatch.undo()
        small = parse_scenario(MINIMAL + SWEEP_BLOCK)
        monkeypatch.setattr(scenario_module, "SWEEP_CELL_CAP", 83)
        with pytest.raises(ScenarioValidationError, match="84 cells"):
            run_decoherence_sweep(small)
        monkeypatch.setattr(scenario_module, "SWEEP_CELL_CAP", 84)
        assert len(run_decoherence_sweep(small).columns["t_B"]) == 12

    def test_lambda_sweep_needs_gaussian(self):
        text = MINIMAL.replace(
            "kind gaussian\n  lambda 0.1\n  t_b 2.0", "kind delta\n  t_b 2.0"
        ) + SWEEP_BLOCK.replace("variable t_B", "variable lambda")
        with pytest.raises(ScenarioValidationError, match="gaussian"):
            run_decoherence_sweep(parse_scenario(text))


class TestClockRecovery:
    def test_equality_on_every_supported_time(self):
        table = run_clock_recovery(parse_scenario(CLOCKED))
        assert len(table.columns["t"]) == 8
        assert max(table.columns["abs_difference"]) <= 1e-8
        assert float(table.footer["max_abs_difference"]) <= 1e-8

    def test_alice_column_traces_precession(self):
        table = run_clock_recovery(parse_scenario(CLOCKED))
        t = np.array(table.columns["t"])
        np.testing.assert_allclose(
            table.columns["alice_value"], np.cos(t), atol=1e-9
        )

    def test_delta_kernel_restricts_to_single_row(self):
        text = CLOCKED.replace(
            "kind tabulated",
            "kind delta\n  t_b 1.2",
        )
        # drop the now-meaningless table block
        lines = text.splitlines()
        start = next(i for i, l in enumerate(lines) if "table {" in l)
        end = next(i for i in range(start, len(lines)) if lines[i].strip() == "}")
        text = "\n".join(lines[:start] + lines[end + 1 :])
        table = run_clock_recovery(parse_scenario(text))
        assert table.columns["t"] == [pytest.approx(1.2)]

    def test_window_sweep_restricts_rows(self):
        text = CLOCKED + "sweep {\n  variable t_A\n  start 0.8\n  stop 2.0\n  steps 4\n}\n"
        table = run_clock_recovery(parse_scenario(text))
        assert min(table.columns["t"]) >= 0.8
        assert max(table.columns["t"]) <= 2.0

    def test_requires_clock_block(self):
        with pytest.raises(ScenarioValidationError, match="clock"):
            run_clock_recovery(parse_scenario(MINIMAL))

    def test_rejects_non_window_sweep(self):
        with pytest.raises(ScenarioValidationError, match="t_A"):
            run_clock_recovery(parse_scenario(CLOCKED + SWEEP_BLOCK))


class TestPearleCompare:
    @pytest.mark.parametrize("nodes", [0, -3])
    def test_rejects_a_node_count_below_one(self, nodes):
        text = MINIMAL + SWEEP_BLOCK.replace("start 0.1", "start 0.0")
        with pytest.raises(QuantumStateError, match="collapse engine needs --nodes"):
            run_pearle_compare(parse_scenario(text), nodes=nodes)

    def test_distance_column_stays_tiny(self):
        text = MINIMAL + SWEEP_BLOCK.replace("start 0.1", "start 0.0")
        table = run_pearle_compare(parse_scenario(text))
        assert table.columns["maxnorm_distance"][0] == 0.0  # t = 0 exact
        assert max(table.columns["maxnorm_distance"]) <= 1e-8
        np.testing.assert_allclose(
            table.columns["offdiag_pearle"],
            table.columns["offdiag_relational"],
            atol=1e-8,
        )

    def test_degenerate_pair_is_not_an_offdiagonal(self):
        # E_0 = E_1: averaging never touches their element, so like the
        # sweep's max_offdiag the offdiag_* columns leave it out and read
        # the (0, 2) and (1, 2) elements, 1/3 times |chi(1)| = exp(-lam t / 2).
        text = (
            MINIMAL.replace("dimension 2", "dimension 3")
            .replace("spectrum 0.0 1.0", "spectrum 0.0 0.0 1.0")
            .replace("preset pauli_x", "preset number_op")
        ) + SWEEP_BLOCK
        scn = parse_scenario(text)
        table = run_pearle_compare(scn)
        expected = np.exp(-0.1 * np.array(table.columns["t"]) / 2) / 3
        np.testing.assert_allclose(table.columns["offdiag_relational"], expected, rtol=1e-9)
        np.testing.assert_allclose(table.columns["offdiag_pearle"], expected, rtol=1e-8)
        np.testing.assert_allclose(
            run_decoherence_sweep(scn).columns["max_offdiag"], expected, rtol=1e-9
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
    def test_columns_match_reference_engines(self, seed, dim):
        # the runner works in the energy basis; the engines go there and back
        rng = np.random.default_rng(seed)
        scn = parse_scenario(dense_scenario(rng, dim, "gaussian", "t_B"))
        h, rho0 = scn.system_hamiltonian, scn.initial_state
        lam = scn.kernel_spec.params["lambda"]
        table = run_pearle_compare(scn, nodes=32)
        distinct = scenario_module._distinct_gap_mask(h.spectrum)
        for k, t in enumerate(table.columns["t"].tolist()):
            collapsed = evolve_pearle(rho0, h, lam, t, 32).matrix
            relational = evolve_relational_dephasing(
                rho0, h, make_gaussian_kernel(lam, t)
            ).matrix
            expected = {
                "maxnorm_distance": np.max(np.abs(collapsed - relational)),
                "offdiag_pearle": scenario_module._max_offdiag(
                    scenario_module._to_eigenbasis(collapsed, h), distinct
                ),
                "offdiag_relational": scenario_module._max_offdiag(
                    scenario_module._to_eigenbasis(relational, h), distinct
                ),
            }
            for name, value in expected.items():
                assert table.columns[name][k] == pytest.approx(value, rel=0, abs=1e-12)

    def test_factors_rho_e_once_and_each_collapse_state(self, monkeypatch):
        # the relational state is the sweep's X = rho_e * envelope, certified by
        # construction: only rho_e (once) and the collapse state at each t > 0
        # are factored, and nothing is eigensolved
        text = dense_scenario(np.random.default_rng(11), 64, "gaussian", "t_B")
        scn = parse_scenario(text.replace("start 0.1", "start 0.0"))
        dtypes = []
        original = np.linalg.cholesky
        monkeypatch.setattr(
            qmat.np.linalg, "cholesky",
            lambda arr, *args: dtypes.append(arr.dtype) or original(arr, *args),
        )
        monkeypatch.setattr(qmat.np.linalg, "eigvalsh", None)  # never called
        table = run_pearle_compare(scn)
        assert table.columns["t"][0] == 0.0
        assert dtypes == [np.complex128] * (1 + scn.sweep.steps - 1)

    def test_relational_offdiag_is_the_sweeps(self):
        # both runners build Bob's state from one validated rho_e and the same
        # envelope; the relational state only adds the unit phases D X D*
        rng = np.random.default_rng(13)
        scn = parse_scenario(dense_scenario(rng, 12, "gaussian", "t_B"))
        np.testing.assert_array_max_ulp(
            run_pearle_compare(scn).columns["offdiag_relational"],
            run_decoherence_sweep(scn).columns["max_offdiag"],
            maxulp=4,
        )

    def test_requires_gaussian_kernel_and_sweep(self):
        with pytest.raises(ScenarioValidationError, match="sweep"):
            run_pearle_compare(parse_scenario(MINIMAL))
        delta = MINIMAL.replace(
            "kind gaussian\n  lambda 0.1\n  t_b 2.0", "kind delta\n  t_b 2.0"
        )
        with pytest.raises(ScenarioValidationError, match="gaussian"):
            run_pearle_compare(parse_scenario(delta + SWEEP_BLOCK))

    def test_four_level_random_hamiltonian(self, rng):
        from conftest import random_hermitian

        h = random_hermitian(rng, 4, scale=1.0)
        rows = "\n".join(
            "    row "
            + " ".join(f"{float(c.real)!r} {float(c.imag)!r}" for c in row)
            for row in h
        )
        text = f"""
        system {{
          dimension 4
          hamiltonian {{
{rows}
          }}
          state plus_state
        }}
        kernel {{
          kind gaussian
          lambda 0.2
          t_b 1.0
        }}
        observable {{
          preset number_op
        }}
        sweep {{
          variable t_B
          start 0.0
          stop 3.0
          steps 7
        }}
        """
        table = run_pearle_compare(parse_scenario(text), nodes=64)
        assert max(table.columns["maxnorm_distance"]) <= 1e-7


class TestReport:
    def test_rows_and_footer(self):
        table = run_report(parse_scenario(MINIMAL))
        assert table.columns["i"] == [0]
        assert table.columns["j"] == [1]
        assert table.columns["magnitude_A"][0] == pytest.approx(0.5)
        assert table.columns["magnitude_B"][0] == pytest.approx(0.5 * np.exp(-0.1))
        assert table.footer["complete_decoherence"] == "false"

    def test_pair_count_scales_with_dimension(self):
        text = (
            MINIMAL.replace("dimension 2", "dimension 4")
            .replace("spectrum 0.0 1.0", "spectrum 0.0 1.0 2.0 3.5")
            .replace("state plus_state", "state maximally_mixed")
            .replace("preset pauli_x", "preset number_op")
        )
        table = run_report(parse_scenario(text))
        assert len(table.columns["i"]) == 6


class TestResultTable:
    def test_csv_shape_and_metadata(self):
        table = run_decoherence_sweep(parse_scenario(MINIMAL + SWEEP_BLOCK))
        text = table.to_csv()
        lines = text.splitlines()
        assert lines[0].startswith("# generator: relatime")
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",")[:3] == ["t_B", "expect_A", "expect_B"]
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 12

    def test_byte_identical_across_runs(self):
        text = MINIMAL + SWEEP_BLOCK
        one = run_decoherence_sweep(parse_scenario(text, seed=3)).to_csv()
        two = run_decoherence_sweep(parse_scenario(text, seed=3)).to_csv()
        assert one == two

    def test_ragged_table_rejected(self):
        table = ResultTable(columns={"a": [1.0], "b": []})
        with pytest.raises(RelatimeError, match="ragged"):
            table.to_csv()
        # only the columns whose length differs from the first are named
        columns = {f"c{k}": np.zeros(3) for k in range(1000)}
        columns.update(c7=np.zeros(2), c9=np.zeros(5))
        with pytest.raises(RelatimeError) as err:
            ResultTable(columns=columns).to_csv()
        assert str(err.value) == (
            "ragged result table: {'c7': 2, 'c9': 5} rows, expected 3"
        )

    def test_non_finite_rejected(self):
        table = ResultTable(columns={"a": [float("nan")]})
        with pytest.raises(RelatimeError, match="non-finite"):
            table.to_csv()
        table = ResultTable(columns={"i": np.arange(2), "a": np.array([0.5, np.nan])})
        with pytest.raises(RelatimeError, match="^non-finite value in column 'a'$"):
            table.to_csv()

    def test_cell_text_follows_column_dtype(self):
        ints = [0, 7, -3, 2**40, 12]
        floats = [-0.0, 5e-324, 0.1, 123456.0, 1e16]
        table = ResultTable(
            columns={"i": np.array(ints, dtype=np.int64), "x": np.array(floats)}
        )
        lines = table.to_csv().splitlines()
        assert lines == ["i,x", *(f"{k},{x!r}" for k, x in zip(ints, floats))]
        assert lines[1:3] == ["0,-0.0", "7,5e-324"]
        as_lists = ResultTable(columns={"i": ints, "x": floats})
        assert as_lists.to_csv() == table.to_csv()

    def test_integer_cells_stay_integers(self):
        table = run_report(parse_scenario(MINIMAL))
        lines = [l for l in table.to_csv().splitlines() if not l.startswith("#")]
        assert lines[1].split(",")[0] == "0"


LADDER = np.arange(8) / 3  # 7 gaps, each between several pairs of levels
_UNITARY = np.linalg.qr(
    np.random.default_rng(9).standard_normal((8, 16)).view(np.complex128)
)[0]
UNIT_SCALES = [2.0**-40, 1e-13, 1e-9, 1e-6, 1.0, 3e5, 1e6, 1e8]
_SCALED_CASES = [(s, dense) for dense in (False, True) for s in UNIT_SCALES]


def unit_scaled(s: float, dense: bool) -> str:
    """The 8-level ladder with energies in a unit 1/s of the usual: its spectrum
    (a dense H = U diag(E) U^dag if ``dense``) times s, t_b, lambda, start and
    stop over s."""
    energies = s * LADDER
    if dense:
        h = (_UNITARY * energies) @ _UNITARY.conj().T
        system = _matrix_block("hamiltonian", h)
    else:
        system = f"  spectrum {' '.join(map(repr, energies.tolist()))}\n"
    return (
        f"system {{\n  dimension 8\n{system}  state plus_state\n}}\n"
        f"kernel {{\n  kind gaussian\n  lambda {0.1 / s!r}\n  t_b {2.0 / s!r}\n}}\n"
        "observable {\n  preset number_op\n}\n"
        f"sweep {{\n  variable t_B\n  start {0.1 / s!r}\n  stop {10.0 / s!r}\n"
        "  steps 7\n}\n"
    )


@pytest.mark.parametrize("s, dense", _SCALED_CASES)
def test_runners_do_not_depend_on_the_unit_of_energy(s, dense):
    # with hbar = 1, rescaling energies by s and times by 1/s changes no
    # dimensionless cell; energy columns scale by s, time columns by 1/s,
    # and the sweep writes the same 7 gap columns, its gaps scaled by s
    scaled = parse_scenario(unit_scaled(s, dense))
    unit = parse_scenario(unit_scaled(1.0, dense))
    powers = {"t_B": -1, "t": -1, "energy_i": 1, "energy_j": 1}
    runners = (run_decoherence_sweep, run_report, run_pearle_compare)
    tables = {runner: (runner(scaled), runner(unit)) for runner in runners}
    for runner, (got, want) in tables.items():
        assert list(got.columns) == list(want.columns)
        for name, column in want.columns.items():
            power, column = powers.get(name, 0), np.asarray(column, dtype=float)
            scale = np.max(np.abs(column)) if power else 1.0
            np.testing.assert_allclose(
                np.asarray(got.columns[name]) / s**power, column,
                rtol=1e-11, atol=1e-11 * scale, err_msg=f"{runner.__name__}: {name}",
            )
        assert got.footer.keys() == want.footer.keys()
        if want.footer:
            assert got.footer["complete_decoherence"] == "false"
            assert float(got.footer["max_offdiag_B"]) == pytest.approx(
                float(want.footer["max_offdiag_B"]), rel=1e-11
            )
    got, want = tables[run_decoherence_sweep]
    (names, factors), = got.blocks.items()
    (want_names, want_factors), = want.blocks.items()
    gaps = [float(name.removeprefix("dephase_gap_")) for name in names]
    want_gaps = [float(name.removeprefix("dephase_gap_")) for name in want_names]
    np.testing.assert_allclose(want_gaps, LADDER[1:], rtol=1e-5)  # 6 digits
    np.testing.assert_allclose(np.divide(gaps, s), want_gaps, rtol=1e-5)
    np.testing.assert_allclose(factors, want_factors, rtol=1e-11, atol=1e-11)


def wide_sweep() -> str:
    """100 sweep points over 600 random levels: 179,700 gap columns."""
    spectrum = np.random.default_rng(7).uniform(-1.0, 1.0, 600)
    text = MINIMAL.replace("dimension 2", "dimension 600")
    levels = " ".join(map(repr, spectrum.tolist()))
    text = text.replace("spectrum 0.0 1.0", f"spectrum {levels}")
    text = text.replace("preset pauli_x", "preset number_op")
    return text + SWEEP_BLOCK.replace("steps 12", "steps 100")


# ---------------------------------------------------------------------------
# Pinned parse outcomes: one input per message parse_scenario can produce,
# plus the digests of the bundled scenarios. Each expected value is what
# ``_outcome`` returns: ("ok", digest), ("issues", [...]) for a
# ScenarioValidationError, or (exception type name, message) otherwise.

SWEPT = MINIMAL + SWEEP_BLOCK


def _edit(old: str, new: str, base: str = MINIMAL) -> str:
    assert old in base, old
    return base.replace(old, new, 1)


def _state(*rows: str) -> str:
    return "state {\n" + "".join(f"    row {r}\n" for r in rows) + "  }"


def _hamiltonian(*rows: str) -> str:
    return _state(*rows).replace("state {", "hamiltonian {")


def _observable(*rows: str) -> str:
    return _state(*rows).replace("state {", "matrix {")


def _kernel(body: str, base: str = MINIMAL) -> str:
    return _edit("kind gaussian\n  lambda 0.1\n  t_b 2.0", body, base)


DENSE_D8 = Path(__file__).resolve().parent / "golden" / "dense_d8.scn"

PARSE_CASES = {
    # bundled scenarios: their digests pin the values they were read from
    "bundled_qubit_decoherence": (SCENARIO_DIR / "qubit_decoherence.scn").read_text(),
    "bundled_clock_recovery": (SCENARIO_DIR / "clock_recovery.scn").read_text(),
    "bundled_pearle_compare": (SCENARIO_DIR / "pearle_compare.scn").read_text(),
    "golden_dense_d8": DENSE_D8.read_text(),
    # syntax
    "unmatched_brace": "}\n",
    "block_header_two_names": MINIMAL + "two names {\n}\n",
    "unclosed_block": "system {\n  dimension 2\n",
    "top_level_key": "dimension 2\n" + MINIMAL,
    "unknown_top_block": MINIMAL + "plotting {\n  style fancy\n}\n",
    "duplicate_top_block": MINIMAL + "observable {\n  preset pauli_z\n}\n",
    "unknown_key_system": _edit("dimension 2", "dimension 2\n  dimensoin 2"),
    "unknown_key_kernel": _edit("lambda 0.1", "lamda 0.1"),
    "unknown_key_clock": _edit("tick 0.4", "tock 0.4", CLOCKED),
    "unknown_key_observable": _edit("preset pauli_x", "prest pauli_x"),
    "unknown_key_sweep": _edit("steps 12", "step 12", SWEPT),
    "unknown_block_system": _edit(
        "state plus_state", "state plus_state\n  " + _observable("1 0")
    ),
    "unknown_block_kernel": _edit("t_b 2.0", "t_b 2.0\n  tabel {\n  }"),
    "unknown_block_clock": _edit("tick 0.4", "tick 0.4\n  pointer {\n  }", CLOCKED),
    "unknown_block_observable": _edit(
        "preset pauli_x", "preset pauli_x\n  matrx {\n    row 1 0\n  }"
    ),
    "unknown_block_sweep": _edit("steps 12", "steps 12\n  window {\n  }", SWEPT),
    "duplicate_key": _edit("lambda 0.1", "lambda 0.1\n  lambda 0.2"),
    "duplicate_nested_block": _edit(
        "preset pauli_x",
        _observable("1 0 0 0", "0 0 -1 0") + "\n  " + _observable("1 0 0 0", "0 0 -1 0"),
    ),
    "enum_needs_value": _edit("kind gaussian", "kind"),
    "unknown_kernel_kind": _edit("kind gaussian", "kind gausian"),
    "unknown_state_preset": _edit("state plus_state", "state plus"),
    "unknown_observable_preset": _edit("preset pauli_x", "preset pauli_y"),
    "unknown_sweep_variable": _edit("variable t_B", "variable t_C", SWEPT),
    "not_a_number": _edit("dimension 2", "dimension two"),
    "number_count": _edit("t_b 2.0", "t_b 2.0 3.0"),
    "not_an_integer": _edit("dimension 2", "dimension 2.5"),
    "matrix_line_not_row": _edit(
        "state plus_state", _state("0.5 0 0.5 0", "0.5 0 0.5 0").replace("row", "rows", 1)
    ),
    "matrix_row_odd": _edit("state plus_state", _state("0.5 0 0.5", "0.5 0 0.5 0")),
    "matrix_row_empty": _edit("state plus_state", _state("", "0.5 0 0.5 0")),
    "matrix_row_not_numeric": _edit(
        "state plus_state", _state("0.5 x 0.5 0", "0.5 0 0.5 0")
    ),
    "matrix_no_rows": _edit("state plus_state", _state()),
    "table_row_arity": _edit("    0.0 1\n", "    0.0 1 2\n", CLOCKED),
    "table_row_not_numeric": _edit("    0.0 1\n", "    0.0 x\n", CLOCKED),
    # semantic issues
    "missing_system": "kernel {" + MINIMAL.split("kernel {", 1)[1],
    "missing_kernel_and_observable": (
        "system {\n  dimension 2\n  spectrum 0 1\n  state plus_state\n}\n"
    ),
    "system_needs_dimension": _edit("  dimension 2\n", ""),
    "dimension_below_one": _edit("dimension 2", "dimension 0"),
    "spectrum_and_hamiltonian": _edit(
        "state plus_state", "state plus_state\n  " + _hamiltonian("0 0 0 0", "0 0 1 0")
    ),
    "spectrum_length": _edit("spectrum 0.0 1.0", "spectrum 0.0 1.0 2.0"),
    "hamiltonian_shape": _edit("spectrum 0.0 1.0", _hamiltonian("0 0 1 0")),
    "hamiltonian_ragged": _edit("spectrum 0.0 1.0", _hamiltonian("0 0 1 0", "1 0")),
    "hamiltonian_not_hermitian": _edit(
        "spectrum 0.0 1.0", _hamiltonian("0 0 1 0", "0 0 1 0")
    ),
    "needs_hamiltonian": _edit("  spectrum 0.0 1.0\n", ""),
    "state_preset_and_block": _edit(
        "state plus_state", "state plus_state\n  " + _state("1 0 0 0", "0 0 0 0")
    ),
    "basis_state_out_of_range": _edit("state plus_state", "state basis_state 5"),
    "basis_state_without_index": _edit("state plus_state", "state basis_state"),
    "basis_state_index_not_integer": _edit("state plus_state", "state basis_state one"),
    "basis_state_index_fractional": _edit("state plus_state", "state basis_state 1.5"),
    "basis_state_index": _edit("state plus_state", "state basis_state 1"),
    "basis_state_index_zero_padded": _edit("state plus_state", "state basis_state 01"),
    "basis_state_index_signed": _edit("state plus_state", "state basis_state +1"),
    "state_matrix_shape": _edit("state plus_state", _state("1 0")),
    "state_matrix_trace": _edit("state plus_state", _state("0.45 0 0 0", "0 0 0.45 0")),
    "needs_state": _edit("  state plus_state\n", ""),
    "kernel_needs_kind": _edit("  kind gaussian\n", ""),
    "delta_needs_t_b": _kernel("kind delta"),
    "gaussian_needs_t_b": _kernel("kind gaussian\n  lambda 0.1"),
    "uniform_needs_t_b": _kernel("kind uniform\n  half_width 0.5"),
    "gaussian_needs_lambda": _kernel("kind gaussian\n  t_b 2.0"),
    "uniform_needs_half_width": _kernel("kind uniform\n  t_b 2.0"),
    "tabulated_needs_table": _kernel("kind tabulated"),
    "lambda_meaningless": _kernel("kind delta\n  lambda 0.1\n  t_b 2.0"),
    "half_width_meaningless": _kernel(
        "kind gaussian\n  lambda 0.1\n  half_width 0.5\n  t_b 2.0"
    ),
    "table_meaningless": _kernel("kind delta\n  t_b 2.0\n  table {\n    0.0 1\n  }"),
    "tabulated_t_b": _edit("kind tabulated", "kind tabulated\n  t_b 1.0", CLOCKED),
    "kernel_lambda_not_positive": _edit("lambda 0.1", "lambda -1"),
    "kernel_t_b_negative": _edit("t_b 2.0", "t_b -1"),
    "kernel_half_width_not_positive": _kernel(
        "kind uniform\n  half_width 0\n  t_b 2.0"
    ),
    "kernel_table_empty": _kernel("kind tabulated\n  table {\n  }"),
    "kernel_table_negative_weight": _edit("    0.0 1\n", "    0.0 -1\n", CLOCKED),
    "kernel_table_zero_weights": _kernel("kind tabulated\n  table {\n    0.0 0\n  }"),
    "clock_needs_tick": _edit("  tick 0.4\n", "", CLOCKED),
    "clock_dimension_below_two": _edit("dimension 8", "dimension 1", CLOCKED),
    "clock_tick_not_positive": _edit("tick 0.4", "tick 0", CLOCKED),
    "observable_preset_and_matrix": _edit(
        "preset pauli_x", "preset pauli_x\n  " + _observable("1 0 0 0", "0 0 -1 0")
    ),
    "observable_preset_needs_qubit": _edit(
        "spectrum 0.0 1.0", "spectrum 0.0 1.0 2.0", _edit("dimension 2", "dimension 3")
    ),
    "observable_matrix_shape": _edit("preset pauli_x", _observable("1 0")),
    "observable_not_hermitian": _edit("preset pauli_x", _observable("0 0 1 0", "0 0 0 0")),
    "observable_needs_preset_or_matrix": _edit("  preset pauli_x\n", ""),
    "sweep_missing_keys": _edit("  start 0.1\n  stop 10.0\n", "", SWEPT),
    "sweep_steps_below_one": _edit("steps 12", "steps 0", SWEPT),
    "sweep_stop_below_start": _edit("stop 10.0", "stop 0.05", SWEPT),
    "lambda_and_spectrum_together": _edit(
        "spectrum 0.0 1.0", "spectrum 0.0 1.0 2.0", _edit("lambda 0.1", "lambda -1")
    ),
    # numbers that are not finite or do not fit
    "dimension_overflow": _edit("dimension 2", "dimension 1e400"),
    "dimension_nan": _edit("dimension 2", "dimension nan"),
    "clock_dimension_overflow": _edit("dimension 8", "dimension 1e400", CLOCKED),
    "steps_overflow": _edit("steps 12", "steps 1e400", SWEPT),
    "steps_huge": _edit("steps 12", "steps 1e300", SWEPT),
    "sweep_start_nan": _edit("start 0.1", "start nan", SWEPT),
    "spectrum_infinite": _edit("spectrum 0.0 1.0", "spectrum 0 inf"),
    "lambda_infinite": _edit("lambda 0.1", "lambda inf"),
    "tick_infinite": _edit("tick 0.4", "tick inf", CLOCKED),
    "table_entry_infinite": _edit("    0.0 1\n", "    0.0 inf\n", CLOCKED),
    "matrix_entry_nan": _edit("state plus_state", _state("nan 0 0 0", "0 0 1 0")),
    # trailing tokens and nested blocks
    "junk_after_observable_preset": _edit("preset pauli_x", "preset pauli_x junk"),
    "junk_after_kernel_kind": _edit("kind gaussian", "kind gaussian junk"),
    "junk_after_sweep_variable": _edit("variable t_B", "variable t_B junk", SWEPT),
    "junk_after_state_preset": _edit("state plus_state", "state plus_state junk"),
    "junk_after_basis_state_index": _edit("state plus_state", "state basis_state 1 junk"),
    "block_in_state_block": _edit(
        "state plus_state", _state("1 0 0 0", "0 0 0 0").replace("  }", "    x {\n    }\n  }")
    ),
    "block_in_hamiltonian_block": _edit(
        "spectrum 0.0 1.0",
        _hamiltonian("0 0 0 0", "0 0 1 0").replace("  }", "    x {\n    }\n  }"),
    ),
    "block_in_matrix_block": _edit(
        "preset pauli_x",
        _observable("1 0 0 0", "0 0 -1 0").replace("  }", "    x {\n    }\n  }"),
    ),
    "block_in_table_block": _edit("    0.0 1\n", "    0.0 1\n    x {\n    }\n", CLOCKED),
    # dimensions above the cap are refused before anything is built
    "dimension_over_cap": _edit("dimension 2", "dimension 4097"),
    "clock_dimension_over_cap": _edit("dimension 8", "dimension 4097", CLOCKED),
    "clock_dimension_far_over_cap": _edit("dimension 8", "dimension 1000000000", CLOCKED),
    "steps_over_cap": _edit("steps 12", "steps 4097", SWEPT),
    "steps_far_over_cap": _edit("steps 12", "steps 1e12", SWEPT),
}


def _outcome(text: str):
    try:
        return ("ok", parse_scenario(text).digest())
    except ScenarioValidationError as exc:
        return ("issues", exc.issues)
    except Exception as exc:  # the type is part of what is pinned
        return (type(exc).__name__, str(exc))
PARSE_EXPECTED = {
    "bundled_qubit_decoherence": ("ok", '26ad7b469d93ac8e'),
    "bundled_clock_recovery": ("ok", '000e68c9dbdf7840'),
    "bundled_pearle_compare": ("ok", 'fc29183df60d43a5'),
    "golden_dense_d8": ("ok", 'e5c143839853f5fa'),
    "unmatched_brace": ("ScenarioParseError", "line 1: unmatched '}'"),
    "block_header_two_names": (
        "ScenarioParseError",
        "line 15: block header must be a single name before '{', got 'two names {'",
    ),
    "unclosed_block": (
        "ScenarioParseError",
        "unclosed block 'system' opened at line 1",
    ),
    "top_level_key": (
        "ScenarioParseError",
        "line 1: top level allows only blocks ['system', 'kernel', 'clock', 'observable', 'sweep'], got key 'dimension'",
    ),
    "unknown_top_block": (
        "ScenarioParseError",
        "line 15: unknown block: 'plotting' is not one of ['system', 'kernel', 'clock', 'observable', 'sweep']",
    ),
    "duplicate_top_block": (
        "ScenarioParseError",
        "line 15: duplicate block 'observable'",
    ),
    "unknown_key_system": (
        "ScenarioParseError",
        "line 4: unknown key in 'system': 'dimensoin' is not one of ['dimension', 'spectrum', 'state']; did you mean 'dimension'?",
    ),
    "unknown_key_kernel": (
        "ScenarioParseError",
        "line 9: unknown key in 'kernel': 'lamda' is not one of ['kind', 'lambda', 'half_width', 't_b']; did you mean 'lambda'?",
    ),
    "unknown_key_clock": (
        "ScenarioParseError",
        "line 22: unknown key in 'clock': 'tock' is not one of ['dimension', 'tick']; did you mean 'tick'?",
    ),
    "unknown_key_observable": (
        "ScenarioParseError",
        "line 13: unknown key in 'observable': 'prest' is not one of ['preset']; did you mean 'preset'?",
    ),
    "unknown_key_sweep": (
        "ScenarioParseError",
        "line 20: unknown key in 'sweep': 'step' is not one of ['variable', 'start', 'stop', 'steps']; did you mean 'steps', 'stop'?",
    ),
    "unknown_block_system": (
        "ScenarioParseError",
        "line 6: unknown block in 'system': 'matrix' is not one of ['hamiltonian', 'state']",
    ),
    "unknown_block_kernel": (
        "ScenarioParseError",
        "line 11: unknown block in 'kernel': 'tabel' is not one of ['table']; did you mean 'table'?",
    ),
    "unknown_block_clock": (
        "ScenarioParseError",
        "line 23: unknown block in 'clock': 'pointer' is not one of ['<none>']",
    ),
    "unknown_block_observable": (
        "ScenarioParseError",
        "line 14: unknown block in 'observable': 'matrx' is not one of ['matrix']; did you mean 'matrix'?",
    ),
    "unknown_block_sweep": (
        "ScenarioParseError",
        "line 21: unknown block in 'sweep': 'window' is not one of ['<none>']",
    ),
    "duplicate_key": (
        "ScenarioParseError",
        "line 10: duplicate key 'lambda' in block 'kernel'",
    ),
    "duplicate_nested_block": (
        "ScenarioParseError",
        "line 17: duplicate block 'matrix' in 'observable'",
    ),
    "enum_needs_value": ("ScenarioParseError", "line 8: 'kind' needs a value"),
    "unknown_kernel_kind": (
        "ScenarioParseError",
        "line 8: unknown kernel kind: 'gausian' is not one of ['delta', 'gaussian', 'uniform', 'tabulated']; did you mean 'gaussian'?",
    ),
    "unknown_state_preset": (
        "ScenarioParseError",
        "line 5: unknown state preset: 'plus' is not one of ['plus_state', 'basis_state', 'maximally_mixed', 'random_pure', 'random_mixed']",
    ),
    "unknown_observable_preset": (
        "ScenarioParseError",
        "line 13: unknown observable preset: 'pauli_y' is not one of ['pauli_x', 'pauli_z', 'number_op']; did you mean 'pauli_z', 'pauli_x'?",
    ),
    "unknown_sweep_variable": (
        "ScenarioParseError",
        "line 17: unknown sweep variable: 't_C' is not one of ['t_B', 't_A', 'lambda']; did you mean 't_B', 't_A'?",
    ),
    "not_a_number": (
        "ScenarioParseError",
        "line 3: 'dimension' expects numbers, got ['two']",
    ),
    "number_count": ("ScenarioParseError", "line 10: 't_b' expects 1 number(s), got 2"),
    "not_an_integer": (
        "ScenarioParseError",
        "line 3: 'dimension' expects an integer, got 2.5",
    ),
    "matrix_line_not_row": (
        "ScenarioParseError",
        "line 6: matrix block 'state' expects 'row' lines, got 'rows'",
    ),
    "matrix_row_odd": (
        "ScenarioParseError",
        'line 6: matrix row needs an even number of values (re im pairs), got 3',
    ),
    "matrix_row_empty": (
        "ScenarioParseError",
        'line 6: matrix row needs an even number of values (re im pairs), got 0',
    ),
    "matrix_row_not_numeric": (
        "ScenarioParseError",
        "line 6: 'row' expects numbers, got ['0.5', 'x', '0.5', '0']",
    ),
    "matrix_no_rows": (
        "ScenarioParseError",
        "line 5: matrix block 'state' has no rows",
    ),
    "table_row_arity": (
        "ScenarioParseError",
        "line 10: table row expects 't weight', got '0.0 1 2'",
    ),
    "table_row_not_numeric": (
        "ScenarioParseError",
        "line 10: 'table row' expects numbers, got ['0.0', 'x']",
    ),
    "missing_system": ("issues", ["missing required block 'system'"]),
    "missing_kernel_and_observable": (
        "issues",
        [
            "missing required block 'kernel'",
            "missing required block 'observable'",
        ],
    ),
    "system_needs_dimension": ("issues", ["system block needs 'dimension'"]),
    "dimension_below_one": ("issues", ['system dimension must be >= 1, got 0']),
    "spectrum_and_hamiltonian": (
        "issues",
        [
            "system: give 'spectrum' or a 'hamiltonian' block, not both",
        ],
    ),
    "spectrum_length": (
        "issues", ['system hamiltonian: spectrum has 3 entries, expected 2'],
    ),
    "hamiltonian_shape": (
        "issues",
        [
            'system hamiltonian: hamiltonian matrix is (1, 2), expected (2, 2)',
        ],
    ),
    "hamiltonian_ragged": (
        "issues",
        [
            'system hamiltonian: hamiltonian matrix rows have unequal lengths [2, 1]',
        ],
    ),
    "hamiltonian_not_hermitian": (
        "issues",
        [
            'system hamiltonian: Hamiltonian is not Hermitian: max |M - M^dag| = 1.000e+00',
        ],
    ),
    "needs_hamiltonian": (
        "issues",
        [
            "system block needs 'spectrum' or a 'hamiltonian' block",
        ],
    ),
    "state_preset_and_block": (
        "issues",
        [
            'system: give a state preset or a state block, not both',
        ],
    ),
    "basis_state_out_of_range": (
        "issues",
        [
            'system state preset: basis_state index 5 outside 0..1',
        ],
    ),
    "basis_state_without_index": (
        "ScenarioParseError",
        "line 5: state preset 'basis_state' takes 1 value(s), got []",
    ),
    "basis_state_index_not_integer": (
        "ScenarioParseError",
        "line 5: 'basis_state' expects numbers, got ['one']",
    ),
    "basis_state_index_fractional": (
        "ScenarioParseError",
        "line 5: 'basis_state' expects an integer, got 1.5",
    ),
    # one state, one digest, however its index is spelled
    "basis_state_index": ("ok", '02861f0965662112'),
    "basis_state_index_zero_padded": ("ok", '02861f0965662112'),
    "basis_state_index_signed": ("ok", '02861f0965662112'),
    "state_matrix_shape": (
        "issues",
        [
            'system state: state matrix is (1, 1), expected (2, 2)',
        ],
    ),
    "state_matrix_trace": (
        "issues",
        [
            'system state: density matrix trace is 0.9 (|trace - 1| = 1.000e-01), expected 1',
        ],
    ),
    "needs_state": ("issues", ["system block needs a 'state' entry or block"]),
    "kernel_needs_kind": ("issues", ["kernel block needs 'kind'"]),
    "delta_needs_t_b": ("issues", ["delta kernel needs 't_b'"]),
    "gaussian_needs_t_b": ("issues", ["gaussian kernel needs 't_b'"]),
    "uniform_needs_t_b": ("issues", ["uniform kernel needs 't_b'"]),
    "gaussian_needs_lambda": ("issues", ["gaussian kernel needs 'lambda'"]),
    "uniform_needs_half_width": ("issues", ["uniform kernel needs 'half_width'"]),
    "tabulated_needs_table": ("issues", ["tabulated kernel needs a 'table' block"]),
    "lambda_meaningless": ("issues", ["'lambda' is meaningless for a delta kernel"]),
    "half_width_meaningless": (
        "issues",
        [
            "'half_width' is meaningless for a gaussian kernel",
        ],
    ),
    "table_meaningless": (
        "issues",
        [
            'a table block is meaningless for a delta kernel',
        ],
    ),
    "tabulated_t_b": (
        "issues",
        [
            "a tabulated kernel derives t_b from the table; drop 't_b'",
        ],
    ),
    "kernel_lambda_not_positive": ("issues", ['kernel: lam must be > 0, got -1.0']),
    "kernel_t_b_negative": ("issues", ['kernel: t_b must be >= 0, got -1.0']),
    "kernel_half_width_not_positive": (
        "issues",
        [
            'kernel: half_width must be > 0, got 0.0',
        ],
    ),
    "kernel_table_empty": (
        "issues",
        [
            'kernel: tabulated kernel needs at least one row',
        ],
    ),
    "kernel_table_negative_weight": (
        "issues",
        [
            'kernel: table weights must be nonnegative',
        ],
    ),
    "kernel_table_zero_weights": ("issues", ['kernel: table weights sum to zero']),
    "clock_needs_tick": ("issues", ["clock block needs 'dimension' and 'tick'"]),
    "clock_dimension_below_two": (
        "issues",
        [
            'clock: clock needs an integer dimension >= 2, got 1',
        ],
    ),
    "clock_tick_not_positive": ("issues", ['clock: clock tick must be > 0, got 0.0']),
    "observable_preset_and_matrix": (
        "issues",
        [
            'observable: give a preset or a matrix block, not both',
        ],
    ),
    "observable_preset_needs_qubit": (
        "issues",
        [
            'observable preset: pauli_x needs dimension 2',
        ],
    ),
    "observable_matrix_shape": (
        "issues",
        [
            'observable: observable matrix is (1, 1), expected (2, 2)',
        ],
    ),
    "observable_not_hermitian": (
        "issues",
        [
            'observable: observable is not Hermitian: max |M - M^dag| = 1.000e+00',
        ],
    ),
    "observable_needs_preset_or_matrix": (
        "issues",
        [
            "observable block needs 'preset' or a 'matrix' block",
        ],
    ),
    "sweep_missing_keys": ("issues", ["sweep block is missing ['start', 'stop']"]),
    "sweep_steps_below_one": ("issues", ['sweep steps must be >= 1, got 0']),
    "sweep_stop_below_start": ("issues", ['sweep stop 0.05 is below start 0.1']),
    "lambda_and_spectrum_together": (
        "issues",
        [
            'system hamiltonian: spectrum has 3 entries, expected 2',
            'kernel: lam must be > 0, got -1.0',
        ],
    ),
    "dimension_overflow": (
        "ScenarioParseError",
        "line 3: 'dimension' expects finite numbers, got ['1e400']",
    ),
    "dimension_nan": (
        "ScenarioParseError",
        "line 3: 'dimension' expects finite numbers, got ['nan']",
    ),
    "clock_dimension_overflow": (
        "ScenarioParseError",
        "line 21: 'dimension' expects finite numbers, got ['1e400']",
    ),
    "steps_overflow": (
        "ScenarioParseError",
        "line 20: 'steps' expects finite numbers, got ['1e400']",
    ),
    "steps_huge": (
        "ScenarioParseError",
        "line 20: 'steps' is beyond the 64-bit integer range, got 1e+300",
    ),
    "sweep_start_nan": (
        "ScenarioParseError",
        "line 18: 'start' expects finite numbers, got ['nan']",
    ),
    "spectrum_infinite": (
        "ScenarioParseError",
        "line 4: 'spectrum' expects finite numbers, got ['0', 'inf']",
    ),
    "lambda_infinite": (
        "ScenarioParseError",
        "line 9: 'lambda' expects finite numbers, got ['inf']",
    ),
    "tick_infinite": (
        "ScenarioParseError",
        "line 22: 'tick' expects finite numbers, got ['inf']",
    ),
    "table_entry_infinite": (
        "ScenarioParseError",
        "line 10: 'table row' expects finite numbers, got ['0.0', 'inf']",
    ),
    "matrix_entry_nan": (
        "ScenarioParseError",
        "line 6: 'row' expects finite numbers, got ['nan', '0', '0', '0']",
    ),
    "junk_after_observable_preset": (
        "ScenarioParseError",
        "line 13: observable preset 'pauli_x' takes 0 value(s), got ['junk']",
    ),
    "junk_after_kernel_kind": (
        "ScenarioParseError",
        "line 8: kernel kind 'gaussian' takes 0 value(s), got ['junk']",
    ),
    "junk_after_sweep_variable": (
        "ScenarioParseError",
        "line 17: sweep variable 't_B' takes 0 value(s), got ['junk']",
    ),
    "junk_after_state_preset": (
        "ScenarioParseError",
        "line 5: state preset 'plus_state' takes 0 value(s), got ['junk']",
    ),
    "junk_after_basis_state_index": (
        "ScenarioParseError",
        "line 5: state preset 'basis_state' takes 1 value(s), got ['1', 'junk']",
    ),
    "block_in_state_block": (
        "ScenarioParseError",
        "line 8: unknown block in 'state': 'x' is not one of ['<none>']",
    ),
    "block_in_hamiltonian_block": (
        "ScenarioParseError",
        "line 7: unknown block in 'hamiltonian': 'x' is not one of ['<none>']",
    ),
    "block_in_matrix_block": (
        "ScenarioParseError",
        "line 16: unknown block in 'matrix': 'x' is not one of ['<none>']",
    ),
    "block_in_table_block": (
        "ScenarioParseError",
        "line 11: unknown block in 'table': 'x' is not one of ['<none>']",
    ),
    "dimension_over_cap": ("issues", ['system dimension must be <= 4096, got 4097']),
    "clock_dimension_over_cap": (
        "issues",
        [
            'clock dimension must be <= 4096, got 4097',
        ],
    ),
    "clock_dimension_far_over_cap": (
        "issues",
        [
            'clock dimension must be <= 4096, got 1000000000',
        ],
    ),
    "steps_over_cap": ("issues", ['sweep steps must be <= 4096, got 4097']),
    "steps_far_over_cap": (
        "issues",
        [
            'sweep steps must be <= 4096, got 1000000000000',
        ],
    ),
}


@pytest.mark.parametrize("case", list(PARSE_CASES))
def test_parse_outcome_is_pinned(case):
    assert _outcome(PARSE_CASES[case]) == PARSE_EXPECTED[case]


def test_every_parse_case_is_pinned():
    assert list(PARSE_CASES) == list(PARSE_EXPECTED)
