import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relatime import (
    GaussianKernel,
    NotPositiveError,
    RelatimeError,
    ResultTable,
    ScenarioParseError,
    ScenarioValidationError,
    characteristic,
    coherence_report,
    emit_scenario,
    evolve_relational_dephasing,
    evolve_unitary,
    expectation,
    parse_scenario,
    purity,
    run_clock_recovery,
    run_decoherence_sweep,
    run_pearle_compare,
    run_report,
)
from relatime.scenario import _distinct_gaps

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
        assert scn.system_hamiltonian.matrix[0, 1] == pytest.approx(0.5 - 0.5j)
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

    def test_tabulated_with_t_b_rejected(self):
        text = CLOCKED.replace("kind tabulated", "kind tabulated\n  t_b 1.0")
        with pytest.raises(ScenarioValidationError, match="drop 't_b'"):
            parse_scenario(text)


class TestEmission:
    def test_round_trip_is_idempotent(self):
        for text in (MINIMAL, CLOCKED, MINIMAL + SWEEP_BLOCK):
            once = emit_scenario(parse_scenario(text))
            twice = emit_scenario(parse_scenario(once))
            assert once == twice

    def test_digest_tracks_content(self):
        a = parse_scenario(MINIMAL)
        b = parse_scenario(MINIMAL.replace("lambda 0.1", "lambda 0.2"))
        assert a.digest() != b.digest()
        assert a.digest() == parse_scenario(emit_scenario(a)).digest()

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
        once = emit_scenario(parse_scenario(text))
        assert once == emit_scenario(parse_scenario(once))


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


class TestDecoherenceSweep:
    def test_offdiagonal_column_matches_closed_form(self):
        table = run_decoherence_sweep(parse_scenario(MINIMAL + SWEEP_BLOCK))
        t_values = np.array(table.columns["t_B"])
        offdiag = np.array(table.columns["max_offdiag"])
        np.testing.assert_allclose(
            offdiag, 0.5 * np.exp(-0.1 * t_values / 2.0), atol=1e-12
        )
        factor = np.array(table.columns["dephase_gap_1"])
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
        gaps = _distinct_gaps(h)
        gap_names = [name for name in table.columns if name.startswith("dephase_gap_")]
        assert len(gap_names) == gaps.size
        for k, x in enumerate(table.columns[variable]):
            if variable == "t_B":
                kernel, t_alice = scn.kernel_spec.build(t_b=x), x
            else:
                kernel, t_alice = scn.kernel_spec.build(lam=x), scn.kernel_spec.t_b
            rho_a = evolve_unitary(rho0, h, t_alice).state
            rho_b = evolve_relational_dephasing(rho0, h, kernel).state
            expected = {
                "expect_A": expectation(scn.observable, rho_a),
                "expect_B": expectation(scn.observable, rho_b),
                "purity_A": purity(rho_a),
                "purity_B": purity(rho_b),
                "max_offdiag": coherence_report(rho0, h, kernel).max_offdiag_averaged,
            }
            for name, gap in zip(gap_names, gaps):
                expected[name] = abs(characteristic(kernel, gap).value)
            for name, value in expected.items():
                assert table.columns[name][k] == pytest.approx(value, rel=0, abs=1e-12)

    def test_non_positive_multiplier_fails_at_its_point(self, monkeypatch):
        # A kernel whose chi flips the sign of every off-diagonal element is
        # not positive definite; the energy-basis validation must catch the
        # resulting state instead of emitting a row for it.
        closed_form = GaussianKernel._chi

        def flipped(self, omega):
            omega = np.asarray(omega, dtype=float)
            return np.where(omega == 0.0, 1.0, -1.0) * closed_form(self, omega)

        monkeypatch.setattr(GaussianKernel, "_chi", flipped)
        text = (MINIMAL + SWEEP_BLOCK).replace("dimension 2", "dimension 3")
        text = text.replace("spectrum 0.0 1.0", "spectrum 0.0 1.0 2.5")
        text = text.replace("preset pauli_x", "preset number_op")
        with pytest.raises(NotPositiveError, match=r"^at sweep point t_B = 0\.1: "):
            run_decoherence_sweep(parse_scenario(text))

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

    def test_non_finite_rejected(self):
        table = ResultTable(columns={"a": [float("nan")]})
        with pytest.raises(RelatimeError, match="non-finite"):
            table.to_csv()

    def test_integer_cells_stay_integers(self):
        table = run_report(parse_scenario(MINIMAL))
        lines = [l for l in table.to_csv().splitlines() if not l.startswith("#")]
        assert lines[1].split(",")[0] == "0"
