"""The benchmark's tracer (perfbench/tracing.py) wraps rtoa functions by
name and binds some of their parameters by name, and its gate
(perfbench/gate.py) reads rtoa values and calls rtoa constructors.  These
tests load the tracer read-only, without writing bytecode next to it, so a
rename that would only break a benchmark run fails here."""

import inspect

import numpy as np

from rtoa import cli, core, dynamics, spectral, toa
from rtoa.quadrature import QuadratureConfig
from rtoa.spectral import completeness_check

from conftest import load_perfbench


def test_every_wrapped_name_resolves():
    tracing = load_perfbench("tracing")
    resolved = tracing.resolve_targets()
    assert len(resolved) == len(tracing.TARGETS)


def test_completeness_keeps_the_parameter_names_the_tracer_binds():
    assert list(inspect.signature(completeness_check).parameters)[:3] == [
        "test_fn",
        "tau_window",
        "tau_step",
    ]


def test_density_grid_keeps_the_parameter_names_the_tracer_binds():
    # _density_attrs counts nx * nt cells on the rtoa.cli.density_grid span
    assert {"nx", "nt"} <= set(inspect.signature(cli.density_grid).parameters)


def test_thread_count_stays_callable():
    # the benchmark worker records it with every run
    assert dynamics.thread_count() == 1


def test_toa_distribution_keeps_the_parameter_names_the_tracer_binds():
    assert {"state", "n_tau"} <= set(inspect.signature(toa.toa_distribution).parameters)


def test_toa_distribution_looks_up_energy_in_its_own_module(monkeypatch):
    # the tracer's core.energy span on the arrival-times workload wraps this name
    calls, energy = [], toa.energy
    monkeypatch.setattr(toa, "energy", lambda *args: calls.append(args) or energy(*args))
    toa.toa_distribution(toa.gaussian_state(3.0, -7.0), (5.0, 10.0), 11)
    assert len(calls) == 1


def test_apply_even_toa_looks_up_differentiate_in_its_own_module(monkeypatch):
    # the tracer's spectral.differentiate span on operator-checks wraps this name
    calls, differentiate = [], spectral.differentiate
    monkeypatch.setattr(spectral, "differentiate", lambda *args: calls.append(args) or differentiate(*args))
    grid = np.linspace(0.45, 5.05, 64)
    f = core.SpinorField(
        core.Representation.FESHBACH_VILLARS_PHI, core.Basis.MOMENTUM, grid, np.exp(-grid) + 0j, 0j * grid
    )
    spectral.apply_even_toa(f)
    assert len(calls) == 2  # one per component


def test_grid_table_looks_up_energy_in_its_own_module_once(monkeypatch):
    # the tracer's core.energy span on operator-checks wraps this name
    calls, energy = [], spectral.energy
    monkeypatch.setattr(spectral, "energy", lambda *args: calls.append(args) or energy(*args))
    spectral.differentiate(np.arange(5.0), np.zeros(5))  # another grid takes the table slot
    grid = np.linspace(0.45, 5.05, 96)
    f = core.SpinorField(
        core.Representation.FESHBACH_VILLARS_PHI, core.Basis.MOMENTUM, grid, np.exp(-grid) + 0j, 0j * grid
    )
    spectral.apply_hamiltonian(spectral.apply_even_toa(f))
    spectral.apply_even_toa(spectral.apply_hamiltonian(f))
    assert len(calls) == 1  # one table build serves all four calls


def test_gate_reads_the_default_epsilon_ladder():
    # gate.check_pass sizes the density-ladder reference tolerance from it
    assert QuadratureConfig().epsilon_ladder == (0.3, 0.15, 0.075)


def test_spinor_field_takes_the_gates_positional_call():
    # gate.conjugacy_residuals builds its states this way
    grid = np.linspace(0.45, 5.05, 5)
    f = core.SpinorField(
        core.Representation.FESHBACH_VILLARS_PHI, core.Basis.MOMENTUM, grid, grid + 0j, 0.0 * grid
    )
    assert np.array_equal(f.grid, grid) and np.array_equal(f.upper, grid)
