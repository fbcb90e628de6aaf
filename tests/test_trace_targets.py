"""The benchmark's tracer (perfbench/tracing.py) wraps rtoa functions by
name and binds some of their parameters by name, and its gate
(perfbench/gate.py) reads rtoa values and calls rtoa constructors.  These
tests load the tracer read-only, without writing bytecode next to it, so a
rename that would only break a benchmark run fails here."""

import inspect

import numpy as np
import pytest

from rtoa import cli, core, dynamics, spectral, toa
from rtoa.quadrature import QuadratureConfig, adaptive_quadrature, integrate_sqrt_endpoint
from rtoa.spectral import completeness_check

from conftest import load_perfbench

gate, workloads = load_perfbench("gate"), load_perfbench("workloads")


def test_every_wrapped_name_resolves():
    tracing = load_perfbench("tracing")
    resolved = tracing.resolve_targets()
    assert len(resolved) == len(tracing.TARGETS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_expected_span_records(workload, tmp_path, monkeypatch):
    # the benchmark's traced pass fails when a layer it expects records no span
    tracing = load_perfbench("tracing")
    resolved = tracing.resolve_targets()
    for module, fn, target in resolved:
        monkeypatch.setattr(module, target.attr, fn)  # the original comes back after the test
    tracer = tracing.Tracer()
    tracer.install(resolved)
    inputs = workloads.make_inputs(workload, workloads.DEFAULT_SEED, "tiny")
    for op in workloads.operations(workload, inputs, str(tmp_path)):
        with tracer.op(op["name"]):
            if op["kind"] == "call":
                gate.conjugacy_residuals(inputs["bump"], inputs["grids"])
            else:
                assert cli.dispatch(op["argv"]) == 0, op["name"]
    tracing.check_expected(workload, tracer.take())


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


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize(
    "engine",
    [
        lambda f, **kw: adaptive_quadrature(f, 0.0, 3.0, **kw),
        lambda f, **kw: integrate_sqrt_endpoint(f, 3.0, **kw),
    ],
    ids=["adaptive_quadrature", "integrate_sqrt_endpoint"],
)
def test_panels_attrs_reads_both_engine_results(engine, members):
    # the quadrature.adaptive span records n_panels and int(not converged)
    tracing = load_perfbench("tracing")
    f = lambda q: np.sqrt(q)[:, None] * np.cos(np.multiply.outer(q, np.arange(1.0, members + 1.0)))
    attrs = tracing._panels_attrs(engine)((), {}, engine(f, members=members))
    assert type(attrs["panels"]) is int and attrs["panels"] > 0
    assert attrs["unconverged"] in (0, 1)


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
