"""The benchmark's tracer wraps program names by string; each must still name a callable."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("holder, attr", [(h, a) for h, a, _, _ in spans.HOOKS],
                         ids=lambda v: v)
def test_traced_name_resolves_to_a_callable(holder, attr):
    obj = spans._holder(holder)
    # a class attribute is taken from its __dict__, as the tracer installs it
    target = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
    assert callable(target), f"{holder}.{attr} is not a callable of the program"


# one small op per subcommand, and the shearlab.cli hooks its body calls
CLI_CALLS = [
    (("uniform-shear", "--samples", "5"), ("uniform_shear", "tau_of_t", "write_csv")),
    (("spectrum", "--jmax", "4"), ("spectrum", "write_csv")),
    (("modes", "--tau-end", "0.5"), ("integrate_mode", "t_of_tau", "write_csv")),
    (("energy", "--jmodes", "1", "--tau-end", "0.5"),
     ("energy_certificate", "energy_decay_check", "write_csv")),
    (("heteroclinic", "--sigma0", "1.3"), ("shoot_heteroclinic", "reparametrize", "write_csv")),
    (("profile",), ("shoot_heteroclinic", "reparametrize", "reconstruct", "ode_residual",
                    "endpoint_report", "write_csv")),
    (("localize", "--frames", "3", "--nx", "41"),
     ("shoot_heteroclinic", "reparametrize", "reconstruct", "band_diagnostics",
      "residual_convergence", "write_csv")),
    (("residual", "--levels", "2"),
     ("shoot_heteroclinic", "reparametrize", "reconstruct", "residual_convergence")),
    (("simulate", "--N", "32", "--t-end", "1", "--frames", "2"), ("run_sim", "write_csv")),
]


def test_tracer_sees_every_call_of_a_cli_body(tmp_path):
    from shearlab import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        # the wrappers carry their function's name (run_sim's is run)
        span_name = {a: getattr(cli, a).__name__ for _, attrs in CLI_CALLS for a in attrs}
        for argv, attrs in CLI_CALLS:
            first = len(tracer.spans)
            assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
            # a span without a parent is a call of the body (or of main) through a hook
            called = {name for parent, _, name, *_ in tracer.spans[first:] if parent < 0}
            assert {span_name[a] for a in attrs} | {"write_manifest"} <= called, argv
    finally:
        tracer.uninstall()
    # and no wrapper stays behind in the CLI, however early the tracer came
    first = len(tracer.spans)
    for argv, _ in CLI_CALLS:
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert len(tracer.spans) == first
