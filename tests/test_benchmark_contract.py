"""What the benchmark reads of the engine.

``perfbench/tracing.py`` patches engine functions by name with ``getattr``,
so a rename there would only show when the benchmark runs.  These tests load
the tracer by path and fail on such a rename instead.  Likewise the count of
``verify --all`` lines that ``perfbench/inputs.py`` expects for its model
text is checked here, so a new verify check fails these tests rather than the
benchmark's answer check.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from tduality.catalog import catalog_build, euler_model_from_label_coeffs
from tduality.cli import main
from oracles import mat_mul
from tduality.matrices import IntMatrix, smith_normal_form

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


def test_traced_functions_resolve():
    tracing = _tracing()
    for layer, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"tduality.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"tduality.{layer}.{name}"


def test_traced_methods_exist():
    for name in _tracing().METHODS:
        assert callable(getattr(IntMatrix, name, None)), f"IntMatrix.{name}"


def test_smith_form_attributes_read_by_the_tracer():
    # ``Tracer._after_snf`` reads ``u``, ``d`` and ``v`` of every Smith form
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    snf = smith_normal_form(m)
    u, d, v = (getattr(snf, name) for name in ("u", "d", "v"))
    assert all(isinstance(x, IntMatrix) for x in (u, d, v))
    assert mat_mul(mat_mul(u.entries, m.entries, m.cols), v.entries, v.cols) == \
        [list(row) for row in d.entries]


def test_gysin_report_fields_read_by_the_benchmark():
    from tduality.gysin import gysin_sequence

    model = euler_model_from_label_coeffs(catalog_build("cp", (1,)), {"u": 2})
    report = gysin_sequence(model, 0, 3)
    assert report.degree_range == (0, 3)
    assert report.exact is True
    assert len(report.nodes) == 12
    assert all(node.exact for node in report.nodes)


def test_one_product_makes_exactly_one_intmatrix(monkeypatch):
    # ``matrices.intmatrix_new`` counts ``IntMatrix.__init__`` calls, so a
    # product must build its result through ``__init__``, once
    calls = []
    real = IntMatrix.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    a = IntMatrix.from_rows([[1, 0, 2], [0, 0, 0]])
    b = IntMatrix.eye(3, 4, 1)
    monkeypatch.setattr(IntMatrix, "__init__", counting)
    prod = a @ b
    assert len(calls) == 1
    assert prod.entries == ((0, 1, 0, 2), (0, 0, 0, 0))


@pytest.mark.parametrize("params", [
    dict(cp_level=2, euler=2, flux=1, charge=2, pair=1, truncation=2),
    dict(cp_level=2, euler=9, flux=9, charge=9, pair=5, truncation=2),
    dict(cp_level=3, euler=5, flux=4, charge=3, pair=2, truncation=1),
])
def test_verify_prints_the_check_count_the_benchmark_expects(tmp_path, capsys, params):
    text, expected = _load("inputs").verify_model_text(**params)
    model = tmp_path / "verify.tdsl"
    model.write_text(text, encoding="utf-8")
    code = main(["--json", "verify", "--all", str(model)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["failures"] == 0
    assert len(payload["checks"]) == expected
    assert all(check["ok"] for check in payload["checks"])
