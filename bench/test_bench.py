"""Tests of the benchmark itself: call counts, tracer hygiene, output shape.

    PYTHONPATH=src python3 -m pytest -q bench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qsuperpose  # noqa: E402
from qsuperpose import direct, enhanced, linalg, reference  # noqa: E402

import compare  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def first_input(name, seed=1):
    return workloads.WORKLOADS[name].make_inputs(seed)[0]


def traced_op(name, x):
    wl = workloads.WORKLOADS[name]
    with Tracer() as tracer:
        out = wl.run(x)
    wl.check(x, out)
    return tracer, out


def package_bindings():
    bindings = {
        (mod_name, attr): value
        for mod_name, mod in sys.modules.items()
        if mod_name.startswith("qsuperpose")
        for attr, value in vars(mod).items()
    }
    for cls in (linalg.StateVector, linalg.DensityMatrix, reference.ReferenceSpec):
        bindings[(cls.__qualname__, "__post_init__")] = cls.__dict__["__post_init__"]
    return bindings


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_table1_operation_call_counts():
    tracer, _ = traced_op("table1", None)
    for key in ("direct.run_direct", "nmr.compile_sequence", "nmr.run_sequence"):
        assert tracer.stats[key].calls == 11, key


def test_verify_operation_call_counts():
    tracer, _ = traced_op("verify", first_input("verify"))
    for key in (
        "direct.run_direct",
        "reference.run_two_qubit_reduced",
        "reference.run_three_qubit",
        "hybrid.run_hybrid",
    ):
        assert tracer.stats[key].calls == 20, key


def test_each_original_is_wrapped_once_in_every_binding():
    original = linalg.overlap_decompose
    chi = linalg.basis_state(2, 0)
    psi = linalg.make_qubit(linalg.QubitParams(1.0, 0.5))
    with Tracer() as tracer:
        bound = {
            linalg.overlap_decompose,
            direct.overlap_decompose,
            reference.overlap_decompose,
            enhanced.overlap_decompose,
            qsuperpose.overlap_decompose,
        }
        assert len(bound) == 1
        wrapper = bound.pop()
        assert wrapper is not original and wrapper.__wrapped__ is original
        reference.overlap_decompose(psi, chi)
        qsuperpose.overlap_decompose(psi, chi)
    assert tracer.stats["linalg.overlap_decompose"].calls == 2


def test_uninstall_restores_every_binding():
    before = package_bindings()
    tracer = Tracer()
    with pytest.raises(workloads.CheckFailed):
        with tracer:
            assert linalg.tensor is not before[("qsuperpose.linalg", "tensor")]
            workloads.qudit_run(first_input("qudit"))
            raise workloads.CheckFailed("leave the block by an exception")
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert sum(st.calls for st in tracer.stats.values()) > 0


def test_every_layer_name_exists():
    for module, names in LAYERS.items():
        mod = sys.modules[f"qsuperpose.{module}"]
        for name in names:
            assert callable(getattr(mod, name)), f"{module}.{name}"


@pytest.mark.parametrize("name", ["verify", "table1", "qudit"])
def test_traced_and_untraced_outputs_are_identical(name):
    wl = workloads.WORKLOADS[name]
    x = first_input(name)
    plain = wl.run(x)
    _, traced = traced_op(name, x)
    if name == "verify":
        assert plain.to_json() == traced.to_json()
    elif name == "table1":
        assert plain[1] == traced[1] == workloads.golden_table1()
        assert plain[0] == traced[0]
    else:
        assert plain[1] == traced[1]
        assert plain[0].success_prob == traced[0].success_prob
        assert np.array_equal(plain[0].final_state.amps, traced[0].final_state.amps)


def test_inputs_follow_the_seed():
    a, b, c = (workloads.qudit_inputs(s) for s in (7, 7, 8))
    assert all(np.array_equal(x.chi, y.chi) for x, y in zip(a, b))
    assert not np.array_equal(a[0].chi, c[0].chi)
    assert workloads.verify_inputs(7) == workloads.verify_inputs(7) != workloads.verify_inputs(8)
    assert {(x.n, x.d) for x in a} == set(workloads.QUDIT_SHAPES)


def test_checks_reject_wrong_outputs():
    x = first_input("qudit")
    result, closed = workloads.qudit_run(x)
    with pytest.raises(workloads.CheckFailed):
        workloads.qudit_check(x, (result, closed + 1e-6))
    rows, csv = workloads.table1_run(None)
    with pytest.raises(workloads.CheckFailed):
        workloads.table1_check(None, (rows, csv.replace("0.853553391", "0.853553392", 1)))


@pytest.mark.parametrize("name", ["verify", "table1", "qudit"])
def test_traced_runs_repeat_call_counts_and_match_the_spec(name, tmp_path):
    calls = []
    for i in range(2):
        proc = run_bench("--workload", name, "--seed", "5", "--seconds", "0.5", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        calls.append({k: m["value"] for k, m in last["metrics"].items() if k.endswith(".calls")})
    assert calls[0] == calls[1]


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path):
    out = tmp_path / "qudit.json"
    proc = run_bench(
        "--workload", "qudit", "--seed", "5", "--seconds", "0.5", "--trace", "0", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())
    result = json.loads(out.read_text())
    assert result["metrics"]["failed_ratio"]["value"] == 0.0
    assert {"git_sha", "python", "numpy", "nproc", "cpu_model", "blas_threads"} <= set(result["env"])


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qudit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_orders_spans_by_self_time_change():
    def result(values):
        return {
            "workload": "verify",
            "metrics": {k: {"value": v, "unit": "ms/item"} for k, v in values.items()},
        }

    base = result({"a.f.self_ms": 1.0, "a.f.calls": 3.0, "b.g.self_ms": 2.0, "c.h.self_ms": 1.0})
    new = result({"a.f.self_ms": 1.2, "a.f.calls": 3.0, "b.g.self_ms": 3.0, "c.h.self_ms": 1.01})
    groups = compare.changes(base, new)
    assert [span for span, _, _ in groups] == ["b.g", "a.f"]
    assert groups[1][2] == [("a.f.self_ms", 1.0, 1.2)]
