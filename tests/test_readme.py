"""The README's examples run: its Python block returns the digits its comments
show, and every qsuperpose line of its shell block exits 0."""
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qsuperpose import cli
from qsuperpose.datasets import dataset
from qsuperpose.nmr import SpinSystem, compile_sequence

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
# Loaded by ``import qsuperpose`` alone: bench/tracer.py finds each traced
# module in sys.modules.
PIPELINE_MODULES = ("linalg", "direct", "reference", "hybrid", "enhanced", "nmr", "analysis")
SUBCOMMANDS = {
    "run-direct", "run-reference", "qudit", "enhanced",
    "pulse", "sweep-rp", "table1", "verify",
}


def test_python_example_shows_its_digits():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    # Lines such as "run_three_qubit(spec).success_prob   # P3 = 0.3174...".
    shown = re.findall(r"^(\S.*?)\s+#.*?(\d\.\d+)\.\.\.", block, re.M)
    assert [digits for _, digits in shown] == ["0.4534", "0.3174", "0.6348"]
    for expression, digits in shown:
        assert str(eval(expression, namespace)).startswith(digits), expression


def test_fresh_import_loads_every_pipeline_module():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    readme_import = re.search(r"^from qsuperpose import .*$", block, re.M).group(0)
    program = (
        "import json, sys\n"
        "import qsuperpose\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        f"{readme_import}\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert {f"qsuperpose.{m}" for m in PIPELINE_MODULES} <= loaded


def readme_commands() -> list[list[str]]:
    """argv of each qsuperpose line of the README's command-line block."""
    text = README.read_text()
    block = re.search(r"```sh\n(# gate-level.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [
        shlex.split(line, comments=True)[1:]
        for line in lines
        if line.startswith("qsuperpose ")
    ]


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    """A working directory holding the files the README's commands read."""
    monkeypatch.chdir(tmp_path)
    states = []
    for amps in ([1, 1, 1], [2, 1, 0], [1, 0, 2]):
        norm = math.sqrt(sum(x * x for x in amps))
        states.append({"dims": [3], "amps": [[x / norm, 0.0] for x in amps]})
    (tmp_path / "states.json").write_text(json.dumps(states))
    seq = compile_sequence(dataset(3).spec(), SpinSystem())
    (tmp_path / "seq.json").write_text(json.dumps(seq.to_json()))
    return tmp_path


def test_every_shell_command_runs(readme_dir, capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == SUBCOMMANDS
    for argv in commands:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 0, (argv, err)
    assert (readme_dir / "table1.csv").exists() and (readme_dir / "sweep.csv").exists()


def test_enhanced_example_geometry(readme_dir, capsys):
    # Geometry is decided at 1e-9: full-precision angles are antipodal, the
    # 8-digit ones are not.
    argv = next(argv for argv in readme_commands() if argv[0] == "enhanced")
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["geometry"] == "transverse_antipodal"
    assert abs(out["p_total"] - 0.5) <= 1e-12
    half_pi, pi = "1.5707963267948966", "3.141592653589793"
    assert argv[1:5] == ["--psi1", f"{half_pi},0", "--psi2", f"{half_pi},{pi}"]
    eight_digit = ["--psi1", "1.5707963,0", "--psi2", "1.5707963,3.1415927"]
    assert cli.main([argv[0], *eight_digit, *argv[5:]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["geometry"] == "generic"
    assert f"{out['p_total']:.8f}" == "0.25000001"
