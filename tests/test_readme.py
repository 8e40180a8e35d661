"""The README's Python example runs and returns the digits its comments show."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
# Loaded by ``import qsuperpose`` alone: bench/tracer.py finds each traced
# module in sys.modules.
PIPELINE_MODULES = ("linalg", "direct", "reference", "hybrid", "enhanced", "nmr", "analysis")


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
