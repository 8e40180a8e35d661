"""The README's Python example runs and returns the digits its comments show."""
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_python_example_shows_its_digits():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    # Lines such as "run_three_qubit(spec).success_prob   # P3 = 0.3174...".
    shown = re.findall(r"^(\S.*?)\s+#.*?(\d\.\d+)\.\.\.", block, re.M)
    assert [digits for _, digits in shown] == ["0.4534", "0.3174", "0.6348"]
    for expression, digits in shown:
        assert str(eval(expression, namespace)).startswith(digits), expression
