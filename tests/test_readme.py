"""The README's library example runs as printed and gives the values it describes."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    text = README.read_text()
    body = text[text.index(f"## {section}\n"):]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_in_one_minute(capsys):
    namespace: dict = {}
    exec(compile(_python_block("Library in one minute"), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    pide, est = namespace["sol"].value_at_zero(), namespace["est"]
    assert printed == [str(pide), f"{est.value} +/- {est.std_error}"]
    target = 1.0 - math.exp(-2.0)  # worst case: the top intensity 2 throughout
    assert pide == pytest.approx(target, abs=5e-3)
    assert abs(est.value - target) <= 4.0 * est.std_error
