"""The README's Python examples run, and give the values their comments state."""

import re
from pathlib import Path

from graded_darboux import one, zero
from graded_darboux.grexpr.chart import EVEN

README = Path(__file__).resolve().parents[1] / "README.md"

# a commented value: an expression statement, then "# <stated value>"
COMMENTED = re.compile(r"^(\S.*?)\s+# (.+)$")

# each stated value, as a check of what the expression evaluates to
STATED = {
    "(even, 0)": lambda v: (v.parity, v.weight) == (EVEN, 0),
    "'contact'": lambda v: v == "contact",
    "d/dz": lambda v: v.parity == EVEN and v.coefficients == (
        one(v.chart), zero(v.chart), zero(v.chart)),
}


def test_python_blocks_run_and_state_their_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    stated = {}
    for block in blocks:
        ns = {}
        exec(compile(block, str(README), "exec"), ns)
        for line in block.splitlines():
            hit = COMMENTED.match(line)
            if hit:
                stated[hit.group(2)] = eval(hit.group(1), ns)
    assert stated.keys() == STATED.keys()
    for comment, value in stated.items():
        assert STATED[comment](value), (comment, value)
