"""The README's library quick start runs, and its comments state true values."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _stated(block: str, prefix: str, namespace: dict):
    """Value of the quick-start line starting with ``prefix``, and its comment."""
    line = next(ln for ln in block.splitlines() if ln.startswith(prefix))
    expr, _, comment = line.partition("#")
    return eval(expr, namespace), comment.strip()


def test_quick_start_runs_and_states_true_values():
    block = _quick_start()
    namespace: dict = {}
    exec(block, namespace)
    assert _stated(block, "pr.transition_width(", namespace) == (12, "12")
    widths = _stated(block, "[r.width for r in pr.transition_widths(", namespace)
    assert widths == ([12, 26], "[12, 26]")
    assert _stated(block, "pr.width_bound_thm1(", namespace) == (14, "14")
    thm2, comment = _stated(block, "pr.width_bound_thm2(", namespace)
    assert thm2.integer == 23 and "integer=23" in comment
