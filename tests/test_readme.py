"""README's code blocks run as written, so the documented API cannot drift."""

import re
from pathlib import Path

import numpy as np

import sbopt as sb

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _python_block(marker: str) -> str:
    """The first python code block after ``marker`` in README."""
    return re.search(r"```python\n(.*?)```", README[README.index(marker):], re.S).group(1)


def test_readme_quickstart_and_constraint_snippet_run_as_written():
    quick = {}
    exec(_python_block("## Library quickstart"), quick)
    assert len(quick["trace"]) == 80 and np.isfinite(quick["best"].value)

    snippet = {}
    exec(_python_block("Constrained problems wrap"), snippet)
    spec, taus, tau = snippet["spec"], snippet["taus"], snippet["tau"]
    assert sb.feasible_mask(taus, spec).all()
    assert not sb.is_feasible(tau, spec)
    assert snippet["ev"].penalty.apply(0.0, tau) > 0.0
