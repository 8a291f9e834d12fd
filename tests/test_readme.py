"""README's code blocks run as written, so the documented API cannot drift."""

import re
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np

import sbopt as sb
from sbopt.core import _rules_of

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


def test_readme_rule_table_lists_each_config_field_under_the_rule_it_states():
    table = README[README.index("| rule | config fields |"):].split("\n\n")[0]
    listed = {}
    for row in table.splitlines()[2:]:
        rule, config_fields = row.split(" | ")[:2]
        for name in re.findall(r"`(\w+\.\w+)`", config_fields):
            listed[name] = rule.removeprefix("| ")
    stated = {f"{cls.__name__}.{name}": rule.phrase.removesuffix(" or None")
              for cls in vars(sb).values() if is_dataclass(cls)
              for name, rule in _rules_of(cls)}
    assert listed == stated
