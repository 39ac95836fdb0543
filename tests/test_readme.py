"""The README's Python API: its snippet runs, and it names the whole
top-level surface of the package."""

import re
from pathlib import Path

import bhfix

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

DOCUMENTED = {
    "SuccessorDilator",
    "IdentityDilator",
    "ConstantDilator",
    "OmegaPowerDilator",
    "SumDilator",
    "LexProductDilator",
    "Dilator",
    "CodedElement",
    "Tower",
    "OmegaSuccessorWitness",
    "embed_bh",
    "format_bh",
    "parse_bh",
}


def _api_section() -> str:
    return README.split("## Python API", 1)[1].split("\n## ", 1)[0]


def test_readme_api_snippet_runs():
    code = re.search(r"```python\n(.*?)```", _api_section(), re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    tower, elements = namespace["tower"], namespace["elements"]
    formatted = [namespace["format_bh"](tower.dilator, e) for e in elements]
    assert formatted[:2] == ["@0:th(top)", "@1:th(v0;th(top))"]
    witness = namespace["OmegaSuccessorWitness"]()
    assert namespace["embed_bh"](witness, elements[3]) == 3


def test_top_level_surface_is_the_documented_one():
    assert set(bhfix.__all__) == DOCUMENTED
    assert len(bhfix.__all__) == len(DOCUMENTED)
    section = _api_section()
    for name in DOCUMENTED:
        assert f"`{name}`" in section, name
        assert hasattr(bhfix, name)
