"""The README's public API list against ``qcp.__all__``, both ways."""

import re
from pathlib import Path

import qcp

README = Path(__file__).resolve().parent.parent / "README.md"


def _public_api_section() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Public API$(.*?)^## ", text, re.M | re.S)[1]


def test_public_api_section_names_every_export():
    named = set(re.findall(r"`([^`]+)`", _public_api_section()))
    assert sorted(set(qcp.__all__) - named) == []


def test_public_api_bullets_name_only_exports():
    # the section's first list: a bullet is its "- " line and the indented
    # lines that continue it
    bullet = r"- .*\n(?:[ \t]+\S.*\n)*"
    kinds = re.search(rf"^(?:{bullet})+", _public_api_section(), re.M)[0]
    assert len(re.findall(rf"^{bullet}", kinds, re.M)) == 3
    named = set(re.findall(r"`([^`]+)`", kinds))
    # q0 is a field of CollapseReport, not a name of its own
    assert sorted(named - set(qcp.__all__) - {"q0"}) == []
