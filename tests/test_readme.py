"""The README's public API list against ``qcp.__all__``."""

import re
from pathlib import Path

import qcp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_api_section_names_every_export():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Public API$(.*?)^## ", text, re.M | re.S)[1]
    named = set(re.findall(r"`([^`]+)`", section))
    assert sorted(set(qcp.__all__) - named) == []
