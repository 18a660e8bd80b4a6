"""The README's examples run as written."""

import re
from pathlib import Path

from paramhom.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(lang: str, marker: str) -> str:
    """The one fenced `lang` block of the README that mentions `marker`."""
    found = [b for b in re.findall(rf"```{lang}\n(.*?)```", README, re.S) if marker in b]
    assert len(found) == 1, (lang, marker, len(found))
    return found[0]


def test_circle_document_runs_through_the_cli(tmp_path, capsys):
    path = tmp_path / "circle.json"
    path.write_text(block("json", '"critical_values"'))
    assert main(["diagram", str(path)]) == 0
    capsys.readouterr()
    assert main(["measure", str(path), "--dim", "0", "--type", "cc",
                 "--rect=-1,0,1,2"]) == 0
    value, check = capsys.readouterr().out.splitlines()
    assert value == "1"
    assert "agree" in check and "DISAGREE" not in check


def test_library_example():
    scope: dict = {}
    exec(block("python", "measure_profile"), scope)
    assert scope["m"] == 1
