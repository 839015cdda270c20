"""The README's examples run as written and print what their comments say."""

import re
import shlex
from pathlib import Path

from acbm.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fenced(heading: str, lang: str) -> str:
    """The first fenced block in the language under the second-level heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_library_quickstart(capsys):
    code = _fenced("Library quickstart", "python")
    expected = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.MULTILINE)
    assert expected == ["('F9', 'F10')", "('F4',)"]
    exec(code, {})
    # the first print, of the magnitudes array, may take several lines
    assert capsys.readouterr().out.splitlines()[-2:] == expected


def test_cli_examples(tmp_path, monkeypatch, capsys):
    """The gen, classify and project lines, in order, in one directory; verify
    is left to the suites' own tests."""
    monkeypatch.chdir(tmp_path)
    shown = []
    for line in _fenced("CLI", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] != ["acbm"] or argv[1] not in ("gen", "classify", "project"):
            continue
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if comment.strip().startswith("classes:"):
            assert comment.strip() in out.splitlines(), line
            shown.append(comment.strip())
    assert shown == ["classes: F4 F5", "classes: F9 F10"]
    assert (tmp_path / "f4.json").is_file()
