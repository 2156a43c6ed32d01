"""The README's python blocks run as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert "('M1', 'M2') q\np\n" in out
    assert "(3, 6, 6) (3,)\nTrue\n" in out
