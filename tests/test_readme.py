"""The README's library example runs as printed."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    # [L_(3), L_(-2)] = 5 L_(0) in the Virasoro mode algebra
    assert capsys.readouterr().out == "{('L', 0): Scalar(5)}\n"
