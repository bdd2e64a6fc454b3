import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs_as_documented(capsys):
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(snippet, str(README), "exec"), {})
    energy_error, final = capsys.readouterr().out.splitlines()
    assert float(energy_error) <= 1e-12  # the snippet's comment says ~1e-13
    assert float(final.split()[0]) == 2 * math.pi
