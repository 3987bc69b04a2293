import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    # the first python block under "## Library use", executed verbatim
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert namespace["queries"].shape == (50, 8)
    assert 0 < namespace["held_out_map"] <= 1
