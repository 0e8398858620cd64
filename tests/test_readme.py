"""The README's library example runs as written, so a public name it uses
cannot be renamed or deleted while the docs still show it."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in code
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})
