"""The README's library example runs as written, so a public name it uses
cannot be renamed or deleted while the docs still show it; its config
example lists the code families and failure models the CLI's tables hold."""

from pathlib import Path

from npcode.cli import FAILURE_MODELS, FAMILIES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in code
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})


def config_options(key):
    """The ``name (key, ...) | ...`` comment on the config example's ``key`` line."""
    block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    line = next(line for line in block.splitlines() if line.startswith(f"{key} = "))
    options = []
    for option in line.split("#", 1)[1].split("|"):
        name, _, keys = option.strip().partition(" ")
        options.append((name, tuple(keys.strip("()").split(", ")) if keys else ()))
    return options


def test_config_comments_list_the_tables():
    assert config_options("code_family") == [(name, row.keys) for name, row in FAMILIES.items()]
    assert config_options("failure_model") == [(name, row.keys) for name, row in FAILURE_MODELS.items()]
