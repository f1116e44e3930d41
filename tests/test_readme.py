"""README's library entry points are importable as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block_under(heading: str) -> str:
    """The first ```python block after a markdown heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_entry_points_import():
    block = python_block_under("## Library entry points")
    assert "import" in block
    exec(compile(block, "README.md", "exec"), {})
