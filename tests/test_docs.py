"""Documentation gates: links, documented imports, docstring coverage.

Four things are enforced here (and re-run by the CI ``docs`` job):

* every relative link in ``README.md`` and ``docs/*.md`` points at a file
  that actually exists in the repository (external ``http(s)`` links and
  pure in-page anchors are skipped);
* every ``import repro...`` / ``from repro... import ...`` statement inside
  a fenced python block of those files executes, so deleting a public name
  cannot leave a documented import dangling;
* every backticked state-protocol verb those files, the
  ``repro.streaming`` sources or the test harness that forwards the
  protocol (``tests/streaming_harness.py``) name (``*_state``, ``count_batch``,
  ``resident_indices``, ``drain_channel_bytes``) is a method of
  ``ExecutionBackend``, so a deleted verb cannot survive in prose;
* every public module, class, function and method in ``repro.streaming``
  and ``repro.obs`` carries a docstring -- the same contract as ruff's
  pydocstyle ``D1`` rules (minus ``D107``: ``__init__`` parameters are
  documented in the class docstring, numpydoc style), checked here with a
  plain AST walk so the gate also runs where ruff is not installed.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
STREAMING_DIR = REPO_ROOT / "src" / "repro" / "streaming"
OBS_DIR = REPO_ROOT / "src" / "repro" / "obs"

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
PROTOCOL_VERB = re.compile(
    r"`(?:[\w.~]*\.)?"
    r"(\w+_state|count_batch|resident_indices|drain_channel_bytes)"
    r"(?:\([^`]*\))?`"
)


def markdown_files() -> list[Path]:
    """README plus everything under docs/."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return files


def test_docs_directory_exists():
    """The docs site must ship with the repository."""
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "streaming.md").is_file()


@pytest.mark.parametrize("path", markdown_files(), ids=lambda p: p.name)
def test_markdown_links_resolve(path):
    """Every relative markdown link points at an existing file."""
    assert path.is_file(), f"missing markdown file {path}"
    broken = []
    for target in LINK_PATTERN.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target_path = (path.parent / target.split("#", 1)[0]).resolve()
        if not target_path.exists():
            broken.append(target)
    assert not broken, f"{path.name}: broken relative links {broken}"


@pytest.mark.parametrize("path", markdown_files(), ids=lambda p: p.name)
def test_documented_repro_imports_execute(path):
    """Every ``repro`` import in a fenced python block names real things."""
    dangling = []
    for block in PYTHON_BLOCK.findall(path.read_text()):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if not any(m.split(".")[0] == "repro" for m in modules):
                continue
            statement = ast.unparse(node)
            try:
                exec(statement, {})
            except (ImportError, AttributeError) as error:
                dangling.append(f"{statement!r}: {error}")
    assert not dangling, f"{path.name}: dangling documented imports {dangling}"


@pytest.mark.parametrize(
    "path",
    markdown_files()
    + sorted(STREAMING_DIR.glob("*.py"))
    + [REPO_ROOT / "tests" / "streaming_harness.py"],
    ids=lambda p: p.name,
)
def test_named_protocol_verbs_exist(path):
    """Every backticked state-protocol verb is an ``ExecutionBackend`` method."""
    from repro.streaming import ExecutionBackend

    verbs = set(PROTOCOL_VERB.findall(path.read_text()))
    stale = sorted(v for v in verbs if not callable(getattr(ExecutionBackend, v, None)))
    assert not stale, f"{path.name} names removed protocol verbs {stale}"


def _is_public(name: str) -> bool:
    """Public means not underscore-private; dunders count as public (D105)."""
    if name.startswith("__") and name.endswith("__"):
        return name != "__init__"  # parameters live in the class docstring
    return not name.startswith("_")


def _missing_docstrings(path: Path) -> list[str]:
    """All public defs in a module that lack a docstring, as dotted names."""
    tree = ast.parse(path.read_text())
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{path.name} (module)")

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if _is_public(child.name) and ast.get_docstring(child) is None:
                    missing.append(name)
                if isinstance(child, ast.ClassDef) and _is_public(child.name):
                    # Members of private classes are private too (pydocstyle
                    # resolves visibility transitively).
                    visit(child, f"{name}.")

    visit(tree, f"{path.stem}.")
    return missing


@pytest.mark.parametrize(
    "path",
    sorted(STREAMING_DIR.glob("*.py")) + sorted(OBS_DIR.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_streaming_public_api_is_documented(path):
    """repro.streaming/.obs: public modules/classes/functions carry docstrings."""
    missing = _missing_docstrings(path)
    assert not missing, (
        f"undocumented public names in {path.name}: {missing} "
        "(pydocstyle D1 gate, see docs/ and CONTRIBUTING notes in README)"
    )
