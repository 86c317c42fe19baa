"""``import xmtrack`` gives the documented API and nothing else.

The root's names are the ones README's Python API section lists and imports
and the ones the benchmark's set-up probe (``bench/startup.py``) reads as
``xmtrack.X``; both are parsed from their files so that neither can drift
from the root.  Every other name is imported from its own module.
"""

import ast
import re
import types
from pathlib import Path

import xmtrack

ROOT = Path(__file__).resolve().parents[1]

ROOT_API = {
    "BBox", "FrameInput", "HarnessConfig", "Image", "Scenario", "SessionConfig", "TrackerSession",
    "TriState", "apply_stack", "classify_sequence", "generate", "iou", "run",
    "separator_switch_weights", "tag_breakdown",
}


def _readme_api_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Python API", 1)[1].split("\n## ", 1)[0]


def test_root_exports_exactly_the_documented_api():
    public = {
        name
        for name, value in vars(xmtrack).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == ROOT_API
    assert xmtrack.__version__


def test_bench_startup_reads_only_root_names():
    tree = ast.parse((ROOT / "bench" / "startup.py").read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "xmtrack"
    }
    read = {name for name in read if not name.startswith("__")}
    assert read and read <= ROOT_API


def test_readme_imports_and_lists_only_root_names():
    section = _readme_api_section()
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "xmtrack"
        for alias in node.names
    }
    assert imported and imported <= ROOT_API
    listing = section.split("`import xmtrack` gives", 1)[1].split("Every other name", 1)[0]
    assert set(re.findall(r"`(\w+)`", listing)) == ROOT_API
