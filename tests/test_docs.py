"""Docs stay executable: every repo markdown's snippets and links.

Runs ``tools/check_docs.py`` in discovery mode (the same invocation
CI's docs job uses): every fenced ```python block in every discovered
``*.md`` — top-level files and ``docs/`` alike — must execute against
the current code, and every relative link must resolve.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from check_docs import (  # noqa: E402
    EXCLUDED_NAMES,
    check_code_references,
    check_dotted_names,
    discover_markdown,
)


def test_discovery_covers_docs_and_top_level():
    found = discover_markdown()
    assert "README.md" in found and "ARCHITECTURE.md" in found
    assert "docs/serving.md" in found and "docs/benchmarks.md" in found
    assert "ISSUE.md" not in found and "ISSUE.md" in EXCLUDED_NAMES
    assert not any(part.startswith(".") for f in found for part in Path(f).parts)


def test_docs_snippets_and_links():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, f"docs check failed:\n{proc.stdout}\n{proc.stderr}"
    for required in ("README.md", "ARCHITECTURE.md",
                     os.path.join("docs", "serving.md"),
                     os.path.join("docs", "benchmarks.md")):
        assert required in proc.stdout, f"{required} not checked"


def test_dotted_names_must_resolve(tmp_path):
    text = (
        "`repro.engine.QueryEngine` and `repro.engine.replay` resolve; "
        "`repro.core.no_such_module.Thing` and `repro.engine.NoSuchName` "
        "do not; `python -m repro.bench` is a command, not a name.\n"
    )
    doc = tmp_path / "GUIDE.md"
    doc.write_text(text)
    errors = check_dotted_names(doc, text)
    assert len(errors) == 2
    assert "repro.core.no_such_module.Thing" in errors[0]
    assert "repro.engine.NoSuchName" in errors[1]
    history = tmp_path / "CHANGES.md"
    history.write_text(text)
    assert check_dotted_names(history, text) == []


def test_documents_named_in_code_must_exist(tmp_path):
    (tmp_path / "README.md").write_text("")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "serving.md").write_text("")
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        '"""See README.md and docs/serving.md.\n\n'
        "The reason lives in DESIGN.md (section 4).\n"
        'Usage: tool --markdown out.md\n"""\n'
    )
    assert check_code_references(tmp_path) == [
        "src/pkg/mod.py:3: names missing document DESIGN.md"
    ]


def test_excluded_documents_named_in_code_may_be_absent(tmp_path):
    tools = tmp_path / "tools"
    tools.mkdir()
    (tools / "skips.py").write_text("".join(
        f"# Discovery skips {name}.\n" for name in sorted(EXCLUDED_NAMES)))
    (tools / "names.py").write_text('"""The reason lives in FOO.md."""\n')
    assert check_code_references(tmp_path) == [
        "tools/names.py:1: names missing document FOO.md"
    ]
