"""Docs checker: execute fenced python snippets and verify local references.

Keeps the repo's markdown honest — every ```python block must actually
run against the current code, every relative markdown link must point
at a file that exists, every backticked ``repro.…`` name must resolve,
and every document the code names must exist. With no arguments it
**discovers every ``*.md`` file in the repository recursively**
(``docs/`` included), so new documents can never silently rot outside
the check. CI runs this alongside the test workflow; locally::

    PYTHONPATH=src python tools/check_docs.py              # everything
    PYTHONPATH=src python tools/check_docs.py docs/serving.md

Rules:

* ```python blocks in one file are executed **cumulatively**, top to
  bottom, in a single shared namespace — later snippets may use names
  the earlier ones defined (mirroring how a reader follows the doc).
* Blocks fenced with any other language (```bash, ```text, …) are
  skipped.
* Relative links/images ``[text](target)`` are resolved against the
  linking file's directory and must exist (``http(s):``/``mailto:``
  and ``#anchor`` links are skipped).
* A backticked dotted name ``repro.…`` must import and resolve: the
  longest importable prefix is imported and the rest looked up as
  attributes. Files in :data:`HISTORY_NAMES` are exempt, because a
  history names code that was later deleted.
* In discovery mode, every markdown document named in a ``.py`` file
  under :data:`CODE_DIRS` must exist, at the repo root or next to the
  file. A document name is an upper-case top-level name
  (``README.md``) or a path with a directory (``docs/serving.md``);
  other ``*.md`` names, such as an output file in a usage example, are
  not references, and neither are the files in :data:`EXCLUDED_NAMES`.
* Discovery skips hidden directories (``.git`` and friends) and the
  files in :data:`EXCLUDED_NAMES` (``ISSUE.md`` is per-PR scratch
  state, not documentation). Explicitly named files are always
  checked, excluded or not.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: file names discovery skips (explicit arguments override this)
EXCLUDED_NAMES = frozenset({"ISSUE.md"})
#: files whose dotted names are not resolved: a history names code that
#: was deleted on purpose
HISTORY_NAMES = frozenset({"CHANGES.md"})
#: code directories whose ``.py`` files may name markdown documents
CODE_DIRS = ("src", "benchmarks", "examples", "tools")

FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
DOTTED_RE = re.compile(r"`(repro(?:\.\w+)+)`")
DOC_NAME_RE = re.compile(
    r"(?<![\w./-])((?:[\w-]+/)+[\w.-]+\.md|[A-Z][A-Z0-9_-]*\.md)\b"
)


def discover_markdown(root: Path = REPO_ROOT) -> list[str]:
    """Every ``*.md`` under ``root``, repo-root-relative, sorted —
    skipping hidden directories and :data:`EXCLUDED_NAMES`."""
    found = []
    for path in sorted(root.rglob("*.md")):
        rel = path.relative_to(root)
        if any(part.startswith(".") for part in rel.parts):
            continue
        if path.name in EXCLUDED_NAMES:
            continue
        found.append(str(rel))
    return found


def extract_python_blocks(text: str) -> list[tuple[int, str]]:
    """``(starting line number, source)`` for every ```python block."""
    blocks: list[tuple[int, str]] = []
    in_block = False
    lang = ""
    buf: list[str] = []
    start = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        m = FENCE_RE.match(line.strip())
        if m and not in_block:
            in_block, lang, buf, start = True, m.group(1).lower(), [], lineno + 1
        elif line.strip() == "```" and in_block:
            if lang == "python":
                blocks.append((start, "\n".join(buf)))
            in_block = False
        elif in_block:
            buf.append(line)
    return blocks


def check_links(path: Path, text: str) -> list[str]:
    errors = []
    for m in LINK_RE.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#")[0]).resolve()
        if not resolved.exists():
            errors.append(f"{path.name}: broken link -> {target}")
    return errors


def resolve_dotted(name: str):
    """The object a dotted name denotes: its longest importable prefix,
    then attribute lookups. Raises ``ImportError``/``AttributeError``."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        module_name = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name != module_name:
                raise  # the module exists but one of its imports fails
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(f"no module named {parts[0]!r}", name=parts[0])


def check_dotted_names(path: Path, text: str) -> list[str]:
    if path.name in HISTORY_NAMES:
        return []
    errors = []
    for name in sorted(set(DOTTED_RE.findall(text))):
        try:
            resolve_dotted(name)
        except (ImportError, AttributeError) as exc:
            errors.append(f"{path.name}: `{name}` does not resolve: {exc}")
    return errors


def check_code_references(root: Path = REPO_ROOT) -> list[str]:
    """Every markdown document named in a ``.py`` file under
    :data:`CODE_DIRS` must exist at ``root`` or next to the file;
    :data:`EXCLUDED_NAMES` may be absent."""
    errors = []
    for code_dir in CODE_DIRS:
        for py in sorted((root / code_dir).rglob("*.py")):
            for lineno, line in enumerate(py.read_text().splitlines(), 1):
                for name in DOC_NAME_RE.findall(line):
                    if Path(name).name in EXCLUDED_NAMES:
                        continue
                    if not ((root / name).exists() or (py.parent / name).exists()):
                        errors.append(
                            f"{py.relative_to(root)}:{lineno}: names missing "
                            f"document {name}"
                        )
    return errors


def check_snippets(path: Path, text: str) -> list[str]:
    errors = []
    namespace: dict = {"__name__": f"docs_{path.stem}"}
    for start, source in extract_python_blocks(text):
        try:
            code = compile(source, f"{path.name}:{start}", "exec")
            exec(code, namespace)  # noqa: S102 - that is the point
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"{path.name}:{start}: snippet failed: {exc!r}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*",
        help="markdown files to check (default: discover every *.md "
             "in the repo, excluding hidden dirs and ISSUE.md)",
    )
    args = parser.parse_args(argv)
    files = args.files or discover_markdown()

    errors: list[str] = []
    for name in files:
        path = (REPO_ROOT / name).resolve()
        if not path.exists():
            errors.append(f"missing doc file: {name}")
            continue
        text = path.read_text()
        errors += check_links(path, text)
        errors += check_snippets(path, text)
        errors += check_dotted_names(path, text)
        n = len(extract_python_blocks(text))
        print(f"{name}: {n} python snippet(s) executed")
    if not args.files:
        errors += check_code_references()
    for e in errors:
        print(f"ERROR: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
